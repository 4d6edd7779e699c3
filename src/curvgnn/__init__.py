"""Hyperbolic graph neural network with adaptive curvature search.

Node embeddings live on a variable-curvature hyperboloid; a two-agent
Nash Q-learning loop co-learns the curvature of the space alongside the
network, scored by link-prediction or node-classification quality.
"""

from . import autodiff, curvature, graphs, layers, manifold, nashq, training
from .training import RunConfig, train

__version__ = "0.1.0"

__all__ = [
    "autodiff", "curvature", "graphs", "layers", "manifold", "nashq",
    "training", "RunConfig", "train",
]
