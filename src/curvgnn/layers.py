"""Hyperbolic GNN layers at one curvature, decoders, and losses.

The geometry comes from the tape ops of ``manifold`` (exp and log at the
origin, the exp map, the weighted sum of log maps, transport from the
origin, the distance of row pairs), so gradients flow to the Euclidean
parameters and the decoder scores the same distances as the diagnostics.
A training step's tape keeps only what a VJP cannot rebuild in a pass
or two: the decoder's one tape node per pair set keeps (P,) rows and
rebuilds the pairs' row differences from the embeddings, the attention
node keeps (E, 1) weights and rebuilds its hidden rows from its inputs,
and dropout keeps a boolean mask. Every trainable parameter (weights,
biases, attention) lives in tangent space at the origin; the model's
curvature ``HyperbolicGNN.zeta`` is a plain float managed outside
gradient descent, and every layer runs at it.

The curvature is a change of scale. x -> s x maps the hyperboloid at zeta
onto the one at s zeta and multiplies distances by s; every map of a layer
commutes with it when its tangent arguments scale by s, attention is
unchanged when att_b1 scales by s and att_w2 by 1/s, and relu and dropout
are positively homogeneous. So the model at s zeta, with the first W and
every b and att_b1 times s and every att_w2 over s, embeds s times what the
model at zeta embeds. What zeta changes is the LP decoder's scale (the
scores at zeta are those at 1 with FERMI_DIRAC_R / zeta^2 and
FERMI_DIRAC_T / zeta^2) and the optimiser's parametrisation (Adam, weight
decay and the Glorot initialisation see parameters whose useful size
scales with zeta). For NC it changes nothing: ``nc_logits`` reads the log
at the origin, so W_cls absorbs it. A separate zeta per layer would add
nothing either, since the next layer's W absorbs an inner layer's zeta.

Layers exchange origin-tangent coordinates, and the model lifts onto the
hyperboloid once, at its output: HGCN's wrap of each activation onto the
next layer's hyperboloid is undone by that layer's first step, log_o.

Message passing runs over the graph's own CSR edges, never a dense
attention matrix. A node's self-loop is no edge row: its log map is
exactly 0, and its attention score needs only the node's own rows. On the
E = 2m message edges each layer keeps only what needs a pair of
endpoints:

* per node (n rows): one tape node each for the linear transform's matmul,
  exp at the origin, bias transport and exp step, for both logs at the
  origin, for the exp map of the aggregate and for the activation (the
  geometry ops are ``manifold``'s one-node maps); both halves of the
  attention projection and the self-loop scores run inside
  ``attention_weights``;
* per edge (E rows): two tape ops with closed-form VJPs. ``attention_weights``
  sums the two gathered projections and takes their relu, output score and
  segment softmax; ``manifold.sum_logs`` forms the distance coefficient of
  each log map and sums the weighted source rows. The log map vectors
  themselves are never formed per edge.

``message_edges`` builds the message graph's ``autodiff.EdgePlan`` once;
every per-edge sum of both ops, forward and backward, is its
``sum_by_dst``, and a sum by src runs over the reverse edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import DataError, Graph
from .manifold import (dist_pairs, exp_at, exp_origin, log_origin, sum_logs,
                       transport_from_origin)


# ---------------------------------------------------------------------------
# layer parameters
# ---------------------------------------------------------------------------

@dataclass
class LayerParams:
    """One layer's trainable tensors."""

    W: Tensor
    b: Tensor
    att_w1: Tensor
    att_b1: Tensor
    att_w2: Tensor

    TENSORS = ("W", "b", "att_w1", "att_b1", "att_w2")  # the tensor fields above, in order

    def tensors(self) -> list:
        return [getattr(self, name) for name in self.TENSORS]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_layer(rng: np.random.Generator, d_in: int, d_out: int) -> LayerParams:
    return LayerParams(
        W=Tensor(_glorot(rng, d_in, d_out), requires_grad=True),
        b=Tensor(np.zeros(d_out), requires_grad=True),
        att_w1=Tensor(_glorot(rng, 2 * d_out, d_out), requires_grad=True),
        att_b1=Tensor(np.zeros(d_out), requires_grad=True),
        att_w2=Tensor(_glorot(rng, d_out, 1), requires_grad=True),
    )


def _saved_array(what: str, like: Tensor, value, path) -> np.ndarray:
    """A snapshot's value for the tensor `like`, as float64; a DataError
    naming `path` unless it is an array of finite numbers of like's shape."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        array = None
    if array is None or array.shape != like.data.shape or not np.isfinite(array).all():
        raise DataError(f"model {what} must be a {like.data.shape} array of finite numbers",
                        path)
    return array


def message_edges(g: Graph) -> ad.EdgePlan:
    """The edge plan of g's CSR adjacency: dst i's segment holds its sorted
    neighbours, and an isolated node's segment is empty. The plan's first
    fields are (src, dst, counts)."""
    return ad.edge_plan(g.indices, g.indptr)


# ---------------------------------------------------------------------------
# layer operations
# ---------------------------------------------------------------------------

def linear_transform(t, W, b, zeta: float) -> Tensor:
    """Hyperboloid matrix multiply of tangent coordinates t then bias:
    exp_o(t W), offset by b.

    The bias is parallel-transported from the origin's tangent space to the
    transformed point and applied with an exponential step there.
    """
    point = exp_origin(ad.matmul(t, W), zeta)
    carried = transport_from_origin(point, b, zeta)
    return exp_at(point, carried, zeta)


def _attention_hidden(t: np.ndarray, w1: np.ndarray, b1: np.ndarray, plan: ad.EdgePlan):
    """The relu'd first attention layer of every edge (E, d) and of every
    self-loop (n, d): the two halves of att_w1 multiply the n node rows once,
    and each edge sums its dst's and its src's projection."""
    d = t.shape[1]
    proj_dst = t @ w1[:d] + b1
    proj_src = t @ w1[d:]
    hidden = np.repeat(proj_dst, plan.counts, axis=0)
    hidden += np.take(proj_src, plan.src, axis=0)
    proj_dst += proj_src
    return np.maximum(hidden, 0.0, out=hidden), np.maximum(proj_dst, 0.0, out=proj_dst)


def attention_weights(tang, params: LayerParams, plan: ad.EdgePlan) -> Tensor:
    """Softmax over each dst's neighbours and itself of the MLP score of
    [tang_dst, tang_src]; the (E, 1) neighbour weights, one tape node with
    inputs tang, att_w1, att_b1 and att_w2.

    The first layer is linear, so each half of att_w1 multiplies the n node
    rows once; per edge only the sum of two gathered rows, the relu, the
    (d, 1) output projection and the softmax remain. Each node's self-loop
    score comes from its own rows and joins its segment's max and, after
    the neighbour sum, its denominator. Its weight is not returned: it
    multiplies a log map that is exactly 0, so its gradient is 0. The
    softmax ignores a shift shared by a segment, so the output projection
    has no bias. Its denominators and every per-edge sum of the VJP are the
    plan's ``sum_by_dst``.

    The node keeps only the (E, 1) and (n, 1) weights besides its inputs.
    Its VJP rebuilds the (E, d) and (n, d) hidden rows from tang and the
    unchanged att_w1 and att_b1 (``_attention_hidden``, as the forward
    does), takes att_w2's gradient and a boolean relu mask from them and
    drops them before it builds its (E, d) gradient rows.
    """
    tang = ad.as_tensor(tang)
    w1, b1, w2 = params.att_w1, params.att_b1, params.att_w2
    t = tang.data
    d = t.shape[1]
    counts = plan.counts
    hidden, hidden_self = _attention_hidden(t, w1.data, b1.data, plan)
    scores = hidden @ w2.data
    score_self = hidden_self @ w2.data
    del hidden, hidden_self
    peak = score_self.copy()
    np.maximum.at(peak[:, 0], plan.dst, scores[:, 0])
    e = np.exp(scores - np.repeat(peak, counts, axis=0))
    e_self = np.exp(score_self - peak)
    denom = plan.sum_by_dst(e) + e_self
    weights = e / np.repeat(denom, counts, axis=0)
    w_self = e_self / denom

    def vjp(g):
        g_sum = plan.sum_by_dst(g * weights)
        g_scores = weights * (g - np.repeat(g_sum, counts, axis=0))
        g_self = w_self * -g_sum
        hidden, hidden_self = _attention_hidden(t, w1.data, b1.data, plan)
        g_w2 = hidden.T @ g_scores + hidden_self.T @ g_self
        live, live_self = hidden > 0.0, hidden_self > 0.0
        del hidden, hidden_self
        g_hidden = g_scores @ w2.data.T
        g_hidden *= live
        g_hidden_self = (g_self @ w2.data.T) * live_self
        g_dst = plan.sum_by_dst(g_hidden) + g_hidden_self
        g_hidden = np.take(g_hidden, plan.rev, axis=0)
        g_src = plan.sum_by_dst(g_hidden) + g_hidden_self
        del g_hidden
        return (g_dst @ w1.data[:d].T + g_src @ w1.data[d:].T,
                np.concatenate([t.T @ g_dst, t.T @ g_src]),
                g_dst.sum(axis=0),
                g_w2)

    return ad._make(weights, (tang, w1, b1, w2), vjp)


def layer_forward(t, g: Graph, params: LayerParams, zeta: float, *,
                  dropout: float = 0.0, training: bool = False,
                  rng: np.random.Generator | None = None, edges: ad.EdgePlan) -> Tensor:
    """One message-passing layer: transform, attend, aggregate, relu.

    Takes and returns origin-tangent coordinates, (n, d_in) -> (n, d_out);
    in between, the points live on the hyperboloid at zeta.
    Dropout hits the tangent-space pre-activation and only while training.
    ``edges`` is g's plan, ``message_edges(g)``.
    """
    h1 = linear_transform(t, params.W, params.b, zeta)
    w = attention_weights(log_origin(h1, zeta), params, edges)
    pulled = sum_logs(h1, edges, w, zeta)
    h2 = exp_at(h1, pulled, zeta)
    tang = log_origin(h2, zeta)
    if training and dropout > 0.0:
        if rng is None:
            raise ValueError("training dropout requires an rng")
        tang = ad.dropout(tang, dropout, rng)
    return ad.relu(tang)


class HyperbolicGNN:
    """Stack of layers at one curvature zeta plus the task decoder parameters."""

    def __init__(self, in_dim: int, dim: int, n_layers: int, zeta0: float,
                 rng: np.random.Generator, *, dropout: float = 0.0,
                 n_classes: int | None = None):
        """A classifier head is built iff n_classes is given (node classification)."""
        self.dropout = dropout
        self.zeta = float(zeta0)
        self.layers: list[LayerParams] = []
        d_prev = in_dim
        for _ in range(n_layers):
            self.layers.append(init_layer(rng, d_prev, dim))
            d_prev = dim
        self.W_cls = None
        self.b_cls = None
        if n_classes is not None:
            if n_classes < 2:
                raise ValueError("node classification needs >= 2 classes")
            self.W_cls = Tensor(_glorot(rng, dim, n_classes), requires_grad=True)
            self.b_cls = Tensor(np.zeros(n_classes), requires_grad=True)

    def parameters(self) -> list:
        params = [t for layer in self.layers for t in layer.tensors()]
        if self.W_cls is not None:
            params += [self.W_cls, self.b_cls]
        return params

    def snapshot(self) -> dict:
        """Parameters as JSON-ready lists, and the curvature: the
        checkpoint's "model" value, which `restore` reads back exactly."""
        blob = {"layers": [{name: getattr(layer, name).data.tolist()
                            for name in LayerParams.TENSORS} for layer in self.layers],
                "zeta": self.zeta}
        if self.W_cls is not None:
            blob["W_cls"] = self.W_cls.data.tolist()
            blob["b_cls"] = self.b_cls.data.tolist()
        return blob

    def restore(self, blob, path=None) -> None:
        """Read a `snapshot` back exactly, or change nothing. A malformed one
        is a DataError naming `path`, the file it came from; one with
        another layer count is a ValueError."""
        if not isinstance(blob, dict) or not isinstance(blob.get("layers"), list):
            raise DataError("model must be an object with a list of layers", path)
        if len(blob["layers"]) != len(self.layers):
            raise ValueError(f"snapshot has {len(blob['layers'])} layers, "
                             f"the model {len(self.layers)}")
        zeta = blob.get("zeta")
        if type(zeta) not in (int, float) or not 0.0 < zeta < np.inf:  # no bool
            raise DataError(f"model zeta must be a positive finite number, got {zeta!r}",
                            path)
        slots = [(f"layer {i} {name}", getattr(layer, name),
                  saved.get(name) if isinstance(saved, dict) else None)
                 for i, (layer, saved) in enumerate(zip(self.layers, blob["layers"]))
                 for name in LayerParams.TENSORS]
        if self.W_cls is not None:
            slots += [("W_cls", self.W_cls, blob.get("W_cls")),
                      ("b_cls", self.b_cls, blob.get("b_cls"))]
        arrays = [_saved_array(what, tensor, value, path) for what, tensor, value in slots]
        for (_, tensor, _), array in zip(slots, arrays):
            tensor.data = array
        self.zeta = float(zeta)

    def forward(self, g: Graph, *, training: bool = False,
                rng: np.random.Generator | None = None,
                edges: ad.EdgePlan | None = None) -> Tensor:
        """Embeddings at the model's curvature, shape (n, dim+1); the
        features enter as tangent coordinates, and only the output is lifted."""
        if g.features is None:
            raise ValueError("graph has no features")
        edges = message_edges(g) if edges is None else edges
        t = Tensor(np.asarray(g.features, dtype=np.float64))
        for layer in self.layers:
            t = layer_forward(t, g, layer, self.zeta, dropout=self.dropout,
                              training=training, rng=rng, edges=edges)
        return exp_origin(t, self.zeta)


# ---------------------------------------------------------------------------
# decoders and losses
# ---------------------------------------------------------------------------

# the Fermi-Dirac decoder's radius r and temperature t in
# 1 / (exp((d^2 - r) / t) + 1), as in HGCN (Chami et al., NeurIPS 2019)
FERMI_DIRAC_R = 2.0
FERMI_DIRAC_T = 1.0


def _edge_logits(emb: Tensor, edges: np.ndarray, zeta: float) -> Tensor:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    d = dist_pairs(emb, edges[:, 0], edges[:, 1], zeta)
    return ad.scale(ad.neg(d * d) + FERMI_DIRAC_R, 1.0 / FERMI_DIRAC_T)


def lp_scores(emb, edges, zeta: float) -> np.ndarray:
    """Fermi-Dirac probabilities for the given node pairs."""
    return ad.sigmoid(_edge_logits(ad.as_tensor(emb), edges, zeta)).data


def lp_loss(emb, pos_edges, neg_edges, zeta: float) -> Tensor:
    """Mean binary cross-entropy of the decoder over positives and negatives."""
    pos_edges = np.asarray(pos_edges).reshape(-1, 2)
    neg_edges = np.asarray(neg_edges).reshape(-1, 2)
    if pos_edges.size == 0 or neg_edges.size == 0:
        raise ValueError("both edge sets must be nonempty")
    emb = ad.as_tensor(emb)
    pos = ad.softplus(ad.neg(_edge_logits(emb, pos_edges, zeta)))
    neg = ad.softplus(_edge_logits(emb, neg_edges, zeta))
    total = ad.tsum(pos) + ad.tsum(neg)
    return ad.scale(total, 1.0 / (len(pos_edges) + len(neg_edges)))


def nc_logits(emb, zeta: float, W_cls, b_cls) -> Tensor:
    """Per-node class scores: affine map on the origin tangent coordinates."""
    tang = log_origin(ad.as_tensor(emb), zeta)
    return ad.matmul(tang, ad.as_tensor(W_cls)) + ad.as_tensor(b_cls)


def nc_loss(logits: Tensor, labels: np.ndarray, node_ids: np.ndarray) -> Tensor:
    """Softmax cross-entropy over the given node subset."""
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.size == 0:
        raise ValueError("empty node subset")
    rows = ad.gather_rows(logits, node_ids)
    lse = ad.logsumexp(rows)
    n_classes = logits.data.shape[-1]
    onehot = np.zeros((node_ids.size, n_classes))
    onehot[np.arange(node_ids.size), np.asarray(labels)[node_ids]] = 1.0
    true_logit = ad.tsum(rows * Tensor(onehot), axis=-1)
    return ad.tmean(lse - true_logit)
