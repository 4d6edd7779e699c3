"""Graph data model, file ingestion, task splits, and hop-distance machinery.

A graph is CSR adjacency (``indptr``, ``indices``) with each node's
neighbours sorted; every reader (message passing, the kappa sampler, BFS
kernels) takes those two arrays.

File formats:
  * edge list  — UTF-8 text, one ``u<TAB>v`` pair of 0-based integer ids per
    line; ``#`` starts a comment; duplicate and reversed pairs collapse to a
    single undirected edge; self-loops are dropped.
  * features   — CSV (row i = node i, no header) or a JSON manifest
    ``{"n": int, "f": int, "rows": [[...], ...]}``.
  * labels     — CSV ``node_id,class_id``.

Every input file (these three, a run config, a checkpoint) is read here as
UTF-8, and a line ends at ``\n``, ``\r\n`` or a lone ``\r`` (Python's
universal newlines; no other character ends one). A byte that is not
UTF-8, a non-finite feature value, or a node or class id that does not fit
in int64 is a DataError naming the file and line.

A graph read from files has at most MAX_NODES nodes, and an edge list
whose largest id would size it beyond that is a DataError naming the file:
`indptr` alone takes 8 (n + 1) bytes (128 MiB at the limit), and the
u n + v edge keys of `Graph.from_edges` would overflow int64 above
n ≈ 3.04e9.
"""

from __future__ import annotations

import json
import logging
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels

log = logging.getLogger(__name__)

_INT64_MAX = np.iinfo(np.int64).max  # node and class ids are stored as int64
MAX_NODES = 2 ** 24  # the node limit of the module docstring


class DataError(ValueError):
    """Malformed input data; names the offending file, and its line, when known."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = "" if path is None else f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


@dataclass
class Graph:
    """Undirected graph as CSR adjacency, with optional features and labels.

    Node v's neighbours are ``indices[indptr[v]:indptr[v + 1]]``, sorted
    ascending (int64); every edge is stored in both directions and there
    are no self-loops.
    """

    n_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    @classmethod
    def from_edges(cls, n_nodes: int, edges: np.ndarray,
                   features: np.ndarray | None = None,
                   labels: np.ndarray | None = None) -> "Graph":
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n_nodes):
            raise DataError(f"edge endpoint out of range [0, {n_nodes})")
        u, v = edges[edges[:, 0] != edges[:, 1]].T
        # each directed key once, in (owner, neighbour) order
        keys = _kernels.sorted_unique(np.concatenate([u * n_nodes + v, v * n_nodes + u]))
        owner, indices = np.divmod(keys, n_nodes)
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n_nodes), out=indptr[1:])
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.shape[0] != n_nodes:
                raise DataError(f"{features.shape[0]} feature rows for {n_nodes} nodes")
            if not np.all(np.isfinite(features)):
                raise DataError("non-finite feature values")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape[0] != n_nodes:
                raise DataError(f"{labels.shape[0]} labels for {n_nodes} nodes")
        return cls(n_nodes=n_nodes, indptr=indptr, indices=indices,
                   features=features, labels=labels)

    @property
    def n_edges(self) -> int:
        return self.indices.size // 2

    def edge_array(self) -> np.ndarray:
        """All undirected edges as (m, 2) rows with u < v, sorted."""
        owner = np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.degrees())
        upper = owner < self.indices
        return np.stack([owner[upper], self.indices[upper]], axis=1)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def with_edges(self, edges: np.ndarray) -> "Graph":
        """Same nodes/features/labels, different edge set (e.g. train graph)."""
        return Graph.from_edges(self.n_nodes, edges, self.features, self.labels)


@dataclass
class EdgeSplit:
    """Link-prediction split; negatives are verified non-edges of the graph."""

    train_pos: np.ndarray
    val_pos: np.ndarray
    test_pos: np.ndarray
    val_neg: np.ndarray
    test_neg: np.ndarray


@dataclass
class NodeSplit:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _read_text(path, what: str) -> str:
    """The file at path decoded as UTF-8; DataError naming the file and the
    line of the first byte that is not UTF-8. `what` names the file's role."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        head = raw[:e.start]  # lines end at \n, \r\n or a lone \r
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataError(f"{what} is not UTF-8 text: {e}", path, line) from None


def read_json(path, what: str) -> dict:
    """The JSON object in the file at path; DataError naming the file and line
    when it is not UTF-8 text, not JSON or not an object."""
    try:
        value = json.loads(_read_text(path, what))
    except json.JSONDecodeError as e:
        raise DataError(f"bad {what} JSON: {e}", path, e.lineno) from None
    if not isinstance(value, dict):
        raise DataError(f"{what} must be a JSON object", path, 1)
    return value


def _read_lines(path, what: str):
    """(line number, line) of each line of a UTF-8 text file, split at
    universal newlines exactly as text-mode file iteration splits them,
    each line without its end."""
    text = _read_text(path, what)
    if "\r" in text:  # \r\n and a lone \r end a line as \n does
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # a final line end starts no further line
    return enumerate(lines, start=1)


def load_edge_list(path) -> np.ndarray:
    ids = array("q")  # every edge's two ids, flat, as int64
    for lineno, raw in _read_lines(path, "edge list"):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2:
            raise DataError(f"expected 'u<TAB>v', got {raw.strip()!r}", path, lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"non-integer node id in {raw.strip()!r}", path, lineno)
        if not (0 <= u <= _INT64_MAX and 0 <= v <= _INT64_MAX):
            problem = "negative node id" if min(u, v) < 0 else "node id does not fit in int64"
            raise DataError(f"{problem} in {raw.strip()!r}", path, lineno)
        ids.append(u)
        ids.append(v)
    return np.frombuffer(ids, dtype=np.int64).reshape(-1, 2)


def load_features(path) -> np.ndarray:
    path = str(path)
    if path.endswith(".json"):
        manifest = read_json(path, "feature manifest")
        rows = manifest.get("rows")
        if rows is None:
            raise DataError("manifest missing 'rows'", path, 1)
        try:
            feats = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError):  # ragged, or not numbers
            feats = None
        if feats is None or feats.ndim != 2:
            raise DataError("'rows' must be a list of equal-length lists of numbers",
                            path, 1)
        n, f = manifest.get("n", feats.shape[0]), manifest.get("f", feats.shape[1])
        if feats.shape != (n, f):
            raise DataError(f"manifest says {n}x{f}, rows are {feats.shape}", path, 1)
        if not np.all(np.isfinite(feats)):
            raise DataError("non-finite feature value in 'rows'", path, 1)
        return feats
    values = array("d")  # every row's values, flat, as float64
    lines = []
    width = None
    for lineno, raw in _read_lines(path, "feature file"):
        text = raw.strip()
        if not text:
            continue
        try:
            row = [float(tok) for tok in text.split(",")]
        except ValueError:
            raise DataError(f"non-numeric feature value in row", path, lineno)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(f"row has {len(row)} values, expected {width}", path, lineno)
        values.extend(row)
        lines.append(lineno)
    if not lines:
        raise DataError("empty feature file", path, 1)
    feats = np.frombuffer(values, dtype=np.float64).reshape(len(lines), width)
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        raise DataError("non-finite feature value in row", path, lines[int(finite.argmin())])
    return feats


def load_labels(path, n_nodes: int) -> np.ndarray:
    labels = np.full(n_nodes, -1, dtype=np.int64)
    for lineno, raw in _read_lines(path, "label file"):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise DataError(f"expected 'node_id,class_id', got {text!r}", path, lineno)
        try:
            node, cls = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"non-integer field in {text!r}", path, lineno)
        if not (0 <= node < n_nodes):
            raise DataError(f"node id {node} out of range [0, {n_nodes})", path, lineno)
        if cls < 0:
            raise DataError(f"negative class id {cls}", path, lineno)
        if cls > _INT64_MAX:
            raise DataError(f"class id {cls} does not fit in int64", path, lineno)
        if labels[node] not in (-1, cls):
            raise DataError(
                f"conflicting label for node {node}: {labels[node]} vs {cls}",
                path, lineno)
        labels[node] = cls
    return labels


def load_graph(edge_path, feature_path=None, label_path=None) -> Graph:
    """Assemble a Graph from an edge list plus optional feature/label files."""
    edges = load_edge_list(edge_path)
    features = load_features(feature_path) if feature_path is not None else None
    max_id = int(edges.max()) if edges.size else -1
    if max_id >= MAX_NODES:
        raise DataError(f"node id {max_id} is beyond the limit of {MAX_NODES} nodes",
                        edge_path)
    n_nodes = max(max_id + 1, features.shape[0] if features is not None else 0)
    if features is not None and max_id >= features.shape[0]:
        raise DataError(
            f"edge references node {max_id} but only {features.shape[0]} feature rows",
            edge_path)
    labels = load_labels(label_path, n_nodes) if label_path is not None else None
    return Graph.from_edges(n_nodes, edges, features, labels)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def _edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return lo * n + hi


def sample_negative_edges(g: Graph, count: int, rng: np.random.Generator,
                          forbidden: np.ndarray | None = None) -> np.ndarray:
    """Uniform distinct non-edges via rejection; deterministic under rng state.

    Pairs (u, v) are drawn as consecutive ``rng.integers(0, n)`` values and
    rejected when u == v, when {u, v} is an edge or its key (min*n + max)
    is in the ``forbidden`` key array, or when it repeats an accepted pair.
    The draws come in rounds of exactly as many pairs as are still missing,
    so a round never reads past the pair that completes the sample: output
    and generator end state are those of drawing one scalar pair at a time.
    """
    n = g.n_nodes
    max_pairs = n * (n - 1) // 2
    if max_pairs - g.n_edges < count:
        raise DataError(f"graph too dense to sample {count} negative edges")
    blocked = _edge_keys(g.edge_array(), n)  # ascending: rows are sorted, u < v
    if forbidden is not None:
        blocked = np.sort(np.concatenate([blocked, forbidden]))
    out = np.empty((count, 2), dtype=np.int64)
    k = 0
    while k < count:
        pairs = rng.integers(0, n, size=2 * (count - k)).reshape(-1, 2)
        keys = _edge_keys(pairs, n)
        ok = pairs[:, 0] != pairs[:, 1]
        if blocked.size:
            at = np.minimum(np.searchsorted(blocked, keys), blocked.size - 1)
            ok &= blocked[at] != keys
        # first occurrence of each key within the round, by a stable sort
        cand = np.flatnonzero(ok)
        by_key = cand[np.argsort(keys[cand], kind="stable")]
        first = np.ones(by_key.size, dtype=bool)
        first[1:] = keys[by_key[1:]] != keys[by_key[:-1]]
        take = np.sort(by_key[first])
        out[k:k + take.size] = pairs[take]
        k += take.size
        blocked = np.sort(np.concatenate([blocked, keys[take]]))
    return out


def make_lp_split(g: Graph, val_frac: float, test_frac: float, seed: int) -> EdgeSplit:
    """Partition edges into train/val/test positives plus matched negatives."""
    if not (0 < val_frac < 1 and 0 < test_frac < 1 and val_frac + test_frac < 1):
        raise ValueError("fractions must lie in (0,1) and sum below 1")
    edges = g.edge_array()
    m = edges.shape[0]
    n_val = int(m * val_frac)
    n_test = int(m * test_frac)
    n_train = m - n_val - n_test
    if n_val < 1 or n_test < 1 or n_train < 1:
        raise DataError(f"{m} edges cannot satisfy val={val_frac}, test={test_frac}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    val_pos = edges[perm[:n_val]]
    test_pos = edges[perm[n_val:n_val + n_test]]
    train_pos = edges[perm[n_val + n_test:]]
    val_neg = sample_negative_edges(g, n_val, rng)
    test_neg = sample_negative_edges(g, n_test, rng, forbidden=_edge_keys(val_neg, g.n_nodes))
    return EdgeSplit(train_pos=train_pos, val_pos=val_pos, test_pos=test_pos,
                     val_neg=val_neg, test_neg=test_neg)


NC_TRAIN_FRAC = 0.70  # share of each class in the node-classification train split
NC_VAL_FRAC = 0.15  # and in its val split; the rest is test


def make_nc_split(g: Graph, seed: int = 0) -> NodeSplit:
    """Stratified-by-class node split; the remainder after train/val is test.

    Raises DataError when fewer than two classes are labelled, or when too
    few nodes are labelled to leave a node for val and one for test.
    """
    if g.labels is None:
        raise DataError("graph has no labels; cannot build a classification split")
    classes = _kernels.sorted_unique(g.labels[g.labels >= 0])
    if len(classes) < 2:
        raise DataError("node classification needs labelled nodes in >= 2 classes, "
                        f"got {len(classes)}")
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for cls in classes:
        ids = np.flatnonzero(g.labels == cls)
        ids = ids[rng.permutation(len(ids))]
        n_tr = max(1, int(round(len(ids) * NC_TRAIN_FRAC)))
        n_va = max(1, int(round(len(ids) * NC_VAL_FRAC)))
        n_tr = min(n_tr, len(ids) - 2) if len(ids) >= 3 else max(1, len(ids) - 2)
        train.append(ids[:n_tr])
        val.append(ids[n_tr:n_tr + n_va])
        test.append(ids[n_tr + n_va:])
    split = NodeSplit(train=np.sort(np.concatenate(train)),
                      val=np.sort(np.concatenate(val)),
                      test=np.sort(np.concatenate(test)))
    for name in ("val", "test"):
        if len(getattr(split, name)) == 0:
            raise DataError(f"node classification leaves the {name} split empty: "
                            "label more nodes per class")
    return split


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def hop_distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances, one BFS row per node (float64; unreachable
    mapped to +inf)."""
    n = g.n_nodes
    out = np.empty((n, n), dtype=np.float64)
    block = _kernels.BLOCK_SOURCES
    for lo in range(0, n, block):
        h = _kernels.bfs_hops(g.indptr, g.indices, np.arange(lo, min(lo + block, n)))
        out[lo:lo + block] = np.where(h < 0, np.inf, h)
    return out


# ---------------------------------------------------------------------------
# Gromov delta-hyperbolicity
# ---------------------------------------------------------------------------

def connected_components(g: Graph) -> list[np.ndarray]:
    """Sorted member ids of each component, in ascending order of smallest id.

    BFS runs from blocks of the smallest unassigned ids. A block holds every
    unassigned id below its last one, so a source not yet covered when its
    turn comes is the smallest id of a new component. Blocks start at one
    source, which covers a connected graph, and double up to
    ``BLOCK_SOURCES``.
    """
    unassigned = np.ones(g.n_nodes, dtype=bool)
    comps = []
    block = 1
    while unassigned.any():
        srcs = np.flatnonzero(unassigned)[:block]
        hops = _kernels.bfs_hops(g.indptr, g.indices, srcs)
        for s, row in zip(srcs, hops):
            if unassigned[s]:
                members = np.flatnonzero(row >= 0)
                comps.append(members)
                unassigned[members] = False
        block = min(2 * block, _kernels.BLOCK_SOURCES)
    return comps


def _largest_component_subgraph(g: Graph) -> Graph:
    comps = connected_components(g)
    if len(comps) == 1:
        return g
    largest = max(comps, key=len)
    log.info("graph not connected; using largest component (%d of %d nodes)",
             len(largest), g.n_nodes)
    relabel = -np.ones(g.n_nodes, dtype=np.int64)
    relabel[largest] = np.arange(len(largest))
    edges = g.edge_array()
    keep = np.isin(edges[:, 0], largest) & np.isin(edges[:, 1], largest)
    return Graph.from_edges(len(largest), relabel[edges[keep]])


# a quadruple's six pair distances (ab, cd, ac, bd, ad, bc) as (row, column)
# positions in (a, b, c, d): the three pairings are consecutive column pairs,
# and every row node is among the first three
_QUAD_PAIRS = np.array([[0, 1], [2, 3], [0, 2], [1, 3], [0, 3], [1, 2]])


def gromov_delta(g: Graph, mode: str = "exact", n_samples: int | None = None,
                 seed: int = 0) -> float:
    """Four-point delta-hyperbolicity of the hop metric.

    mode='exact' maximizes over all quadruples; mode='sampled' over
    n_samples random quadruples, which is a lower bound on the true delta.
    Disconnected graphs are reduced to their largest component.
    """
    sub = _largest_component_subgraph(g)
    if sub.n_nodes < 4:
        raise ValueError("delta-hyperbolicity needs at least 4 connected nodes")
    if mode == "exact":
        dist = hop_distance_matrix(sub)
        return _kernels.delta_exact(dist)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if not n_samples or n_samples < 1:
        raise ValueError("sampled mode needs n_samples >= 1")
    rng = np.random.default_rng(seed)
    quads = np.array([rng.choice(sub.n_nodes, size=4, replace=False)
                      for _ in range(n_samples)])
    # BFS rows of the distinct row nodes, a block at a time, read into the
    # (n_samples, 6) pair distances
    srcs, row = np.unique(quads[:, _QUAD_PAIRS[:, 0]].ravel(), return_inverse=True)
    row = row.reshape(n_samples, 6)
    col = quads[:, _QUAD_PAIRS[:, 1]]
    dist = np.empty((n_samples, 6), dtype=np.float64)
    indptr, indices = sub.indptr, sub.indices
    block = _kernels.BLOCK_SOURCES
    for lo in range(0, len(srcs), block):
        hops = _kernels.bfs_hops(indptr, indices, srcs[lo:lo + block])
        hit = (row >= lo) & (row < lo + block)
        dist[hit] = hops[row[hit] - lo, col[hit]]
    sums = np.sort(dist.reshape(n_samples, 3, 2).sum(axis=2), axis=1)
    return float(0.5 * (sums[:, 2] - sums[:, 1]).max())


# ---------------------------------------------------------------------------
# synthetic graphs (demo data and tests)
# ---------------------------------------------------------------------------

def balanced_binary_tree(depth: int) -> Graph:
    """Complete binary tree with 2**(depth+1) - 1 nodes, root id 0."""
    n = 2 ** (depth + 1) - 1
    edges = np.array([((i - 1) // 2, i) for i in range(1, n)], dtype=np.int64)
    return Graph.from_edges(n, edges)


FEATURE_NOISE = 0.2  # standard deviation of the random feature channels


def random_plus_degree_features(g: Graph, dim: int, seed: int) -> np.ndarray:
    """Gaussian features plus a clean normalized-degree channel in column 0."""
    rng = np.random.default_rng(seed)
    feats = FEATURE_NOISE * rng.standard_normal((g.n_nodes, dim))
    deg = g.degrees().astype(np.float64)
    feats[:, 0] = deg / max(deg.max(), 1.0)
    return feats
