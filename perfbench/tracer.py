"""Span tracing around the package's public functions, from outside the package.

`install(tracer)` replaces each public function listed in its table with
a wrapper that records a span (name, start, end, parent) on a stack, so
every span knows which wrapped call caused it. Spans stay in memory;
`Tracer.dump()` returns them at the end of the process. Counters are
updated by hooks that run in their own `trace.counters` spans, so their
cost never lands in a layer's self time. `aggregate()` turns spans and
counters into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time

import numpy as np

COUNTER_SPAN = "trace.counters"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx][1] = t0
            self.spans[idx][2] = t1

    def wrap(self, owner, attr: str, name, before=None, after=None) -> bool:
        """Trace owner.attr under `name` (a string or a function of the call).

        before(args) runs ahead of the call and its result reaches
        after(args, out, pre). args are bound to the original signature, so
        hooks see parameters by name whether they were passed by position
        or keyword. Returns False when the attribute does not exist.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            return False
        sig = inspect.signature(orig)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            bound = None
            if before or after or callable(name):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            pre = tracer.span(COUNTER_SPAN, before, bound) if before else None
            label = name(bound) if callable(name) else name
            out = tracer.span(label, orig, *args, **kwargs)
            if after:
                tracer.span(COUNTER_SPAN, after, bound, out, pre)
            return out

        setattr(owner, attr, wrapper)
        return True

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


# ---------------------------------------------------------------------------
# the layers and their counters
# ---------------------------------------------------------------------------

def _tape_nodes(loss) -> int:
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for p in getattr(todo.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def _rng_peek(rng):
    """A generator in the same state as rng, so peeking leaves rng untouched."""
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def install(tr: Tracer) -> list[str]:
    """Wrap every traced function; returns the names that were not found."""
    from curvgnn import _kernels, curvature, graphs, layers, manifold, nashq, training
    from curvgnn.autodiff import Adam

    built: set[tuple[bytes, int]] = set()
    digests: dict[int, tuple] = {}  # id(indptr) -> (indptr, indices, digest)

    def bfs_tree_before(a):
        indptr, indices = a["indptr"], a["indices"]
        hit = digests.get(id(indptr))
        if hit is None or hit[1] is not indices:
            h = hashlib.blake2b(np.ascontiguousarray(indptr).tobytes(), digest_size=16)
            h.update(np.ascontiguousarray(indices).tobytes())
            hit = (indptr, indices, h.digest())
            digests[id(indptr)] = hit  # holding the arrays keeps their ids unique
        key = (hit[2], int(a["source"]))
        tr.add("kernels.bfs_tree.redundant", key in built)
        built.add(key)

    def layer_after(a, out, pre):
        edges = a.get("edges")
        g = a["g"]
        tr.add("layers.msg_edges", len(edges[0]) if edges is not None
               else g.n_nodes + 2 * g.n_edges)

    def distortion_after(a, rep, pre):
        n = a["g"].n_nodes
        tr.add("curvature.distortion.pairs_used", rep.pairs_used)
        tr.add("curvature.distortion.pairs_all", n * (n - 1))

    def kappa_after(a, est, pre):
        eligible = int((a["g"].degrees() >= 2).sum())
        tr.add("curvature.kappa.valid", est.n_samples)
        tr.add("curvature.kappa.drawn", eligible * int(a["n_s"]))

    def update_after(a, z, pre):
        ceiling = getattr(curvature, "KAPPA_CEILING", 0.0)
        kappa = min(float(a["kappa"]), ceiling)
        raw = (1.0 - a["gamma"]) * a["zeta_prev"] + a["gamma"] / np.sqrt(-kappa)
        tr.add("curvature.kappa_clamped", float(a["kappa"]) > ceiling)
        tr.add("curvature.zeta_clamped", not (a["zeta_min"] <= raw <= a["zeta_max"]))

    def greedy_before(a):
        return _rng_peek(a["rng"]).random() < a["eps"]

    def greedy_after(a, action, explored):
        tr.add("nashq.explored", explored)
        tr.add("nashq.adopted", action[0] == nashq.HgnnAction.ADOPT)

    table = [
        (layers.HyperbolicGNN, "forward",
         lambda a: "layers.HyperbolicGNN.forward_" + ("train" if a["training"] else "eval"),
         None, None),
        (layers, "layer_forward", "layers.layer_forward", None, layer_after),
        (layers, "message_edges", "layers.message_edges", None, None),
        (layers, "lp_loss", "layers.lp_loss", None, None),
        (layers, "lp_scores", "layers.lp_scores", None, None),
        # train() calls the name it imported from autodiff
        (training, "backward", "autodiff.backward", None,
         lambda a, out, pre: tr.add("autodiff.tape_nodes", _tape_nodes(a["loss"]))),
        (Adam, "step", "autodiff.Adam.step", None, None),
        (graphs, "sample_negative_edges", "graphs.sample_negative_edges", None,
         lambda a, out, pre: tr.add("graphs.neg_pairs", len(out))),
        (graphs, "load_graph", "graphs.load_graph", None, None),
        (graphs, "make_lp_split", "graphs.make_lp_split", None, None),
        (curvature, "embedding_distortion", "curvature.embedding_distortion", None,
         distortion_after),
        (graphs, "path_distance_row", "graphs.path_distance_row", None, None),
        (_kernels, "bfs_tree", "kernels.bfs_tree", bfs_tree_before, None),
        (_kernels, "path_sums", "kernels.path_sums", None, None),
        (manifold, "hyp_distance", "manifold.hyp_distance", None, None),
        (curvature, "estimate_kappa", "curvature.estimate_kappa", None, kappa_after),
        (curvature, "update_curvature", "curvature.update_curvature", None, update_after),
        (manifold, "transfer_curvature", "manifold.transfer_curvature", None, None),
        (_kernels, "bfs_hops", "kernels.bfs_hops", None, None),
        (graphs, "gromov_delta", "graphs.gromov_delta", None, None),
        (nashq, "epsilon_greedy_joint", "nashq.epsilon_greedy_joint", greedy_before,
         greedy_after),
        (nashq, "q_update", "nashq.q_update", None, None),
        (nashq.QTables, "solve", "nashq.QTables.solve", None, None),
        (training, "train", "training.train", None, None),
        (training, "roc_auc", "training.roc_auc", None, None),
        (training, "write_outputs", "training.write_outputs", None, None),
    ]
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, name, before, after in table
            if not tr.wrap(owner, attr, name, before, after)]


# span names reported as per-layer metrics, in BENCHMARK.json order; metric
# names must start with a letter, so spans of `_kernels` are named `kernels.*`
SPAN_NAMES = [
    "layers.HyperbolicGNN.forward_train", "layers.HyperbolicGNN.forward_eval",
    "layers.layer_forward", "layers.message_edges", "layers.lp_loss", "layers.lp_scores",
    "autodiff.backward", "autodiff.Adam.step",
    "graphs.sample_negative_edges", "graphs.load_graph", "graphs.make_lp_split",
    "curvature.embedding_distortion", "graphs.path_distance_row", "kernels.bfs_tree",
    "kernels.path_sums", "manifold.hyp_distance",
    "curvature.estimate_kappa", "curvature.update_curvature",
    "manifold.transfer_curvature",
    "kernels.bfs_hops", "graphs.gromov_delta",
    "nashq.epsilon_greedy_joint", "nashq.q_update", "nashq.QTables.solve",
    "training.train", "training.roc_auc", "training.write_outputs",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate(dumps: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics {name: (value, unit)} summed over traced processes."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    self_t = dict.fromkeys(SPAN_NAMES, 0.0)
    counters: dict[str, float] = {}
    for dump in dumps:
        spans = dump["spans"]
        child_t = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_t[parent] += t1 - t0
        for (name, t0, t1, parent), inner in zip(spans, child_t):
            if name in calls:
                calls[name] += 1
                total[name] += t1 - t0
                self_t[name] += t1 - t0 - inner
        for k, v in dump["counters"].items():
            counters[k] = counters.get(k, 0.0) + v
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.ms"] = (total[name] * 1e3, "ms")
        out[f"{name}.self_ms"] = (self_t[name] * 1e3, "ms")
    c = counters.get
    out["layers.msg_edges_per_s"] = (
        _ratio(c("layers.msg_edges", 0.0), total["layers.layer_forward"]), "1/s")
    out["autodiff.tape_nodes"] = (
        _ratio(c("autodiff.tape_nodes", 0.0), calls["autodiff.backward"]), "count")
    out["graphs.neg_pairs"] = (c("graphs.neg_pairs", 0.0), "count")
    out["curvature.distortion.pairs_used_frac"] = (
        _ratio(c("curvature.distortion.pairs_used", 0.0),
               c("curvature.distortion.pairs_all", 0.0)), "ratio")
    out["kernels.bfs_tree.redundant_frac"] = (
        _ratio(c("kernels.bfs_tree.redundant", 0.0), calls["kernels.bfs_tree"]), "ratio")
    out["curvature.kappa.valid_frac"] = (
        _ratio(c("curvature.kappa.valid", 0.0), c("curvature.kappa.drawn", 0.0)), "ratio")
    n_upd = calls["curvature.update_curvature"]
    out["curvature.kappa_clamped_frac"] = (
        _ratio(c("curvature.kappa_clamped", 0.0), n_upd), "ratio")
    out["curvature.zeta_clamped_frac"] = (
        _ratio(c("curvature.zeta_clamped", 0.0), n_upd), "ratio")
    n_greedy = calls["nashq.epsilon_greedy_joint"]
    out["nashq.explore_frac"] = (_ratio(c("nashq.explored", 0.0), n_greedy), "ratio")
    out["nashq.adopt_frac"] = (_ratio(c("nashq.adopted", 0.0), n_greedy), "ratio")
    return out


def loop_unattributed_ms(dump: dict, stamps: list[float]) -> float:
    """Time between the first and last training-step starts that no wrapped
    call covers: loop glue in train() itself."""
    if len(stamps) < 2:
        return 0.0
    lo, hi = stamps[0], stamps[-1]
    spans = dump["spans"]
    train_idx = {i for i, s in enumerate(spans) if s[0] == "training.train"}
    covered = sum(max(0.0, min(t1, hi) - max(t0, lo))
                  for name, t0, t1, parent in spans if parent in train_idx)
    return (hi - lo - covered) * 1e3


def children_ms(dump: dict, parent_name: str) -> list[tuple[str, float]]:
    """Total ms of each span name directly under `parent_name`, largest first."""
    spans = dump["spans"]
    parents = {i for i, s in enumerate(spans) if s[0] == parent_name}
    totals: dict[str, float] = {}
    for name, t0, t1, parent in spans:
        if parent in parents and name != COUNTER_SPAN:
            totals[name] = totals.get(name, 0.0) + (t1 - t0) * 1e3
    return sorted(totals.items(), key=lambda kv: -kv[1])
