"""Training orchestration: cooperative curvature search plus task training.

Each epoch: run one supervised step of the network, score its eval
embeddings on the validation split (keeping the best snapshot), then let
the curvature search play (`nashq.CurvatureSearch.update`): it picks a
joint action by epsilon-greedy play, optionally re-estimates curvature and
scores the remapped previous embeddings, applies a Nash-Q update and
returns the curvature that the model takes for the next epoch. Once the
two agents sit at a (KEEP, HOLD) equilibrium for enough consecutive epochs
the curvature freezes and plain supervised training continues.

Determinism: every random choice draws from a named stream spawned from
the run seed, so a fixed seed reproduces splits, initialization, dropout,
negative samples, exploration, and the emitted records bit-for-bit
(wall-clock timings excepted).
"""

from __future__ import annotations

import functools
import json
import logging
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import curvature, graphs, layers, nashq
from .autodiff import Adam, Tensor, backward, no_tape
from .manifold import DEFAULT_ZETA_MAX, DEFAULT_ZETA_MIN

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 5
WEIGHT_DECAY = 5e-3
EARLY_STOP_PATIENCE = 100  # epochs without a val improvement before stopping

# the values each RunConfig annotation admits; an int is also a float
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


class TrainingDiverged(RuntimeError):
    """Loss went non-finite. With an output directory, `train` first writes
    the finished epochs' records to its metrics.jsonl; the failed epoch is
    the one after the last record."""


@dataclass
class RunConfig:
    """The run settings a caller may set (CLI flags or a --config JSON).

    Fixed choices are constants beside the code that uses them: the relu
    activation (`layers.layer_forward`), the Fermi-Dirac r and t
    (`layers.FERMI_DIRAC_R`, `FERMI_DIRAC_T`), the feature-norm cap
    (`_prepare`), WEIGHT_DECAY and EARLY_STOP_PATIENCE here, Adam's moment
    rates (`autodiff.ADAM_BETA1`, `ADAM_BETA2`, `ADAM_EPS`), the epsilon
    schedule (`nashq.EPSILON_START`, `EPSILON_FLOOR`, `EPSILON_DECAY`), the
    kappa sample count (`curvature.estimate_kappa`), the equilibrium
    patience (`nashq.EQUILIBRIUM_PATIENCE`), the state bin width
    (`nashq.STATE_BIN_WIDTH`) and the node-classification split fractions
    (`graphs.NC_TRAIN_FRAC`, `NC_VAL_FRAC`).
    """

    # data
    edge_path: str | None = None
    feature_path: str | None = None
    label_path: str | None = None
    synthetic_tree_depth: int | None = None  # alternative to file paths
    task: str = "lp"
    # model
    dim: int = 16
    n_layers: int = 2
    dropout: float = 0.5
    # optimization
    lr: float = 3e-4
    epochs: int = 500
    # curvature search
    zeta0: float = 1.0
    zeta_min: float = DEFAULT_ZETA_MIN
    zeta_max: float = DEFAULT_ZETA_MAX
    gamma: float = 0.2
    alpha: float = 0.5
    beta: float = 0.9
    rl_enabled: bool = True
    # splits
    val_frac: float = 0.05
    test_frac: float = 0.10
    # bookkeeping
    seed: int = 0
    distortion_every: int = 10

    def validate(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            kind, *rest = field.type.split(" | ")  # e.g. "int | None"
            if value is None and rest == ["None"]:
                continue
            if (isinstance(value, bool) != (kind == "bool")
                    or not isinstance(value, _FIELD_TYPES[kind])):
                raise ValueError(f"{field.name} must be {field.type}, got {value!r}")
        if self.task not in ("lp", "nc"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.n_layers < 1 or self.dim < 1:
            raise ValueError("n_layers and dim must be >= 1")
        if not (1e-4 <= self.lr <= 5e-4):
            raise ValueError("lr must lie in [1e-4, 5e-4]")
        if not (0.2 <= self.alpha <= 0.9):
            raise ValueError("alpha must lie in [0.2, 0.9]")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("beta must lie in [0, 1)")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:  # numpy seeds its generators from non-negative ints
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.synthetic_tree_depth is not None and self.synthetic_tree_depth < 1:
            raise ValueError("synthetic_tree_depth must be >= 1, "
                             f"got {self.synthetic_tree_depth}")
        if self.distortion_every < 0:  # 0 turns the in-loop distortion off
            raise ValueError(f"distortion_every must be >= 0, got {self.distortion_every}")
        if not (0 < self.zeta_min <= self.zeta0 <= self.zeta_max):
            raise ValueError("need 0 < zeta_min <= zeta0 <= zeta_max")
        # the LP split's fractions, checked for every task
        for name, frac in (("val_frac", self.val_frac), ("test_frac", self.test_frac)):
            if not (0.0 < frac < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {frac}")
        if self.val_frac + self.test_frac >= 1.0:
            raise ValueError("val_frac + test_frac must be below 1, "
                             f"got {self.val_frac} + {self.test_frac}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_metric: float
    zetas: list  # [zeta]: one value, in the list form the benchmark reads
    action_hgnn: str | None
    action_ace: str | None
    r_hgnn: float
    r_ace: float
    distortion: float | None
    wall_ms: float


@dataclass
class TrainResult:
    records: list
    best_val_metric: float
    best_epoch: int
    test_metric: float
    final_embeddings: np.ndarray
    final_zeta: float
    freeze_epoch: int | None
    checkpoint: dict


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def roc_auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative.

    Computed from average ranks (ties credit 0.5 per pair).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    _, tie_group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[tie_group]
    pos_rank_sum = ranks[labels].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def micro_f1(pred_classes, true_classes) -> float:
    """Micro-averaged F1, returned as accuracy.

    With one label per node every wrong prediction is one false positive and
    one false negative, so micro precision = micro recall = accuracy, and so
    is their harmonic mean.
    """
    pred = np.asarray(pred_classes)
    true = np.asarray(true_classes)
    if pred.shape != true.shape or pred.size == 0:
        raise ValueError("predictions and targets must align and be nonempty")
    return int((pred == true).sum()) / pred.size


# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------

def _cap_feature_norms(feats: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    return feats / np.maximum(norms, 1.0)


def _load_dataset(config: RunConfig) -> graphs.Graph:
    """The input graph; a synthetic tree's features are drawn by `_build_task`."""
    if config.synthetic_tree_depth is not None:
        return graphs.balanced_binary_tree(config.synthetic_tree_depth)
    if config.edge_path is None:
        raise graphs.DataError("no dataset: give edge/feature paths or a synthetic tree")
    g = graphs.load_graph(config.edge_path, config.feature_path, config.label_path)
    if g.features is None:
        raise graphs.DataError("training requires node features")
    return g


@dataclass
class _Task:
    """A task is its split: an `EdgeSplit` for link prediction, a `NodeSplit`
    for node classification. Training, reward and final eval score here."""

    msg_graph: graphs.Graph
    full_graph: graphs.Graph
    split: graphs.EdgeSplit | graphs.NodeSplit

    def loss(self, emb: Tensor, model, neg_rng: np.random.Generator) -> Tensor:
        """Training loss of `model`'s embeddings `emb`; LP negatives come from `neg_rng`."""
        s, zeta = self.split, model.zeta
        if isinstance(s, graphs.EdgeSplit):
            neg = graphs.sample_negative_edges(self.full_graph, len(s.train_pos), neg_rng)
            return layers.lp_loss(emb, s.train_pos, neg, zeta)
        logits = layers.nc_logits(emb, zeta, model.W_cls, model.b_cls)
        return layers.nc_loss(logits, self.full_graph.labels, s.train)

    def val_metric(self, emb: np.ndarray, zeta: float, model) -> float:
        s = self.split
        if isinstance(s, graphs.EdgeSplit):
            return self._lp_metric(emb, zeta, s.val_pos, s.val_neg)
        return self._nc_metric(emb, zeta, model, s.val)

    def test_metric(self, model) -> float:
        """Test-split score from an eval forward over `full_graph`.

        `train` and `evaluate_checkpoint` both score through here. For link
        prediction `full_graph` holds the test edges, so they pass messages
        before they are scored.
        """
        with no_tape():
            emb = model.forward(self.full_graph, training=False).data
        s, zeta = self.split, model.zeta
        if isinstance(s, graphs.EdgeSplit):
            return self._lp_metric(emb, zeta, s.test_pos, s.test_neg)
        return self._nc_metric(emb, zeta, model, s.test)

    def _lp_metric(self, emb, zeta, pos, neg) -> float:
        scores = layers.lp_scores(emb, np.concatenate([pos, neg]), zeta)
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        return roc_auc(scores, labels)

    def _nc_metric(self, emb, zeta, model, node_ids) -> float:
        with no_tape():
            logits = layers.nc_logits(emb, zeta, model.W_cls, model.b_cls).data
        pred = logits[node_ids].argmax(axis=1)
        return micro_f1(pred, self.full_graph.labels[node_ids])


def _build_task(config: RunConfig, g: graphs.Graph) -> _Task:
    """Split `g` and cap its feature norms. A graph without features is a
    synthetic tree: its random-plus-degree features are drawn here, with the
    degree of the message graph, so that no held-out edge reaches them."""
    if config.task == "lp":
        split = graphs.make_lp_split(g, config.val_frac, config.test_frac, config.seed)
        msg = g.with_edges(split.train_pos)
    else:
        split, msg = graphs.make_nc_split(g, seed=config.seed), g
    if g.features is None:
        g = replace(g, features=graphs.random_plus_degree_features(msg, config.dim,
                                                                   config.seed))
    features = _cap_feature_norms(g.features)
    return _Task(replace(msg, features=features), replace(g, features=features), split)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def build_checkpoint(config: RunConfig, snapshot: dict, epoch: int, best_val: float) -> dict:
    """`snapshot` is `HyperbolicGNN.snapshot()` of the model to save."""
    return {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "model": snapshot,
        "epoch": epoch,
        "best_val_metric": best_val,
    }


def save_checkpoint(blob: dict, path) -> None:
    Path(path).write_text(json.dumps(blob))


def load_checkpoint(path) -> dict:
    """Read a checkpoint; DataError, naming the file, when it is malformed."""
    blob = graphs.read_json(path, "checkpoint")
    if blob.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {blob.get('format_version')}")
    missing = [k for k in ("config", "model", "epoch", "best_val_metric") if k not in blob]
    if missing:
        raise graphs.DataError(f"{path}: checkpoint lacks fields {missing}")
    config = blob["config"]
    if not isinstance(config, dict):
        raise graphs.DataError(f"{path}: config must be a JSON object")
    unknown = set(config) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise graphs.DataError(f"{path}: unknown config fields {sorted(unknown)}")
    return blob


def model_from_checkpoint(blob: dict, path=None):
    """The run config, restored model and task of a checkpoint read from `path`."""
    config = RunConfig(**blob["config"])
    model, task = _prepare(config)
    model.restore(blob["model"], path)
    return config, model, task


def _prepare(config: RunConfig):
    """Load data, build split and model; shared by train() and eval paths."""
    config.validate()
    g = _load_dataset(config)
    task = _build_task(config, g)
    n_classes = None if isinstance(task.split, graphs.EdgeSplit) else int(g.labels.max()) + 1
    init_rng = np.random.default_rng([config.seed, 1])
    model = layers.HyperbolicGNN(task.full_graph.features.shape[1], config.dim,
                                 config.n_layers, config.zeta0, init_rng,
                                 dropout=config.dropout, n_classes=n_classes)
    return model, task


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def train(config: RunConfig, out_dir=None) -> TrainResult:
    """Train, score the test split with the best epoch's state and, given
    `out_dir`, write the outputs; the distortion is `evaluate_checkpoint`'s."""
    model, task = _prepare(config)
    msg_g = task.msg_graph
    plan = layers.message_edges(msg_g)  # every epoch's forwards share it
    optimizer = Adam(model.parameters(), lr=config.lr, weight_decay=WEIGHT_DECAY)

    drop_rng = np.random.default_rng([config.seed, 2])
    neg_rng = np.random.default_rng([config.seed, 3])

    def eval_embeddings() -> np.ndarray:
        with no_tape():  # only the values are read
            return model.forward(msg_g, training=False, edges=plan).data

    def train_step() -> float:
        emb = model.forward(msg_g, training=True, rng=drop_rng, edges=plan)
        loss = task.loss(emb, model, neg_rng)
        optimizer.zero_grad()
        backward(loss)
        optimizer.step()
        return float(loss.data)

    score = functools.partial(task.val_metric, model=model)
    records: list[EpochRecord] = []
    emb0 = eval_embeddings()
    search = nashq.CurvatureSearch(config, msg_g, emb0, score(emb0, config.zeta0), score)

    # epoch 1 always improves on -inf (the metrics lie in [0, 1]), so the
    # best snapshot and embeddings are set before the loop can end
    best_val = -np.inf
    best_epoch = 0
    since_best = 0

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        loss = train_step()
        if not np.isfinite(loss):
            if out_dir is not None:
                _write_records(records, out_dir)
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        emb_curr = eval_embeddings()
        zeta_curr_out = model.zeta  # the curvature emb_curr lives at
        metric_curr = score(emb_curr, zeta_curr_out)

        # snapshot before the search may adopt a curvature: the best state
        # must pair these parameters with the curvature they were scored at
        if metric_curr > best_val:
            best_val = metric_curr
            best_epoch = epoch
            best_state, best_emb = model.snapshot(), emb_curr
            since_best = 0
        else:
            since_best += 1

        zeta, play = search.update(epoch, emb_curr, metric_curr)
        model.zeta = float(zeta)

        distortion_val = None
        if config.distortion_every and epoch % config.distortion_every == 0:
            rep = curvature.embedding_distortion(msg_g, emb_curr, zeta_curr_out)
            distortion_val = rep.mean_distortion

        wall_ms = (time.perf_counter() - t0) * 1000.0
        records.append(EpochRecord(
            epoch=epoch, train_loss=loss, val_metric=metric_curr,
            zetas=[model.zeta], distortion=distortion_val,
            wall_ms=wall_ms, **play))

        if since_best >= EARLY_STOP_PATIENCE:
            log.info("early stop at epoch %d (no val improvement for %d epochs)",
                     epoch, EARLY_STOP_PATIENCE)
            break

    model.restore(best_state)
    result = TrainResult(records=records, best_val_metric=best_val,
                         best_epoch=best_epoch, test_metric=task.test_metric(model),
                         final_embeddings=best_emb, final_zeta=model.zeta,
                         freeze_epoch=search.freeze_epoch,
                         checkpoint=build_checkpoint(config, best_state, best_epoch, best_val))
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _write_records(records, out_dir) -> Path:
    """Write metrics.jsonl, one JSON object per epoch record, into out_dir."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(asdict(rec)) + "\n")
    return path


def write_outputs(result: TrainResult, out_dir) -> None:
    """metrics.jsonl, checkpoint.json, embeddings.npy and result.json."""
    path = _write_records(result.records, out_dir)
    save_checkpoint(result.checkpoint, path / "checkpoint.json")
    np.save(path / "embeddings.npy", result.final_embeddings)
    summary = {
        "best_val_metric": result.best_val_metric,
        "best_epoch": result.best_epoch,
        "test_metric": result.test_metric,
        "final_zetas": [result.final_zeta],  # one value, as metrics.jsonl's zetas
        "freeze_epoch": result.freeze_epoch,
        "epochs_run": len(result.records),
    }
    (path / "result.json").write_text(json.dumps(summary, indent=2))


def evaluate_checkpoint(path) -> dict:
    """Reload a checkpoint; score the test split it was trained against (an
    eval forward over `full_graph`) and the distortion of the embeddings
    `train` wrote (one over the message graph, which reproduces them). Once
    test is scored on the message graph, as val is, that forward is the one."""
    blob = load_checkpoint(path)
    config, model, task = model_from_checkpoint(blob, path)
    with no_tape():
        emb = model.forward(task.msg_graph, training=False).data
    dist = curvature.embedding_distortion(task.msg_graph, emb, model.zeta)
    return {"test_metric": task.test_metric(model), "zeta": model.zeta,
            "distortion": dist.mean_distortion,
            "best_epoch": blob["epoch"], "best_val_metric": blob["best_val_metric"],
            "task": config.task}
