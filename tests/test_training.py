"""Runner tests: metrics, determinism, checkpointing, divergence handling."""

import dataclasses
import json

import numpy as np
import pytest

from curvgnn import curvature, graphs, layers, training
from curvgnn.training import RunConfig, TrainingDiverged, micro_f1, roc_auc, train


def quick_config(**kw):
    base = dict(synthetic_tree_depth=4, epochs=5, seed=0, task="lp",
                val_frac=0.15, test_frac=0.15, distortion_every=2)
    base.update(kw)
    return RunConfig(**base)


def synthetic_tree_dataset(depth, feature_dim, seed):
    """Balanced binary tree with random-plus-degree node features."""
    g = graphs.balanced_binary_tree(depth)
    g.features = graphs.random_plus_degree_features(g, feature_dim, seed)
    return g


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_roc_auc_perfect_separation():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_roc_auc_all_ties():
    assert roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5


def test_roc_auc_matches_pair_counting():
    def pair_counting(scores, labels):
        wins = ties = 0
        for i in np.flatnonzero(labels == 1):
            for j in np.flatnonzero(labels == 0):
                if scores[i] > scores[j]:
                    wins += 1
                elif scores[i] == scores[j]:
                    ties += 1
        return (wins + 0.5 * ties) / (labels.sum() * (len(labels) - labels.sum()))

    scores = np.array([0.1, 0.4, 0.35, 0.8, 0.35])
    labels = np.array([0, 1, 0, 1, 1])
    assert roc_auc(scores, labels) == pytest.approx(pair_counting(scores, labels))
    rng = np.random.default_rng(4)
    for trial in range(200):
        n = int(rng.integers(2, 40))
        scores = np.round(rng.random(n), int(rng.integers(0, 4)))  # many ties
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 1, 0  # both classes present
        assert roc_auc(scores, labels) == pytest.approx(pair_counting(scores, labels))


def test_roc_auc_label_swap_complement():
    rng = np.random.default_rng(0)
    scores = rng.random(40)
    labels = rng.integers(0, 2, 40)
    labels[0], labels[1] = 1, 0  # both classes present
    assert roc_auc(scores, labels) + roc_auc(scores, 1 - labels) == pytest.approx(1.0)


def test_roc_auc_single_class_error():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2], [1, 1])


def test_micro_f1():
    assert micro_f1([1, 2, 0], [1, 2, 0]) == 1.0
    assert micro_f1([1, 1, 1], [0, 0, 0]) == 0.0
    pred = [0, 1, 1, 2, 0, 2, 1, 0, 2, 1]
    true = [0, 1, 2, 2, 0, 1, 1, 0, 2, 0]
    assert micro_f1(pred, true) == pytest.approx(7 / 10)
    with pytest.raises(ValueError):
        micro_f1([], [])


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        quick_config(lr=1e-2).validate()
    with pytest.raises(ValueError):
        quick_config(alpha=0.05).validate()
    with pytest.raises(ValueError):
        quick_config(beta=1.0).validate()
    with pytest.raises(ValueError):
        quick_config(task="qa").validate()
    with pytest.raises(ValueError):
        quick_config(zeta0=0.01).validate()
    with pytest.raises(ValueError):
        quick_config(n_layers=0).validate()
    with pytest.raises(ValueError):
        quick_config(dim=0).validate()
    for p in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            quick_config(dropout=p).validate()
    # the fractions are checked by name for both tasks, though only LP splits by them
    for task in ("lp", "nc"):
        for field in ("val_frac", "test_frac"):
            for frac in (0.0, 1.0, 9.0, -3.0):
                with pytest.raises(ValueError, match=f"^{field} must lie in \\(0, 1\\)"):
                    quick_config(task=task, **{field: frac}).validate()
        with pytest.raises(ValueError, match=r"^val_frac \+ test_frac must be below 1"):
            quick_config(task=task, val_frac=0.6, test_frac=0.4).validate()


@pytest.mark.parametrize("field,value", [("seed", -1), ("synthetic_tree_depth", 0),
                                         ("synthetic_tree_depth", -3),
                                         ("distortion_every", -2)])
def test_config_rejects_negative_counts_by_name(field, value):
    # validate runs before any graph is built or generator seeded
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        quick_config(**{field: value}).validate()


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def test_single_epoch_emits_single_record():
    res = train(quick_config(epochs=1))
    assert len(res.records) == 1
    assert res.records[0].epoch == 1


def strip_wall(rec):
    d = dataclasses.asdict(rec)
    d.pop("wall_ms")
    return d


def test_training_is_deterministic_under_seed():
    a = train(quick_config(epochs=8))
    b = train(quick_config(epochs=8))
    assert [strip_wall(r) for r in a.records] == [strip_wall(r) for r in b.records]
    assert a.test_metric == b.test_metric
    assert np.array_equal(a.final_embeddings, b.final_embeddings)


def test_smoke_val_improves_over_first_twenty_epochs():
    improved = 0
    for seed in (0, 1, 2):
        cfg = RunConfig(synthetic_tree_depth=5, epochs=20, seed=seed, task="lp")
        res = train(cfg)
        vals = [r.val_metric for r in res.records]
        if vals[19] > vals[0]:
            improved += 1
    assert improved >= 1


def test_test_metric_isolated_until_final_eval():
    res = train(quick_config(epochs=6))
    assert all("test_metric" not in dataclasses.asdict(r) for r in res.records)
    assert 0.0 <= res.test_metric <= 1.0


def test_distortion_cadence(monkeypatch):
    # every distortion a train computes fills a record; none is left over
    calls, embedding_distortion = [], curvature.embedding_distortion

    def counting(*args, **kwargs):
        calls.append(None)
        return embedding_distortion(*args, **kwargs)

    monkeypatch.setattr(curvature, "embedding_distortion", counting)
    res = train(quick_config(epochs=6, distortion_every=2))
    have = [r.distortion is not None for r in res.records]
    assert have == [False, True, False, True, False, True]
    assert len(calls) == sum(have)


def test_rl_disabled_keeps_zetas_fixed():
    res = train(quick_config(epochs=6, rl_enabled=False, zeta0=1.0))
    for rec in res.records:
        assert rec.zetas == [1.0]
        assert rec.action_hgnn is None and rec.action_ace is None


def test_adopt_action_installs_proposed_curvatures(monkeypatch):
    from curvgnn import nashq

    monkeypatch.setattr(
        nashq, "epsilon_greedy_joint",
        lambda sol, eps, rng: (nashq.HgnnAction.ADOPT, nashq.AceAction.EXPLORE))
    res = train(quick_config(epochs=3))
    # every epoch explored and adopted; zetas must track the proposals,
    # which leave the initial value once the estimator reports
    assert all(r.action_hgnn == "ADOPT" and r.action_ace == "EXPLORE"
               for r in res.records)
    assert res.records[-1].zetas != [1.0]
    assert all(len(r.zetas) == 1 for r in res.records)  # the model's one curvature


def test_keep_action_leaves_curvatures_alone(monkeypatch):
    from curvgnn import nashq

    monkeypatch.setattr(
        nashq, "epsilon_greedy_joint",
        lambda sol, eps, rng: (nashq.HgnnAction.KEEP, nashq.AceAction.EXPLORE))
    res = train(quick_config(epochs=3))
    assert all(r.zetas == [1.0] for r in res.records)


def test_greedy_play_reuses_the_post_update_solution(monkeypatch):
    # one solve before the loop, then two per epoch (inside q_update and
    # after it); greedy play gets the latest one, which a fresh solve of the
    # same state on the tables as they stand must reproduce
    from curvgnn import nashq

    solve, greedy = nashq.QTables.solve, nashq.epsilon_greedy_joint
    solved, states = [], []

    def counting_solve(tables, state):
        sol = solve(tables, state)
        solved.append((tables, state, sol))
        return sol

    def checked_greedy(sol, eps, rng):
        tables, state, last = solved[-1]
        fresh = solve(tables, state)
        assert sol is last
        assert (fresh.pure, fresh.value_hgnn, fresh.value_ace) == (
            sol.pure, sol.value_hgnn, sol.value_ace)
        assert np.array_equal(fresh.pi_hgnn, sol.pi_hgnn)
        assert np.array_equal(fresh.pi_ace, sol.pi_ace)
        states.append(state)
        return greedy(sol, eps, rng)

    monkeypatch.setattr(nashq.QTables, "solve", counting_solve)
    monkeypatch.setattr(nashq, "epsilon_greedy_joint", checked_greedy)
    cfg = quick_config(epochs=8)
    res = train(cfg)
    assert all(r.action_hgnn is not None for r in res.records)
    assert len(solved) == 1 + 2 * len(res.records)
    # the solved state is the one each epoch starts in
    starts = [cfg.zeta0] + [r.zetas[-1] for r in res.records[:-1]]
    assert states == [nashq.discretize_state(z, cfg.zeta_min) for z in starts]


def test_frozen_curvatures_stay_constant(monkeypatch):
    from curvgnn import nashq

    calls = {"n": 0}

    def settle_at_third(streak, prev_state, state, pure):
        calls["n"] += 1
        return nashq.EQUILIBRIUM_PATIENCE if calls["n"] >= 3 else 0

    monkeypatch.setattr(nashq, "settled_streak", settle_at_third)
    res = train(quick_config(epochs=8))
    assert res.freeze_epoch == 3
    frozen_zetas = res.records[2].zetas
    for rec in res.records[3:]:
        assert rec.zetas == frozen_zetas
        assert rec.action_hgnn is None and rec.action_ace is None


def scripted_play(monkeypatch, plays):
    """Make greedy play return `plays` in turn, one joint action per epoch."""
    from curvgnn import nashq

    names = {"ADOPT": nashq.HgnnAction.ADOPT, "KEEP": nashq.HgnnAction.KEEP,
             "EXPLORE": nashq.AceAction.EXPLORE, "HOLD": nashq.AceAction.HOLD}
    todo = iter([(names[h], names[a]) for h, a in plays])
    monkeypatch.setattr(nashq, "epsilon_greedy_joint", lambda sol, eps, rng: next(todo))


def test_a_held_proposal_is_the_one_explored_earlier(monkeypatch):
    # A explores at epoch 1 and keeps, then adopts the standing proposal at
    # epoch 2 without exploring; B explores and adopts at epoch 1. Both
    # explore the same initial embeddings with the same estimator seed.
    cfg = quick_config(epochs=2)
    scripted_play(monkeypatch, [("KEEP", "EXPLORE"), ("ADOPT", "HOLD")])
    a = train(cfg)
    scripted_play(monkeypatch, [("ADOPT", "EXPLORE"), ("KEEP", "HOLD")])
    b = train(cfg)
    assert a.records[0].zetas == [cfg.zeta0]
    assert a.records[1].zetas == b.records[0].zetas
    assert b.records[0].zetas != [cfg.zeta0]


def test_rewards_follow_the_val_metric(monkeypatch):
    # r_ace is 0 on an epoch that holds; r_hgnn is the change of the val
    # metric since the previous epoch
    plays = [(h, a) for h in ("ADOPT", "KEEP") for a in ("EXPLORE", "HOLD")] * 2
    scripted_play(monkeypatch, plays)
    res = train(quick_config(epochs=len(plays)))
    recs = res.records
    assert [(r.action_hgnn, r.action_ace) for r in recs] == plays
    assert all(r.r_ace == 0.0 for r in recs if r.action_ace == "HOLD")
    for prev, rec in zip(recs, recs[1:]):
        assert rec.r_hgnn == rec.val_metric - prev.val_metric


@pytest.mark.parametrize("task", ["lp", "nc"])
def test_eval_forwards_record_no_tape(monkeypatch, task):
    """Every eval forward of `train`, the final test one included, returns a
    constant: it ran in a no_tape block. Train forwards record their tape."""
    forward = layers.HyperbolicGNN.forward
    outputs = []

    def recorded(self, g, **kw):
        out = forward(self, g, **kw)
        outputs.append((kw.get("training", False), out))
        return out

    monkeypatch.setattr(layers.HyperbolicGNN, "forward", recorded)
    epochs = 3
    if task == "lp":
        train(quick_config(epochs=epochs))
    else:
        g = synthetic_tree_dataset(4, 8, seed=0)
        g.labels = np.arange(g.n_nodes) % 3
        monkeypatch.setattr(training, "_load_dataset", lambda config: g)
        train(quick_config(epochs=epochs, task="nc", dim=8))
    evals = [out for is_train, out in outputs if not is_train]
    trains = [out for is_train, out in outputs if is_train]
    assert len(evals) == epochs + 2 and len(trains) == epochs  # initial, per epoch, test
    assert all(out._parents == () for out in evals)
    assert all(out._parents for out in trains)


def test_search_calls_the_traced_names_through_their_modules(monkeypatch):
    # the benchmark tracer wraps these module attributes; a by-name import
    # would bypass the wrapper and drop its spans and counters
    from curvgnn import curvature, manifold, nashq

    epochs, n_layers = 3, 2
    counts = {}

    def count(owner, name):
        inner = getattr(owner, name)
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    scripted_play(monkeypatch, [("ADOPT", "EXPLORE")] * epochs)
    for owner, name in ((curvature, "estimate_kappa"), (curvature, "update_curvature"),
                        (manifold, "transfer_curvature"), (nashq, "q_update"),
                        (nashq, "epsilon_greedy_joint"), (nashq.QTables, "solve"),
                        (training, "backward")):
        count(owner, name)
    res = train(quick_config(epochs=epochs, n_layers=n_layers))
    assert len(res.records) == epochs
    # one curvature for the whole model: one update per EXPLORE epoch
    assert counts == {"estimate_kappa": epochs, "update_curvature": epochs,
                      "transfer_curvature": epochs, "q_update": epochs,
                      "epsilon_greedy_joint": epochs, "solve": 1 + 2 * epochs,
                      "backward": epochs}


def test_synthetic_lp_degree_channel_counts_only_train_edges(monkeypatch):
    # column 0 of a synthetic tree's features, before the norm cap, is the
    # train graph's degree over its maximum: held-out edges do not reach it
    capped, cap = [], training._cap_feature_norms
    monkeypatch.setattr(training, "_cap_feature_norms",
                        lambda feats: capped.append(feats) or cap(feats))
    for seed in (0, 1, 2):
        _, task = training._prepare(quick_config(seed=seed))
        train_deg = np.bincount(task.split.train_pos.ravel(), minlength=31)
        assert np.array_equal(capped[-1][:, 0], train_deg / train_deg.max())
        full_deg = task.full_graph.degrees()
        assert not np.array_equal(capped[-1][:, 0], full_deg / full_deg.max())


def test_node_classification_path():
    g = synthetic_tree_dataset(4, 6, seed=3)
    cfg = quick_config(task="nc", epochs=4)
    # labels: depth parity, 3 classes by node id bands
    res_graph = g
    res_graph.labels = (np.arange(g.n_nodes) % 3).astype(np.int64)
    import curvgnn.training as T
    orig = T._load_dataset
    T._load_dataset = lambda c: res_graph
    try:
        res = train(cfg)
    finally:
        T._load_dataset = orig
    assert 0.0 <= res.best_val_metric <= 1.0
    assert len(res.records) == 4


# ---------------------------------------------------------------------------
# known defects, pinned until their ROADMAP items mend them
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: test pairs pass messages "
                                       "before they are scored")
def test_test_score_reads_no_held_out_edge():
    # a leak-free test score cannot change when the val and test edges
    # leave the graph it is scored on
    for seed in (0, 1, 2):
        res = train(RunConfig(synthetic_tree_depth=5, epochs=20, seed=seed))
        _, model, task = training.model_from_checkpoint(res.checkpoint)
        held_in = np.concatenate([task.split.train_pos, task.split.val_pos])
        train_val = dataclasses.replace(task, full_graph=task.full_graph.with_edges(held_in))
        assert task.test_metric(model) == train_val.test_metric(model), seed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the kappa signal drives zeta "
                                       "onto the zeta_max clamp")
def test_curvature_search_ends_inside_the_bounds_on_a_tree():
    for seed in (0, 1, 2):
        cfg = RunConfig(synthetic_tree_depth=5, epochs=40, seed=seed)
        last = train(cfg).records[-1]
        assert all(cfg.zeta_min < z < cfg.zeta_max for z in last.zetas), (seed, last.zetas)


# ---------------------------------------------------------------------------
# outputs and checkpointing
# ---------------------------------------------------------------------------

def test_output_files_written(tmp_path):
    res = train(quick_config(epochs=3), out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint.json", "embeddings.npy", "metrics.jsonl", "result.json"]
    lines = (tmp_path / "metrics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"epoch", "train_loss", "val_metric", "zetas", "action_hgnn",
                        "action_ace", "r_hgnn", "r_ace", "distortion", "wall_ms"}
    assert set(json.loads((tmp_path / "result.json").read_text())) == {
        "best_val_metric", "best_epoch", "test_metric", "final_zetas", "freeze_epoch",
        "epochs_run"}
    emb = np.load(tmp_path / "embeddings.npy")
    assert emb.shape[0] == 31  # depth-4 tree


def test_checkpoint_roundtrip(tmp_path):
    res = train(quick_config(epochs=4), out_dir=tmp_path)
    out = training.evaluate_checkpoint(tmp_path / "checkpoint.json")
    assert out["test_metric"] == res.test_metric
    assert out["zeta"] == res.final_zeta
    assert out["best_epoch"] == res.best_epoch
    _, _, task = training.model_from_checkpoint(res.checkpoint)
    assert out["distortion"] == curvature.embedding_distortion(
        task.msg_graph, res.final_embeddings, res.final_zeta).mean_distortion


def test_best_checkpoint_scores_its_recorded_val_metric(tmp_path):
    # curvature adoption happens after scoring; the snapshot must pair the
    # parameters with the curvature they were scored at, even when the best
    # epoch itself adopted a new one
    cfg = quick_config(epochs=25)
    res = train(cfg, out_dir=tmp_path)
    blob = training.load_checkpoint(tmp_path / "checkpoint.json")
    config, model, task = training.model_from_checkpoint(blob)
    emb = model.forward(task.msg_graph, training=False).data
    val = task.val_metric(emb, model.zeta, model)
    assert val == pytest.approx(res.best_val_metric)
    blob = training.load_checkpoint(tmp_path / "checkpoint.json")
    assert blob["format_version"] == training.CHECKPOINT_VERSION
    assert set(blob) == {"format_version", "config", "model", "epoch", "best_val_metric"}


def test_checkpoint_model_is_the_model_snapshot(tmp_path):
    train(quick_config(epochs=4), out_dir=tmp_path)
    text = (tmp_path / "checkpoint.json").read_text()
    _, model, _ = training.model_from_checkpoint(json.loads(text))
    assert '"model": ' + json.dumps(model.snapshot()) + ', "epoch"' in text


def test_train_reuses_the_best_epoch_embeddings(tmp_path, monkeypatch):
    # E training forwards and E + 1 eval forwards over the message graph
    # (the initial one and one per epoch); the final embeddings are the best
    # epoch's, equal to an eval forward of the restored checkpoint
    tasks, calls = [], []
    build, forward = training._build_task, layers.HyperbolicGNN.forward

    def recording_build(config, g):
        tasks.append(build(config, g))
        return tasks[-1]

    def counting_forward(model, g, **kw):
        calls.append((g is tasks[0].msg_graph, kw.get("training", False)))
        return forward(model, g, **kw)

    monkeypatch.setattr(training, "_build_task", recording_build)
    monkeypatch.setattr(layers.HyperbolicGNN, "forward", counting_forward)
    epochs = 6
    res = train(quick_config(epochs=epochs), out_dir=tmp_path)
    assert len(res.records) == epochs
    assert calls.count((True, True)) == epochs
    assert calls.count((True, False)) == epochs + 1
    assert calls.count((False, False)) == 1  # the test score, over the full graph
    monkeypatch.undo()
    blob = training.load_checkpoint(tmp_path / "checkpoint.json")
    _, model, task = training.model_from_checkpoint(blob)
    emb = model.forward(task.msg_graph, training=False).data
    assert np.array_equal(res.final_embeddings, emb)
    assert np.array_equal(np.load(tmp_path / "embeddings.npy"), emb)


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "ck.json"
    # 2: the format before the fixed settings left the config; 3: with att_b2
    for version in (2, 3, 999):
        path.write_text(json.dumps({"format_version": version}))
        with pytest.raises(ValueError):
            training.load_checkpoint(path)


def test_divergence_aborts_with_dump(tmp_path, monkeypatch):
    # the third training loss is NaN: metrics.jsonl is the only output, and
    # it holds the two finished epochs as the clean run records them
    def strip(records):
        return [{k: v for k, v in rec.items() if k != "wall_ms"} for rec in records]

    clean = strip(dataclasses.asdict(r) for r in train(quick_config(epochs=3)).records)
    lp_loss, calls = layers.lp_loss, []

    def poisoned(*args, **kwargs):
        calls.append(None)
        if len(calls) < 3:
            return lp_loss(*args, **kwargs)
        from curvgnn.autodiff import Tensor
        return Tensor(np.array(np.nan))

    monkeypatch.setattr(layers, "lp_loss", poisoned)
    with pytest.raises(TrainingDiverged, match="at epoch 3$"):
        train(quick_config(epochs=3), out_dir=tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.jsonl"]
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert strip(json.loads(line) for line in lines) == clean[:2]


def test_early_stopping_cuts_run_short(monkeypatch):
    monkeypatch.setattr(training, "EARLY_STOP_PATIENCE", 5)
    cfg = quick_config(epochs=50)
    res = train(cfg)
    assert len(res.records) <= 50
    if len(res.records) < 50:
        best = max(r.val_metric for r in res.records)
        tail = [r.val_metric for r in res.records[-5:]]
        assert all(v <= best for v in tail)
