"""Two-agent tabular Nash Q-learning over discretized curvature states.

One agent trains the network and decides whether to adopt a newly proposed
curvature; the other decides whether to spend effort exploring new ones.
Each epoch both act, both collect a task-metric reward, and both tables
bootstrap on the stage game's Nash equilibrium value instead of a max.
`CurvatureSearch` plays this over a training run; the rest are its parts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import curvature, manifold

log = logging.getLogger(__name__)


class HgnnAction(IntEnum):
    ADOPT = 0  # take the proposed curvature for the next epoch
    KEEP = 1   # stay with the current one


class AceAction(IntEnum):
    EXPLORE = 0  # re-estimate curvature and refresh the proposal
    HOLD = 1     # keep the standing proposal


JOINT_ACTIONS = tuple((h, a) for h in (HgnnAction.ADOPT, HgnnAction.KEEP)
                      for a in (AceAction.EXPLORE, AceAction.HOLD))

HGNN = 0
ACE = 1


STATE_BIN_WIDTH = 0.1  # curvature bin of a Q-table state
EQUILIBRIUM_PATIENCE = 20  # settled epochs before the curvature freezes
# epsilon-greedy exploration: EPSILON_START * EPSILON_DECAY**epoch, floored
EPSILON_START = 0.9
EPSILON_FLOOR = 0.1
EPSILON_DECAY = 0.99


def discretize_state(zeta: float, zeta_min: float) -> int:
    """The Q-table state of curvature `zeta`: its bin above `zeta_min`."""
    return int((zeta - zeta_min) / STATE_BIN_WIDTH + 1e-9)


@dataclass(frozen=True)
class NashSolution:
    pi_hgnn: np.ndarray
    pi_ace: np.ndarray
    value_hgnn: float
    value_ace: float
    pure: tuple | None  # (HgnnAction, AceAction) when a pure equilibrium exists


def _pure_equilibria(q1: np.ndarray, q2: np.ndarray) -> list:
    out = []
    for i in range(2):
        for j in range(2):
            if q1[i, j] >= q1[1 - i, j] and q2[i, j] >= q2[i, 1 - j]:
                out.append((i, j))
    return out


def nash_equilibrium_2x2(q1, q2) -> NashSolution:
    """Equilibrium of the 2x2 bimatrix game (rows: agent 1, cols: agent 2).

    Pure equilibria win when they exist; among several, the one with the
    highest joint payoff, then the smallest action indices. Otherwise the
    mixed equilibrium from the indifference conditions; a degenerate
    denominator falls back to uniform mixing (logged).
    """
    q1 = np.asarray(q1, dtype=np.float64).reshape(2, 2)
    q2 = np.asarray(q2, dtype=np.float64).reshape(2, 2)
    if not (np.all(np.isfinite(q1)) and np.all(np.isfinite(q2))):
        raise ValueError("stage game has non-finite payoffs")
    pure = _pure_equilibria(q1, q2)
    if pure:
        best = max(pure, key=lambda ij: (q1[ij] + q2[ij], -ij[0], -ij[1]))
        pi1 = np.eye(2)[best[0]]
        pi2 = np.eye(2)[best[1]]
        return NashSolution(pi1, pi2, float(q1[best]), float(q2[best]),
                            (HgnnAction(best[0]), AceAction(best[1])))

    den1 = q2[0, 0] - q2[0, 1] - q2[1, 0] + q2[1, 1]
    den2 = q1[0, 0] - q1[1, 0] - q1[0, 1] + q1[1, 1]
    if abs(den1) < 1e-300 or abs(den2) < 1e-300:
        log.info("degenerate stage game; falling back to uniform mixing")
        p = q = 0.5
    else:
        p = (q2[1, 1] - q2[1, 0]) / den1  # P(agent1 plays row 0)
        q = (q1[1, 1] - q1[0, 1]) / den2  # P(agent2 plays col 0)
        p = min(max(p, 0.0), 1.0)
        q = min(max(q, 0.0), 1.0)
    pi1 = np.array([p, 1.0 - p])
    pi2 = np.array([q, 1.0 - q])
    return NashSolution(pi1, pi2, float(pi1 @ q1 @ pi2), float(pi1 @ q2 @ pi2), None)


class QTables:
    """Per-agent action-value tables keyed by discretized curvature state."""

    def __init__(self):
        self._tables = ({}, {})  # HGNN, ACE

    def table(self, agent: int, state: int) -> np.ndarray:
        tbl = self._tables[agent]
        if state not in tbl:
            tbl[state] = np.zeros((2, 2))
        return tbl[state]

    def solve(self, state: int) -> NashSolution:
        return nash_equilibrium_2x2(self.table(HGNN, state), self.table(ACE, state))


def epsilon_greedy_joint(sol: NashSolution, eps: float, rng: np.random.Generator):
    """Uniform joint action with probability eps, else the equilibrium play.

    ``sol`` is the stage game's solution at the current state. A pure
    equilibrium is returned as-is; a mixed one is sampled from the product
    of the two strategies.
    """
    if not (0.0 <= eps <= 1.0):
        raise ValueError("eps must lie in [0, 1]")
    if rng.random() < eps:
        return JOINT_ACTIONS[int(rng.integers(0, 4))]
    if sol.pure is not None:
        return sol.pure
    i = 0 if rng.random() < sol.pi_hgnn[0] else 1
    j = 0 if rng.random() < sol.pi_ace[0] else 1
    return HgnnAction(i), AceAction(j)


def q_update(tables: QTables, state: int, action, rewards, next_state: int,
             alpha: float, beta: float) -> None:
    """Nash-Q Bellman step for both agents at the taken joint action.

    Both targets bootstrap on the stage game at next_state as it stood before
    this step, also when next_state is state itself (Hu & Wellman).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must lie in [0, 1)")
    i, j = int(action[0]), int(action[1])
    sol = tables.solve(next_state)
    for agent, reward, value in ((HGNN, rewards[0], sol.value_hgnn),
                                 (ACE, rewards[1], sol.value_ace)):
        target = reward + beta * value
        tbl = tables.table(agent, state)
        tbl[i, j] += alpha * (target - tbl[i, j])


def compute_rewards(metric_curr: float, metric_remapped: float, metric_prev: float):
    """Per-agent improvements of the validation metric over the previous
    epoch's value.

    The training agent is scored on the newly trained embeddings, the
    exploration agent on the freshly remapped ones; an epoch that does not
    explore passes metric_remapped = metric_prev, a zero reward.
    """
    for m in (metric_curr, metric_remapped, metric_prev):
        if not (0.0 <= m <= 1.0):
            raise ValueError(f"metrics must lie in [0, 1], got {m}")
    return metric_curr - metric_prev, metric_remapped - metric_prev


def settled_streak(streak: int, prev_state: int, state: int, pure) -> int:
    """Epochs in a row, this one included, that ended in one state at a
    greedy (KEEP, HOLD) equilibrium; `streak` is the count before this epoch."""
    if pure != (HgnnAction.KEEP, AceAction.HOLD):
        return 0
    return streak + 1 if state == prev_state else 1


def epsilon(epoch: int) -> float:
    """The exploration rate at a 0-based epoch: multiplicative decay from
    EPSILON_START toward EPSILON_FLOOR."""
    return max(EPSILON_FLOOR, EPSILON_START * EPSILON_DECAY ** epoch)


class CurvatureSearch:
    """The search for a training run's one curvature, which `train` sets on
    the model; one `update` per epoch.

    `update` runs after the epoch's training step and val score. The joint
    action may be drawn that late because the step reads nothing of the
    search: the search draws from its own stream, an adopted curvature
    takes effect the next epoch, and EXPLORE reads the previous epoch's
    embeddings. With RL off the search starts frozen. The curvature and
    tabular functions are called through their modules, so wrapping a
    module attribute reaches every call.
    """

    def __init__(self, config, graph, emb: np.ndarray, metric: float, score):
        """`emb`: eval embeddings at `config.zeta0`, with val score `metric`;
        `score(emb, zeta)`: val score of embeddings at output curvature zeta."""
        self._config, self._graph, self._score = config, graph, score
        self._rng = np.random.default_rng([config.seed, 4])
        self._tables = QTables()
        self._zeta = self._proposal = config.zeta0
        self._prev = (emb, self._zeta, metric)  # embeddings, their curvature, score
        self._state = discretize_state(self._zeta, config.zeta_min)
        self._streak = 0
        self.freeze_epoch: int | None = None
        # the stage game's solution at the state, None while frozen; after each
        # update it is the one q_update left, since nothing changes the tables
        # or the curvature before the next epoch's greedy play
        self._sol = self._tables.solve(self._state) if config.rl_enabled else None

    def update(self, epoch: int, emb: np.ndarray, metric: float):
        """Play epoch `epoch` (from 1) on its eval embeddings `emb`, scored `metric`;
        return the next curvature and the record's action and reward fields."""
        cfg = self._config
        emb_prev, zeta_prev, metric_prev = self._prev
        self._prev = (emb, self._zeta, metric)
        action = None if self._sol is None else epsilon_greedy_joint(
            self._sol, epsilon(epoch - 1), self._rng)

        metric_remap = metric_prev
        if action is not None and action[1] == AceAction.EXPLORE:
            est = curvature.estimate_kappa(self._graph, emb_prev, zeta_prev,
                                           seed=cfg.seed * 100003 + epoch)
            self._proposal = curvature.update_curvature(self._zeta, est.kappa, cfg.gamma,
                                                        cfg.zeta_min, cfg.zeta_max)
            remapped = manifold.transfer_curvature(emb_prev, zeta_prev, self._proposal)
            metric_remap = self._score(remapped, self._proposal)
        r_hgnn, r_ace = compute_rewards(metric, metric_remap, metric_prev)

        if action is not None:
            if action[0] == HgnnAction.ADOPT:
                self._zeta = self._proposal
            state = discretize_state(self._zeta, cfg.zeta_min)
            q_update(self._tables, self._state, action, (r_hgnn, r_ace), state,
                     cfg.alpha, cfg.beta)
            self._sol = self._tables.solve(state)
            self._streak = settled_streak(self._streak, self._state, state, self._sol.pure)
            self._state = state
            if self._streak >= EQUILIBRIUM_PATIENCE:
                self._sol, self.freeze_epoch = None, epoch
                log.info("Nash equilibrium reached at epoch %d; curvature frozen "
                         "at %g", epoch, self._zeta)
        return self._zeta, {"r_hgnn": r_hgnn, "r_ace": r_ace,
                            "action_hgnn": action[0].name if action else None,
                            "action_ace": action[1].name if action else None}
