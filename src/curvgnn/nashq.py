"""Two-agent tabular Nash Q-learning over discretized curvature states.

One agent trains the network and decides whether to adopt newly proposed
curvatures; the other decides whether to spend effort exploring new ones.
Each epoch both act, both collect a task-metric reward, and both tables
bootstrap on the stage game's Nash equilibrium value instead of a max.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .manifold import DEFAULT_ZETA_MAX, DEFAULT_ZETA_MIN

log = logging.getLogger(__name__)


class HgnnAction(IntEnum):
    ADOPT = 0  # take the proposed curvatures for the next epoch
    KEEP = 1   # stay with the current ones


class AceAction(IntEnum):
    EXPLORE = 0  # re-estimate curvature and refresh the proposal
    HOLD = 1     # keep the standing proposal


JOINT_ACTIONS = tuple((h, a) for h in (HgnnAction.ADOPT, HgnnAction.KEEP)
                      for a in (AceAction.EXPLORE, AceAction.HOLD))

HGNN = 0
ACE = 1


STATE_BIN_WIDTH = 0.1  # curvature bin of a Q-table state
EQUILIBRIUM_PATIENCE = 20  # settled epochs before the curvatures freeze
# epsilon-greedy exploration: EPSILON_START * EPSILON_DECAY**epoch, floored
EPSILON_START = 0.9
EPSILON_FLOOR = 0.1
EPSILON_DECAY = 0.99


def discretize_state(zetas, zeta_min: float = DEFAULT_ZETA_MIN,
                     zeta_max: float = DEFAULT_ZETA_MAX) -> tuple:
    """Clamp each per-layer curvature into bounds and bin it for table keys."""
    bins = []
    for z in zetas:
        z = min(max(float(z), zeta_min), zeta_max)
        bins.append(int((z - zeta_min) / STATE_BIN_WIDTH + 1e-9))
    return tuple(bins)


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
    """Per-agent action-value tables keyed by discretized joint state."""

    def __init__(self):
        self._tables = ({}, {})  # HGNN, ACE

    def table(self, agent: int, state: tuple) -> np.ndarray:
        tbl = self._tables[agent]
        if state not in tbl:
            tbl[state] = np.zeros((2, 2))
        return tbl[state]

    def solve(self, state: tuple) -> NashSolution:
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


def q_update(tables: QTables, state: tuple, action, rewards, next_state: tuple,
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


def equilibrium_reached(history) -> bool:
    """Both agents settled: same state and a greedy (KEEP, HOLD) equilibrium
    for EQUILIBRIUM_PATIENCE consecutive epochs."""
    if len(history) < EQUILIBRIUM_PATIENCE:
        return False
    window = list(history)[-EQUILIBRIUM_PATIENCE:]
    state0 = window[0][0]
    for state, action in window:
        if state != state0 or action != (HgnnAction.KEEP, AceAction.HOLD):
            return False
    return True


def epsilon(epoch: int) -> float:
    """The exploration rate at a 0-based epoch: multiplicative decay from
    EPSILON_START toward EPSILON_FLOOR."""
    return max(EPSILON_FLOOR, EPSILON_START * EPSILON_DECAY ** epoch)
