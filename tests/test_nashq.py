"""Nash Q-learning tests: solver oracle, updates, exploration, termination."""

import numpy as np
import pytest

from curvgnn import nashq
from curvgnn.nashq import (ACE, HGNN, AceAction, HgnnAction,
                           QTables, discretize_state, epsilon_greedy_joint,
                           nash_equilibrium_2x2, q_update, settled_streak)


# ---------------------------------------------------------------------------
# state discretization
# ---------------------------------------------------------------------------

def test_discretize_basics():
    assert discretize_state(0.1, 0.1) == 0
    assert discretize_state(0.35, 0.1) == 2
    assert type(discretize_state(0.35, 0.1)) is int
    assert discretize_state(0.19, 0.1) == discretize_state(0.11, 0.1)
    assert discretize_state(10.0, 0.1) == 99
    assert discretize_state(1.0, 0.5) == 5


# ---------------------------------------------------------------------------
# equilibrium solver
# ---------------------------------------------------------------------------

BEST_RESPONSE_TOL = 1e-9  # largest gain from a unilateral deviation at a solution


def best_response_gap(q1, q2, pi1, pi2):
    """Max payoff an agent could gain by deviating unilaterally."""
    q1, q2 = np.asarray(q1, float), np.asarray(q2, float)
    v1 = pi1 @ q1 @ pi2
    v2 = pi1 @ q2 @ pi2
    gap1 = max(q1[0] @ pi2, q1[1] @ pi2) - v1
    gap2 = max(pi1 @ q2[:, 0], pi1 @ q2[:, 1]) - v2
    return max(gap1, gap2)


def test_common_payoff_dominant_action():
    q = [[1.0, 0.0], [0.0, 0.0]]
    sol = nash_equilibrium_2x2(q, q)
    assert sol.pure == (0, 0)
    assert sol.value_hgnn == sol.value_ace == 1.0
    assert np.array_equal(sol.pi_hgnn, [1.0, 0.0])


def test_matching_pennies_mixed():
    q1 = [[1.0, -1.0], [-1.0, 1.0]]
    sol = nash_equilibrium_2x2(q1, -np.asarray(q1))
    assert sol.pure is None
    assert np.array_equal(sol.pi_hgnn, [0.5, 0.5])
    assert np.array_equal(sol.pi_ace, [0.5, 0.5])


def test_random_games_produce_mutual_best_responses():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        q1 = rng.uniform(-1, 1, (2, 2))
        q2 = rng.uniform(-1, 1, (2, 2))
        sol = nash_equilibrium_2x2(q1, q2)
        gap = best_response_gap(q1, q2, sol.pi_hgnn, sol.pi_ace)
        assert gap <= BEST_RESPONSE_TOL


def test_pure_selection_prefers_highest_joint_payoff_then_index():
    # two pure equilibria, (0,0) pays 3 total, (1,1) pays 5
    q1 = [[2.0, 0.0], [0.0, 3.0]]
    q2 = [[1.0, 0.0], [0.0, 2.0]]
    assert nash_equilibrium_2x2(q1, q2).pure == (1, 1)
    # exact tie: index order wins
    z = [[1.0, 1.0], [1.0, 1.0]]
    assert nash_equilibrium_2x2(z, z).pure == (0, 0)


def test_pure_equilibrium_is_an_action_pair():
    q = [[0.0, 0.0], [0.0, 1.0]]
    sol = nash_equilibrium_2x2(q, q)
    assert sol.pure == (HgnnAction.KEEP, AceAction.HOLD)
    assert type(sol.pure[0]) is HgnnAction and type(sol.pure[1]) is AceAction
    # greedy play hands the equilibrium on as it is
    assert epsilon_greedy_joint(sol, 0.0, np.random.default_rng(0)) is sol.pure


def test_degenerate_game_falls_back_to_uniform():
    # no pure equilibrium and zero indifference denominators can't really
    # coexist for 2x2; force the branch through a crafted cycle-free case
    q1 = [[0.0, 1.0], [1.0, 0.0]]
    q2 = [[1.0, 0.0], [0.0, 1.0]]
    sol = nash_equilibrium_2x2(q1, q2)
    assert sol.pure is None
    assert sol.pi_hgnn == pytest.approx([0.5, 0.5])


def test_solver_rejects_nonfinite():
    with pytest.raises(ValueError):
        nash_equilibrium_2x2([[np.nan, 0], [0, 0]], np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# table values and updates
# ---------------------------------------------------------------------------

def test_nash_value_zero_table():
    t = QTables()
    assert t.solve(0).value_hgnn == 0.0


def test_nash_value_pure_case():
    t = QTables()
    t.table(HGNN, 1)[:] = [[2.0, 0.0], [0.0, 1.0]]
    t.table(ACE, 1)[:] = [[1.0, 0.0], [0.0, 0.5]]
    sol = t.solve(1)
    assert (sol.value_hgnn, sol.value_ace) == (2.0, 1.0)


def test_nash_value_mixed_matches_bilinear_form():
    t = QTables()
    q1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    t.table(HGNN, 2)[:] = q1
    t.table(ACE, 2)[:] = -q1
    sol = t.solve(2)
    want = float(sol.pi_hgnn @ q1 @ sol.pi_ace)
    assert sol.value_hgnn == pytest.approx(want)


def test_q_update_full_overwrite():
    t = QTables()
    q_update(t, 0, (HgnnAction.ADOPT, AceAction.HOLD), (0.7, -0.2), 0,
             alpha=1.0, beta=0.0)
    assert t.table(HGNN, 0)[0, 1] == 0.7
    assert t.table(ACE, 0)[0, 1] == -0.2


def test_q_update_geometric_decay():
    t = QTables()
    a = (HgnnAction.KEEP, AceAction.HOLD)
    t.table(HGNN, 0)[1, 1] = 1.0
    t.table(ACE, 0)[1, 1] = 1.0
    for _ in range(3):
        # rewards 0 and all successor values 0 except the entry itself decays
        before = t.table(HGNN, 0)[1, 1]
        q_update(t, 0, a, (0.0, 0.0), 9, alpha=0.25, beta=0.0)
        assert t.table(HGNN, 0)[1, 1] == pytest.approx(0.75 * before)


def test_q_update_two_step_hand_computed():
    t = QTables()
    a = (HgnnAction.ADOPT, AceAction.EXPLORE)
    # step 1 from zero tables: Q += 0.5 * (1.0 + 0.9 * 0 - 0) = 0.5
    q_update(t, 0, a, (1.0, 1.0), 1, alpha=0.5, beta=0.9)
    assert t.table(HGNN, 0)[0, 0] == pytest.approx(0.5)
    # give the successor state a known stage value: pure equilibrium at 0.6
    t.table(HGNN, 1)[:] = [[0.6, 0.0], [0.0, 0.0]]
    t.table(ACE, 1)[:] = [[0.4, 0.0], [0.0, 0.0]]
    # step 2: Q += 0.5 * (0.2 + 0.9*0.6 - 0.5) -> 0.5 + 0.5*0.24 = 0.62
    q_update(t, 0, a, (0.2, 0.2), 1, alpha=0.5, beta=0.9)
    assert t.table(HGNN, 0)[0, 0] == pytest.approx(0.62)
    # ACE side: 0.5 + 0.5*(0.2 + 0.9*0.4 - 0.5) = 0.53
    assert t.table(ACE, 0)[0, 0] == pytest.approx(0.53)


def test_q_update_targets_use_tables_before_the_step():
    # next_state == state: writing the HGNN entry first flips the stage
    # game's equilibrium from (0, 0) to (1, 1); ACE's target must still be
    # the value of the game as it stood before the step
    t = QTables()
    t.table(HGNN, 0)[:] = [[3.0, 0.0], [0.0, 1.0]]
    t.table(ACE, 0)[:] = [[3.0, 0.0], [0.0, 1.0]]
    q_update(t, 0, (HgnnAction.ADOPT, AceAction.EXPLORE), (-10.0, 0.0), 0,
             alpha=1.0, beta=0.9)
    assert t.solve(0).pure == (1, 1)
    assert t.table(HGNN, 0)[0, 0] == pytest.approx(-10.0 + 0.9 * 3.0)
    assert t.table(ACE, 0)[0, 0] == pytest.approx(0.9 * 3.0)


def test_q_update_validates_rates():
    t = QTables()
    a = (HgnnAction.KEEP, AceAction.HOLD)
    with pytest.raises(ValueError):
        q_update(t, 0, a, (0, 0), 0, alpha=0.0, beta=0.5)
    with pytest.raises(ValueError):
        q_update(t, 0, a, (0, 0), 0, alpha=0.5, beta=1.0)


def test_q_stays_bounded_for_bounded_rewards():
    rng = np.random.default_rng(7)
    t = QTables()
    beta = 0.9
    for _ in range(3000):
        s = int(rng.integers(0, 3))
        s2 = int(rng.integers(0, 3))
        a = (HgnnAction(int(rng.integers(0, 2))), AceAction(int(rng.integers(0, 2))))
        r = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        q_update(t, s, a, r, s2, alpha=0.5, beta=beta)
    bound = 1.0 / (1.0 - beta) + 1e-9
    for agent in (HGNN, ACE):
        for s in range(3):
            assert np.max(np.abs(t.table(agent, s))) <= bound


def test_epsilon_one_is_uniform_chi_square():
    rng = np.random.default_rng(11)
    t = QTables()
    counts = np.zeros(4)
    n = 10000
    for _ in range(n):
        h, a = epsilon_greedy_joint(t.solve(0), 1.0, rng)
        counts[2 * int(h) + int(a)] += 1
    chi2 = float(((counts - n / 4) ** 2 / (n / 4)).sum())
    assert chi2 < 16.27  # df=3 at p=0.001


def test_epsilon_zero_returns_unique_maximum():
    t = QTables()
    q = np.zeros((2, 2))
    q[0, 0] = 1.0  # unique max at (ADOPT, EXPLORE) for both agents
    t.table(HGNN, 0)[:] = q
    t.table(ACE, 0)[:] = q
    rng = np.random.default_rng(0)
    assert epsilon_greedy_joint(t.solve(0), 0.0, rng) == (HgnnAction.ADOPT,
                                                       AceAction.EXPLORE)


def test_epsilon_greedy_deterministic_under_seed():
    t = QTables()
    t.table(HGNN, 0)[:] = [[1.0, -1.0], [-1.0, 1.0]]
    t.table(ACE, 0)[:] = [[-1.0, 1.0], [1.0, -1.0]]
    rng_a = np.random.default_rng(4)
    rng_b = np.random.default_rng(4)
    seq_a = [epsilon_greedy_joint(t.solve(0), 0.5, rng_a) for _ in range(50)]
    seq_b = [epsilon_greedy_joint(t.solve(0), 0.5, rng_b) for _ in range(50)]
    assert seq_a == seq_b


def test_epsilon_validation():
    with pytest.raises(ValueError):
        epsilon_greedy_joint(QTables().solve(0), 1.5, np.random.default_rng(0))


def test_epsilon_schedule():
    assert nashq.epsilon(0) == 0.9
    assert nashq.epsilon(1) == pytest.approx(0.891)
    assert nashq.epsilon(10_000) == 0.1


# ---------------------------------------------------------------------------
# rewards and termination
# ---------------------------------------------------------------------------

def test_rewards_basics():
    r_h, r_a = nashq.compute_rewards(0.85, 0.82, 0.80)
    assert r_h == pytest.approx(0.05)
    assert r_a == pytest.approx(0.02)
    assert nashq.compute_rewards(0.8, 0.8, 0.8) == (0.0, 0.0)
    # an epoch that does not explore passes the previous metric as the remap
    assert nashq.compute_rewards(0.85, 0.80, 0.80) == (r_h, 0.0)
    worse = nashq.compute_rewards(0.75, 0.78, 0.80)
    assert worse[0] == pytest.approx(-r_h) and worse[1] == pytest.approx(-r_a)
    for bad in ((1.2, 0.5, 0.5), (0.5, -0.1, 0.5), (0.5, 0.5, np.nan)):
        with pytest.raises(ValueError):
            nashq.compute_rewards(*bad)


def equilibrium_reached(history) -> bool:
    """Oracle: both agents settled, i.e. the same state and a greedy (KEEP,
    HOLD) equilibrium for the last EQUILIBRIUM_PATIENCE entries of a list of
    (state, pure equilibrium) pairs."""
    if len(history) < nashq.EQUILIBRIUM_PATIENCE:
        return False
    window = list(history)[-nashq.EQUILIBRIUM_PATIENCE:]
    state0 = window[0][0]
    for state, action in window:
        if state != state0 or action != (HgnnAction.KEEP, AceAction.HOLD):
            return False
    return True


def test_settled_streak_matches_window_oracle():
    settle = (HgnnAction.KEEP, AceAction.HOLD)
    pures = [settle, (HgnnAction.KEEP, AceAction.EXPLORE),
             (HgnnAction.ADOPT, AceAction.HOLD), None]
    rng = np.random.default_rng(5)
    reached = 0
    for _ in range(3000):
        # mostly settled plays in few states, so long streaks occur
        n = int(rng.integers(1, 60))
        states = [int(s) for s in rng.choice(2, n, p=[0.95, 0.05])]
        plays = [settle if rng.random() < 0.93 else pures[int(rng.integers(1, 4))]
                 for _ in range(n)]
        streak, prev = 0, 0
        for i, (state, pure) in enumerate(zip(states, plays)):
            streak = settled_streak(streak, prev, state, pure)
            prev = state
            hist = list(zip(states[:i + 1], plays[:i + 1]))
            assert (streak >= nashq.EQUILIBRIUM_PATIENCE) == equilibrium_reached(hist)
            reached += equilibrium_reached(hist)
    assert reached > 100


def test_settled_streak_counts_one_state_at_keep_hold():
    settle = (HgnnAction.KEEP, AceAction.HOLD)
    assert settled_streak(4, 3, 3, settle) == 5
    assert settled_streak(4, 3, 4, settle) == 1
    assert settled_streak(0, 3, 3, settle) == 1
    assert settled_streak(4, 3, 3, (HgnnAction.KEEP, AceAction.EXPLORE)) == 0
    assert settled_streak(4, 3, 3, None) == 0


def test_bandit_convergence_on_common_payoff_game():
    """Stationary common-payoff stage game: greedy play finds the argmax."""
    payoff = np.array([[0.2, 0.9], [0.5, 0.1]])  # best joint action (0, 1)
    hits = 0
    trials = 10
    for trial in range(trials):
        rng = np.random.default_rng(100 + trial)
        t = QTables()
        s = 0
        for ep in range(500):
            eps = max(0.1, 0.9 * 0.995 ** ep)
            a = epsilon_greedy_joint(t.solve(s), eps, rng)
            r = float(payoff[int(a[0]), int(a[1])])
            q_update(t, s, a, (r, r), s, alpha=0.5, beta=0.0)
        sol = t.solve(s)
        if sol.pure == (0, 1):
            hits += 1
    assert hits >= trials - 1
