import itertools
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmtd import (
    BipartiteGraph,
    CodeSet,
    ConfigurationSet,
    GameMatrix,
    LinearProgram,
    SolverError,
    TrialReport,
    UtilityProfile,
    attacker_payoff,
    best_response,
    build_bipartite,
    build_game,
    defender_payoff,
    find_kmax,
    greedy_k,
    is_dcs,
    is_feasible,
    parse_matpower,
    random_bipartite,
    random_profile,
    run_trials,
    solve_lp,
    solve_sse,
    urs_value,
)
from gridmtd import mtd_game
from gridmtd.mtd_game import _BATCH_TRIALS, _live_columns, format_value, trial_rng
from gridmtd.optim import FEAS_TOL, TIE_TOL
from conftest import feasible_corpus


@pytest.fixture
def tiny_config():
    return ConfigurationSet(
        (CodeSet(frozenset({"s1", "s2"})), CodeSet(frozenset({"s3", "s4"})))
    )


@pytest.fixture
def tiny_profile():
    return UtilityProfile(
        {"t1": 10.0, "t2": 5.0}, {"s1": 2.0, "s2": 0.0, "s3": 0.0, "s4": 0.0}
    )


def zero_cost_profile(g, utilities):
    return UtilityProfile(utilities, {s: 0.0 for s in g.s_ids})


# ---------------------------------------------------------------------------
# Payoffs


def test_defender_payoff_hand_values(tiny_graph, tiny_config, tiny_profile):
    active = tiny_config.sets[0]
    # s1 knocked out: t1's code empties, t2 keeps s2
    assert defender_payoff(tiny_graph, active, "s1", tiny_profile) == 5.0
    # attack outside the active set changes nothing
    assert defender_payoff(tiny_graph, active, "s3", tiny_profile) == 15.0
    assert defender_payoff(tiny_graph, active, "s2", tiny_profile) == 10.0


def test_attacker_payoff_hand_values(tiny_graph, tiny_config, tiny_profile):
    active = tiny_config.sets[0]
    assert attacker_payoff(tiny_graph, active, "s1", tiny_profile) == 8.0  # 10 - 2
    assert attacker_payoff(tiny_graph, active, "s3", tiny_profile) == 0.0
    costly = UtilityProfile(
        {"t1": 10.0, "t2": 5.0}, {"s1": 2.0, "s2": 0.0, "s3": 3.0, "s4": 0.0}
    )
    assert attacker_payoff(tiny_graph, active, "s3", costly) == -3.0
    # with cost_on_miss off, a missed attack is free
    assert attacker_payoff(tiny_graph, active, "s3", costly, cost_on_miss=False) == 0.0


def test_collision_disqualifies_both():
    # t2 is heard only by s1; losing s2 makes t1 and t2 indistinguishable
    g = BipartiteGraph(("t1", "t2"), ("s1", "s2"), (frozenset({0, 1}), frozenset({0})))
    u = zero_cost_profile(g, {"t1": 10.0, "t2": 5.0})
    active = CodeSet(frozenset({"s1", "s2"}))
    assert defender_payoff(g, active, "s2", u) == 0.0
    assert attacker_payoff(g, active, "s2", u) == 15.0


def test_build_game_shape_and_rows(tiny_graph, tiny_config):
    u = zero_cost_profile(tiny_graph, {"t1": 10.0, "t2": 5.0})
    game = build_game(tiny_graph, tiny_config, u)
    assert game.attacker_actions == ("s1", "s2", "s3", "s4")
    assert game.defender_payoffs.shape == (2, 4)
    assert list(game.defender_payoffs[0]) == [5.0, 10.0, 15.0, 15.0]


def test_build_game_k1_shape(tiny_graph):
    cfg = ConfigurationSet((CodeSet(frozenset({"s1", "s2"})),))
    u = zero_cost_profile(tiny_graph, {"t1": 1.0, "t2": 1.0})
    game = build_game(tiny_graph, cfg, u)
    assert game.defender_payoffs.shape == (1, 2)


def test_build_game_missing_utility(tiny_graph, tiny_config):
    with pytest.raises(ValueError, match="missing"):
        build_game(
            tiny_graph,
            tiny_config,
            UtilityProfile({"t1": 1.0}, {s: 0.0 for s in tiny_graph.s_ids}),
        )
    with pytest.raises(ValueError, match="missing attack cost"):
        build_game(
            tiny_graph,
            tiny_config,
            UtilityProfile({"t1": 1.0, "t2": 1.0}, {"s1": 0.0}),
        )


def test_utility_profile_range_check():
    with pytest.raises(ValueError, match="outside"):
        UtilityProfile({"t1": 11.0}, {})
    with pytest.raises(ValueError, match="outside"):
        UtilityProfile({}, {"s1": -0.5})


def reference_payoffs(g, active, attacked, u, cost_on_miss=True):
    """Per-pair definition of (defender, attacker) payoff: residual codes
    counted with a Counter, utilities added left to right in transformer order."""
    sensors = active.sensors if isinstance(active, CodeSet) else frozenset(active)
    residual = g.site_indices(sensors - {attacked})
    codes = [nb & residual for nb in g.adj]
    counts = Counter(codes)
    kept = lost = 0.0
    for tid, code in zip(g.t_ids, codes):
        if code and counts[code] == 1:
            kept += u.transformer_utility[tid]
        else:
            lost += u.transformer_utility[tid]
    if cost_on_miss or attacked in sensors:
        lost -= u.attack_cost[attacked]
    return kept, lost


def test_payoff_matrix_matches_direct_calls():
    for i, g in enumerate(feasible_corpus(seed=53, count=40, s_lo=4, s_hi=10)):
        u = random_profile(g, np.random.default_rng(i), integer_utilities=i % 2 == 1)
        for cfg, cost_on_miss in itertools.product((find_kmax(g), greedy_k(g)), (True, False)):
            game = build_game(g, cfg, u, cost_on_miss)
            expect = np.array(
                [
                    [reference_payoffs(g, cs, sid, u, cost_on_miss) for sid in game.attacker_actions]
                    for cs in cfg.sets
                ]
            )
            assert np.array_equal(game.defender_payoffs, expect[:, :, 0])
            assert np.array_equal(game.attacker_payoffs, expect[:, :, 1])

    # the direct calls on active sets that are not discriminating
    rng = np.random.default_rng(8)
    checked = 0
    for i, g in enumerate(feasible_corpus(seed=59, count=20, s_lo=4, s_hi=8)):
        u = random_profile(g, np.random.default_rng(100 + i))
        for _ in range(10):
            active = frozenset(s for s in g.s_ids if rng.random() < 0.4)
            if is_dcs(g, active):
                continue
            checked += 1
            for sid in g.s_ids:
                for com in (True, False):
                    d, a = reference_payoffs(g, active, sid, u, com)
                    assert defender_payoff(g, active, sid, u) == d
                    assert attacker_payoff(g, active, sid, u, com) == a
    assert checked >= 50


def reference_build_game(g, config, u, cost_on_miss=True):
    """build_game as it was before its frame was cached: every array from
    scratch on each call."""
    util = np.array([mtd_game._utility(u, tid) for tid in g.t_ids])
    site_idx = sorted(g.site_indices(config.all_sites()))
    attacker_actions = tuple(g.s_ids[s] for s in site_idx)
    cost = np.array([mtd_game._cost(u, sid) for sid in attacker_actions])
    sets = [g.site_indices(cs.sensors) for cs in config.sets]
    flags = mtd_game._identified(g, sets, site_idx)
    hit = np.array([[s in st for s in site_idx] for st in sets])
    dm = mtd_game._sum_by_transformer(flags, util)
    am = mtd_game._sum_by_transformer(~flags, util) - (cost if cost_on_miss else hit * cost)
    return GameMatrix(config.sets, attacker_actions, dm, am)


def assert_same_game(a, b):
    assert (a.defender_actions, a.attacker_actions) == (b.defender_actions, b.attacker_actions)
    for x, y in ((a.defender_payoffs, b.defender_payoffs), (a.attacker_payoffs, b.attacker_payoffs)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_cached_frames_give_the_reference_games(case14_families):
    g, greedy, optimal = case14_families
    for cfg, cost_on_miss, integer_utilities in itertools.product(
        (greedy, optimal), (True, False), (True, False)
    ):
        for trial in range(6):
            u = random_profile(g, trial_rng(7, trial), integer_utilities)
            assert_same_game(build_game(g, cfg, u, cost_on_miss), reference_build_game(g, cfg, u, cost_on_miss))
    for i, g in enumerate(feasible_corpus(seed=71, count=30, s_lo=4, s_hi=10)):
        u = random_profile(g, np.random.default_rng(i), integer_utilities=i % 2 == 1)
        for cfg, cost_on_miss in itertools.product((find_kmax(g), greedy_k(g)), (True, False)):
            assert_same_game(build_game(g, cfg, u, cost_on_miss), reference_build_game(g, cfg, u, cost_on_miss))
    # the cache is bounded, so a long run cannot pile up frames
    assert 1 <= mtd_game._frame.cache_info().maxsize <= 64


def test_cached_frame_arrays_are_read_only(tiny_graph, tiny_config):
    _, flags, hit = mtd_game._frame(tiny_graph, tiny_config)
    for a in (flags, hit):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = not a[(0,) * a.ndim]


def test_frames_follow_the_adjacency_not_the_ids():
    # two graphs with the same ids and configuration but other edges
    ids = (("t1", "t2"), ("s1", "s2", "s3", "s4"))
    graphs = [BipartiteGraph(*ids, (frozenset({0, 2}), frozenset({1, 3}))),
              BipartiteGraph(*ids, (frozenset({0, 1, 2}), frozenset({1, 3})))]
    cfg = ConfigurationSet((CodeSet(frozenset({"s1", "s2"})), CodeSet(frozenset({"s3", "s4"}))))
    u = UtilityProfile({"t1": 10.0, "t2": 5.0}, {"s1": 1.0, "s2": 2.0, "s3": 3.0, "s4": 4.0})
    games = [build_game(g, cfg, u) for g in graphs]
    for g, game in zip(graphs, games):
        assert_same_game(game, reference_build_game(g, cfg, u))
    assert games[0].defender_payoffs.tobytes() != games[1].defender_payoffs.tobytes()


# ---------------------------------------------------------------------------
# Equilibrium


def test_sse_hand_fixture(tiny_graph, tiny_config, tiny_profile):
    game = build_game(tiny_graph, tiny_config, tiny_profile)
    sse = solve_sse([game])[0]
    assert sse.defender_mix == pytest.approx([0.6, 0.4], abs=1e-6)
    assert game.attacker_actions[sse.attacker_response] == "s3"
    assert sse.defender_value == pytest.approx(11.0, abs=1e-6)


def test_sse_all_costs_zero(tiny_graph, tiny_config):
    u = zero_cost_profile(tiny_graph, {"t1": 10.0, "t2": 5.0})
    game = build_game(tiny_graph, tiny_config, u)
    sse = solve_sse([game])[0]
    assert sse.defender_value == pytest.approx(10.0, abs=1e-6)
    assert sse.defender_mix == pytest.approx([0.5, 0.5], abs=1e-6)


def test_sse_single_action(tiny_graph):
    cfg = ConfigurationSet((CodeSet(frozenset({"s1", "s2"})),))
    u = zero_cost_profile(tiny_graph, {"t1": 10.0, "t2": 5.0})
    game = build_game(tiny_graph, cfg, u)
    sse = solve_sse([game])[0]
    assert sse.defender_mix == pytest.approx([1.0], abs=1e-9)
    j, att_val, dfd_val = best_response(game, np.array([1.0]))
    assert sse.defender_value == pytest.approx(dfd_val, abs=1e-6)


def test_urs_hand_fixture(tiny_graph, tiny_config, tiny_profile):
    game = build_game(tiny_graph, tiny_config, tiny_profile)
    assert urs_value(game) == pytest.approx(10.0, abs=1e-6)
    j, att_val, _ = best_response(game, np.array([0.5, 0.5]))
    assert game.attacker_actions[j] == "s3"
    assert att_val == pytest.approx(5.0, abs=1e-6)


def test_best_response_ties_go_to_the_lowest_action_near_the_best():
    # actions 1-3 tie for the attacker, action 0 does not; their defender
    # values form a chain of near ties: action 2 lies within TIE_TOL of
    # action 3, the best, and action 1 does not, so action 2 answers
    sets = (CodeSet(frozenset({"a"})),)
    am = np.array([[-1.0, 0.0, 0.5 * TIE_TOL, 0.0]])
    dm = np.array([[9.0, 1.0, 1.0 + 0.6 * TIE_TOL, 1.0 + 1.2 * TIE_TOL]])
    game = GameMatrix(sets, ("s0", "s1", "s2", "s3"), dm, am)
    assert best_response(game, np.array([1.0])) == (2, 0.5 * TIE_TOL, 1.0 + 0.6 * TIE_TOL)


def test_urs_equals_sse_for_single_action(tiny_graph):
    cfg = ConfigurationSet((CodeSet(frozenset({"s3", "s4"})),))
    u = zero_cost_profile(tiny_graph, {"t1": 3.0, "t2": 9.0})
    game = build_game(tiny_graph, cfg, u)
    assert urs_value(game) == pytest.approx(solve_sse([game])[0].defender_value, abs=1e-6)


def test_sse_best_response_certificate_and_dominance():
    for i, g in enumerate(feasible_corpus(seed=31, count=15, s_lo=4, s_hi=8)):
        cfg = greedy_k(g)
        u = random_profile(g, np.random.default_rng(1000 + i))
        game = build_game(g, cfg, u)
        sse = solve_sse([game])[0]
        att = sse.defender_mix @ game.attacker_payoffs
        assert att[sse.attacker_response] >= att.max() - 1e-6
        assert sse.defender_value >= urs_value(game) - 1e-6


def _sse_two_action_oracle(game):
    """Exact optimum for two defender actions: with defender-favorable ties
    the commitment value is attained at p in {0, 1} or where two attacker
    payoff lines cross, so enumerate those points."""
    am, dm = game.attacker_payoffs, game.defender_payoffs
    candidates = {0.0, 1.0}
    A = game.n_attacker
    for j in range(A):
        for jp in range(j + 1, A):
            # attacker payoff of j under mix (p, 1-p): p*am[0,j] + (1-p)*am[1,j]
            da = (am[0, j] - am[1, j]) - (am[0, jp] - am[1, jp])
            if abs(da) > 1e-12:
                p = (am[1, jp] - am[1, j]) / da
                if -1e-9 <= p <= 1 + 1e-9:
                    candidates.add(min(1.0, max(0.0, p)))
    best = -np.inf
    for p in sorted(candidates):
        mix = np.array([p, 1.0 - p])
        att = mix @ am
        dfd = mix @ dm
        top = att.max()
        value = max(dfd[j] for j in range(A) if att[j] >= top - 1e-9)
        best = max(best, value)
    return best


def test_sse_matches_breakpoint_oracle_on_two_set_games():
    count = 0
    for i, g in enumerate(feasible_corpus(seed=77, count=60, s_lo=4, s_hi=9)):
        cfg = find_kmax(g)
        if cfg.K != 2:
            continue
        u = random_profile(g, np.random.default_rng(4000 + i))
        game = build_game(g, cfg, u)
        sse = solve_sse([game])[0]
        assert sse.defender_value == pytest.approx(
            _sse_two_action_oracle(game), abs=1e-6
        )
        count += 1
    assert count >= 10  # enough two-set games actually exercised


def full_lp(game, j):
    """The LP of attacker action j with a best-response row against every
    other action: maximize the defender's value of j over the simplex."""
    am = game.attacker_payoffs
    gaps = np.delete(am[:, [j]] - am, j, axis=1).T
    rows = [np.ones(game.n_defender)] + list(gaps)
    relations = ("=",) + (">=",) * len(gaps)
    return LinearProgram(game.defender_payoffs[:, j], rows, relations, [1.0] + [0.0] * len(gaps))


def reference_sse(game):
    """(attacker response, defender value) of the multiple-LPs method with no
    pruning: every action's full LP, the lowest feasible one within TIE_TOL
    of the best winning."""
    solved = []
    for j in range(game.n_attacker):
        sol = solve_lp(full_lp(game, j))
        if sol.status == "optimal":
            solved.append((j, sol.objective_value))
    if not solved:
        raise SolverError("no attacker action admitted a feasible best-response region")
    top = max(value for _, value in solved)
    return next(s for s in solved if s[1] >= top - TIE_TOL)


def assert_pruning_exact(game):
    """solve_sse agrees with reference_sse, and every action it prunes has an
    infeasible full LP. Returns the number of pruned actions."""
    sse = solve_sse([game])[0]
    response, value = reference_sse(game)
    assert sse.attacker_response == response
    assert sse.defender_value == pytest.approx(value, abs=1e-9)
    pruned = sorted(set(range(game.n_attacker)) - set(_live_columns(game.attacker_payoffs)))
    for j in pruned:
        assert solve_lp(full_lp(game, j)).status == "infeasible"
    return len(pruned)


def test_sse_pruning_matches_reference_on_case14(case14_text):
    g = build_bipartite(parse_matpower(case14_text), ["4-7", "4-9", "5-6", "7-8", "7-9"])
    pruned = columns = 0
    for cfg in (find_kmax(g), greedy_k(g)):
        for cost_on_miss, integer_utilities in itertools.product((True, False), repeat=2):
            for trial in range(5):
                u = random_profile(g, trial_rng(42, trial), integer_utilities)
                game = build_game(g, cfg, u, cost_on_miss)
                pruned += assert_pruning_exact(game)
                columns += game.n_attacker
    assert pruned > columns // 4


def test_sse_pruning_matches_reference_on_corpus():
    pruned = 0
    for i, g in enumerate(feasible_corpus(seed=61, count=30, s_lo=4, s_hi=10)):
        u = random_profile(g, np.random.default_rng(i), integer_utilities=i % 2 == 1)
        for cfg, cost_on_miss in itertools.product((find_kmax(g), greedy_k(g)), (True, False)):
            pruned += assert_pruning_exact(build_game(g, cfg, u, cost_on_miss))
    assert pruned > 0


def test_sse_pruning_margin_is_feas_tol():
    # action 0 beats action 1 by FEAS_TOL / 2 in row 0 and by 5 in row 1, so
    # solve_lp reports the full LP of action 1 feasible and the action must
    # stay; action 1 pays the defender most. Action 0 beats action 2 by 1.0 in
    # both rows, so action 2 goes.
    h = FEAS_TOL / 2
    am = np.array([[0.0, -h, -1.0, -2.0], [1.0, -4.0, 0.0, 2.0]])
    dm = np.array([[1.0, 9.0, 8.0, 2.0], [2.0, 9.0, 8.0, 3.0]])
    sets = (CodeSet(frozenset({"a"})), CodeSet(frozenset({"b"})))
    game = GameMatrix(sets, ("s0", "s1", "s2", "s3"), dm, am)
    assert solve_lp(full_lp(game, 1)).status == "optimal"
    assert list(_live_columns(am)) == [0, 1, 3]
    assert assert_pruning_exact(game) == 1


def sequential_pick(game):
    """solve_sse's rule with each of the game's live LPs solved alone: the
    first optimal action whose value lies within TIE_TOL of the best."""
    am, live = game.attacker_payoffs, _live_columns(game.attacker_payoffs)
    solved = []
    for j in live:
        gaps = am[:, [j]] - am[:, [jp for jp in live if jp != j]]
        rows = [np.ones(game.n_defender)] + list(gaps.T)
        sol = solve_lp(LinearProgram(
            game.defender_payoffs[:, j], rows, ("=",) + (">=",) * gaps.shape[1], [1.0] + [0.0] * gaps.shape[1]
        ))
        if sol.status == "optimal":
            solved.append((int(j), sol.objective_value, sol.assignment))
    top = max(value for _, value, _ in solved)
    return next(s for s in solved if s[1] >= top - TIE_TOL)


def test_sse_tie_goes_to_the_lowest_action():
    # action 1 pays the defender more than action 0 by half TIE_TOL: a tie,
    # so action 0 wins; by twice TIE_TOL action 1 wins itself
    sets = (CodeSet(frozenset({"a"})), CodeSet(frozenset({"b"})))
    for nudge, winner in ((0.5, 0), (2.0, 1)):
        dm = np.array([[1.0, 1.0 + nudge * TIE_TOL], [0.0, 0.0]])
        game = GameMatrix(sets, ("s0", "s1"), dm, np.zeros((2, 2)))
        assert solve_sse([game])[0].attacker_response == winner
    # a chain of near ties: action 1 lies within TIE_TOL of action 2, the
    # best, and action 0 does not, so action 1 wins
    dm = np.array([[1.0, 1.0 + 0.6 * TIE_TOL, 1.0 + 1.2 * TIE_TOL], [0.0, 0.0, 0.0]])
    game = GameMatrix(sets, ("s0", "s1", "s2"), dm, np.zeros((2, 3)))
    assert solve_sse([game])[0].attacker_response == sequential_pick(game)[0] == 1
    # games with a near twin of action 0, solved as one stack, pick what
    # their LPs solved one at a time pick
    rng = np.random.default_rng(41)
    games = []
    for t in range(60):
        K, A = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        am, dm = rng.integers(-3, 4, size=(2, K, A)).astype(float)
        am[:, -1] = am[:, 0]
        dm[:, -1] = dm[:, 0] * (1 + rng.choice([0.2, 0.5, 2.0]) * TIE_TOL) + (t % 2) * TIE_TOL
        sets = tuple(CodeSet(frozenset({f"d{k}"})) for k in range(K))
        games.append(GameMatrix(sets, tuple(f"s{j}" for j in range(A)), dm, am))
    for game, sse in zip(games, solve_sse(games)):
        j, value, mix = sequential_pick(game)
        assert (sse.attacker_response, sse.defender_value) == (j, value)
        assert sse.defender_mix.tobytes() == mix.tobytes()


@pytest.fixture(scope="module")
def case14_families():
    text = (Path(__file__).parent.parent / "data" / "case14.m").read_text()
    g = build_bipartite(parse_matpower(text), ["4-7", "4-9", "5-6", "7-8", "7-9"])
    return g, greedy_k(g), find_kmax(g)


def assert_same_sse(a, b):
    assert a.defender_mix.tobytes() == b.defender_mix.tobytes()
    assert (a.attacker_response, a.defender_value, a.attacker_value) == (
        b.attacker_response, b.defender_value, b.attacker_value
    )


def test_batched_sse_equals_solo_sse(case14_families):
    # run_trials stacks the LPs of many trials' games; every row must equal
    # its two games solved alone, bit for bit, with batches mixing live counts
    g, greedy, optimal = case14_families
    n, mixed = 2 * _BATCH_TRIALS + 3, 0
    for seed, cost_on_miss, integer_utilities in itertools.product((1, 2, 3), (True, False), (True, False)):
        rep = run_trials(g, greedy, optimal, n, seed, cost_on_miss, integer_utilities)
        batch = []
        for trial in range(n):
            u = random_profile(g, trial_rng(seed, trial), integer_utilities)
            games = [build_game(g, cfg, u, cost_on_miss) for cfg in (greedy, optimal)]
            alone = [solve_sse([game])[0] for game in games]
            assert rep.values[trial].tolist() == [urs_value(x) for x in games] + [s.defender_value for s in alone]
            batch.append(games[1])
            if len(batch) == _BATCH_TRIALS:
                mixed += len({_live_columns(x.attacker_payoffs).size for x in batch}) > 1
                for a, b in zip(solve_sse(batch), (solve_sse([x])[0] for x in batch)):
                    assert_same_sse(a, b)
                batch = []
    assert mixed > 0


def test_case14_sse_stack_members_match_their_solves_alone(case14_families, monkeypatch):
    # one run_trials batch on case14: every member of each SSE stack, solved
    # as its own LinearProgram (a stack of one, on the scalar loop), gets the
    # bits it got in its stack (on the batched loop)
    g, greedy, optimal = case14_families
    stacks = []
    monkeypatch.setattr(mtd_game, "solve_lp", lambda p: stacks.append((p, solve_lp(p))) or stacks[-1][1])
    run_trials(g, greedy, optimal, _BATCH_TRIALS, seed=1, integer_utilities=True)
    assert stacks
    for p, sol in stacks:
        assert len(p.objective) >= 2
        for k, (obj, matrix) in enumerate(zip(p.objective, p.constraints)):
            single = solve_lp(LinearProgram(obj, matrix, p.relations, p.rhs))
            assert single.status == sol.statuses[k]
            if single.status == "optimal":
                assert single.assignment.tobytes() == sol.assignment[k].tobytes()
                assert single.objective_value == sol.objective_value[k]
                assert single.duals.tobytes() == sol.duals[k].tobytes()


def test_batched_sse_matches_reference_on_corpus():
    games = []
    for i, g in enumerate(feasible_corpus(seed=67, count=20, s_lo=4, s_hi=10)):
        u = random_profile(g, np.random.default_rng(i), integer_utilities=i % 2 == 1)
        for cfg, cost_on_miss in itertools.product((find_kmax(g), greedy_k(g)), (True, False)):
            games.append(build_game(g, cfg, u, cost_on_miss))
    assert len({(x.n_defender, _live_columns(x.attacker_payoffs).size) for x in games}) > 3
    for game, sse in zip(games, solve_sse(games)):
        assert_same_sse(sse, solve_sse([game])[0])
        response, value = reference_sse(game)
        assert sse.attacker_response == response
        assert sse.defender_value == pytest.approx(value, abs=1e-9)


def test_attack_futility_bound(tiny_graph, tiny_config):
    # an attack never raises the defender above the untouched value
    u = zero_cost_profile(tiny_graph, {"t1": 7.0, "t2": 3.0})
    for cs in tiny_config.sets:
        miss = next(s for s in tiny_graph.s_ids if s not in cs.sensors)
        top = defender_payoff(tiny_graph, cs, miss, u)
        for sid in tiny_graph.s_ids:
            assert defender_payoff(tiny_graph, cs, sid, u) <= top


def test_disjointness_shields_other_sets(greedy_gap_graph):
    cfg = find_kmax(greedy_gap_graph)
    utilities = {t: 5.0 for t in greedy_gap_graph.t_ids}
    u = zero_cost_profile(greedy_gap_graph, utilities)
    total = sum(utilities.values())
    for i, cs in enumerate(cfg.sets):
        for j, other in enumerate(cfg.sets):
            if i == j:
                continue
            for sid in cs.sensors:
                assert defender_payoff(greedy_gap_graph, other, sid, u) == total


def test_zero_utilities_zero_game(tiny_graph, tiny_config):
    u = UtilityProfile(
        {t: 0.0 for t in tiny_graph.t_ids}, {s: 0.0 for s in tiny_graph.s_ids}
    )
    game = build_game(tiny_graph, tiny_config, u)
    assert np.all(game.defender_payoffs == 0.0)
    assert solve_sse([game])[0].defender_value == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Trials


def test_run_trials_deterministic_and_dominant(tiny_graph):
    greedy = greedy_k(tiny_graph)
    optimal = find_kmax(tiny_graph)
    a = run_trials(tiny_graph, greedy, optimal, 30, seed=7)
    b = run_trials(tiny_graph, greedy, optimal, 30, seed=7)
    assert a.to_csv() == b.to_csv()
    urs_k, urs_kmax, sse_k, sse_kmax = a.values.T
    assert np.all(sse_k >= urs_k - 1e-6)
    assert np.all(sse_kmax >= urs_kmax - 1e-6)


def test_run_trials_identical_configs_identical_columns(tiny_graph):
    cfg = find_kmax(tiny_graph)
    rep = run_trials(tiny_graph, cfg, cfg, 10, seed=3)
    assert np.array_equal(rep.values[:, 0], rep.values[:, 1])
    assert np.array_equal(rep.values[:, 2], rep.values[:, 3])


def test_run_trials_single_trial_replayable(tiny_graph):
    greedy = greedy_k(tiny_graph)
    optimal = find_kmax(tiny_graph)
    rep = run_trials(tiny_graph, greedy, optimal, 1, seed=42)
    # replay the documented sub-seed rule and recompute each column directly
    u = random_profile(tiny_graph, trial_rng(42, 0))
    expect = (
        urs_value(build_game(tiny_graph, greedy, u)),
        urs_value(build_game(tiny_graph, optimal, u)),
        solve_sse([build_game(tiny_graph, greedy, u)])[0].defender_value,
        solve_sse([build_game(tiny_graph, optimal, u)])[0].defender_value,
    )
    assert rep.values[0] == pytest.approx(expect, abs=1e-12)
    assert np.all(rep.stds() == 0.0)


def test_run_trials_memory_does_not_grow_with_trials(case14_families):
    g, greedy, optimal = case14_families
    run_trials(g, greedy, optimal, 2, seed=1)  # first-call allocations out of the way
    peaks = []
    for n in (40, 400):
        tracemalloc.start()
        try:
            run_trials(g, greedy, optimal, n, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 0.5e6


def test_run_trials_rejects_zero_trials(tiny_graph):
    cfg = find_kmax(tiny_graph)
    with pytest.raises(ValueError, match="n_trials"):
        run_trials(tiny_graph, cfg, cfg, 0, seed=1)


def test_run_trials_rejects_negative_seed_before_building_a_game(tiny_graph, monkeypatch):
    cfg = find_kmax(tiny_graph)
    monkeypatch.setattr(mtd_game, "build_game", lambda *args: pytest.fail("a game was built"))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run_trials(tiny_graph, cfg, cfg, 1, seed=-1)


def test_run_trials_integer_utilities(tiny_graph):
    cfg = find_kmax(tiny_graph)
    u = random_profile(tiny_graph, trial_rng(11, 0), integer_utilities=True)
    for v in u.transformer_utility.values():
        assert v == int(v)
    rep = run_trials(tiny_graph, cfg, cfg, 3, seed=11, integer_utilities=True)
    assert rep.values.shape == (3, 4)


def test_csv_format(tiny_graph):
    cfg = find_kmax(tiny_graph)
    rep = run_trials(tiny_graph, cfg, cfg, 2, seed=9)
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "trial,urs_k,urs_kmax,sse_k,sse_kmax"
    assert lines[1].startswith("1,") and lines[2].startswith("2,")
    assert lines[3].startswith("mean,") and lines[4].startswith("std,")
    for cell in lines[1].split(",")[1:]:
        assert len(cell.split(".")[1]) == 4


def test_half_way_values_print_alike():
    # 609/32 = 19.03125 sits on a 4-decimal half-way point; the LP's last bit
    # must not pick the printed digit
    assert format_value(19.031250000000007) == format_value(19.03125) == "19.0312"
    rep = TrialReport(np.array([[19.031250000000007] * 4, [19.03125] * 4]), seed=0)
    lines = rep.to_csv().splitlines()
    assert lines[1][2:] == lines[2][2:] == "19.0312,19.0312,19.0312,19.0312"
    assert lines[3] == "mean,19.0312,19.0312,19.0312,19.0312"


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_sse_dominates_urs_random_games(seed):
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng, int(rng.integers(2, 5)), int(rng.integers(4, 9)), 0.5)
    if not is_feasible(g):
        return
    cfg = greedy_k(g)
    u = random_profile(g, rng)
    game = build_game(g, cfg, u)
    assert solve_sse([game])[0].defender_value >= urs_value(game) - 1e-6
