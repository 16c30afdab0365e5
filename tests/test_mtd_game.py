import itertools
import json
import tracemalloc
from collections import Counter
from functools import partial
from pathlib import Path
from unittest import mock

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
    load_graph,
    parse_matpower,
    random_bipartite,
    random_profile,
    run_trials,
    solve_lp,
    solve_sse,
    urs_value,
)
from gridmtd import mtd_game, optim
from gridmtd.mtd_game import (
    _STACK_BYTES,
    _columns,
    _game_bytes,
    _lp_bytes,
    _sum_by_transformer,
    _zero_only,
    format_value,
    trial_rng,
)
from gridmtd.optim import FEAS_TOL, TIE_TOL
from conftest import FIXTURES, feasible_corpus


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


def test_game_matrix_rejects_payoffs_of_the_wrong_shape():
    # three attacker names over (2, 2) payoffs once got an SseSolution
    sets = (CodeSet(frozenset({"a"})), CodeSet(frozenset({"b"})))
    names, ok = ("s0", "s1", "s2"), np.zeros((2, 3))
    GameMatrix(sets, names, ok, ok)
    for bad in (np.zeros((2, 2)), np.zeros((3, 2)), np.zeros(6), np.zeros((1, 2, 3))):
        for pay in ((bad, ok), (ok, bad)):
            with pytest.raises(ValueError, match="shape"):
                GameMatrix(sets, names, *pay)


def test_game_matrix_rejects_non_finite_payoffs():
    # a NaN attacker payoff once gave urs_value 1.0 while solve_sse raised
    sets = (CodeSet(frozenset({"a"})), CodeSet(frozenset({"b"})))
    for bad, which in itertools.product((np.nan, np.inf, -np.inf), (0, 1)):
        pay = [np.ones((2, 2)), np.ones((2, 2))]
        pay[which][1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            GameMatrix(sets, ("s0", "s1"), *pay)


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


def reference_identified(g, sets, attacked):
    """mtd_game._identified as a (K, A, |T|, |T|) overlap tensor: each
    residual code against every transformer's, two codes equal when their
    sizes and their overlap all agree."""
    cols = np.array(sorted(set(attacked).union(*sets)), dtype=int)
    heard = np.array([[s in nb for s in cols] for nb in g.adj], dtype=float)
    member = np.array([[s in st for s in cols] for st in sets], dtype=bool)
    residual = member[:, None, :] & (cols[None, :] != np.array(attacked)[:, None])
    codes = heard * residual[:, :, None, :]  # (K, A, T, C)
    overlap = codes @ heard.T  # (K, A, T, T)
    size = np.diagonal(overlap, axis1=2, axis2=3)
    same = (overlap == size[..., :, None]) & (size[..., :, None] == size[..., None, :])
    return (size > 0) & (same.sum(axis=3) == 1)


def test_identified_matches_the_overlap_tensor():
    # any sets, overlapping and not discriminating, and attacks on sites in
    # them and outside them, on graphs sparse enough that codes often vanish
    # or collide
    rng, lost = np.random.default_rng(5), 0
    for _ in range(2000):
        n_t, n_s = int(rng.integers(1, 7)), int(rng.integers(1, 12))
        g = random_bipartite(rng, n_t, n_s, float(rng.uniform(0.1, 0.8)))
        sets = [frozenset(np.flatnonzero(rng.random(n_s) < 0.5).tolist()) for _ in range(rng.integers(1, 4))]
        attacked = sorted(rng.choice(n_s, int(rng.integers(1, n_s + 1)), replace=False).tolist())
        flags = mtd_game._identified(g, sets, attacked)
        expect = reference_identified(g, sets, attacked)
        assert flags.shape == expect.shape and (flags == expect).all()
        lost += int((~expect).sum())
    assert lost >= 10_000


def test_identified_memory_grows_with_the_codes_not_their_pairs():
    # |T| = 100 and 450 sites in 3 disjoint sets of 150, every site attacked:
    # the overlap tensor peaked at 622 MB traced, the distances at 6.4 MB
    g = random_bipartite(np.random.default_rng(0), 100, 450, 0.05)
    sets = [frozenset(range(150 * k, 150 * (k + 1))) for k in range(3)]
    tracemalloc.start()
    try:
        flags = mtd_game._identified(g, sets, list(range(450)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flags.shape == (3, 450, 100) and peak < 16e6


def reference_build_game(g, config, u, cost_on_miss=True):
    """build_game as it was before its frame was cached: every array from
    scratch on each call."""
    util = np.array([u.transformer_utility[tid] for tid in g.t_ids])
    site_idx = sorted(g.site_indices(config.all_sites()))
    attacker_actions = tuple(g.s_ids[s] for s in site_idx)
    cost = np.array([u.attack_cost[sid] for sid in attacker_actions])
    sets = [g.site_indices(cs.sensors) for cs in config.sets]
    flags = reference_identified(g, sets, site_idx)
    hit = np.array([[s in st for s in site_idx] for st in sets])
    dm = mtd_game._sum_by_transformer(flags, util)
    am = mtd_game._sum_by_transformer(~flags, util) - (cost if cost_on_miss else hit * cost)
    return GameMatrix(config.sets, attacker_actions, dm, am)


def assert_same_game(a, b):
    assert (a.defender_actions, a.attacker_actions) == (b.defender_actions, b.attacker_actions)
    for x, y in ((a.defender_payoffs, b.defender_payoffs), (a.attacker_payoffs, b.attacker_payoffs)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_transformer_sums_keep_the_loops_bits():
    # many transformers (pairwise summation starts at 9 terms) and utilities
    # of mixed magnitude, so any other order of the adds shows in the bits
    rng = np.random.default_rng(12)
    for case in range(300):
        T = int(rng.integers(9, 41))
        shape = [(), (1,), (1, 1), tuple(int(n) for n in rng.integers(1, 12, size=2))][case % 4]
        util = rng.uniform(0, 10, T) * 10.0 ** rng.integers(-3, 4, T)
        flags = rng.random(shape + (T,)) < 0.7
        total = np.zeros(shape)
        for t, value in enumerate(util):
            total += np.where(flags[..., t], value, 0.0)
        got = _sum_by_transformer(flags, util)
        assert got.shape == total.shape and got.tobytes() == total.tobytes()
    assert _sum_by_transformer(np.zeros((2, 3, 0), dtype=bool), np.zeros(0)).tolist() == [[0.0] * 3] * 2


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


def maximal(am):
    """The maximal attacker actions of one game's payoffs."""
    return np.flatnonzero(_columns(am[None])[0])


def best_response_rows(game):
    """(A, R, K): the rows a_j - a_i of each action j's LP, one against each
    maximal action i."""
    am = game.attacker_payoffs
    return np.stack([(am[:, [j]] - am[:, maximal(am)]).T for j in range(game.n_attacker)])


def presolved(game):
    """The attacker actions whose LPs survive solve_sse's presolve."""
    free = np.ones((game.n_attacker, game.n_defender), dtype=bool)
    return np.flatnonzero(~_zero_only(best_response_rows(game), free))


def assert_pruning_exact(game):
    """solve_sse agrees with reference_sse, and every action whose LP the
    presolve drops has an infeasible full LP. Returns the number dropped."""
    sse = solve_sse([game])[0]
    response, value = reference_sse(game)
    assert sse.attacker_response == response
    assert sse.defender_value == pytest.approx(value, abs=1e-9)
    pruned = sorted(set(range(game.n_attacker)) - set(presolved(game)))
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
    assert presolved(game).tolist() == [0, 1, 3]
    assert assert_pruning_exact(game) == 1


def reduced_lp(game, j):
    """solve_sse's LP of action j, built alone: 1 . x <= 1 and a
    best-response row against every maximal action, maximizing the
    defender's payoff under j shifted to a least entry of 1."""
    am, d = game.attacker_payoffs, game.defender_payoffs[:, j]
    top = maximal(am)
    rows = [np.ones(game.n_defender)] + list((am[:, [j]] - am[:, top]).T)
    return LinearProgram(d - d.min() + 1.0, rows, ("<=",) + (">=",) * top.size, [1.0] + [0.0] * top.size)


def sequential_pick(game):
    """solve_sse's rule with each of the game's presolved LPs solved alone:
    the first action whose optimum is not x = 0 and whose value d . x lies
    within TIE_TOL of the best."""
    solved = []
    for j in presolved(game):
        x = solve_lp(reduced_lp(game, j)).assignment
        if x.any():
            solved.append((int(j), float((game.defender_payoffs[:, j] * x).sum()), x))
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
        # and the full LPs, every row and the simplex as an equality, agree
        response, full = reference_sse(game)
        assert j == response and value == pytest.approx(full, abs=1e-9)


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


def held_bytes(games):
    """run_trials' size of games: the bytes solve_sse holds for them."""
    return sum(_game_bytes(x.n_defender, x.n_attacker) for x in games)


def defender_counts(p):
    """The defender count of each member of an SSE stack: the ones of its
    simplex row, padding columns holding 0 there."""
    return (p.constraints[:, 0] == 1.0).sum(axis=1)


def sse_stacks(monkeypatch, run):
    """run() with each solve_sse call recorded as (games, the (program,
    solution) stacks it solved, its SseSolutions), in a list."""
    calls = []

    def traced(games):
        stacks, out = [], []
        calls.append((games, stacks, out))
        out += solve_sse(games)
        return out

    monkeypatch.setattr(mtd_game, "solve_lp", lambda p: calls[-1][1].append((p, solve_lp(p))) or calls[-1][1][-1][1])
    monkeypatch.setattr(mtd_game, "solve_sse", traced)
    run()
    return calls


def test_batched_sse_equals_solo_sse(case14_families, monkeypatch):
    # with a budget of 24,000 bytes run_trials sizes its solve_sse calls by
    # the bytes solve_sse holds per game (2,304 per greedy game, K=3 and
    # A=12, and 4,096 per K_max game, K=4 and A=16), so each call stops
    # where the next trial would take it past the budget; every row must
    # equal its two games solved alone, bit for bit, and so must every game
    # of every call, with stacks that mix defender counts (padded columns),
    # calls that mix maximal counts (padded rows) and calls whose LPs
    # exceed the budget, so they run in several stacks
    g, greedy, optimal = case14_families
    assert [_game_bytes(c.K, c.K * c.l) for c in (greedy, optimal)] == [2_304, 4_096]
    budget, n, seen = 24_000, 19, Counter()
    for seed, cost_on_miss, integer_utilities in itertools.product((1, 2, 3), (True, False), (True, False)):
        monkeypatch.setattr(mtd_game, "_STACK_BYTES", budget)
        reps = []
        calls = sse_stacks(monkeypatch, lambda: reps.append(
            run_trials(g, greedy, optimal, n, seed, cost_on_miss, integer_utilities)))
        monkeypatch.undo()
        assert len(calls) >= 3 and sum(len(games) for games, _, _ in calls) == 2 * n
        for (games, _, _), (after, _, _) in zip(calls, calls[1:]):
            assert held_bytes(after[:2]) + held_bytes(games) > budget
        assert all(held_bytes(games) <= budget or len(games) == 2 for games, _, _ in calls)
        for games, stacks, batch in calls:
            seen["spans"] += len(stacks) > 1
            seen["columns"] += any(len(set(defender_counts(p))) > 1 for p, _ in stacks)
            seen["rows"] += len({maximal(x.attacker_payoffs).size for x in games}) > 1
            for game, sse in zip(games, batch):
                assert_same_sse(sse, solve_sse([game])[0])
        for trial in range(n):
            u = random_profile(g, trial_rng(seed, trial), integer_utilities)
            games = [build_game(g, cfg, u, cost_on_miss) for cfg in (greedy, optimal)]
            alone = [solve_sse([game])[0] for game in games]
            assert reps[0].values[trial].tolist() == [urs_value(x) for x in games] + [s.defender_value for s in alone]
    assert min(seen["spans"], seen["columns"], seen["rows"]) > 0


def member_results(p):
    """Each member of the stack p solved as its own LinearProgram (a stack
    of one, on the scalar loop): its Solution, or the SolverError it
    raises."""
    out = []
    for obj, matrix in zip(p.objective, p.constraints):
        try:
            out.append(solve_lp(LinearProgram(obj, matrix, p.relations, p.rhs)))
        except SolverError as e:
            out.append(e)
    return out


def assert_members_keep_alone_bits(stacks):
    """Every member of each (program, solution) stack, solved as its own
    LinearProgram, gets the bits it got in its stack."""
    for p, sol in stacks:
        for k, single in enumerate(member_results(p)):
            assert single.status == sol.statuses[k]
            if single.status == "optimal":
                assert single.assignment.tobytes() == sol.assignment[k].tobytes()
                assert single.objective_value == sol.objective_value[k]
                assert single.duals.tobytes() == sol.duals[k].tobytes()


def test_case14_sse_stack_members_match_their_solves_alone(case14_families, monkeypatch):
    # the one stack of a whole case14 run, which fits one solve_sse call and
    # holds the LPs of both defender counts
    g, greedy, optimal = case14_families
    [(_, stacks, _)] = sse_stacks(monkeypatch, lambda: run_trials(g, greedy, optimal, 20, seed=1, integer_utilities=True))
    monkeypatch.undo()
    assert len(stacks) == 1 and sorted(set(defender_counts(stacks[0][0]))) == [3, 4]
    assert_members_keep_alone_bits(stacks)
    # a budget of 5 LPs' tableaux cuts the presolved LPs of 3 free-miss
    # trials, both families, into stacks of 5 after the presolve: a game's
    # LPs span stacks, a stack holds LPs of several games and of both
    # defender counts, and each game keeps its one-stack solution
    games = [
        build_game(g, cfg, random_profile(g, trial_rng(1, t), True), False)
        for t in range(3) for cfg in (greedy, optimal)
    ]
    n = sum(presolved(x).size for x in games)
    R = max(maximal(x.attacker_payoffs).size for x in games)
    assert n < sum(x.n_attacker for x in games) and n % 5
    whole = solve_sse(games)
    monkeypatch.setattr(mtd_game, "_STACK_BYTES", 5 * _lp_bytes(4, R))
    [(_, stacks, cut)] = sse_stacks(monkeypatch, lambda: mtd_game.solve_sse(games))
    for a, b in zip(cut, whole):
        assert_same_sse(a, b)
    assert [len(p.objective) for p, _ in stacks] == [5] * (n // 5) + [n % 5]
    assert any(len(set(defender_counts(p))) > 1 for p, _ in stacks)
    assert_members_keep_alone_bits(stacks)


def assert_padding_inert(games, stacks):
    """solve_sse's stacks for games hold, per game shape in order of first
    appearance, the reduced LP of each presolved action of those games in
    game order, padded with zero columns to the largest defender count and
    with 0 >= 0 rows to the most maximal actions; each, solved alone without
    its padding, gets the status, point, value and real rows' duals it got
    padded, and its padding gets 0 in the point and the duals. Returns how
    many stacks mix real row counts and how many mix real column counts."""
    want = [
        reduced_lp(x, j)
        for shape in dict.fromkeys(x.attacker_payoffs.shape for x in games)
        for x in games if x.attacker_payoffs.shape == shape
        for j in presolved(x)
    ]
    assert sum(len(p.objective) for p, _ in stacks) == len(want)
    rows = columns = 0
    lps = iter(want)
    for p, sol in stacks:
        m = len(p.relations)
        assert p.relations == ("<=",) + (">=",) * (m - 1) and p.rhs.tolist() == [1.0] + [0.0] * (m - 1)
        real = set()
        for k, q in zip(range(len(p.objective)), lps):
            r, n = q.constraints.shape
            real.add((r, n))
            assert p.objective[k, :n].tobytes() == q.objective.tobytes() and not p.objective[k, n:].any()
            padding = p.constraints[k].copy()
            padding[:r, :n] = 0.0
            assert p.constraints[k, :r, :n].tobytes() == q.constraints.tobytes() and not padding.any()
            alone = solve_lp(q)
            assert alone.status == sol.statuses[k] == "optimal"
            assert alone.assignment.tobytes() == sol.assignment[k, :n].tobytes() and not sol.assignment[k, n:].any()
            assert alone.objective_value == sol.objective_value[k]
            assert alone.duals.tobytes() == sol.duals[k, :r].tobytes() and not sol.duals[k, r:].any()
        rows += len({r for r, _ in real}) > 1
        columns += len({n for _, n in real}) > 1
    return rows, columns


def test_sse_padding_rows_and_columns_are_inert(case14_families, monkeypatch):
    # case14 in all four modes, the 10x60 ladder graph's families and the
    # corpus games of test_batched_sse_matches_reference_on_corpus; some
    # stacks pad LPs of several real row counts, and some of several
    # defender counts
    g, greedy, optimal = case14_families
    ladder = load_graph(FIXTURES / "ladder5_10x60.graph")
    ladder_families = greedy_k(ladder), find_kmax(ladder)
    runs = []
    for cost_on_miss, integer_utilities in itertools.product((True, False), repeat=2):
        runs.append(partial(run_trials, g, greedy, optimal, 20, 1, cost_on_miss, integer_utilities))
        runs.append(partial(run_trials, ladder, *ladder_families, 1, 2, cost_on_miss, integer_utilities))
    corpus = []
    for i, h in enumerate(feasible_corpus(seed=67, count=20, s_lo=4, s_hi=10)):
        u = random_profile(h, np.random.default_rng(i), integer_utilities=i % 2 == 1)
        for cfg, cost_on_miss in itertools.product((find_kmax(h), greedy_k(h)), (True, False)):
            corpus.append(build_game(h, cfg, u, cost_on_miss))
    runs.append(lambda: mtd_game.solve_sse(corpus))
    rows = columns = 0
    for run in runs:
        [(games, stacks, _)] = sse_stacks(monkeypatch, run)
        r, c = assert_padding_inert(games, stacks)
        rows, columns = rows + r, columns + c
        monkeypatch.undo()
    assert rows > 0 and columns > 0


def test_batched_sse_matches_reference_on_corpus():
    games = []
    for i, g in enumerate(feasible_corpus(seed=67, count=20, s_lo=4, s_hi=10)):
        u = random_profile(g, np.random.default_rng(i), integer_utilities=i % 2 == 1)
        for cfg, cost_on_miss in itertools.product((find_kmax(g), greedy_k(g)), (True, False)):
            games.append(build_game(g, cfg, u, cost_on_miss))
    assert len({(x.n_defender, presolved(x).size) for x in games}) > 3
    for game, sse in zip(games, solve_sse(games)):
        assert_same_sse(sse, solve_sse([game])[0])
        response, value = reference_sse(game)
        assert sse.attacker_response == response
        assert sse.defender_value == pytest.approx(value, abs=1e-9)


def test_columns_follow_their_definition():
    # small integer payoffs make equal columns common, and nudges of half
    # and twice FEAS_TOL put columns on either side of the presolve's margin
    rng = np.random.default_rng(5)
    beaten = 0
    for t in range(400):
        K, A = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        am = rng.integers(-2, 3, size=(K, A)) + (t % 2) * rng.choice([0.0, 0.5, 2.0], size=(K, A)) * FEAS_TOL
        top = maximal(am)
        above = {(i, j): bool(np.all(am[:, i] >= am[:, j])) for i in range(A) for j in range(A)}
        assert top.tolist() == [
            j for j in range(A) if not any(i != j and above[i, j] and (not above[j, i] or i < j) for i in range(A))
        ]
        assert all(any(above[i, j] for i in top) for j in range(A))
        # a column another beats by more than FEAS_TOL in every row has a
        # row against a maximal column with every entry below -FEAS_TOL, so
        # the presolve fixes all its variables at once
        game = GameMatrix(tuple(CodeSet(frozenset({f"d{k}"})) for k in range(K)), tuple(map(str, range(A))), am, am)
        rows, kept = best_response_rows(game), presolved(game)
        for j in range(A):
            if any(np.all(am[:, i] - am[:, j] > FEAS_TOL) for i in range(A)):
                assert (rows[j] < -FEAS_TOL).all(axis=1).any() and j not in kept
                beaten += 1
    assert beaten > 100


def test_columns_of_a_stack_equal_each_games_alone():
    # tie-rich integer payoffs with a twin of column 0 in every game
    rng = np.random.default_rng(7)
    for _ in range(100):
        G, K, A = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 8))
        am = rng.integers(-1, 2, size=(G, K, A)).astype(float)
        am[:, :, -1] = am[:, :, 0]
        top = _columns(am)
        assert top.shape == (G, A)
        for one, x in zip(am, top):
            assert x.tolist() == _columns(one[None])[0].tolist()


def sse_lp_corpus():
    """Games over case14's, the 10x60 ladder graph's and random graphs'
    greedy and K_max families, in all four cost and utility modes."""
    text = (Path(__file__).parent.parent / "data" / "case14.m").read_text()
    c14 = build_bipartite(parse_matpower(text), ["4-7", "4-9", "5-6", "7-8", "7-9"])
    graphs = [(c14, 10), (load_graph(FIXTURES / "ladder5_10x60.graph"), 1)]
    graphs += [(g, 1) for g in feasible_corpus(seed=83, count=40, s_lo=4, s_hi=10)]
    for i, (g, trials) in enumerate(graphs):
        families = (greedy_k(g), find_kmax(g))
        for (cost_on_miss, integer_utilities), trial in itertools.product(
            itertools.product((True, False), repeat=2), range(trials)
        ):
            u = random_profile(g, trial_rng(i, trial), integer_utilities)
            for cfg in families:
                yield build_game(g, cfg, u, cost_on_miss)


def test_reduced_sse_lps_match_the_full_lps():
    # each action's full LP (a row per other action, 1 . x = 1) is
    # infeasible when the presolve drops its reduced LP (maximal rows,
    # 1 . x <= 1, shifted objective); a kept reduced LP is optimal, at x = 0
    # exactly when the full LP is infeasible, and otherwise gives the full
    # LP's value as d . x
    seen = Counter()
    for game in sse_lp_corpus():
        kept = presolved(game)
        for j in range(game.n_attacker):
            full = solve_lp(full_lp(game, j))
            seen[full.status, j in kept] += 1
            if j not in kept:
                assert full.status == "infeasible"
                continue
            reduced = solve_lp(reduced_lp(game, j))
            assert reduced.status == "optimal"
            x = reduced.assignment
            assert full.status == ("optimal" if x.any() else "infeasible")
            if x.any():
                assert (game.defender_payoffs[:, j] * x).sum() == pytest.approx(full.objective_value, abs=1e-9)
    assert seen["optimal", True] > 900 and seen["infeasible", False] > 600 and seen["infeasible", True] > 10


def test_sse_lp_with_only_the_zero_point_is_nan(monkeypatch):
    # no column is at or above action 0 in both rows, and each of its rows
    # has a positive entry, so the presolve keeps it; but against actions 1
    # and 2 together no mix keeps it a best response: its reduced LP's only
    # feasible point is x = 0, its value NaN, and action 0 cannot win though
    # it pays the defender most
    sets = (CodeSet(frozenset({"a"})), CodeSet(frozenset({"b"})))
    am = np.array([[0.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    dm = np.array([[9.0, 1.0, 2.0], [9.0, 3.0, 1.0]])
    game = GameMatrix(sets, ("s0", "s1", "s2"), dm, am)
    assert maximal(am).tolist() == presolved(game).tolist() == [0, 1, 2]
    assert not solve_lp(reduced_lp(game, 0)).assignment.any()
    assert solve_lp(full_lp(game, 0)).status == "infeasible"
    values, real = [], mtd_game._near_best
    monkeypatch.setattr(mtd_game, "_near_best", lambda v: values.append(v.copy()) or real(v))
    sse = solve_sse([game])[0]
    assert np.isnan(values[0][0, 0]) and np.isfinite(values[0][0, 1:]).all()
    response, value = reference_sse(game)
    assert sse.attacker_response == response != 0
    assert sse.defender_value == pytest.approx(value, abs=1e-9)


def test_presolve_fixes_only_what_rows_force():
    # action 0's row against action 1 is (e, -1), e = FEAS_TOL / 2, and
    # against action 2 is (-1, 4e6): x_1 <= e x_0 and x_0 <= 4e6 x_1 meet at
    # x = (1, e) scaled onto the simplex, so neither row may fix anything,
    # the tiny positive entry included, and HiGHS finds the LP feasible
    e = FEAS_TOL / 2
    am = np.array([[0.0, -e, 1.0], [0.0, 1.0, -4e6]])
    game = GameMatrix((CodeSet(frozenset({"a"})), CodeSet(frozenset({"b"}))), ("s0", "s1", "s2"), np.ones((2, 3)), am)
    assert maximal(am).tolist() == presolved(game).tolist() == [0, 1, 2]
    assert highs_values(game, [0]) == [pytest.approx(1.0)]
    # a chain of fixings: row 1 fixes x_2, then row 0 fixes x_1, then row 2
    # fixes x_0, so x = 0 is the only point; without row 1 nothing is fixed
    rows = np.array([[[0.0, -1.0, 1.0], [0.0, 0.0, -1.0], [-1.0, 3.0, 0.0]]])
    free = np.ones((1, 3), dtype=bool)
    assert _zero_only(rows, free).tolist() == [True]
    assert _zero_only(rows[:, [0, 2]], free).tolist() == [False]


def jittered_game(dm, integers, jitter):
    """A game of defender payoffs dm and attacker payoffs integers plus
    jitter, given in units of 1e-7 (10 * 1e-7 == 1e-6 and so on)."""
    dm = np.array(dm, dtype=float)
    am = np.array(integers, dtype=float) + np.array(jitter) * 1e-7
    K, A = dm.shape
    return GameMatrix(tuple(CodeSet(frozenset({f"d{k}"})) for k in range(K)), tuple(f"s{j}" for j in range(A)), dm, am)


def highs_values(game, actions):
    """scipy's HiGHS on the full LP of each of actions, over the simplex:
    its value, or None where HiGHS finds it infeasible."""
    opt = pytest.importorskip("scipy.optimize")
    am, out = game.attacker_payoffs, []
    for j in actions:
        ref = opt.linprog(
            -game.defender_payoffs[:, j], A_ub=(am - am[:, [j]]).T, b_ub=np.zeros(game.n_attacker),
            A_eq=np.ones((1, game.n_defender)), b_eq=[1.0], method="highs",
        )
        assert ref.status in (0, 2)
        out.append(-ref.fun if ref.status == 0 else None)
    return out


def assert_dropped_lps_infeasible(games):
    """HiGHS finds the full LP of every action whose LP the presolve drops
    infeasible over the simplex. Returns how many were dropped."""
    dropped = 0
    for game in games:
        actions = sorted(set(range(game.n_attacker)) - set(presolved(game)))
        assert highs_values(game, actions) == [None] * len(actions)
        dropped += len(actions)
    return dropped


def test_sse_drops_the_zero_only_lp_the_simplex_missed_a_row_on():
    # action 2's LP has x = 0 as its only point, which the presolve finds;
    # the simplex, handed that LP, let a variable move past a -1.5e-6 entry
    # and raised "simplex point misses a constraint row by more than
    # FEAS_TOL". HiGHS finds actions 0 and 2 infeasible and action 4 best
    game = jittered_game(
        [[3, 5, 5, 1, 3, 0, 0], [2, 1, 2, 5, 4, 3, 2], [1, 0, 5, 2, 4, 1, 4], [4, 3, 3, 3, 4, 5, 0]],
        [[-1, 0, -2, 2, 0, 2, 1], [-2, 2, -1, -3, 3, 2, -1], [-3, 1, 3, 3, 3, 0, 2], [-3, 1, -1, 2, 0, -3, 3]],
        [[10, -5, -10, 20, 10, -20, 20], [5, -10, -20, -20, -5, 10, 10], [-5, 5, -20, -5, -20, 5, 0],
         [5, 0, 0, 0, 10, 20, -5]],
    )
    assert 2 not in presolved(game)
    sse = solve_sse([game])[0]
    assert (sse.attacker_response, sse.defender_value) == (4, 4.0)
    assert sse.defender_mix.tolist() == [0.0, 1.0, 0.0, 0.0]
    values = highs_values(game, range(game.n_attacker))
    assert values[0] is None and values[2] is None
    best = max(v for v in values if v is not None)
    assert values.index(best) == 4 and best == pytest.approx(4.0, abs=1e-9)


@pytest.mark.xfail(strict=True, raises=SolverError, reason="open defect: the simplex point of an LP "
                   "the presolve keeps misses a row by more than FEAS_TOL")
def test_sse_solves_the_jittered_game_whose_kept_lp_misses_a_row():
    # HiGHS solves every action's LP over the simplex, action 4 best at 5.0;
    # solve_sse raises "simplex point misses a constraint row by more than
    # FEAS_TOL" on an LP its presolve keeps
    game = jittered_game(
        [[1, 1, 3, 5, 2], [2, 4, 3, 0, 2], [2, 4, 4, 4, 5], [3, 0, 0, 3, 4]],
        [[-1, 0, 2, 2, -1], [-2, -2, 0, 2, -2], [1, 1, 0, -3, 1], [2, -3, 3, 3, -1]],
        [[10, 20, 20, 5, 5], [20, -5, 20, -10, 10], [-10, -10, 20, -5, 0], [5, -10, -5, 10, 10]],
    )
    values = highs_values(game, range(game.n_attacker))
    assert None not in values and values.index(max(values)) == 4 and max(values) == pytest.approx(5.0, abs=1e-9)
    sse = solve_sse([game])[0]
    assert sse.attacker_response == 4 and sse.defender_value == pytest.approx(5.0, abs=1e-9)


def test_presolve_is_sound_on_case14_and_the_ladder_graph(case14_families, monkeypatch):
    # case14 and the 10x60 ladder graph in all four miss and utility modes:
    # HiGHS finds every dropped LP infeasible, and every kept LP gets the
    # same bits in its stack as solved alone
    g, greedy, optimal = case14_families
    ladder = load_graph(FIXTURES / "ladder5_10x60.graph")
    ladder_families = greedy_k(ladder), find_kmax(ladder)
    dropped = kept = 0
    for cost_on_miss, integer_utilities in itertools.product((True, False), repeat=2):
        for run in (
            partial(run_trials, g, greedy, optimal, 10, 1, cost_on_miss, integer_utilities),
            partial(run_trials, ladder, *ladder_families, 2, 1, cost_on_miss, integer_utilities),
        ):
            calls = sse_stacks(monkeypatch, run)
            monkeypatch.undo()
            for games, stacks, _ in calls:
                dropped += assert_dropped_lps_infeasible(games)
                kept += sum(len(p.objective) for p, _ in stacks)
                assert_members_keep_alone_bits(stacks)
    assert dropped > kept > 0


JITTER = (0.0, 5e-7, -5e-7, 1e-6, -1e-6, 2e-6, -2e-6)


@st.composite
def arbitrary_games(draw):
    """Games of up to 5 x 8 payoffs: attacker payoffs integers in [-3, 3]
    plus a jitter from JITTER, defender payoffs integers in [-3, 3], or
    both uniform floats."""
    K, A = draw(st.integers(1, 5)), draw(st.integers(1, 8))

    def cells(values):
        return np.array(draw(st.lists(values, min_size=K * A, max_size=K * A)), dtype=float).reshape(K, A)

    if draw(st.booleans()):
        am, dm = cells(st.integers(-3, 3)) + cells(st.sampled_from(JITTER)), cells(st.integers(-3, 3))
    else:
        am, dm = (cells(st.floats(-10, 10, allow_subnormal=False)) for _ in range(2))
    return GameMatrix(tuple(CodeSet(frozenset({f"d{k}"})) for k in range(K)), tuple(f"s{j}" for j in range(A)), dm, am)


@settings(max_examples=40, deadline=None)
@given(games=st.lists(arbitrary_games(), min_size=1, max_size=5))
def test_presolve_is_sound_on_arbitrary_payoffs(games):
    # HiGHS finds every dropped LP infeasible; every kept LP gets the same
    # result in its stack as solved alone, a SolverError included: a stack
    # raises exactly when one of its members raises alone
    assert_dropped_lps_infeasible(games)
    stacks = []
    with mock.patch.object(mtd_game, "solve_lp", lambda p: stacks.append(p) or solve_lp(p)):
        try:
            solve_sse(games)
        except SolverError:
            pass
    for p in stacks:
        alone = member_results(p)
        try:
            sol = solve_lp(p)
        except SolverError:
            assert any(isinstance(x, SolverError) for x in alone)
            continue
        assert not any(isinstance(x, SolverError) for x in alone)
        assert_members_keep_alone_bits([(p, sol)])


def test_game_free_miss_pass_pivots_little_and_skips_phase_1(monkeypatch):
    # a pass of the benchmark's game-free-miss workload (case14's pinned
    # families, free misses, integer utilities, 100 trials): 301 batched
    # pivot steps in 26 stacks, each with a phase 1, before the LPs were
    # reduced; 2,800 LPs in 8 stacks before the presolve; now at most 900
    # LPs, in at most 4 stacks, one simplex run each
    spec = json.loads((Path(__file__).parent.parent / "bench" / "data" / "case14_families.json").read_text())
    text = (Path(__file__).parent.parent / spec["case"]).read_text()
    g = build_bipartite(parse_matpower(text), spec["hvts"], spec["hops"])
    greedy, optimal = (ConfigurationSet(tuple(CodeSet(frozenset(s)) for s in spec[k])) for k in ("greedy", "optimal"))
    counts = Counter()
    for name in ("_pivot", "_run_simplex", "solve_lp"):
        real = getattr(optim, name)
        monkeypatch.setattr(optim, name, lambda *a, _n=name, _f=real: counts.update([_n]) or _f(*a))
    monkeypatch.setattr(mtd_game, "solve_lp", lambda p: counts.update(lps=len(p.objective)) or optim.solve_lp(p))
    run_trials(g, greedy, optimal, 100, seed=1, cost_on_miss=False, integer_utilities=True)
    assert counts["_run_simplex"] == counts["solve_lp"] <= 4
    assert counts["lps"] <= 900
    assert counts["_pivot"] <= 60


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


def test_run_trials_peak_is_bounded_by_the_stack_budget():
    # free misses and integer utilities leave every attacker action live on
    # the 10x60 ladder graph's families (K=9 and K=12, l=4): 36 and 48 LPs of
    # 15-25 KB tableau per game, over 1.7 MB per trial. The traced peak stays
    # under 4 stack budgets and does not grow from 8 to 32 trials
    g = load_graph(FIXTURES / "ladder5_10x60.graph")
    greedy, optimal = greedy_k(g), find_kmax(g)
    assert [(c.K, c.l) for c in (greedy, optimal)] == [(9, 4), (12, 4)]
    run_trials(g, greedy, optimal, 1, seed=1, cost_on_miss=False, integer_utilities=True)  # cache the frames
    peaks = []
    for n in (8, 32):
        tracemalloc.start()
        try:
            run_trials(g, greedy, optimal, n, seed=1, cost_on_miss=False, integer_utilities=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 4 * _STACK_BYTES
    assert peaks[1] - peaks[0] <= 0.1e6


def test_run_trials_compares_each_shape_once_per_call(case14_families, monkeypatch):
    # at 6,400 bytes held a trial, 60 trials take calls of 51 and 9; each
    # solve_sse call runs _columns once per (defender, attacker) count, on
    # that shape's games stacked in game order, and nothing else runs it;
    # the rows keep the bits of each game solved alone
    g, greedy, optimal = case14_families
    every, calls, real = [], [], mtd_game._columns
    monkeypatch.setattr(mtd_game, "_columns", lambda am: every.append(am.copy()) or real(am))

    def traced(games):
        before = len(every)
        out = solve_sse(games)
        calls.append((games, every[before:]))
        return out

    monkeypatch.setattr(mtd_game, "solve_sse", traced)
    rep = run_trials(g, greedy, optimal, 60, seed=3, cost_on_miss=False, integer_utilities=True)
    assert held_bytes(calls[0][0][:2]) == 6_400 and _STACK_BYTES // 6_400 == 51
    assert [len(games) for games, _ in calls] == [102, 18] and len(every) == 4
    for games, compared in calls:
        shapes = {}
        for x in games:
            shapes.setdefault(x.attacker_payoffs.shape, []).append(x.attacker_payoffs)
        assert len(compared) == len(shapes) == 2
        stacked = map(np.stack, shapes.values())
        assert {(am.shape, am.tobytes()) for am in compared} == {(am.shape, am.tobytes()) for am in stacked}
    for trial, row in enumerate(rep.values):
        u = random_profile(g, trial_rng(3, trial), integer_utilities=True)
        games = [build_game(g, cfg, u, cost_on_miss=False) for cfg in (greedy, optimal)]
        assert list(row[2:]) == [solve_sse([x])[0].defender_value for x in games]


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
