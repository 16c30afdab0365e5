import importlib
import itertools
import math
import sys
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
    InfeasibleError,
    brute_force_kmax,
    brute_force_mdcs,
    build_k_dcs_program,
    dump_configuration,
    enumerate_mdcs,
    find_kmax,
    greedy_k,
    is_dcs,
    is_feasible,
    load_graph,
    random_bipartite,
    solve_bilp,
    solve_k_dcs,
    solve_mdcs,
)
from gridmtd import diverse_mdcs, optim
from gridmtd.diverse_mdcs import BRUTE_FORCE_SITE_LIMIT
from gridmtd.graph_core import is_dcs_indices
from gridmtd.optim import BinaryProgram
from conftest import FIXTURES, feasible_corpus

BENCH = Path(__file__).parent.parent / "bench"


def graph(adj: dict[str, set[str]], sites: list[str]) -> BipartiteGraph:
    s_index = {s: i for i, s in enumerate(sites)}
    return BipartiteGraph(
        tuple(adj),
        tuple(sites),
        tuple(frozenset(s_index[s] for s in nb) for nb in adj.values()),
    )


def without(g: BipartiteGraph, used: frozenset[str]) -> BipartiteGraph:
    """g with the sites named in `used` taken out, the rest in graph order."""
    adj = {t: {g.s_ids[s] for s in nb} - used for t, nb in zip(g.t_ids, g.adj)}
    return graph(adj, [s for s in g.s_ids if s not in used])


# ---------------------------------------------------------------------------
# Single MDCS


def test_mdcs_tiny(tiny_graph):
    cs = solve_mdcs(tiny_graph)
    assert cs.size == 2
    assert is_dcs(tiny_graph, cs.sensors)
    assert brute_force_mdcs(tiny_graph).size == 2


def test_mdcs_identical_neighborhoods_infeasible(identical_pair_graph):
    with pytest.raises(InfeasibleError) as exc:
        solve_mdcs(identical_pair_graph)
    assert exc.value.pair == ("t1", "t2")


def test_mdcs_empty_neighborhood_infeasible():
    g = graph({"t1": {"s1"}, "t2": set()}, ["s1", "s2"])
    with pytest.raises(InfeasibleError) as exc:
        solve_mdcs(g)
    assert exc.value.transformer == "t2"


# ---------------------------------------------------------------------------
# K disjoint sets


def test_k1_equals_mdcs(tiny_graph):
    cfg = solve_k_dcs(tiny_graph, 1)
    assert cfg.K == 1
    assert cfg.l == solve_mdcs(tiny_graph).size == 2


def test_k2_tiny_partitions(tiny_graph):
    cfg = solve_k_dcs(tiny_graph, 2)
    assert cfg.K == 2 and cfg.l == 2
    family = {cs.sensors for cs in cfg.sets}
    valid = (
        {frozenset({"s1", "s2"}), frozenset({"s3", "s4"})},
        {frozenset({"s1", "s4"}), frozenset({"s2", "s3"})},
    )
    assert family in valid


def test_k3_tiny_infeasible(tiny_graph):
    # three disjoint size-2 sets would need six sites, only four exist
    with pytest.raises(InfeasibleError):
        solve_k_dcs(tiny_graph, 3)


def test_kmax_tiny(tiny_graph):
    cfg = find_kmax(tiny_graph)
    assert cfg.K == 2 and cfg.l == 2
    cfg.validate(tiny_graph)
    assert brute_force_kmax(tiny_graph).K == 2


@pytest.mark.parametrize(
    "sets, message",
    [
        ((), "configuration set is empty"),
        (({"s1", "s2"}, {"s3"}), "member code sets differ in size"),
        (({"s1", "s3"},), r"member \['s1', 's3'\] is not a DCS"),
        (({"s1", "s2"}, {"s1", "s4"}), "member code sets are not pairwise disjoint"),
    ],
    ids=["empty", "mixed-sizes", "not-a-dcs", "overlap"],
)
def test_configuration_set_validate_rejects(tiny_graph, sets, message):
    # tiny: t1 hears s1, s3 and t2 hears s2, s4, so {s1, s3} leaves t2
    # silent, and {s1, s2} and {s1, s4} are DCSs that share s1
    cfg = ConfigurationSet(tuple(CodeSet(frozenset(s)) for s in sets))
    with pytest.raises(ValueError, match=message):
        cfg.validate(tiny_graph)


def test_kmax_singleton_neighborhood_forces_one():
    # a transformer heard by a single site pins that site into every MDCS
    g = graph({"t1": {"s1"}, "t2": {"s1", "s2"}}, ["s1", "s2"])
    assert solve_mdcs(g).size == 2
    cfg = find_kmax(g)
    assert cfg.K == 1
    assert brute_force_kmax(g).K == 1


def test_kmax_and_greedy_past_63_sites_per_set():
    # each transformer hears only its own site, so every site is in the one
    # MDCS: l = 64 takes _patterns' Python-integer codes, which int64 bit
    # shifts could not hold
    n = 64
    g = graph({f"t{i}": {f"s{i}"} for i in range(n)}, [f"s{i}" for i in range(n)])
    for cfg in (find_kmax(g), greedy_k(g)):
        assert (cfg.K, cfg.l) == (1, n)
        cfg.validate(g)


def test_oversized_k_is_fast_infeasible(tiny_graph):
    # the capacity rows make the relaxation itself infeasible, no search needed
    with pytest.raises(InfeasibleError):
        solve_k_dcs(tiny_graph, 10)


# ---------------------------------------------------------------------------
# Greedy


def test_greedy_tiny(tiny_graph):
    # the two sets use every site, so greedy stops with no residual program
    cfg = greedy_k(tiny_graph)
    assert dump_configuration(tiny_graph, cfg) == "kmax 2 l 2\nmdcs 1: s1 s2\nmdcs 2: s3 s4\n"
    cfg.validate(tiny_graph)


def with_unheard(g: BipartiteGraph, rng: np.random.Generator, count: int) -> BipartiteGraph:
    """g with `count` sites no transformer hears, u1..u<count>, inserted at
    random indices among its sites."""
    order = rng.permutation(g.n_s + count)  # values from g.n_s on are the new sites
    names = [g.s_ids[i] if i < g.n_s else f"u{i - g.n_s + 1}" for i in order]
    return graph({t: {g.s_ids[s] for s in nb} for t, nb in zip(g.t_ids, g.adj)}, names)


def greedy_corpus(tiny_graph, greedy_gap_graph, case14_text) -> list[BipartiteGraph]:
    """Graphs for greedy's reference tests: the fixtures, case14, the 10x60
    ladder graph and random graphs, twin-rich ones among them, on both of
    the twin-class table's paths to m (the log2 floor certified, or the
    class quotient solved), and some of them again with unheard sites
    interleaved, which greedy's steps leave out of their programs and the
    references keep."""
    from gridmtd import build_bipartite, parse_matpower

    case14 = build_bipartite(parse_matpower(case14_text), ["4-7", "4-9", "5-6", "7-8", "7-9"], 2)
    twin_rich = twin_rich_corpus(seed=16, count=8, s_lo=10, s_hi=25)
    rng = np.random.default_rng(65)
    return [
        tiny_graph, greedy_gap_graph, case14, load_graph(FIXTURES / "ladder5_10x60.graph"),
        *twin_rich,
        *feasible_corpus(seed=62, count=25, s_hi=14),
        *feasible_corpus(seed=62, count=60, s_hi=16),
        *(with_unheard(g, rng, int(rng.integers(1, 6))) for g in [
            tiny_graph, greedy_gap_graph, *twin_rich[:4], *feasible_corpus(seed=66, count=20, s_hi=14)
        ]),
    ]


def test_greedy_target_one_is_mdcs(monkeypatch, tiny_graph, greedy_gap_graph, case14_text):
    # greedy's first set is the single MDCS solve's set, though it comes from
    # a solve that wants size m and drops nodes, m certified by the log2
    # floor's patterns or solved on the class quotient
    real, solved = diverse_mdcs.solve_k_dcs, []
    monkeypatch.setattr(diverse_mdcs, "solve_k_dcs", lambda q, K: solved.append(q) or real(q, K))
    paths = Counter()
    for g in greedy_corpus(tiny_graph, greedy_gap_graph, case14_text):
        solved.clear()
        first = greedy_k(g).sets[0]
        assert first == solve_mdcs(g)
        paths["quotient" if solved else "floor"] += 1
        paths["above floor"] += first.size > g.n_t.bit_length()
    assert paths["floor"] >= 30 and paths["quotient"] >= 30 and paths["above floor"] >= 5


def test_greedy_gap_fixture(greedy_gap_graph):
    # shipped witness: greedy stalls strictly below the optimum
    greedy = greedy_k(greedy_gap_graph)
    exact = find_kmax(greedy_gap_graph)
    assert greedy.K < exact.K
    assert exact.K == brute_force_kmax(greedy_gap_graph).K == 4
    assert greedy.K == 3


def test_greedy_never_beats_optimum():
    for g in feasible_corpus(seed=99, count=25, s_lo=4, s_hi=9):
        greedy = greedy_k(g)
        exact = find_kmax(g)
        assert greedy.K <= exact.K
        greedy.validate(g)
        exact.validate(g)


def test_greedy_leaves_no_dcs_of_size_m():
    # each set is a size-m DCS of g disjoint from the earlier ones, and no m
    # of the sites left over form a DCS, checked by exhaustive search on g
    for g in feasible_corpus(seed=63, count=30, s_lo=6, s_hi=BRUTE_FORCE_SITE_LIMIT):
        cfg = greedy_k(g)
        m = brute_force_mdcs(g).size
        used: set[str] = set()
        for cs in cfg.sets:
            assert cs.size == m and is_dcs(g, cs.sensors) and not cs.sensors & used
            used |= cs.sensors
        left = [s for s in range(g.n_s) if g.s_ids[s] not in used]
        assert not any(is_dcs_indices(g, frozenset(c)) for c in itertools.combinations(left, m))


def test_size_floor_and_cap_keep_the_dcs_solution():
    # ceil(log2(n_t + 1)) sites are needed to give n_t transformers distinct
    # non-empty codes: as a floor it leaves each DCS program's solution as it
    # is. With sites taken out of the graph, (m, m) keeps a solution of size
    # m and reads "infeasible" where the minimum grew past m.
    kept = grew = 0
    for g in feasible_corpus(seed=61, count=30, s_lo=5, s_hi=14):
        floor = (math.ceil(math.log2(g.n_t + 1)), math.inf)
        for K in (1, 2):
            p = build_k_dcs_program(g, K)
            assert solve_bilp(p, floor) == solve_bilp(p)
        first = solve_bilp(build_k_dcs_program(g, 1))
        m, sites = first.objective_value, [g.s_ids[s] for s in np.flatnonzero(first.assignment)]
        for banned in (sites[:1], sites):
            p = build_k_dcs_program(without(g, frozenset(banned)), 1)
            plain, capped = solve_bilp(p), solve_bilp(p, (m, m))
            if plain.status == "optimal" and plain.objective_value == m:
                assert capped == plain
                kept += 1
            else:
                assert capped.status == "infeasible"
                grew += 1
    assert kept and grew


def _greedy_without_range(g: BipartiteGraph) -> ConfigurationSet:
    """greedy_k as a loop of plain solves on the graph without the sites
    already chosen, built afresh from g, that stops once the size grows."""

    def mdcs(rest: BipartiteGraph) -> frozenset[str] | None:
        if not rest.n_s:
            return None
        sol = solve_bilp(build_k_dcs_program(rest, 1))
        if sol.status != "optimal":
            return None
        return rest.site_names(np.flatnonzero(sol.assignment).tolist())

    sets = [mdcs(g)]
    while (s := mdcs(without(g, frozenset().union(*sets)))) is not None and len(s) == len(sets[0]):
        sets.append(s)
    return ConfigurationSet(tuple(CodeSet(s) for s in sets))


def test_greedy_matches_a_loop_without_objective_range(tiny_graph, greedy_gap_graph, case14_text):
    for g in greedy_corpus(tiny_graph, greedy_gap_graph, case14_text):
        assert dump_configuration(g, greedy_k(g)) == dump_configuration(g, _greedy_without_range(g))


def test_live_keeps_exactly_the_nodes_a_size_m_dcs_agrees_with():
    # greedy's live test against enumeration, over the heard sites of g and
    # of g without a minimum DCS, unheard sites interleaved: True exactly
    # when some size-m DCS of the graph holds the sites fixed at 1 and none
    # fixed at 0, m being g's minimum; no size-m DCS holds an unheard site
    rng, seen = np.random.default_rng(1990), Counter()
    graphs = twin_rich_corpus(seed=17, count=10, s_lo=8, s_hi=14)
    for g in graphs + feasible_corpus(seed=18, count=10, s_lo=6, s_hi=12):
        g = with_unheard(g, rng, 2)
        table = diverse_mdcs._table(g)
        m = table.patterns.shape[1]
        holds = diverse_mdcs._capacity(table.patterns, table.mult) > 0
        cls = {sid: c for c, ids in enumerate(table.sites) for sid in ids}
        for h in (g, without(g, solve_mdcs(g).sensors)):
            heard = [s for s, sid in enumerate(h.s_ids) if sid in cls]
            live = diverse_mdcs._live(holds, np.array([cls[h.s_ids[s]] for s in heard]))
            combos = [c for c in itertools.combinations(range(h.n_s), m) if is_dcs_indices(h, frozenset(c))]
            dcss = np.zeros((len(combos), h.n_s), dtype=np.int8)
            for row, c in zip(dcss, combos):
                row[list(c)] = 1
            assert not np.delete(dcss, heard, axis=1).any()
            dcss = dcss[:, heard]
            for _ in range(40):
                state = rng.choice(np.array([-1, 0, 1], dtype=np.int8), len(heard), p=[0.6, 0.25, 0.15])
                fixed = state >= 0
                expect = bool((dcss[:, fixed] == state[fixed]).all(axis=1).any())
                assert live(state) == expect
                seen[expect] += 1
    assert seen[True] >= 50 and seen[False] >= 50


def test_quotient_m_is_the_minimum_dcs_size(monkeypatch, case14_text):
    # where the log2 floor has no pattern, m is solve_k_dcs(q, 1)'s size on
    # the quotient q: g's transformers, one site per heard class
    from gridmtd import build_bipartite, parse_matpower

    real, solved = diverse_mdcs.solve_k_dcs, []

    def spy(q, K):
        cfg = real(q, K)
        solved.append((q, cfg))
        return cfg

    monkeypatch.setattr(diverse_mdcs, "solve_k_dcs", spy)
    case14 = build_bipartite(parse_matpower(case14_text), ["4-7", "4-9", "5-6", "7-8", "7-9"], 2)
    corpora = {
        "twin-rich": twin_rich_corpus(seed=19, count=12, s_lo=10, s_hi=18),
        "feasible": feasible_corpus(seed=20, count=40, s_lo=5, s_hi=14),
        "case14": [case14],
    }
    for name, graphs in corpora.items():
        quotients = 0
        for g in graphs:
            solved.clear()
            table = diverse_mdcs._table(g)
            m = brute_force_mdcs(g, max_sites=g.n_s).size
            assert table.patterns.shape[1] == m
            for q, cfg in solved:
                assert (q.t_ids, q.s_ids) == (g.t_ids, tuple(ids[0] for ids in table.sites))
                assert cfg.l == m
                quotients += 1
        assert quotients >= min(len(graphs), 5), name


def test_case14_families_run_no_unranged_site_level_dcs_solve(monkeypatch, case14_text):
    # cli._families on case14 (40 sites, 21 heard in 5 classes): every
    # greedy step solves columns of build_k_dcs_program(g, 1) at heard sites
    # not yet taken, wanting size m, the first step all 21 of them; m comes
    # from two solves on the 5-site quotient, one per table, and no DCS
    # program without a range has more variables
    from gridmtd import build_bipartite, cli, parse_matpower

    real, calls = diverse_mdcs.solve_bilp, []

    def recorded(p, objective_range=None, **kw):
        calls.append((p, objective_range))
        return real(p, objective_range, **kw)

    monkeypatch.setattr(diverse_mdcs, "solve_bilp", recorded)
    g = build_bipartite(parse_matpower(case14_text), ["4-7", "4-9", "5-6", "7-8", "7-9"], 2)
    optimal, greedy = cli._families(g)
    m = optimal.l
    assert (g.n_s, m, greedy.l) == (40, 4, m)
    full = build_k_dcs_program(g, 1)
    heard = full.constraints[:, np.flatnonzero(full.constraints.any(axis=0))]
    assert heard.shape[1] == 21
    dcs = [(p, rng) for p, rng in calls if p.sense == "min"]
    steps = [p for p, rng in dcs if rng == (m, m)]
    assert sum(p.objective.size == 5 for p, _ in dcs) == 2
    assert all(p.objective.size <= 5 for p, rng in dcs if rng != (m, m))
    # one step per set and a last one that finds none
    assert len(steps) == greedy.K + 1 and steps[0].constraints.tobytes() == heard.tobytes()
    for p in steps:
        assert (p.relations, p.rhs.tobytes()) == (full.relations, full.rhs.tobytes())
        assert (p.objective == 1.0).all() and p.objective.size <= 21
        # its columns are a subsequence of the heard columns
        cols = iter(heard.T.tolist())
        assert all(col in cols for col in p.constraints.T.tolist())


def test_greedy_drops_the_nodes_no_size_m_dcs_agrees_with(monkeypatch):
    # on the 10x60 ladder graph, greedy's branch and bound solved 515 node
    # LPs without the twin-class live test, most in subtrees with no size-m
    # DCS; with it 159
    calls, real = [], optim._relax_node
    monkeypatch.setattr(optim, "_relax_node", lambda *args: calls.append(1) or real(*args))
    greedy_k(load_graph(FIXTURES / "ladder5_10x60.graph"))
    assert 0 < len(calls) <= 200


# ---------------------------------------------------------------------------
# Oracles and invariants


def test_single_transformer():
    g = graph({"t1": {"s1", "s2", "s3"}}, ["s1", "s2", "s3"])
    assert solve_mdcs(g).size == 1
    cfg = find_kmax(g)
    assert cfg.K == 3 and cfg.l == 1  # every site alone identifies t1
    assert brute_force_kmax(g).K == 3


def test_14bus_solver_matches_oracle(case14_text):
    from gridmtd import build_bipartite, parse_matpower

    grid = parse_matpower(case14_text)
    g = build_bipartite(grid, ["4-7", "4-9", "5-6", "7-8", "7-9"], hop_limit=2)
    assert solve_mdcs(g).size == brute_force_mdcs(g, max_sites=40).size


def test_14bus_bus_site_rule_pipeline(case14_text):
    from gridmtd import build_bipartite, parse_matpower

    grid = parse_matpower(case14_text)
    g = build_bipartite(
        grid, ["4-7", "4-9", "5-6", "7-8", "7-9"], hop_limit=2, site_rule="buses"
    )
    assert g.n_s == 14
    assert is_feasible(g)
    assert solve_mdcs(g).size == brute_force_mdcs(g).size
    find_kmax(g).validate(g)


def test_brute_force_guard():
    rng = np.random.default_rng(0)
    g = random_bipartite(rng, 2, 26, 0.5)
    with pytest.raises(ValueError, match="refused"):
        brute_force_kmax(g)


def test_solver_matches_oracle_on_small_corpus():
    for g in feasible_corpus(seed=7, count=40, s_lo=4, s_hi=9):
        assert solve_mdcs(g).size == brute_force_mdcs(g).size
        assert find_kmax(g).K == brute_force_kmax(g).K


def test_monotone_feasibility_below_kmax():
    for g in feasible_corpus(seed=21, count=10, s_lo=4, s_hi=8):
        best = find_kmax(g)
        m = solve_mdcs(g).size
        for K in range(1, best.K + 1):
            cfg = solve_k_dcs(g, K)
            assert cfg.l == m


def test_find_kmax_ignores_numbering():
    """A renumbered graph gets the same family, block for block. The graphs
    are twin-free and have no symmetry (no transformer permutation maps the
    sites' neighborhoods onto themselves), as twins or symmetric nodes may
    trade places in the family."""
    rng = np.random.default_rng(5)
    checked = 0
    for g in feasible_corpus(seed=404, count=80, s_lo=5, s_hi=10):
        heard = {frozenset(t for t, nb in enumerate(g.adj) if s in nb) for s in range(g.n_s)}
        symmetric = any(
            {frozenset(perm[t] for t in h) for h in heard} == heard
            for perm in itertools.permutations(range(g.n_t))
            if perm != tuple(range(g.n_t))
        )
        if len(heard) < g.n_s or symmetric:
            continue
        ts, ss = rng.permutation(g.n_t), rng.permutation(g.n_s)
        new = {int(s): i for i, s in enumerate(ss)}
        renumbered = BipartiteGraph(
            tuple(g.t_ids[t] for t in ts),
            tuple(g.s_ids[s] for s in ss),
            tuple(frozenset(new[s] for s in g.adj[t]) for t in ts),
        )
        assert find_kmax(renumbered) == find_kmax(g)
        checked += 1
    assert checked >= 10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_emitted_configurations_satisfy_invariants(seed):
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng, int(rng.integers(2, 5)), int(rng.integers(4, 9)), 0.5)
    if not is_feasible(g):
        return
    cfg = find_kmax(g)
    cfg.validate(g)
    for cs in cfg.sets:
        assert is_dcs(g, cs.sensors)
        assert cs.size == cfg.l
    for a, b in itertools.combinations(cfg.sets, 2):
        assert not (a.sensors & b.sensors)


def test_linearized_disjointness_matches_quadratic(tiny_graph):
    # every binary assignment with equal block sizes: the pairwise linear form
    # accepts exactly the points whose pairwise squared difference sums to 2l
    K, n = 2, tiny_graph.n_s
    prog = build_k_dcs_program(tiny_graph, K)
    pair_rows = [
        (coeffs, rhs)
        for coeffs, relation, rhs in zip(prog.constraints, prog.relations, prog.rhs)
        if relation == "<=" and rhs == 1.0 and sum(coeffs) == 2.0
    ]
    assert len(pair_rows) == n  # one row per site for K=2
    for bits in itertools.product((0, 1), repeat=n * K):
        blocks = [bits[k * n : (k + 1) * n] for k in range(K)]
        sizes = {sum(b) for b in blocks}
        if len(sizes) != 1:
            continue
        l = sizes.pop()
        linear_ok = all(
            sum(a * x for a, x in zip(coeffs, bits)) <= rhs for coeffs, rhs in pair_rows
        )
        quad_ok = all(
            sum((xa - xb) ** 2 for xa, xb in zip(blocks[i], blocks[j])) == 2 * l
            for i, j in itertools.combinations(range(K), 2)
        )
        assert linear_ok == quad_ok


def reference_k_dcs_program(g, K):
    """build_k_dcs_program written row by row, one coefficient dict per row."""
    n = g.n_s
    nv = n * K

    def var(k, s):
        return k * n + s

    cons = []

    def row(entries, rel, rhs):
        coeffs = [0.0] * nv
        for j, a in entries.items():
            coeffs[j] = a
        cons.append((coeffs, rel, rhs))

    for k in range(K):
        for nb in g.adj:
            row({var(k, s): 1.0 for s in nb}, ">=", 1.0)
        for ti, tj in itertools.combinations(range(g.n_t), 2):
            row({var(k, s): 1.0 for s in g.adj[ti] ^ g.adj[tj]}, ">=", 1.0)
    if K > 1:
        for k in range(1, K):
            entries = {var(k, s): 1.0 for s in range(n)}
            for s in range(n):
                entries[var(0, s)] = -1.0
            row(entries, "=", 0.0)
        for s in range(n):
            row({var(k, s): 1.0 for k in range(K)}, "<=", 1.0)
    objective = [0.0] * nv
    for s in range(n):
        objective[var(0, s)] = 1.0
    coeffs, relations, rhs = zip(*cons)
    return BinaryProgram(objective, "min", coeffs, relations, rhs)


def test_program_matches_reference(tiny_graph, greedy_gap_graph, case14_text):
    from gridmtd import build_bipartite, parse_matpower

    grid = parse_matpower(case14_text)
    case14 = build_bipartite(grid, ["4-7", "4-9", "5-6", "7-8", "7-9"], hop_limit=2)
    graphs = [case14, tiny_graph, greedy_gap_graph] + feasible_corpus(seed=101, count=40)
    for g in graphs:
        for K in (1, 2, 3, 4):
            prog = build_k_dcs_program(g, K)
            ref = reference_k_dcs_program(g, K)
            assert prog.sense == ref.sense and prog.relations == ref.relations
            for field in ("objective", "constraints", "rhs"):
                a, b = getattr(prog, field), getattr(ref, field)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def test_disjointness_is_one_capacity_row_per_site(tiny_graph, case14_text):
    # K cover-and-discriminate blocks, K-1 equal-size rows, then for K >= 2
    # exactly one sum_k x_ks <= 1 row per site and no pairwise rows
    from gridmtd import build_bipartite, parse_matpower

    grid = parse_matpower(case14_text)
    case14 = build_bipartite(grid, ["4-7", "4-9", "5-6", "7-8", "7-9"], hop_limit=2)
    for g in (tiny_graph, case14):
        n = g.n_s
        per_block = g.n_t + g.n_t * (g.n_t - 1) // 2
        for K in (1, 2, 3, 4):
            prog = build_k_dcs_program(g, K)
            le = np.array(prog.relations) == "<="
            assert len(prog.constraints) == K * per_block + (K - 1) + le.sum()
            assert le.sum() == (n if K > 1 else 0)
            for s, (coeffs, rhs) in enumerate(zip(prog.constraints[le], prog.rhs[le])):
                support = {j for j, a in enumerate(coeffs) if a != 0.0}
                assert support == {k * n + s for k in range(K)}
                assert all(coeffs[j] == 1.0 for j in support) and rhs == 1.0


def test_dump_format(tiny_graph):
    cfg = find_kmax(tiny_graph)
    text = dump_configuration(tiny_graph, cfg)
    lines = text.strip().splitlines()
    assert lines[0] == "kmax 2 l 2"
    assert lines[1].startswith("mdcs 1: ")
    assert lines[2].startswith("mdcs 2: ")


def test_enumerate_mdcs_tiny(tiny_graph):
    found = enumerate_mdcs(tiny_graph)
    names = {frozenset(tiny_graph.s_ids[i] for i in combo) for combo in found}
    assert names == {
        frozenset({"s1", "s2"}),
        frozenset({"s1", "s4"}),
        frozenset({"s2", "s3"}),
        frozenset({"s3", "s4"}),
    }


# ---------------------------------------------------------------------------
# find_kmax on twin-rich graphs


def twin_rich_corpus(seed: int, count: int, s_lo: int, s_hi: int) -> list[BipartiteGraph]:
    """Feasible random graphs on 5-8 sites whose site columns are copied at
    random up to s_lo..s_hi sites, the sites then shuffled, so most classes
    of sites heard by the same transformers hold several twins. Copying a
    column keeps every neighborhood distinct, so the graphs stay feasible.

    With two transformers and twenty twins the exhaustive oracle runs for up
    to half a minute a graph, so graphs have 3-5 transformers."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n_t, n_s = int(rng.integers(3, 6)), int(rng.integers(5, 9))
        g = random_bipartite(rng, n_t, n_s, float(rng.uniform(0.3, 0.7)))
        if not is_feasible(g):
            continue
        n = int(rng.integers(s_lo, s_hi + 1))
        src = rng.permutation(np.concatenate([np.arange(n_s), rng.integers(0, n_s, n - n_s)]))
        adj = tuple(frozenset(i for i in range(n) if src[i] in nb) for nb in g.adj)
        out.append(BipartiteGraph(g.t_ids, tuple(f"s{i + 1}" for i in range(n)), adj))
    return out


def test_find_kmax_matches_brute_force_on_twin_rich_graphs():
    for g in twin_rich_corpus(seed=11, count=12, s_lo=14, s_hi=25):
        cfg, oracle = find_kmax(g), brute_force_kmax(g)
        assert (cfg.K, cfg.l) == (oracle.K, oracle.l)


def highs_k_dcs_feasible(g: BipartiteGraph, K: int, size: int) -> bool:
    """Whether HiGHS finds a point of build_k_dcs_program(g, K) with block 0's
    size fixed at `size`."""
    opt = pytest.importorskip("scipy.optimize")
    p = build_k_dcs_program(g, K)
    rows = np.vstack([p.constraints, p.objective])
    rel = np.array(p.relations + ("=",))
    rhs = np.append(p.rhs, float(size))
    lb = np.where(rel == "<=", -np.inf, rhs)
    ub = np.where(rel == ">=", np.inf, rhs)
    n = len(p.objective)
    res = opt.milp(
        np.zeros(n), constraints=opt.LinearConstraint(rows, lb, ub),
        integrality=np.ones(n), bounds=opt.Bounds(0, 1),
    )
    assert res.status in (0, 2), res.message  # optimal or infeasible
    return res.status == 0


def test_find_kmax_matches_highs_past_the_brute_force_limit():
    for g in twin_rich_corpus(seed=12, count=8, s_lo=BRUTE_FORCE_SITE_LIMIT + 1, s_hi=32):
        cfg = find_kmax(g)
        cfg.validate(g)
        assert highs_k_dcs_feasible(g, cfg.K, cfg.l)
        assert not highs_k_dcs_feasible(g, cfg.K + 1, cfg.l)


def test_find_kmax_widens_the_packing_when_the_generated_patterns_fall_short(monkeypatch):
    # when the BILP over the generated patterns misses the LP bound, patterns
    # the class prices do not rule out join; here the first packing is cut
    # short by one pattern, and the answer must still be the maximum
    real, calls = diverse_mdcs._pack, []

    def short_first(patterns, mult, *least):
        picks = real(patterns, mult, *least)
        calls.append(len(picks))
        return picks[:-1] if len(calls) == 1 else picks

    monkeypatch.setattr(diverse_mdcs, "_pack", short_first)
    for g in twin_rich_corpus(seed=13, count=6, s_lo=10, s_hi=18):
        calls.clear()
        assert find_kmax(g).K == brute_force_kmax(g).K
        assert len(calls) == 2


def test_dcs_nodes_solve_their_dual_and_packing_nodes_carry_no_cap_or_artificial(monkeypatch):
    # a DCS program minimizes a non-negative cost, so every node LP goes to
    # _solve_standard as its dual, all <= rows over a non-negative rhs: no
    # artificial, no phase 1; the packing maximizes a positive count, so its
    # nodes are bounded tableaus that never reach _solve_standard: a row per
    # class and two objective rows over the copies, a slack per class and
    # the rhs, with no cap row and no artificial column
    real, calls = optim._solve_standard, []

    def recorded(A, is_ge, b, obj):
        calls.append((A, is_ge, b, obj))
        return real(A, is_ge, b, obj)

    monkeypatch.setattr(optim, "_solve_standard", recorded)
    for g in feasible_corpus(seed=1954, count=8, s_lo=8, s_hi=14):
        for K in (1, 2):
            calls.clear()
            solve_bilp(build_k_dcs_program(g, K))
            assert calls
            for A, is_ge, b, obj in calls:
                assert not is_ge.any() and np.all(b >= 0)
    box_solve, tableaus = optim._BoxTableau.solve, []

    def box_solved(box, *args, **kwargs):
        x = box_solve(box, *args, **kwargs)
        tableaus.append(box.T.shape)
        return x

    monkeypatch.setattr(optim._BoxTableau, "solve", box_solved)
    real_pack, packs = diverse_mdcs._pack, 0

    def pack(patterns, mult, least):
        nonlocal packs
        calls.clear()
        tableaus.clear()
        picks = real_pack(patterns, mult, least)
        assert not calls and tableaus
        copies = mult[patterns].min(axis=1).sum()
        assert set(tableaus) == {(len(mult) + 2, copies + len(mult) + 1)}
        packs += 1
        return picks

    monkeypatch.setattr(diverse_mdcs, "_pack", pack)
    for g in twin_rich_corpus(seed=13, count=6, s_lo=10, s_hi=18):
        find_kmax(g)
    assert packs >= 6


def test_find_kmax_on_the_ladder_graph_whose_packing_node_hit_the_iteration_cap():
    # the 10x60 rung of the benchmark's ladder_graphs(5); K and l must match
    # HiGHS's packing over the same class patterns, each at most as often as
    # its smallest class has sites
    opt = pytest.importorskip("scipy.optimize")
    g = load_graph(FIXTURES / "ladder5_10x60.graph")
    cfg = find_kmax(g)
    cfg.validate(g)
    heard_by = [tuple(t for t, nb in enumerate(g.adj) if s in nb) for s in range(g.n_s)]
    keys = sorted(set(heard_by) - {()})
    mult = np.array([heard_by.count(k) for k in keys])
    patterns = diverse_mdcs._patterns(g, [tuple(g.t_ids[t] for t in k) for k in keys], cfg.l)
    res = opt.milp(
        -np.ones(len(patterns)),
        constraints=opt.LinearConstraint(diverse_mdcs._capacity(patterns, mult), -np.inf, mult),
        integrality=np.ones(len(patterns)), bounds=opt.Bounds(0, mult[patterns].min(axis=1)),
    )
    assert res.status == 0, res.message
    assert (cfg.K, cfg.l) == (round(-res.fun), 4) == (12, 4)


def class_keys(g: BipartiteGraph) -> list[tuple]:
    """find_kmax's twin classes: the sorted ids of the transformers that hear
    a site, one key per heard class, in order."""
    heard_by = [tuple(sorted(t for t, nb in zip(g.t_ids, g.adj) if s in nb)) for s in range(g.n_s)]
    return sorted(set(heard_by) - {()})


def reference_patterns(g: BipartiteGraph, keys: list[tuple], m: int) -> np.ndarray:
    """The enumerator _patterns replaced: every size-m class subset, in
    lexicographic order, in chunks of 1,024, kept when its codes are
    non-empty and distinct."""
    heard = np.array([np.isin(g.t_ids, k) for k in keys], dtype=np.int64 if m < 63 else object)
    subsets, patterns = itertools.combinations(range(len(keys)), m), [np.zeros((0, m), dtype=int)]
    while (idx := np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, 1024)), int).reshape(-1, m)).size:
        codes = np.sort(sum(heard[idx[:, j]] << j for j in range(m)), axis=1)
        patterns.append(idx[(codes[:, 0] > 0) & (np.diff(codes, axis=1) != 0).all(axis=1)])
    return np.concatenate(patterns)


def test_patterns_match_the_exhaustive_enumerator():
    # random feasible graphs, small and with up to 9 transformers, at every
    # size from 1 to one past the log2 floor, below which no pattern exists
    rng = np.random.default_rng(2008)
    graphs = feasible_corpus(seed=1972, count=150, s_lo=4, s_hi=16)
    while len(graphs) < 250:
        g = random_bipartite(rng, int(rng.integers(5, 10)), int(rng.integers(8, 22)), float(rng.uniform(0.2, 0.8)))
        if is_feasible(g):
            graphs.append(g)
    empty = 0
    for g in graphs:
        keys = class_keys(g)
        for m in range(1, g.n_t.bit_length() + 2):
            patterns, reference = diverse_mdcs._patterns(g, keys, m), reference_patterns(g, keys, m)
            assert patterns.shape == reference.shape and patterns.dtype == reference.dtype
            assert np.array_equal(patterns, reference)
            empty += not len(patterns)
    assert empty > 400


def test_patterns_grow_depth_first_on_the_10x60_ladder_graph():
    # the same 2,809 patterns as the exhaustive enumerator, while the growth
    # keeps its prefixes to chunks: about 0.5 MB traced, where growing a
    # whole level at a time peaks near 13 MB
    g = load_graph(FIXTURES / "ladder5_10x60.graph")
    keys, m = class_keys(g), g.n_t.bit_length()
    reference = reference_patterns(g, keys, m)
    diverse_mdcs._patterns(g, keys, m)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        patterns = diverse_mdcs._patterns(g, keys, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(patterns) == 2809 and np.array_equal(patterns, reference)
    assert peak <= 1e6


def bench_ladder(seed: int) -> list[BipartiteGraph]:
    """The benchmark's kmax-ladder graphs at seed."""
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    return [g for g, _ in workloads.ladder_graphs(seed)]


def test_find_kmax_meets_the_site_bound_on_the_8x40_ladder_graph_of_seed_10(monkeypatch):
    # among ladder seeds 1-12 the one graph whose packing widens more than
    # once: 556, then 1,112, 2,224 and 4,448 patterns; the last packing
    # meets the site bound, 40 heard sites over l = 4
    [g] = [g for g in bench_ladder(10) if (g.n_t, g.n_s) == (8, 40)]
    real, packed = diverse_mdcs._pack, []
    monkeypatch.setattr(
        diverse_mdcs, "_pack", lambda patterns, *args: packed.append(len(patterns)) or real(patterns, *args)
    )
    cfg = find_kmax(g)
    cfg.validate(g)
    # K * l is every heard site, so no larger family fits
    assert (cfg.K, cfg.l, len(set().union(*g.adj))) == (10, 4, 40)
    assert len(packed) >= 3


def test_find_kmax_skips_the_m_solve_where_the_log2_floor_is_met(monkeypatch, tiny_graph, case14_text):
    from gridmtd import build_bipartite, parse_matpower

    real, calls = diverse_mdcs.solve_k_dcs, []
    monkeypatch.setattr(diverse_mdcs, "solve_k_dcs", lambda g, K: calls.append(K) or real(g, K))

    def m_solves(g):
        calls.clear()
        cfg = find_kmax(g)
        return len(calls), cfg

    # the benchmark's rungs past the brute-force limit meet the floor
    big = [g for g in bench_ladder(1) if (g.n_t, g.n_s) in ((5, 30), (8, 40), (10, 60))]
    assert len(big) == 3
    for g in big:
        solves, cfg = m_solves(g)
        assert solves == 0 and cfg.l == g.n_t.bit_length()
    # case14 (5 transformers, 5 classes) and tiny (2, 2) fail floor + n_t <=
    # classes, though tiny's minimum DCS meets the floor
    case14 = build_bipartite(parse_matpower(case14_text), ["4-7", "4-9", "5-6", "7-8", "7-9"], hop_limit=2)
    for g in (case14, tiny_graph):
        assert m_solves(g)[0] == 1
    assert m_solves(tiny_graph)[1].l == tiny_graph.n_t.bit_length()
    # either way K and l are the exhaustive maximum's
    paths = set()
    for g in feasible_corpus(seed=15, count=30, s_lo=6, s_hi=12) + twin_rich_corpus(
        seed=15, count=8, s_lo=10, s_hi=16
    ):
        solves, cfg = m_solves(g)
        paths.add(solves)
        oracle = brute_force_kmax(g)
        assert (cfg.K, cfg.l) == (oracle.K, oracle.l)
    assert paths == {0, 1}
