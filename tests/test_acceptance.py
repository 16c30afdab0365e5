"""Acceptance suite: one test per shipped criterion, each printing a PASS
line with its measured evidence (visible under pytest -s / on failure)."""

import itertools
import time

import numpy as np
import pytest

from gridmtd import (
    BinaryProgram,
    LinearProgram,
    brute_force_kmax,
    brute_force_mdcs,
    build_game,
    build_k_dcs_program,
    find_kmax,
    greedy_k,
    load_graph,
    random_bipartite,
    random_profile,
    solve_bilp,
    solve_lp,
    solve_mdcs,
    solve_sse,
    urs_value,
)
from gridmtd.cli import main as cli_main
from conftest import FIXTURES, feasible_corpus

CORPUS_SEED = 101


def report(n: int, msg: str) -> None:
    print(f"PASS criterion {n}: {msg}")


@pytest.fixture(scope="module")
def corpus300():
    return feasible_corpus(seed=CORPUS_SEED, count=300, s_lo=4, s_hi=12)


@pytest.fixture(scope="module")
def small_corpus(corpus300):
    return [g for g in corpus300 if g.n_s <= 10]


@pytest.fixture(scope="module")
def computed_configs(small_corpus):
    return [(g, find_kmax(g), greedy_k(g)) for g in small_corpus]


def test_criterion_1_mdcs_oracle_equivalence(corpus300):
    t0 = time.perf_counter()
    exact = 0
    for g in corpus300:
        if solve_mdcs(g).size == brute_force_mdcs(g).size:
            exact += 1
    elapsed = time.perf_counter() - t0
    assert exact == len(corpus300) == 300
    assert elapsed < 60.0
    report(1, f"solver size == brute minimum on 300/300 graphs in {elapsed:.1f}s")


def test_criterion_2_kmax_oracle_equivalence(small_corpus, computed_configs):
    assert len(small_corpus) >= 1
    agree = 0
    for g, optimal, _ in computed_configs:
        if optimal.K == brute_force_kmax(g).K:
            agree += 1
    assert agree == len(computed_configs)
    report(
        2,
        f"search K == exhaustive K on {agree}/{len(computed_configs)} "
        f"graphs with at most 10 sites",
    )


def test_criterion_3_configuration_validity(computed_configs):
    tiny = load_graph(FIXTURES / "tiny.graph")
    gap = load_graph(FIXTURES / "greedy_gap.graph")
    checked = 0
    for g, optimal, greedy in computed_configs + [
        (tiny, find_kmax(tiny), greedy_k(tiny)),
        (gap, find_kmax(gap), greedy_k(gap)),
    ]:
        optimal.validate(g)
        greedy.validate(g)
        checked += 2
    report(3, f"{checked} emitted configurations valid, zero violations")


def test_criterion_4_greedy_bound_and_gap_witness(computed_configs):
    for g, optimal, greedy in computed_configs:
        assert greedy.K <= optimal.K
    gap = load_graph(FIXTURES / "greedy_gap.graph")
    greedy = greedy_k(gap)
    optimal = find_kmax(gap)
    assert greedy.K < optimal.K
    assert optimal.K == brute_force_kmax(gap).K
    report(
        4,
        f"greedy K <= optimal K on all {len(computed_configs)} instances; "
        f"shipped witness has greedy {greedy.K} < maximum {optimal.K}",
    )


def _binary_matrix(n_vars: int) -> np.ndarray:
    return np.array(list(itertools.product((0, 1), repeat=n_vars)), dtype=float)


def _encoding_feasible(prog: BinaryProgram, X: np.ndarray) -> np.ndarray:
    ok = np.ones(len(X), dtype=bool)
    for coeffs, relation, rhs in zip(prog.constraints, prog.relations, prog.rhs):
        lhs = X @ coeffs
        if relation == "<=":
            ok &= lhs <= rhs + 1e-9
        elif relation == ">=":
            ok &= lhs >= rhs - 1e-9
        else:
            ok &= np.abs(lhs - rhs) <= 1e-9
    return ok


def _direct_system_feasible(g, K: int, X: np.ndarray) -> np.ndarray:
    """Independent transcription: equal block sizes, quadratic disjointness
    (pairwise squared differences summing to 2l), coverage, discrimination."""
    n = g.n_s
    blocks = X.reshape(len(X), K, n)
    sizes = blocks.sum(axis=2)
    ok = np.all(sizes == sizes[:, :1], axis=1)
    l = sizes[:, 0]
    for i, j in itertools.combinations(range(K), 2):
        quad = ((blocks[:, i, :] - blocks[:, j, :]) ** 2).sum(axis=1)
        ok &= quad == 2 * l
    for nb in g.adj:
        cov = blocks[:, :, sorted(nb)].sum(axis=2)
        ok &= np.all(cov >= 1, axis=1)
    for ta, tb in itertools.combinations(range(g.n_t), 2):
        diff = sorted(g.adj[ta] ^ g.adj[tb])
        disc = blocks[:, :, diff].sum(axis=2) if diff else np.zeros((len(X), K))
        ok &= np.all(disc >= 1, axis=1)
    return ok


def test_criterion_5_linearization_equivalence():
    tiny = load_graph(FIXTURES / "tiny.graph")
    rng = np.random.default_rng(55)
    g5 = random_bipartite(rng, 3, 5, 0.6)
    g8 = random_bipartite(rng, 2, 8, 0.5)
    cases = [(tiny, 2), (tiny, 3), (tiny, 4), (g5, 2), (g8, 2)]
    scanned = 0
    for g, K in cases:
        nv = g.n_s * K
        assert nv <= 16
        X = _binary_matrix(nv)
        enc = _encoding_feasible(build_k_dcs_program(g, K), X)
        ref = _direct_system_feasible(g, K, X)
        assert np.array_equal(enc, ref)
        scanned += len(X)
    report(5, f"encoding == quadratic system on {scanned} binary assignments")


def test_criterion_6_attacker_action_count(computed_configs):
    rng = np.random.default_rng(66)
    checked = 0
    for g, optimal, greedy in computed_configs:
        u = random_profile(g, rng)
        for cfg in (optimal, greedy):
            game = build_game(g, cfg, u)
            assert len(game.attacker_actions) == cfg.K * cfg.l
            checked += 1
    report(6, f"attacker action count == K*l on {checked} games")


def test_criterion_7_hand_derived_sse_fixture():
    from gridmtd import CodeSet, ConfigurationSet, UtilityProfile

    tiny = load_graph(FIXTURES / "tiny.graph")
    cfg = ConfigurationSet(
        (CodeSet(frozenset({"s1", "s2"})), CodeSet(frozenset({"s3", "s4"})))
    )
    u = UtilityProfile(
        {"t1": 10.0, "t2": 5.0}, {"s1": 2.0, "s2": 0.0, "s3": 0.0, "s4": 0.0}
    )
    sse = solve_sse([build_game(tiny, cfg, u)])[0]
    assert sse.defender_mix == pytest.approx([0.6, 0.4], abs=1e-6)
    assert sse.defender_value == pytest.approx(11.0, abs=1e-6)
    u0 = UtilityProfile({"t1": 10.0, "t2": 5.0}, {s: 0.0 for s in tiny.s_ids})
    sse0 = solve_sse([build_game(tiny, cfg, u0)])[0]
    assert sse0.defender_value == pytest.approx(10.0, abs=1e-6)
    report(7, "mix (0.6, 0.4), value 11; zero-cost value 10, all within 1e-6")


def test_criterion_8_sse_dominates_urs():
    graphs = feasible_corpus(seed=CORPUS_SEED + 1, count=200, s_lo=4, s_hi=10)
    rng = np.random.default_rng(88)
    for g in graphs:
        cfg = greedy_k(g)
        cfg.validate(g)
        game = build_game(g, cfg, random_profile(g, rng))
        assert solve_sse([game])[0].defender_value >= urs_value(game) - 1e-6
    report(8, "SSE value >= URS value on 200/200 random games")


def _random_program(rng) -> BinaryProgram:
    """Random binary program; most are anchored around a feasible point so the
    optimality path is exercised, the rest are free draws that are usually
    infeasible and exercise detection."""
    n = int(rng.integers(2, 16))
    m = int(rng.integers(1, 11))
    A = rng.integers(-4, 5, size=(m, n)).astype(float)
    rels = [("<=", ">=", "=")[i] for i in rng.integers(0, 3, size=m)]
    if rng.random() < 0.7:
        anchor = rng.integers(0, 2, size=n).astype(float)
        margins = rng.integers(0, 4, size=m).astype(float)
        b = A @ anchor
        for i, rel in enumerate(rels):
            if rel == "<=":
                b[i] += margins[i]
            elif rel == ">=":
                b[i] -= margins[i]
    else:
        b = rng.integers(-5, 11, size=m).astype(float)
    c = rng.integers(-9, 10, size=n).astype(float)
    sense = "min" if rng.integers(0, 2) == 0 else "max"
    return BinaryProgram(c, sense, A, tuple(rels), b)


def _enumerated_optimum(p: BinaryProgram):
    X = _binary_matrix(len(p.objective))
    feas = _encoding_feasible(p, X)
    if not feas.any():
        return None
    vals = X[feas] @ p.objective
    return float(vals.min() if p.sense == "min" else vals.max())


def test_criterion_9_lp_bilp_engine():
    rng = np.random.default_rng(909)
    infeasible_seen = 0
    for _ in range(500):
        p = _random_program(rng)
        expect = _enumerated_optimum(p)
        sol = solve_bilp(p)
        if expect is None:
            assert sol.status == "infeasible"
            infeasible_seen += 1
        else:
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(expect, abs=1e-6)

    contradiction = LinearProgram((1.0,), [[1.0], [1.0]], ("<=", ">="), [0.0, 1.0])
    assert solve_lp(contradiction).status == "infeasible"
    free_ray = LinearProgram((1.0,), np.zeros((0, 1)), (), [])
    assert solve_lp(free_ray).status == "unbounded"

    for _ in range(50):
        p = _random_program(rng)
        assert solve_bilp(p) == solve_bilp(p)
    report(
        9,
        f"500/500 programs match enumeration ({infeasible_seen} infeasible), "
        "fixtures detected, repeated solves identical",
    )


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    argv = [
        "experiment",
        "--input",
        str(FIXTURES / "tiny.graph"),
        "--trials",
        "50",
        "--seed",
        "1234",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(argv + ["--out", str(out_a)]) == 0
    assert cli_main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    csv_a = (out_a / "trials.csv").read_bytes()
    csv_b = (out_b / "trials.csv").read_bytes()
    assert csv_a == csv_b
    rows = csv_a.decode().strip().splitlines()[1:-2]
    assert len(rows) == 50
    for row in rows:
        _, urs_k, urs_kmax, sse_k, sse_kmax = map(float, row.split(","))
        assert sse_k >= urs_k - 1e-6
        assert sse_kmax >= urs_kmax - 1e-6
    report(10, "two runs byte-identical; SSE >= URS on every one of 50 rows")
