"""Families of pairwise-disjoint minimum discriminating code sets.

A discriminating code set (DCS) gives every transformer a non-empty, unique
triggered-sensor signature; an MDCS is a smallest one. This module solves for
a single MDCS, for K equal-size pairwise-disjoint DCSs, and for the largest
such family, plus a faster greedy alternative and exhaustive oracles used to
validate the solvers on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from gridmtd.graph_core import BipartiteGraph, CodeSet, is_dcs, is_dcs_indices
from gridmtd.optim import FEAS_TOL, BinaryProgram, LinearProgram, SolverError, solve_bilp, solve_lp

__all__ = [
    "ConfigurationSet",
    "InfeasibleError",
    "check_feasible",
    "is_feasible",
    "build_k_dcs_program",
    "solve_mdcs",
    "solve_k_dcs",
    "find_kmax",
    "greedy_k",
    "brute_force_mdcs",
    "brute_force_kmax",
    "enumerate_mdcs",
    "dump_configuration",
    "BRUTE_FORCE_SITE_LIMIT",
]

BRUTE_FORCE_SITE_LIMIT = 25


class InfeasibleError(Exception):
    """No discriminating code set (or no K disjoint ones) exists.

    pair names two transformers with identical neighborhoods; transformer
    names one with an empty neighborhood, when that is the cause.
    """

    def __init__(
        self,
        message: str,
        pair: tuple[str, str] | None = None,
        transformer: str | None = None,
    ):
        super().__init__(message)
        self.pair = pair
        self.transformer = transformer


@dataclass(frozen=True)
class ConfigurationSet:
    """K pairwise-disjoint discriminating code sets of common size l."""

    sets: tuple[CodeSet, ...]

    @property
    def K(self) -> int:
        return len(self.sets)

    @property
    def l(self) -> int:
        return self.sets[0].size if self.sets else 0

    def all_sites(self) -> frozenset[str]:
        out: set[str] = set()
        for cs in self.sets:
            out |= cs.sensors
        return frozenset(out)

    def validate(self, g: BipartiteGraph) -> None:
        """Raise ValueError unless every member is a DCS of g, sizes match,
        and the members are pairwise disjoint."""
        if not self.sets:
            raise ValueError("configuration set is empty")
        for cs in self.sets:
            if cs.size != self.l:
                raise ValueError("member code sets differ in size")
            if not is_dcs(g, cs.sensors):
                raise ValueError(f"member {sorted(cs.sensors)} is not a DCS")
        for a, b in combinations(self.sets, 2):
            if a.sensors & b.sensors:
                raise ValueError("member code sets are not pairwise disjoint")


# ---------------------------------------------------------------------------
# Feasibility pre-check


def check_feasible(g: BipartiteGraph) -> None:
    """Reject graphs with no DCS at all: a transformer nobody can hear, or a
    pair with identical neighborhoods (empty symmetric difference). A graph
    with no transformers is malformed input, a ValueError."""
    if not g.n_t:
        raise ValueError("graph has no transformers")
    for ti, nb in enumerate(g.adj):
        if not nb:
            tid = g.t_ids[ti]
            raise InfeasibleError(
                f"transformer {tid} has no sensor site in range", transformer=tid
            )
    for ti, tj in combinations(range(g.n_t), 2):
        if g.adj[ti] == g.adj[tj]:
            pair = (g.t_ids[ti], g.t_ids[tj])
            raise InfeasibleError(
                f"transformers {pair[0]} and {pair[1]} have identical neighborhoods "
                "and can never be told apart",
                pair=pair,
            )


def is_feasible(g: BipartiteGraph) -> bool:
    try:
        check_feasible(g)
    except InfeasibleError:
        return False
    return True


# ---------------------------------------------------------------------------
# Encoding


def build_k_dcs_program(g: BipartiteGraph, K: int) -> BinaryProgram:
    """Binary program over x[k*n+s]: K equal-size, pairwise-disjoint DCSs of
    minimum common size, the paper's K-DCS program and nothing more. For
    K = 1 the columns of some sites are the program of the graph without
    the other sites.

    Disjointness is one capacity row per site, sum_k x_ks <= 1, which on
    binary points matches requiring blocks to share no site and implies every
    pairwise row x_sk + x_sk' <= 1, also on the relaxation. For K=2 it is the
    pairwise row itself.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    n = g.n_s
    heard = np.array([[s in nb for s in range(n)] for nb in g.adj], dtype=np.int8)
    ti, tj = np.triu_indices(g.n_t, 1)
    # per block: one cover row per transformer, one separation row per pair
    block = np.vstack([heard, heard[ti] ^ heard[tj]])
    groups = [(np.kron(np.eye(K, dtype=np.int8), block), ">=", 1.0)]
    if K > 1:
        size = np.zeros((K - 1, K, n), dtype=np.int8)
        size[:, 0] = -1
        size[np.arange(K - 1), np.arange(1, K)] = 1
        groups.append((size.reshape(K - 1, K * n), "=", 0.0))
        groups.append((np.tile(np.eye(n, dtype=np.int8), K), "<=", 1.0))
    return BinaryProgram(
        (1.0,) * n + (0.0,) * (n * (K - 1)),
        "min",
        np.vstack([a for a, _, _ in groups]),
        tuple(rel for a, rel, _ in groups for _ in a),
        [rhs for a, _, rhs in groups for _ in a],
    )


def _solve(g: BipartiteGraph, K: int) -> ConfigurationSet | None:
    """The validated family solving build_k_dcs_program(g, K), or None. Its
    size range is (ceil(log2(n_t + 1)), inf): l sites give at most 2^l - 1
    transformers distinct non-empty codes (Charbit, Charon, Cohen, Hudry and
    Lobstein 2008), so no DCS is smaller."""
    sol = solve_bilp(build_k_dcs_program(g, K), (g.n_t.bit_length(), np.inf))
    if sol.status != "optimal":
        return None
    chosen = sol.assignment.reshape(K, g.n_s) > 0.5
    cfg = ConfigurationSet(tuple(CodeSet(g.site_names(np.flatnonzero(row))) for row in chosen))
    cfg.validate(g)
    return cfg


# ---------------------------------------------------------------------------
# Solvers


def solve_mdcs(g: BipartiteGraph) -> CodeSet:
    """A minimum discriminating code set of g."""
    check_feasible(g)
    cfg = _solve(g, 1)
    if cfg is None:
        raise SolverError("single-DCS program reported infeasible on a feasible graph")
    return cfg.sets[0]


def solve_k_dcs(g: BipartiteGraph, K: int) -> ConfigurationSet:
    """K pairwise-disjoint equal-size DCSs minimizing the common size."""
    if K < 1:
        raise ValueError("K must be >= 1")
    check_feasible(g)
    cfg = _solve(g, K)
    if cfg is None:
        raise InfeasibleError(f"no {K} pairwise-disjoint discriminating code sets exist")
    return cfg


def find_kmax(g: BipartiteGraph) -> ConfigurationSet:
    """Largest family of pairwise-disjoint minimum DCSs, packed from the
    size-m patterns of g's twin-class table (_table, which greedy_k reads
    too). Column generation (Gilmore and Gomory) solves the packing LP, no
    class used more often than it has sites, over the patterns its class
    prices call in, and the packing BILP over those patterns is widened, in
    stages, only while it falls short of the LP bound. Classes and sites go
    in name order, so renumbering g leaves the family as it is."""
    keys, sites, mult, patterns = _table(g)
    use = np.arange(len(patterns)) == 0
    while True:
        uses = _capacity(patterns[use], mult)
        lp = solve_lp(LinearProgram(np.ones(use.sum()), uses, ("<=",) * len(mult), mult))
        gain = 1.0 - lp.duals[patterns].sum(axis=1)  # a pattern's value beyond its classes' price
        new = np.flatnonzero(~use & (gain > FEAS_TOL))
        if not new.size:
            break
        use[new[np.argsort(-gain[new], kind="stable")[: len(keys)]]] = True
    # by LP duality a family of v + 1 or more patterns uses only patterns with
    # gain >= v + 1 - bound, and none has more than bound
    bound = float(mult @ lp.duals) + FEAS_TOL * g.n_s
    picks = _pack(patterns[use], mult, int(bound))
    # widen in stages: the other candidates join in gain order, the pool
    # doubling each time; a stage short of all candidates wants only a
    # packing that meets the bound, the last one any larger packing
    extra = np.flatnonzero(~use & (gain >= len(picks) + 1 - bound))
    pool = np.concatenate([np.flatnonzero(use), extra[np.argsort(-gain[extra], kind="stable")]])
    size = int(use.sum())
    while len(picks) < int(bound):
        size *= 2
        last = size >= len(pool)
        least = len(picks) + 1 if last else int(bound)
        picks = max(picks, _pack(patterns[np.sort(pool[:size])], mult, least), key=len)
        if last:
            break
    left = [iter(ids) for ids in sites]
    cfg = ConfigurationSet(tuple(CodeSet(frozenset(next(left[c]) for c in p)) for p in picks))
    cfg.validate(g)
    return cfg


class _Table(NamedTuple):
    """g's twin classes, its heard sites grouped by the transformers that
    hear them: each class's key, the sorted ids of those transformers, in
    order; its site ids in order; its multiplicity; and the size-m patterns
    as class indices."""

    keys: list[tuple]
    sites: list[list[str]]
    mult: np.ndarray
    patterns: np.ndarray


def _table(g: BipartiteGraph) -> _Table:
    """The twin-class table of g, once check_feasible passes. A minimum DCS,
    of size m, holds one site from each of m classes whose codes are
    non-empty and distinct, a pattern. m is the log2 floor,
    ceil(log2(n_t + 1)), below which no DCS exists, when some pattern has
    that size; else it is solve_k_dcs's size on the class quotient, one
    site per class, heard by the transformers of its key (Charbit, Charon,
    Cohen, Hudry and Lobstein 2008). The floor's patterns are enumerated
    first only when floor + n_t is at most the class count: m <= n_t (Bondy
    1972), so C(classes, floor) is then at most C(classes, m), the
    enumeration the answer needs anyway."""
    check_feasible(g)
    heard_by = [tuple(sorted(t for t, nb in zip(g.t_ids, g.adj) if s in nb)) for s in range(g.n_s)]
    keys = sorted(set(heard_by) - {()})
    sites = [sorted(sid for sid, h in zip(g.s_ids, heard_by) if h == k) for k in keys]
    mult = np.array([len(ids) for ids in sites])
    floor = g.n_t.bit_length()
    patterns = _patterns(g, keys, floor) if floor + g.n_t <= len(keys) else ()
    if not len(patterns):
        adj = tuple(frozenset(c for c, k in enumerate(keys) if t in k) for t in g.t_ids)
        q = BipartiteGraph(g.t_ids, tuple(ids[0] for ids in sites), adj, g.hop_limit)
        patterns = _patterns(g, keys, solve_k_dcs(q, 1).l)
    return _Table(keys, sites, mult, patterns)


def _patterns(g: BipartiteGraph, keys: list[tuple], m: int) -> np.ndarray:
    """The size-m patterns over classes keys, in lexicographic order, grown a
    class at a time, depth first over chunks of at most 32 prefixes. A prefix
    of j classes ending at class c grows only by classes c + 1 to
    len(keys) - (m - j), which leaves room for the rest, and is dropped once
    the r classes still to come cannot split it: they give at most 2^r codes,
    one of them empty, so no more than 2^r transformers may share a code and
    fewer than 2^r the empty one. At r = 0 that is the pattern test itself:
    every code non-empty and distinct."""
    heard = np.array([np.isin(g.t_ids, k) for k in keys], dtype=np.int64 if m < 63 else object)
    found, todo = [], [(np.zeros((1, 0), dtype=int), np.zeros((1, g.n_t), dtype=heard.dtype))]
    while todo:
        idx, codes = todo.pop()
        j = idx.shape[1]
        last = idx[:, -1] if j else np.array([-1])
        parent, c = np.nonzero(np.arange(len(keys) - (m - j) + 1) > last[:, None])
        idx = np.column_stack([idx[parent], c])
        # bit j of a transformer's code is set when the pattern's j-th class hears it
        codes = codes[parent] | heard[c] << j
        # the m - j - 1 classes still to come split one code into at most
        # `most` codes, the empty one into most - 1 non-empty ones; past n_t
        # that prunes nothing, so `most` stops at n_t + 1
        most = min(1 << (m - j - 1), g.n_t + 1)
        if most <= g.n_t:
            ranked = np.sort(codes, axis=1)
            keep = (ranked[:, most - 1] != 0) & (ranked[:, most:] != ranked[:, :-most]).all(axis=1)
            idx, codes = idx[keep], codes[keep]
        if j + 1 == m:
            found.append(idx)
        else:
            todo.extend((idx[i : i + 32], codes[i : i + 32]) for i in reversed(range(0, len(idx), 32)))
    return np.concatenate(found) if found else np.zeros((0, m), dtype=int)


def _capacity(patterns: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """The packing's capacity rows, one per class of mult over the columns
    (patterns): 1 where a pattern holds the class."""
    uses = np.zeros((len(mult), len(patterns)), dtype=np.int8)
    uses[patterns.T, np.arange(len(patterns))] = 1
    return uses


def _pack(patterns: np.ndarray, mult: np.ndarray, least: int) -> np.ndarray:
    """A largest packing of `patterns`, one binary copy per site of its
    smallest class; none when it would hold fewer than `least`."""
    copies = np.repeat(patterns, mult[patterns].min(axis=1), axis=0)
    uses = _capacity(copies, mult)
    p = BinaryProgram(np.ones(len(copies)), "max", uses, ("<=",) * len(mult), mult)
    sol = solve_bilp(p, (least, np.inf))
    return copies[np.flatnonzero(sol.assignment)] if sol.status == "optimal" else copies[:0]


def greedy_k(g: BipartiteGraph) -> ConfigurationSet:
    """The paper's greedy method: find an MDCS, of size m, take its sites out
    of the graph and solve again, while a DCS of size m is left. Taking sites
    out can only raise the minimum, so each solve wants size m only. May stop
    short of the true maximum K.

    m and its patterns come from g's twin-class table, as in find_kmax. A
    size-m DCS holds only heard sites, so each step solves the columns of
    build_k_dcs_program(g, 1) at the heard sites not yet taken: the residual
    graph's program without its unheard sites, whose columns are 0 in every
    row, so no node LP's point or branching choice changes. Each solve drops
    the branch and bound nodes no size-m DCS agrees with (_live). The first
    one gives solve_mdcs(g)'s set: node LPs depend on the node alone, so both
    searches visit the nodes they share in one depth-first order, and each
    drops only subtrees with no size-m DCS, so both end at the first size-m
    integral node."""
    table = _table(g)
    m = table.patterns.shape[1]
    p = build_k_dcs_program(g, 1)
    cls = {sid: c for c, ids in enumerate(table.sites) for sid in ids}
    site_cls = np.array([cls.get(sid, -1) for sid in g.s_ids])
    holds = _capacity(table.patterns, table.mult) > 0
    sets, left = [], np.flatnonzero(site_cls >= 0)
    while len(left) >= m:
        step = BinaryProgram(p.objective[left], "min", p.constraints[:, left], p.relations, p.rhs)
        sol = solve_bilp(step, (m, m), live=_live(holds, site_cls[left]))
        if sol.status != "optimal":
            break
        sets.append(CodeSet(g.site_names(left[sol.assignment > 0.5])))
        left = left[sol.assignment < 0.5]
    cfg = ConfigurationSet(tuple(sets))
    cfg.validate(g)
    return cfg


def _live(holds: np.ndarray, site_cls: np.ndarray):
    """solve_bilp's live test for a solve wanting a size-m DCS over sites of
    classes site_cls, holds[c, i] set when size-m pattern i holds class c. A
    size-m DCS is minimum, so it holds no two sites of a class: it is one
    site from each class of a pattern. A node is live when some pattern
    holds the class of every site fixed at 1, those classes distinct, and
    each of its classes has a site that is free or fixed at 1."""

    def live(state: np.ndarray) -> bool:
        ones = site_cls[state == 1]
        shut = np.ones(len(holds), dtype=bool)
        shut[site_cls[state != 0]] = False
        held = holds[ones].all(axis=0) & ~holds[shut].any(axis=0)
        return len(set(ones.tolist())) == len(ones) and bool(held.any())

    return live


# ---------------------------------------------------------------------------
# Exhaustive oracles


def _guard(g: BipartiteGraph, max_sites: int) -> None:
    if g.n_s > max_sites:
        raise ValueError(
            f"refused: exhaustive search limited to {max_sites} sites, graph has {g.n_s}"
        )


def brute_force_mdcs(g: BipartiteGraph, max_sites: int = BRUTE_FORCE_SITE_LIMIT) -> CodeSet:
    """Smallest DCS by enumerating subsets in increasing size, lexicographic
    within a size. Ground truth for solver tests."""
    _guard(g, max_sites)
    check_feasible(g)
    for size in range(1, g.n_s + 1):
        for combo in combinations(range(g.n_s), size):
            if is_dcs_indices(g, frozenset(combo)):
                return CodeSet(frozenset(g.s_ids[s] for s in combo))
    raise SolverError("feasible graph yielded no DCS in exhaustive scan")


def enumerate_mdcs(
    g: BipartiteGraph, max_sites: int = BRUTE_FORCE_SITE_LIMIT
) -> list[frozenset[int]]:
    """All minimum-size DCSs, as site-index sets in lexicographic order."""
    _guard(g, max_sites)
    check_feasible(g)
    m = brute_force_mdcs(g, max_sites).size
    combos = map(frozenset, combinations(range(g.n_s), m))
    return [c for c in combos if is_dcs_indices(g, c)]


def brute_force_kmax(
    g: BipartiteGraph, max_sites: int = BRUTE_FORCE_SITE_LIMIT
) -> ConfigurationSet:
    """Exhaustive maximum pairwise-disjoint family among all MDCSs."""
    _guard(g, max_sites)
    all_mdcs = enumerate_mdcs(g, max_sites)
    m = len(next(iter(all_mdcs)))
    best: list[int] = []

    def extend(start: int, chosen: list[int], used: frozenset[int]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + (g.n_s - len(used)) // m <= len(best):
            return
        for i in range(start, len(all_mdcs)):
            if not (all_mdcs[i] & used):
                chosen.append(i)
                extend(i + 1, chosen, used | all_mdcs[i])
                chosen.pop()

    extend(0, [], frozenset())
    cfg = ConfigurationSet(tuple(CodeSet(g.site_names(all_mdcs[i])) for i in best))
    cfg.validate(g)
    return cfg


# ---------------------------------------------------------------------------
# Text dump


def dump_configuration(g: BipartiteGraph, cfg: ConfigurationSet) -> str:
    """`kmax <K> l <l>` header plus one `mdcs <k>: <site> ...` line per set,
    sites in graph order."""
    lines = [f"kmax {cfg.K} l {cfg.l}"]
    for k, cs in enumerate(cfg.sets, 1):
        ordered = sorted(g.site_indices(cs.sensors))
        lines.append(f"mdcs {k}: " + " ".join(g.s_ids[s] for s in ordered))
    return "\n".join(lines) + "\n"
