"""The benchmark's workloads: inputs made from a seed, one timed pass, and the
correctness checks run on each pass's outputs off the timed path.

Every call into gridmtd goes through a module attribute looked up at call
time (`cli.main`, `diverse_mdcs.find_kmax`, `mtd_game.run_trials`), so the
tracer in spans.py sees exactly the calls a user's program would make.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import signal
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import spans
from gridmtd import cli, diverse_mdcs, mtd_game
from gridmtd.diverse_mdcs import (
    BRUTE_FORCE_SITE_LIMIT,
    ConfigurationSet,
    brute_force_kmax,
    dump_configuration,
    is_feasible,
    solve_mdcs,
)
from gridmtd.graph_core import (
    BipartiteGraph,
    CodeSet,
    build_bipartite,
    parse_matpower,
    random_bipartite,
)
from gridmtd.optim import FEAS_TOL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAMILIES = HERE / "data" / "case14_families.json"
WORK = HERE / "out" / "work"  # the CLI's --out; inside the checkout

# CSV values are printed at 4 decimals, so a difference read back from the
# file can be off by one unit in the last place on top of the LP tolerance.
CSV_TOL = FEAS_TOL + 1e-4


class BudgetExceeded(Exception):
    """Raised by the interval timer when a solver call runs out of budget."""


def _on_alarm(signum, frame):
    if spans.in_bookkeeping(frame):
        # A tracer wrapper is between its own steps: raise just after them.
        signal.setitimer(signal.ITIMER_REAL, 1e-4)
        return
    raise BudgetExceeded()


def within_budget(seconds: float, fn, *args):
    """fn(*args), interrupted by SIGALRM after `seconds` of wall time.

    The timer belongs to this process; no thread or child is started.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def graph_properties(graphs: list[BipartiteGraph]) -> dict[str, float]:
    """Input properties that predict the twin-site quotient's gain, averaged
    over the workload's graphs: sites heard by no transformer, and heard
    sites beyond the first of each class of sites heard by the same set."""
    unheard = twins = sites = 0.0
    for g in graphs:
        heard_by = [frozenset(t for t, nb in enumerate(g.adj) if s in nb) for s in range(g.n_s)]
        classes = Counter(h for h in heard_by if h)
        heard = sum(classes.values())
        unheard += (g.n_s - heard) / g.n_s
        twins += (heard - len(classes)) / g.n_s
        sites += g.n_s
    n = len(graphs)
    return {
        "graph_core.sites": sites / n,
        "graph_core.unheard_share": unheard / n,
        "graph_core.twin_share": twins / n,
    }


@dataclass
class Outcome:
    """What one pass's checks found. `ops` counts operations attempted."""

    ops: int = 0
    wrong: int = 0
    timeouts: int = 0
    unverified: int = 0
    timed_out: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.wrong += 1
        if len(self.problems) < 20:
            self.problems.append(message)


class Workload:
    """Base: subclasses define setup, timed and observe."""

    name = ""

    def __init__(self):
        self.hashes: dict[str, str] = {}

    def same_bytes(self, key: str, text: str, out: Outcome) -> None:
        """Record text's sha256 under key; a later pass must match it."""
        digest = sha256(text)
        first = self.hashes.setdefault(key, digest)
        if first != digest:
            out.fail(f"{key} differs between passes")

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def timed(self):
        raise NotImplementedError

    def observe(self, raw, seconds: float) -> Outcome:
        raise NotImplementedError

    def graphs(self) -> list[BipartiteGraph]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def load_case14(spec: dict) -> BipartiteGraph:
    grid = parse_matpower((ROOT / spec["case"]).read_text())
    return build_bipartite(grid, spec["hvts"], spec["hops"])


class Case14Experiment(Workload):
    """`gridmtd experiment` on case14, in process, through cli.main."""

    name = "case14-experiment"

    def __init__(self, trials: int = 20):
        super().__init__()
        self.trials = trials
        self.work: Path | None = None

    def setup(self, seed: int) -> None:
        spec = json.loads(FAMILIES.read_text())
        self.graph = load_case14(spec)
        # a fixed relative path, so the csv= line of stdout, and with it the
        # stdout digest, is the same in every checkout
        self.work = WORK / f"case14-seed{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.argv = [
            "experiment",
            "--input", spec["case"],
            "--hvts", ",".join(spec["hvts"]),
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--out", str(self.work.relative_to(ROOT)),
        ]

    def timed(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(self.argv)
        return rc, stdout.getvalue(), stderr.getvalue()

    def observe(self, raw, seconds: float) -> Outcome:
        rc, stdout, stderr = raw
        out = Outcome(ops=1)
        if rc != 0:
            out.fail(f"exit code {rc}: {stderr.strip()}")
            return out
        lines = stdout.splitlines()
        if not lines or lines[0] != "K=3 K_max=4 l=4":
            out.fail(f"case14 family line is {lines[:1]}, expected K=3 K_max=4 l=4")
        csv = (self.work / "trials.csv").read_text()
        rows = [r.split(",") for r in csv.splitlines()[1 : 1 + self.trials]]
        for r in rows:
            urs_k, urs_kmax, sse_k, sse_kmax = map(float, r[1:])
            if sse_k < urs_k - CSV_TOL or sse_kmax < urs_kmax - CSV_TOL:
                out.fail(f"trial {r[0]}: SSE below URS")
        if len(rows) != self.trials:
            out.fail(f"trials.csv has {len(rows)} trial rows, expected {self.trials}")
        self.same_bytes("stdout", stdout, out)
        self.same_bytes("trials.csv", csv, out)
        out.extras["trials_per_s"] = self.trials / seconds
        return out

    def graphs(self) -> list[BipartiteGraph]:
        return [self.graph]

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work = None


# Per-call budgets. Rungs the brute-force oracle can check get one above the
# slowest find_kmax seen to finish on them (5 s on a 7x24 graph), so a B&B or
# encoding change on those solves shows in kmax_s; the few graphs that run
# past 20 s stay recorded timeouts. The rungs above the oracle's limit are
# the ROADMAP sizes where find_kmax runs for minutes: they get a short budget,
# which greedy_k on 5x30 (0.6 s) fits in, so they cost little while they
# cannot finish.
BUDGET_S = 8.0
TOP_BUDGET_S = 1.0

# (transformers, sites, instances, budget).
LADDER = (
    (5, 10, 3, BUDGET_S),
    (6, 12, 2, BUDGET_S),
    (5, 14, 1, BUDGET_S),
    (6, 16, 1, BUDGET_S),
    (6, 20, 1, BUDGET_S),
    (7, 24, 1, BUDGET_S),
    (5, 30, 1, TOP_BUDGET_S),
    (8, 40, 1, TOP_BUDGET_S),
    (10, 60, 1, TOP_BUDGET_S),
)
LADDER_DENSITY = 0.5
LADDER_CORPUS_SEED = 2010
ORACLE_BUDGET_S = 5.0
TIMEOUT = "timeout"


def ladder_graphs(seed: int, rungs=LADDER) -> list[tuple[BipartiteGraph, float]]:
    """A fixed corpus of random_bipartite graphs, filtered for feasibility
    only, with sites and transformers renumbered by a seeded permutation;
    each with its rung's budget.

    Each rung draws from its own stream, so a rung's instances are the first
    of that stream whatever the other rungs hold. Renumbering keeps every
    answer (K_max, l, feasibility) and moves only the solvers' index-order
    tie-breaks, so each seed gives new inputs of the same difficulty; drawing
    fresh graphs per seed would let the number of instances that hit the
    budget, and with it the pass time, swing by a third between seeds.
    """
    rng = np.random.default_rng(seed)
    out = []
    for n_t, n_s, count, budget_s in rungs:
        corpus = np.random.default_rng((LADDER_CORPUS_SEED, n_t, n_s))
        done = 0
        while done < count:
            g = random_bipartite(corpus, n_t, n_s, LADDER_DENSITY)
            if is_feasible(g):
                t_order = rng.permutation(n_t)
                s_new = rng.permutation(n_s)
                adj = tuple(frozenset(int(s_new[s]) for s in g.adj[t]) for t in t_order)
                out.append((BipartiteGraph(g.t_ids, g.s_ids, adj), budget_s))
                done += 1
    return out


class KmaxLadder(Workload):
    """find_kmax and greedy_k called directly, each under its rung's budget."""

    name = "kmax-ladder"

    def __init__(self, rungs=LADDER):
        super().__init__()
        self.rungs = rungs
        self._oracle: dict[tuple, tuple[int | None, int] | None] = {}

    def setup(self, seed: int) -> None:
        self.instances = ladder_graphs(seed, self.rungs)

    @staticmethod
    def _call(fn, g, budget_s):
        t0 = perf_counter()
        try:
            result = within_budget(budget_s, fn, g)
        except BudgetExceeded:
            result = TIMEOUT
        except Exception as exc:  # a solver failure is a result to report
            result = f"error: {type(exc).__name__}: {exc}"
        return perf_counter() - t0, result

    def timed(self):
        return [
            (self._call(diverse_mdcs.find_kmax, g, b), self._call(diverse_mdcs.greedy_k, g, b))
            for g, b in self.instances
        ]

    def oracle(self, g: BipartiteGraph, budget_s: float) -> tuple[int | None, int] | None:
        """(K_max, l) from brute force; (None, MDCS size) past its site limit
        or when brute force, which is exponential, runs past ORACLE_BUDGET_S;
        None when the MDCS solve runs out of budget too. Cached per graph, as
        set-up is repeated between passes."""
        if g.adj not in self._oracle:
            found = None
            if g.n_s <= BRUTE_FORCE_SITE_LIMIT:
                with contextlib.suppress(BudgetExceeded):
                    best = within_budget(ORACLE_BUDGET_S, brute_force_kmax, g)
                    found = (best.K, best.l)
            if found is None:
                with contextlib.suppress(BudgetExceeded):
                    found = (None, within_budget(budget_s, solve_mdcs, g).size)
            self._oracle[g.adj] = found
        return self._oracle[g.adj]

    def observe(self, raw, seconds: float) -> Outcome:
        out = Outcome()
        charged = {"kmax_s": 0.0, "greedy_s": 0.0}
        for i, ((t_opt, opt), (t_gr, gr)) in enumerate(raw):
            g, budget_s = self.instances[i]
            tag = f"{g.n_t}x{g.n_s}#{i}"
            for key, t, res in (("kmax_s", t_opt, opt), ("greedy_s", t_gr, gr)):
                out.ops += 1
                charged[key] += budget_s if res == TIMEOUT else t
                if res == TIMEOUT:
                    out.timeouts += 1
                    out.timed_out.append(f"{tag} {key[:-2]}")
                elif isinstance(res, str):
                    out.fail(f"{tag} {key[:-2]}: {res}")
                else:
                    try:
                        res.validate(g)
                    except ValueError as exc:
                        out.fail(f"{tag} {key[:-2]}: {exc}")
                    self.same_bytes(f"{tag}.{key[:-2]}", dump_configuration(g, res), out)
            if isinstance(opt, str) and isinstance(gr, str):
                continue
            expected = self.oracle(g, budget_s)
            if expected is None or (expected[0] is None and g.n_s <= BRUTE_FORCE_SITE_LIMIT):
                out.unverified += 1
            if expected is None:
                continue
            k_exp, l_exp = expected
            if isinstance(opt, ConfigurationSet):
                if k_exp is not None and opt.K != k_exp:
                    out.fail(f"{tag}: find_kmax K={opt.K}, brute force K={k_exp}")
                if opt.l != l_exp:
                    out.fail(f"{tag}: find_kmax l={opt.l}, minimum DCS size {l_exp}")
            if isinstance(gr, ConfigurationSet):
                if gr.l != l_exp:
                    out.fail(f"{tag}: greedy l={gr.l}, minimum DCS size {l_exp}")
                k_max = opt.K if isinstance(opt, ConfigurationSet) else k_exp
                if k_max is not None and gr.K > k_max:
                    out.fail(f"{tag}: greedy K={gr.K} exceeds K_max={k_max}")
        out.extras.update(charged)
        return out

    def graphs(self) -> list[BipartiteGraph]:
        return [g for g, _ in self.instances]


class GameFreeMiss(Workload):
    """run_trials alone on case14's pinned families, misses free, integer
    utilities."""

    name = "game-free-miss"

    # One trial's time varies by about a fifth with its utility draw; over
    # 100 trials the seed moves a pass's time by about 3%.
    def __init__(self, trials: int = 100):
        super().__init__()
        self.trials = trials

    def setup(self, seed: int) -> None:
        spec = json.loads(FAMILIES.read_text())
        self.graph = load_case14(spec)
        self.optimal = ConfigurationSet(tuple(CodeSet(frozenset(s)) for s in spec["optimal"]))
        self.greedy = ConfigurationSet(tuple(CodeSet(frozenset(s)) for s in spec["greedy"]))
        for fam, K in ((self.optimal, 4), (self.greedy, 3)):
            fam.validate(self.graph)
            if (fam.K, fam.l) != (K, 4):
                raise ValueError(f"pinned family has K={fam.K} l={fam.l}")
        self.seed = seed

    def timed(self):
        return mtd_game.run_trials(
            self.graph,
            self.greedy,
            self.optimal,
            self.trials,
            self.seed,
            cost_on_miss=False,
            integer_utilities=True,
        )

    def observe(self, report, seconds: float) -> Outcome:
        out = Outcome(ops=report.n_trials)
        urs = report.values[:, :2]
        sse = report.values[:, 2:]
        for i in np.nonzero((sse < urs - FEAS_TOL).any(axis=1))[0]:
            out.fail(f"trial {i + 1}: SSE below URS")
        self.same_bytes("trials.csv", report.to_csv(), out)
        out.extras["trials_per_s"] = report.n_trials / seconds
        return out

    def graphs(self) -> list[BipartiteGraph]:
        return [self.graph]


WORKLOADS = {
    Case14Experiment.name: Case14Experiment,
    KmaxLadder.name: KmaxLadder,
    GameFreeMiss.name: GameFreeMiss,
}
