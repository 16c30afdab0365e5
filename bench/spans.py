"""In-memory span tracer that wraps gridmtd's public functions from outside.

Each wrapped function is replaced at the module where its caller looks it
up, so a call made through that module attribute inside a timed pass
records one span: name, start, end, parent span and pass id, plus an
optional note taken from the return value or the exception raised.
Nothing in the package is edited; `restore` puts every original attribute
back.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# Span record fields, kept as plain lists to keep the wrapper cheap.
NAME, START, END, PARENT, PASS, NOTE = range(6)


def _program_shape(prog) -> tuple[int, int]:
    return len(prog.constraints), len(prog.objective)


def _status(sol) -> str:
    return sol.status


def _keep(game):
    return game


# (module the caller looks the name up in, attribute, span name, note).
# A function looked up in two modules is wrapped in both, under one name.
WRAPS = (
    ("gridmtd.cli", "main", "cli.main", None),
    ("gridmtd.cli", "parse_matpower", "graph_core.parse_matpower", None),
    ("gridmtd.cli", "build_bipartite", "graph_core.build_bipartite", None),
    ("gridmtd.cli", "find_kmax", "diverse_mdcs.find_kmax", None),
    ("gridmtd.cli", "greedy_k", "diverse_mdcs.greedy_k", None),
    ("gridmtd.cli", "run_trials", "mtd_game.run_trials", None),
    ("gridmtd.diverse_mdcs", "find_kmax", "diverse_mdcs.find_kmax", None),
    ("gridmtd.diverse_mdcs", "greedy_k", "diverse_mdcs.greedy_k", None),
    ("gridmtd.diverse_mdcs", "solve_k_dcs", "diverse_mdcs.solve_k_dcs", None),
    ("gridmtd.diverse_mdcs", "solve_mdcs", "diverse_mdcs.solve_mdcs", None),
    ("gridmtd.diverse_mdcs", "build_k_dcs_program", "diverse_mdcs.build_k_dcs_program", _program_shape),
    ("gridmtd.diverse_mdcs", "solve_bilp", "optim.solve_bilp", _status),
    ("gridmtd.mtd_game", "run_trials", "mtd_game.run_trials", None),
    ("gridmtd.mtd_game", "build_game", "mtd_game.build_game", _keep),
    ("gridmtd.mtd_game", "solve_sse", "mtd_game.solve_sse", None),
    ("gridmtd.mtd_game", "urs_value", "mtd_game.urs_value", None),
    ("gridmtd.mtd_game", "solve_lp", "optim.solve_lp", _status),
)

ROOT = "bench.pass"


def in_bookkeeping(frame) -> bool:
    """Whether `frame` is a wrapper's own bookkeeping rather than the call it
    times. A signal handler that raises should wait while this holds, or the
    span could lose its end or the parent stack its balance."""
    return frame is not None and frame.f_code.co_filename == __file__ and frame.f_code.co_name == "traced"


class Tracer:
    """Collects spans while installed; `spans` survives `restore`."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrapper(self, fn, name: str, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:  # outside a timed pass, e.g. a correctness check
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], self.pass_id, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    span[NOTE] = note(out)
                return out
            except BaseException as exc:
                span[NOTE] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, note in WRAPS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrapper(fn, name, note))

    def restore(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    @contextmanager
    def traced_pass(self, pass_id: int):
        """Root span of one timed pass; every wrapped call nests under it."""
        self.pass_id = pass_id
        span = [ROOT, 0.0, 0.0, -1, pass_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()


def originals() -> dict[tuple[str, str], object]:
    """The attributes a Tracer would wrap, as they are now."""
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in WRAPS}


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover. A span that
    ends before it starts was cut short and is refused."""
    out = [s[END] - s[START] for s in spans]
    if min(out, default=0.0) < 0:
        raise ValueError("a span ends before it starts")
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


# Which end-to-end figure each layer metric should move, and on which workload:
#   graph_core.parse_s, build_s          wall_s on case14-experiment (<0.1% today)
#   diverse_mdcs.*, optim.bilp_*         wall_s (kmax_s, greedy_s in the report) on
#                                        kmax-ladder and case14-experiment
#   optim.lp_*, mtd_game.*_s, *_calls    wall_s (trials_per_s in the report) on
#                                        game-free-miss and case14-experiment
#   cli.self_s                           wall_s on case14-experiment
# Input properties, which predict a change's gain rather than move: sites,
# twin_share and unheard_share for the twin-site quotient; attacker_actions_mean
# and dominated_share for dominated-column pruning.
#
# Where each span's self time is charged. Spans with no wrapped children
# (parse, build, program build, BILP, game build, URS, LP) charge their
# whole duration, so those metrics are also the layer's busy time.
SELF_METRIC = {
    ROOT: "bench.self_s",
    "cli.main": "cli.self_s",
    "graph_core.parse_matpower": "graph_core.parse_s",
    "graph_core.build_bipartite": "graph_core.build_s",
    "diverse_mdcs.find_kmax": "diverse_mdcs.self_s",
    "diverse_mdcs.greedy_k": "diverse_mdcs.self_s",
    "diverse_mdcs.solve_k_dcs": "diverse_mdcs.self_s",
    "diverse_mdcs.solve_mdcs": "diverse_mdcs.self_s",
    "diverse_mdcs.build_k_dcs_program": "diverse_mdcs.build_program_s",
    "optim.solve_bilp": "optim.bilp_s",
    "mtd_game.run_trials": "mtd_game.trials_self_s",
    "mtd_game.build_game": "mtd_game.build_game_s",
    "mtd_game.solve_sse": "mtd_game.sse_self_s",
    "mtd_game.urs_value": "mtd_game.urs_s",
    "optim.solve_lp": "optim.lp_s",
}

# Inclusive time per pass of the calls a user makes.
TOTAL_METRIC = {
    "diverse_mdcs.find_kmax": "diverse_mdcs.find_kmax_s",
    "diverse_mdcs.greedy_k": "diverse_mdcs.greedy_s",
    "mtd_game.solve_sse": "mtd_game.solve_sse_s",
}

# Calls per pass.
COUNT_METRIC = {
    "diverse_mdcs.solve_k_dcs": "diverse_mdcs.k_tried",
    "optim.solve_bilp": "optim.bilp_calls",
    "optim.solve_lp": "optim.lp_calls",
    "mtd_game.build_game": "mtd_game.build_game_calls",
    "mtd_game.solve_sse": "mtd_game.solve_sse_calls",
}


def dominated_columns(attacker_payoffs) -> int:
    """Attacker columns some other column beats in every defender row."""
    am = attacker_payoffs
    beats = (am[:, :, None] > am[:, None, :]).all(axis=0)  # beats[jp, j]
    return int(beats.any(axis=0).sum())


def layer_metrics(spans: list[list], n_passes: int, timeout_note: str) -> dict[str, float]:
    """Per-pass means of self times, busy times and call counts, plus the
    ratios taken where the work happens."""
    out = {m: 0.0 for m in (*SELF_METRIC.values(), *TOTAL_METRIC.values(), *COUNT_METRIC.values())}
    bilp_max = 0.0
    rows_max = vars_max = 0
    bilp_infeasible = timeouts = lp_optimal = 0
    games = []
    for span, self_t in zip(spans, self_times(spans)):
        name, dur, note = span[NAME], span[END] - span[START], span[NOTE]
        out[SELF_METRIC[name]] += self_t
        if name in TOTAL_METRIC:
            out[TOTAL_METRIC[name]] += dur
        if name in COUNT_METRIC:
            out[COUNT_METRIC[name]] += 1
        if note == timeout_note and name in ("diverse_mdcs.find_kmax", "diverse_mdcs.greedy_k"):
            timeouts += 1
        if name == "optim.solve_bilp":
            bilp_max = max(bilp_max, dur)
            bilp_infeasible += note == "infeasible"
        elif name == "optim.solve_lp":
            lp_optimal += note == "optimal"
        elif name == "diverse_mdcs.build_k_dcs_program" and isinstance(note, tuple):
            rows_max = max(rows_max, note[0])
            vars_max = max(vars_max, note[1])
        elif name == "mtd_game.build_game" and note is not None and not isinstance(note, str):
            games.append(note)
    lp_calls = out["optim.lp_calls"]
    columns = sum(g.n_attacker for g in games)
    out = {k: v / n_passes for k, v in out.items()}
    out.update(
        {
            "diverse_mdcs.timeouts": timeouts / n_passes,
            "diverse_mdcs.rows_max": rows_max,
            "diverse_mdcs.vars_max": vars_max,
            "optim.bilp_max_s": bilp_max,
            "optim.bilp_infeasible": bilp_infeasible / n_passes,
            "optim.lp_feasible_share": lp_optimal / lp_calls if lp_calls else 0.0,
            "mtd_game.attacker_actions_mean": columns / len(games) if games else 0.0,
            "mtd_game.dominated_share": (
                sum(dominated_columns(g.attacker_payoffs) for g in games) / columns
                if columns
                else 0.0
            ),
        }
    )
    return out
