#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (about ten seconds).

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json declares is emitted, that a traced
run puts back every module attribute it wrapped, that each span lies within
its parent's interval and pass, that case14 records work in every layer,
that the layers' self times add up to the traced wall time, that a call
over budget is recorded as a timeout rather than a failure and leaves its
spans whole, and that the budget alarm waits out a wrapper's bookkeeping.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3
# At these sizes one pass is traced and one is not, so the measured tracing
# overhead is as small as the noise between two passes and can be smaller
# than the harness's own steps (arming the interval timer, unwinding a timed
# out call, about half a millisecond on the tiny ladder). Those steps are
# allowed this share of the traced wall time instead.
HARNESS_SHARE = 0.01
# Per-layer metrics that are 0 (or, for the overhead, of either sign) on a
# correct case14 run; every other one shows a layer at work.
MAY_BE_ZERO = {"bench.fail_frac", "bench.trace_overhead_s", "diverse_mdcs.timeouts"}


def tiny(name: str):
    if name == "case14-experiment":
        return workloads.Case14Experiment(trials=2)
    if name == "kmax-ladder":
        return workloads.KmaxLadder(rungs=((4, 8, 2, 0.5), (5, 30, 1, 0.5)))
    return workloads.GameFreeMiss(trials=2)


def well_formed(recorded: list[list]) -> bool:
    """Passes are numbered from 0, and every other span lies within the
    interval and the pass of its parent."""
    roots = [s for s in recorded if s[spans.NAME] == spans.ROOT]
    if [s[spans.PASS] for s in roots] != list(range(len(roots))):
        return False
    for s in recorded:
        if s[spans.END] < s[spans.START]:
            return False
        if s[spans.NAME] == spans.ROOT:
            continue
        if not 0 <= s[spans.PARENT] < len(recorded):
            return False
        up = recorded[s[spans.PARENT]]
        inside = up[spans.START] <= s[spans.START] and s[spans.END] <= up[spans.END]
        if not inside or up[spans.PASS] != s[spans.PASS]:
            return False
    return True


def main() -> int:
    os.chdir(run.ROOT)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    before = spans.originals()
    for w in declared["workloads"]:
        name = w["name"]
        result, _ = run.run_workload(name, SEED, 0, False, tiny(name))
        check(set(result["metrics"]) == end_to_end, f"{name}: end-to-end metrics match BENCHMARK.json")
        check(result["correct"] and result["failed"] == 0, f"{name}: outputs pass their checks")

        result, report = run.run_workload(name, SEED, 0, True, tiny(name))
        after = spans.originals()
        check(
            all(after[k] is before[k] for k in before),
            f"{name}: every wrapped attribute restored after the traced run",
        )
        check(set(result["metrics"]) == per_layer, f"{name}: per-layer metrics match BENCHMARK.json")
        check(well_formed(report["spans"]), f"{name}: every span nests in its parent's interval and pass")
        if name == "case14-experiment":  # the user path, through every layer
            idle = [k for k, v in result["metrics"].items() if v["value"] <= 0 and k not in MAY_BE_ZERO]
            check(not idle, f"{name}: every layer records work {idle or ''}")
        # What the wrapped layers leave of the traced wall time is the
        # harness's own steps in a pass plus the wrappers' cost outside their
        # spans. A layer called without a wrapper would show here in full.
        layers = report["layers"]
        traced_wall, overhead = layers["bench.traced_wall_s"], layers["bench.trace_overhead_s"]
        gap = traced_wall - report["layer_self_sum_s"]
        slack = max(abs(overhead), HARNESS_SHARE * traced_wall)
        check(
            0 <= gap <= slack,
            f"{name}: layer self times add up to traced wall_s "
            f"(gap {gap:.2e} s, tracing overhead {overhead:.2e} s)",
        )

    # The alarm lands inside wrapped solver calls; spans must stay whole.
    ladder = workloads.KmaxLadder(rungs=((5, 30, 1, 1e-3),))
    result, report = run.run_workload("kmax-ladder", SEED, 0, True, ladder)
    check(
        report["timeouts"] == 4 and result["failed"] == 0 and report["fail_frac"] == 1.0,
        "kmax-ladder: calls over budget are recorded as timeouts in fail_frac",
    )
    check(well_formed(report["spans"]), "kmax-ladder: spans stay whole when calls time out")

    # An alarm that lands in a wrapper's own steps is put off, not raised
    # there, and one that lands anywhere else is raised.
    tracer = spans.Tracer()
    probe = tracer._wrapper(lambda: sys._getframe(1), "probe", None)
    with tracer.traced_pass(0):
        wrapper_frame = probe()
    raised = []
    previous = signal.signal(signal.SIGALRM, lambda *_: None)
    try:
        for frame in (wrapper_frame, sys._getframe()):
            try:
                workloads._on_alarm(signal.SIGALRM, frame)
                raised.append(False)
            except workloads.BudgetExceeded:
                raised.append(True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    check(raised == [False, True], "the budget alarm waits while a wrapper does its own bookkeeping")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
