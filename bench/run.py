#!/usr/bin/env python3
"""gridmtd benchmark runner: one workload per run, single process, single
thread.

    python3 bench/run.py --workload case14-experiment --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

With --trace 0 it times the workload from outside and prints the end-to-end
metrics; with --trace 1 it spends half the time untraced and half with the
span tracer installed, and prints the per-layer metrics. The last line of
stdout is one JSON object; a fuller report (provenance, sample counts,
percentiles, output digests, per-check results) and, when traced, the spans
are written under bench/out/. peak_rss_mb is the process's peak, so with
--workload all it covers every workload run so far.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up takes from a third of a millisecond to a few. Before each pass, and
# after the last, it is timed SETUP_SAMPLES times, each sample the mean over
# SETUP_REPS set-ups, so one interruption moves one sample little and the
# median over all samples spans the whole run, even a run of one pass.
SETUP_SAMPLES = 5
SETUP_REPS = 10
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
# BLAS threads would make the timings depend on the machine's core count.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def distribution(samples: list[float]) -> dict:
    """Median plus the highest listed percentile with at least ten samples
    beyond it, and the sample count."""
    out = {"n": len(samples), "median": statistics.median(samples) if samples else None}
    for p in PERCENTILES:
        if len(samples) * (1 - p / 100) >= 10:
            ranked = sorted(samples)
            out[f"p{p:g}"] = ranked[min(len(ranked) - 1, int(p / 100 * len(ranked)))]
            break
    return out


def provenance(seed: int) -> dict:
    import numpy

    head = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip()
        head = ref
        if ref.startswith("ref: ") and (git / ref[5:]).is_file():
            head = (git / ref[5:]).read_text().strip()
        elif ref.startswith("ref: ") and (git / "packed-refs").is_file():
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    head = line.split()[0]
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = sorted((ROOT / "src" / "gridmtd").glob("*.py"))
    return {
        "git_commit": head,
        "src_sha256": hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in src)).hexdigest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "seed": seed,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def time_setup(workload, seed: int, setup: list[float]) -> None:
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        for _ in range(SETUP_REPS):
            workload.setup(seed)
        setup.append((perf_counter() - t0) / SETUP_REPS)


def timed_passes(workload, seed: int, seconds: float, setup: list[float], outcomes: list, tracer=None) -> list[float]:
    """Set up, then run a pass, until the next pass would end past
    `seconds`; at least one. Checks run after each pass, off the clock."""
    samples: list[float] = []
    start = perf_counter()
    while True:
        time_setup(workload, seed, setup)
        with tracer.traced_pass(len(samples)) if tracer else contextlib.nullcontext():
            t0 = perf_counter()
            raw = workload.timed()
            dt = perf_counter() - t0
        samples.append(dt)
        outcomes.append(workload.observe(raw, dt))
        if perf_counter() - start + statistics.median(samples) > seconds:
            time_setup(workload, seed, setup)
            return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, workload=None) -> tuple[dict, dict]:
    """Returns (result line, full report) for one workload."""
    import spans as tracing
    import workloads

    if workload is None:
        workload = workloads.WORKLOADS[name]()
    setup: list[float] = []
    outcomes: list = []
    try:
        untraced = timed_passes(workload, seed, seconds / 2 if trace else seconds, setup, outcomes)
        traced: list[float] = []
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = timed_passes(workload, seed, seconds / 2, setup, outcomes, tracer)
            finally:
                tracer.restore()
    finally:
        workload.close()

    ops = sum(o.ops for o in outcomes)
    wrong = sum(o.wrong for o in outcomes)
    timeouts = sum(o.timeouts for o in outcomes)
    extras: dict[str, list[float]] = {}
    for o in outcomes[: len(untraced)]:
        for k, v in o.extras.items():
            extras.setdefault(k, []).append(v)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # "5x30#17 kmax" counts as "5x30 kmax"
    by_rung = Counter(f"{tag.split('#')[0]} {tag.split()[1]}" for o in outcomes for tag in o.timed_out)

    report = {
        "workload": name,
        "provenance": provenance(seed),
        "seconds": seconds,
        "trace": trace,
        "setup_s": distribution(setup),
        "wall_s": distribution(untraced),
        "traced_wall_s": distribution(traced),
        "extras": {k: distribution(v) for k, v in extras.items()},
        "fail_frac": (wrong + timeouts) / ops,
        "attempted": ops,
        "wrong": wrong,
        "timeouts": timeouts,
        "timed_out_first_pass": outcomes[0].timed_out,
        "timeouts_by_rung": dict(sorted(by_rung.items())),
        "unverified": sum(o.unverified for o in outcomes),
        "problems": [p for o in outcomes for p in o.problems][:50],
        "output_sha256": dict(workload.hashes),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        layers = tracing.layer_metrics(tracer.spans, len(traced), workloads.BudgetExceeded.__name__)
        layers.update(workloads.graph_properties(workload.graphs()))
        traced_wall = statistics.fmean(traced)
        layers["bench.traced_wall_s"] = traced_wall
        layers["bench.trace_overhead_s"] = traced_wall - statistics.fmean(untraced)
        layers["bench.fail_frac"] = report["fail_frac"]
        # Every self time but the pass root's own: what the wrapped layers
        # account for of the traced wall time.
        report["layer_self_sum_s"] = sum(
            layers[m] for m in set(tracing.SELF_METRIC.values()) if m != tracing.SELF_METRIC[tracing.ROOT]
        )
        report["layers"] = layers
        report["spans"] = [
            [*span[:-1], span[-1] if isinstance(span[-1], (str, tuple)) else None]
            for span in tracer.spans
        ]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": wrong == 0, "attempted": ops, "failed": wrong, "metrics": metrics}
    return result, report


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_frac")):
        return "ratio"
    return "count"


def summary_lines(report: dict) -> list[str]:
    """Every end-to-end figure by name, with its unit and sample count."""
    lines = [f"[{report['workload']}] seed {report['provenance']['seed']}"]

    def timing(name, dist, unit):
        if not dist["n"]:
            return
        tail = "".join(f" {k} {v:.4f}" for k, v in dist.items() if k.startswith("p"))
        lines.append(f"  {name} {dist['median']:.4f} {unit} (median of {dist['n']}{tail})")

    timing("setup_s", report["setup_s"], "s")
    timing("wall_s", report["wall_s"], "s")
    timing("traced wall_s", report["traced_wall_s"], "s")
    for name, dist in report["extras"].items():
        timing(name, dist, "1/s" if name.endswith("per_s") else "s")
    lines.append(
        f"  fail_frac {report['fail_frac']:.4f} ratio "
        f"({report['wrong']} wrong + {report['timeouts']} timeouts of {report['attempted']} ops)"
    )
    if report["timeouts_by_rung"]:
        by_rung = ", ".join(f"{k} {v}" for k, v in report["timeouts_by_rung"].items())
        passes = report["wall_s"]["n"] + report["traced_wall_s"]["n"]
        lines.append(f"  timeouts by rung and call, over {passes} passes: {by_rung}")
    lines.append(f"  peak_rss_mb {report['peak_rss_mb']:.1f} MB")
    digests = report["output_sha256"]
    combined = hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(digests.items())).encode()).hexdigest()
    lines.append(f"  outputs_sha256 {combined} (over {len(digests)} outputs, each in the report)")
    return lines


def main(argv: list[str] | None = None) -> int:
    names = ("case14-experiment", "kmax-ladder", "game-free-miss")
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*names, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "gridmtd" / "__init__.py", ROOT / "data" / "case14.m"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a gridmtd checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for k in BLAS_ENV:
        os.environ.setdefault(k, "1")
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    results = {}
    for name in names if args.workload == "all" else (args.workload,):
        result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(exist_ok=True)
        spans = report.pop("spans", None)
        if spans is not None:
            (OUT / f"{name}-seed{args.seed}-spans.json").write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "pass", "note"], "spans": spans}
            ))
        dest = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        dest.write_text(json.dumps(report, indent=1) + "\n")
        print("\n".join(summary_lines(report)))
        results[name] = result
    final = results[args.workload] if args.workload != "all" else {"workloads": results}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
