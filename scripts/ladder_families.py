#!/usr/bin/env python3
"""Dump the families find_kmax and greedy_k give on the benchmark's inputs,
with no time budget, so two checkouts can be compared call by call.

    python3 scripts/ladder_families.py --seeds 1 2 3

For each seed, every graph of bench/workloads.py's `ladder_graphs(seed)`,
and then case14 as the case14-experiment workload builds it, goes through
find_kmax and greedy_k. Each call prints one line: the seed, the call's tag
(`<n_t>x<n_s>#<i>.kmax` or `.greedy`, as the benchmark names it), K, l and
the sha256 of `dump_configuration`. The benchmark leaves out every call that
runs past its budget; this script leaves out none.

Exits 1 when a family fails `validate`, when greedy's K exceeds find_kmax's,
when the two l differ, when greedy's first set is not solve_mdcs's, or when
find_kmax's l is not solve_mdcs's size: both calls take m from the twin-class
quotient, and solve_mdcs solves on every site of the graph.

The first-set check holds though greedy's steps solve only the columns of
heard sites: an unheard site's column is 0 in every row of the DCS program,
so every node LP leaves it at exactly 0 and it is never a branching
variable. Each node's point on the other sites, and so the search order
and its first size-m integral node, is the same with or without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from gridmtd.diverse_mdcs import dump_configuration, find_kmax, greedy_k, solve_mdcs  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args()

    case14 = workloads.load_case14(json.loads(workloads.FAMILIES.read_text()))
    problems = []
    for seed in args.seeds:
        graphs = [(f"{g.n_t}x{g.n_s}#{i}", g) for i, (g, _) in enumerate(workloads.ladder_graphs(seed))]
        for tag, g in graphs + [("case14", case14)]:
            found = {"kmax": find_kmax(g), "greedy": greedy_k(g)}
            for kind, cfg in found.items():
                digest = hashlib.sha256(dump_configuration(g, cfg).encode()).hexdigest()
                print(f"{seed} {tag}.{kind} K={cfg.K} l={cfg.l} {digest}")
                try:
                    cfg.validate(g)
                except ValueError as exc:
                    problems.append(f"{seed} {tag}.{kind}: {exc}")
            kmax, greedy = found["kmax"], found["greedy"]
            if greedy.K > kmax.K:
                problems.append(f"{seed} {tag}: greedy K={greedy.K} exceeds K_max={kmax.K}")
            if greedy.l != kmax.l:
                problems.append(f"{seed} {tag}: greedy l={greedy.l}, find_kmax l={kmax.l}")
            mdcs = solve_mdcs(g)
            if greedy.sets[0] != mdcs:
                problems.append(f"{seed} {tag}: greedy's first set is not solve_mdcs's")
            if kmax.l != mdcs.size:
                problems.append(f"{seed} {tag}: find_kmax l={kmax.l}, solve_mdcs size {mdcs.size}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
