"""Command-line front end: graph ingestion, K-search, and experiment runs.

Exit codes: 0 success, 2 input error, 3 infeasible instance, 4 internal
solver error. All data output is deterministic given (input, flags, seed);
wall-clock timing lines go to stderr so stdout stays byte-stable.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from gridmtd.diverse_mdcs import (
    ConfigurationSet,
    InfeasibleError,
    dump_configuration,
    find_kmax,
    greedy_k,
)
from gridmtd.graph_core import (
    BipartiteGraph,
    GraphFormatError,
    ParseError,
    build_bipartite,
    graph_to_text,
    load_graph,
    parse_matpower,
)
from gridmtd.mtd_game import format_value, run_trials
from gridmtd.optim import SolverError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _load(args: argparse.Namespace) -> BipartiteGraph:
    """The monitoring graph named by --input, read as --format says; auto
    takes a .m suffix for MATPOWER. --hvts, --hops and --sites shape the
    graph built from MATPOWER input, so a graph file rejects them; left
    out, they take build_bipartite's defaults."""
    path = Path(args.input)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    fmt = args.format
    if fmt == "auto":
        fmt = "matpower" if path.suffix == ".m" else "graph"
    if fmt == "matpower":
        hvts = [tok for tok in args.hvts.split(",") if tok] if args.hvts else None
        grid = parse_matpower(path.read_text())
        rules = {k: v for k, v in (("hop_limit", args.hops), ("site_rule", args.sites)) if v is not None}
        return build_bipartite(grid, hvts, **rules)
    for flag, value in (("--hvts", args.hvts), ("--hops", args.hops), ("--sites", args.sites)):
        if value is not None:
            raise ValueError(f"{flag} applies to MATPOWER input only, not to a graph file")
    return load_graph(path)


def _families(g: BipartiteGraph) -> tuple[ConfigurationSet, ConfigurationSet]:
    """The optimal (find_kmax) and greedy (greedy_k) families of g; their
    solve times go to stderr."""
    t0 = time.perf_counter()
    optimal = find_kmax(g)
    t1 = time.perf_counter()
    greedy = greedy_k(g)
    t2 = time.perf_counter()
    print(
        f"optimal_seconds={t1 - t0:.3f} greedy_seconds={t2 - t1:.3f}",
        file=sys.stderr,
    )
    return optimal, greedy


def cmd_build_graph(args: argparse.Namespace) -> int:
    g = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dest = out / (Path(args.input).stem + ".graph")
    dest.write_text(graph_to_text(g))
    print(f"|T|={g.n_t} |S|={g.n_s} edges={g.n_edges}")
    return EXIT_OK


def cmd_kmax(args: argparse.Namespace) -> int:
    g = _load(args)
    optimal, greedy = _families(g)
    print("optimal")
    print(dump_configuration(g, optimal), end="")
    print("greedy")
    print(dump_configuration(g, greedy), end="")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ValueError("--seed is required in experiment mode")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    g = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    optimal, greedy = _families(g)
    report = run_trials(
        g,
        greedy,
        optimal,
        args.trials,
        args.seed,
        cost_on_miss=args.cost_on_miss == "true",
        integer_utilities=args.integer_utilities,
    )
    dest = out / "trials.csv"
    with open(dest, "w", newline="\n") as fh:
        fh.write(report.to_csv())

    means = report.means()
    stds = report.stds()
    print(f"K={greedy.K} K_max={optimal.K} l={optimal.l}")
    print(f"attacker_actions K*l={greedy.K * greedy.l} K_max*l={optimal.K * optimal.l}")
    print("strategy mean std")
    for name, mu, sd in zip(report.columns, means, stds):
        print(f"{name} {format_value(mu)} {format_value(sd)}")
    print(f"csv={dest}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmtd",
        description="Disjoint minimum discriminating code sets and moving "
        "target defense strategies for transformer monitoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="case or graph file")
        p.add_argument(
            "--format",
            choices=("matpower", "graph", "auto"),
            default="auto",
            help="input kind; auto infers matpower from a .m suffix",
        )
        p.add_argument("--hops", type=int, help="signal hop limit for matpower input (default 2)")
        p.add_argument(
            "--sites",
            choices=("line-ends", "buses"),
            help="candidate sensor-site rule for matpower input (default line-ends)",
        )
        p.add_argument(
            "--hvts",
            help="comma-separated transformer branches of matpower input, e.g. 4-7,4-9,5-6",
        )

    p_build = sub.add_parser("build-graph", help="ingest input and emit a graph file")
    common(p_build)
    p_build.add_argument("--out", default=".", help="output directory")

    p_kmax = sub.add_parser("kmax", help="largest disjoint MDCS family, plus greedy")
    common(p_kmax)

    p_exp = sub.add_parser("experiment", help="randomized URS/SSE reward trials")
    common(p_exp)
    p_exp.add_argument("--out", default=".", help="output directory")
    p_exp.add_argument("--trials", type=int, default=100)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--integer-utilities", action="store_true")
    p_exp.add_argument("--cost-on-miss", choices=("true", "false"), default="true")
    return parser


_COMMANDS = {
    "build-graph": cmd_build_graph,
    "kmax": cmd_kmax,
    "experiment": cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, GraphFormatError, FileNotFoundError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleError as e:
        if e.pair:
            print(f"infeasible: ({e.pair[0]}, {e.pair[1]}): {e}", file=sys.stderr)
        else:
            print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as e:
        print(f"internal solver error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
