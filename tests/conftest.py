from pathlib import Path

import numpy as np
import pytest

from gridmtd import BipartiteGraph, is_feasible, load_graph, random_bipartite

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent.parent / "data"


@pytest.fixture
def tiny_graph() -> BipartiteGraph:
    return load_graph(FIXTURES / "tiny.graph")


@pytest.fixture
def identical_pair_graph() -> BipartiteGraph:
    return load_graph(FIXTURES / "identical_pair.graph")


@pytest.fixture
def greedy_gap_graph() -> BipartiteGraph:
    return load_graph(FIXTURES / "greedy_gap.graph")


@pytest.fixture
def case14_text() -> str:
    return (DATA / "case14.m").read_text()


def feasible_corpus(seed: int, count: int, s_lo: int = 4, s_hi: int = 12):
    """Random monitoring graphs with a DCS, drawn until count are collected.

    Sizes and density follow the acceptance recipe: 2-5 transformers, s_lo to
    s_hi sites, edge density 0.3-0.7; infeasible draws are discarded.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n_t = int(rng.integers(2, 6))
        n_s = int(rng.integers(s_lo, s_hi + 1))
        density = float(rng.uniform(0.3, 0.7))
        g = random_bipartite(rng, n_t, n_s, density)
        if is_feasible(g):
            out.append(g)
    return out


def with_branch_status(text: str, ends: tuple[int, int], status: str | None) -> str:
    """MATPOWER text with column 11 of branch row `ends` set to status, or
    with that row deleted when status is None."""
    head, sep, body = text.partition("mpc.branch")
    lines = []
    for line in body.splitlines(keepends=True):
        cols = line.split()
        if cols[:2] == [str(ends[0]), str(ends[1])]:
            if status is None:
                continue
            cols[10] = status
            line = "\t" + "\t".join(cols) + "\n"
        lines.append(line)
    return head + sep + "".join(lines)
