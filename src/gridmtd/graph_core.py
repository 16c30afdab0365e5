"""Bipartite monitoring graphs for transformer fault identification.

Builds the transformer / sensor-site bipartite graph from a power-grid
description, reads and writes a line-oriented graph text format, and
evaluates discriminating-code predicates on sensor subsets.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "Branch",
    "PowerGrid",
    "BipartiteGraph",
    "CodeSet",
    "ParseError",
    "GraphFormatError",
    "parse_matpower",
    "build_bipartite",
    "load_graph",
    "save_graph",
    "graph_to_text",
    "code_of",
    "is_dcs",
    "random_bipartite",
]


class ParseError(ValueError):
    """Malformed MATPOWER case text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphFormatError(ValueError):
    """Malformed graph text file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    tap_ratio: float = 0.0


@dataclass(frozen=True)
class PowerGrid:
    """Bus/branch description of a grid, with transformer branches flagged."""

    buses: tuple[int, ...]
    branches: tuple[Branch, ...]
    transformer_branches: tuple[int, ...] = ()  # indices into branches

    def __post_init__(self):
        bus_set = set(self.buses)
        if len(bus_set) != len(self.buses):
            raise ValueError("duplicate bus ids")
        for i, br in enumerate(self.branches):
            if br.from_bus not in bus_set or br.to_bus not in bus_set:
                raise ValueError(f"branch {i} references an unknown bus")
        for idx in self.transformer_branches:
            if not 0 <= idx < len(self.branches):
                raise ValueError(f"transformer branch index {idx} out of range")

    @cached_property
    def branch_ids(self) -> tuple[str, ...]:
        """Stable human-readable branch names; parallel branches get a #n suffix."""
        seen: dict[str, int] = {}
        ids = []
        for br in self.branches:
            key = f"{br.from_bus}-{br.to_bus}"
            seen[key] = seen.get(key, 0) + 1
            ids.append(key if seen[key] == 1 else f"{key}#{seen[key]}")
        return tuple(ids)


@dataclass(frozen=True)
class BipartiteGraph:
    """Monitoring graph: transformers T, candidate sensor sites S, and the
    neighborhoods N(t) of sites a transformer's signal can reach.

    Node ids are kept as external strings; solvers work on the dense site
    indices 0..len(s_ids)-1.
    """

    t_ids: tuple[str, ...]
    s_ids: tuple[str, ...]
    adj: tuple[frozenset[int], ...]  # per transformer, indices into s_ids
    hop_limit: int = 2

    def __post_init__(self):
        if len(set(self.t_ids)) != len(self.t_ids):
            raise ValueError("duplicate transformer ids")
        if len(set(self.s_ids)) != len(self.s_ids):
            raise ValueError("duplicate site ids")
        if set(self.t_ids) & set(self.s_ids):
            raise ValueError("transformer and site id spaces overlap")
        for node in self.t_ids + self.s_ids:
            if node.split() != [node]:  # the .graph format could not hold it
                raise ValueError(f"node id {node!r} is empty or holds whitespace")
        if len(self.adj) != len(self.t_ids):
            raise ValueError("adjacency length does not match transformer count")
        for nb in self.adj:
            for si in nb:
                if not 0 <= si < len(self.s_ids):
                    raise ValueError(f"site index {si} out of range")
        if self.hop_limit < 1:
            raise ValueError("hop_limit must be positive")

    @property
    def n_t(self) -> int:
        return len(self.t_ids)

    @property
    def n_s(self) -> int:
        return len(self.s_ids)

    @property
    def n_edges(self) -> int:
        return sum(len(nb) for nb in self.adj)

    @cached_property
    def t_index(self) -> dict[str, int]:
        return {tid: i for i, tid in enumerate(self.t_ids)}

    @cached_property
    def s_index(self) -> dict[str, int]:
        return {sid: i for i, sid in enumerate(self.s_ids)}

    def neighborhood(self, t_id: str) -> frozenset[str]:
        ti = self.t_index.get(t_id)
        if ti is None:
            raise ValueError(f"unknown transformer {t_id!r}")
        return frozenset(self.s_ids[i] for i in self.adj[ti])

    def site_indices(self, sites: Iterable[str]) -> frozenset[int]:
        out = []
        for sid in sites:
            si = self.s_index.get(sid)
            if si is None:
                raise ValueError(f"unknown sensor site {sid!r}")
            out.append(si)
        return frozenset(out)

    def site_names(self, indices: Iterable[int]) -> frozenset[str]:
        return frozenset(self.s_ids[i] for i in indices)


@dataclass(frozen=True)
class CodeSet:
    """A sensor subset, usually a (minimum) discriminating code set."""

    sensors: frozenset[str]

    @property
    def size(self) -> int:
        return len(self.sensors)


# ---------------------------------------------------------------------------
# MATPOWER ingestion


def _matrix_rows(text: str, name: str) -> list[tuple[int, list[float]]]:
    """Extract numeric rows of the ``mpc.<name> = [...]`` block."""
    rows: list[tuple[int, list[float]]] = []
    header = re.compile(rf"^\s*mpc\.{name}\s*=\s*\[(.*)$")
    in_block = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("%", 1)[0].strip()
        if not in_block:
            m = header.match(line)
            if m is None:
                continue
            in_block = True
            line = m.group(1).strip()
        if "]" in line:
            line = line.partition("]")[0]
            in_block = False
        for segment in line.split(";"):
            segment = segment.strip()
            if not segment:
                continue
            try:
                vals = [float(tok) for tok in segment.replace(",", " ").split()]
            except ValueError:
                raise ParseError(f"malformed {name} row: {segment!r}", lineno) from None
            rows.append((lineno, vals))
    return rows


def _finite(value: float, what: str, lineno: int) -> float:
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {value}", lineno)
    return value


def _as_int(value: float, what: str, lineno: int) -> int:
    if _finite(value, what, lineno) != int(value):
        raise ParseError(f"{what} must be an integer, got {value}", lineno)
    return int(value)


def parse_matpower(text: str) -> PowerGrid:
    """Parse the ``mpc.bus`` and ``mpc.branch`` matrices of a MATPOWER case.

    Only bus columns 1 (id) and 2 (type) and branch columns 1-2 (endpoints),
    9 (tap ratio), 10 (shift angle) and 11 (status) are consumed, and each
    must be finite; the rest of the file is ignored. A bus row without a
    type is not isolated; a branch row without a shift or status has no
    shift and is in service. A branch with status 0, or one touching an
    isolated bus (type 4), is out of service and dropped, as in MATPOWER's
    ext2int; any status other than 0 or 1 is an error. A branch with a
    nonzero tap ratio or shift angle (a phase shifter) is flagged as a
    transformer branch.
    """
    bus_rows = _matrix_rows(text, "bus")
    if not bus_rows:
        raise ParseError("bus table is empty or missing")
    branch_rows = _matrix_rows(text, "branch")
    if not branch_rows:
        raise ParseError("branch table is empty or missing")

    buses = [_as_int(row[0], "bus id", lineno) for lineno, row in bus_rows]
    if len(set(buses)) != len(buses):
        raise ParseError("duplicate bus id in bus table")
    isolated = {bus for bus, (lineno, row) in zip(buses, bus_rows)
                if len(row) >= 2 and _finite(row[1], "bus type", lineno) == 4.0}

    bus_set = set(buses)
    branches: list[Branch] = []
    transformer: list[int] = []
    for lineno, row in branch_rows:
        if len(row) < 9:
            raise ParseError(f"branch row needs at least 9 columns, got {len(row)}", lineno)
        f = _as_int(row[0], "branch from-bus", lineno)
        t = _as_int(row[1], "branch to-bus", lineno)
        if f not in bus_set:
            raise ParseError(f"branch references unknown bus {f}", lineno)
        if t not in bus_set:
            raise ParseError(f"branch references unknown bus {t}", lineno)
        tap = _finite(row[8], "branch tap ratio", lineno)
        shift = _finite(row[9], "branch phase shift", lineno) if len(row) >= 10 else 0.0
        status = row[10] if len(row) >= 11 else 1.0
        if status not in (0.0, 1.0):
            raise ParseError(f"branch status must be 0 or 1, got {status}", lineno)
        if status == 1.0 and not {f, t} & isolated:
            if tap != 0.0 or shift != 0.0:
                transformer.append(len(branches))
            branches.append(Branch(f, t, tap))

    return PowerGrid(tuple(buses), tuple(branches), tuple(transformer))


# ---------------------------------------------------------------------------
# Bipartite graph construction


def _incidence(grid: PowerGrid) -> dict[int, list[tuple[int, int]]]:
    inc: dict[int, list[tuple[int, int]]] = {b: [] for b in grid.buses}
    for bi, br in enumerate(grid.branches):
        inc[br.from_bus].append((bi, br.to_bus))
        if br.to_bus != br.from_bus:
            inc[br.to_bus].append((bi, br.from_bus))
    return inc


def _reach_line_ends(
    inc: dict[int, list[tuple[int, int]]], start: Branch, start_idx: int, hop_limit: int
) -> set[tuple[int, int]]:
    """Line-ends (head_bus, branch) reachable from a transformer branch.

    A hop is one branch traversal; traversing the transformer's own branch to
    either endpoint is hop 1. A line-end (b, e) is reached when some walk's
    last traversal is branch e arriving at bus b.
    """
    heads = (start.from_bus,) if start.from_bus == start.to_bus else (start.from_bus, start.to_bus)
    seen: dict[tuple[int, int], int] = {(h, start_idx): 1 for h in heads}
    frontier = [(h, start_idx) for h in heads]
    depth = 1
    while frontier and depth < hop_limit:
        nxt = []
        for bus, _ in frontier:
            for bj, other in inc[bus]:
                state = (other, bj)
                if state not in seen:
                    seen[state] = depth + 1
                    nxt.append(state)
        frontier = nxt
        depth += 1
    return set(seen)


def _resolve_hvts(
    grid: PowerGrid, hvt_ids: Sequence[str] | None
) -> list[int]:
    if hvt_ids is None:
        idx = list(grid.transformer_branches)
        if not idx:
            raise ValueError("grid flags no transformer branches; pass hvt_ids explicitly")
        return idx
    selectors = list(hvt_ids)
    if not selectors:
        raise ValueError("hvt_ids must not be empty")
    ids = grid.branch_ids
    out: list[int] = []
    for sel in selectors:
        matches = [i for i, bid in enumerate(ids) if bid == sel]
        if not matches:
            m = re.fullmatch(r"(\d+)-(\d+)", sel)
            if m:
                a, b = int(m.group(1)), int(m.group(2))
                matches = [
                    i
                    for i, br in enumerate(grid.branches)
                    if {br.from_bus, br.to_bus} == {a, b}
                ]
        if not matches:
            raise ValueError(f"no branch matches HVT {sel!r}")
        for i in matches:
            if i not in out:
                out.append(i)
    return out


def build_bipartite(
    grid: PowerGrid,
    hvt_ids: Sequence[str] | None = None,
    hop_limit: int = 2,
    site_rule: str = "line-ends",
) -> BipartiteGraph:
    """Derive the monitoring graph: HVT branches become T, candidate sensor
    sites become S, and (t, s) is an edge when s lies within hop_limit branch
    traversals of t.

    site_rule "line-ends" uses one site per (bus, incident-branch) pair;
    "buses" uses one site per bus.
    """
    if hop_limit < 1:
        raise ValueError("hop_limit must be >= 1")
    hvt_idx = _resolve_hvts(grid, hvt_ids)
    inc = _incidence(grid)
    branch_ids = grid.branch_ids
    # the buses rule keeps only the head bus of each reached line-end
    reaches = [_reach_line_ends(inc, grid.branches[hi], hi, hop_limit) for hi in hvt_idx]

    if site_rule == "line-ends":
        site_names: list[str] = []
        site_index: dict[tuple[int, int], int] = {}
        for bi, br in enumerate(grid.branches):
            for bus in (br.from_bus, br.to_bus):
                key = (bus, bi)
                if key not in site_index:
                    site_index[key] = len(site_names)
                    site_names.append(f"{bus}@{branch_ids[bi]}")
        adj = [frozenset(site_index[state] for state in reach) for reach in reaches]
    elif site_rule == "buses":
        site_names = [str(b) for b in grid.buses]
        bus_index = {b: i for i, b in enumerate(grid.buses)}
        adj = [frozenset(bus_index[b] for b, _ in reach) for reach in reaches]
    else:
        raise ValueError(f"unknown site_rule {site_rule!r}")

    t_ids = tuple(branch_ids[i] for i in hvt_idx)
    return BipartiteGraph(t_ids, tuple(site_names), tuple(adj), hop_limit)


# ---------------------------------------------------------------------------
# Graph text format


_HOPS_COMMENT = re.compile(r"#\s*hops\s+(\d+)\s*$")


def load_graph(source) -> BipartiteGraph:
    """Read a graph text file: ``t <id>``, ``s <id>``, ``e <t-id> <s-id>``
    lines with ``#`` comments. Accepts a path or an open text stream.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()

    hop_limit = 2
    t_ids: list[str] = []
    s_ids: list[str] = []
    declared: set[str] = set()
    edges: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("#"):
            m = _HOPS_COMMENT.match(line)
            if m:
                hop_limit = int(m.group(1))
            continue
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind in ("t", "s"):
            if len(tokens) != 2:
                raise GraphFormatError(f"expected '{kind} <id>'", lineno)
            node = tokens[1]
            if node in declared:
                raise GraphFormatError(f"duplicate declaration of {node!r}", lineno)
            declared.add(node)
            (t_ids if kind == "t" else s_ids).append(node)
        elif kind == "e":
            if len(tokens) != 3:
                raise GraphFormatError("expected 'e <t-id> <s-id>'", lineno)
            edges.append((lineno, tokens[1], tokens[2]))
        else:
            raise GraphFormatError(f"unknown line kind {kind!r}", lineno)

    t_index = {tid: i for i, tid in enumerate(t_ids)}
    s_index = {sid: i for i, sid in enumerate(s_ids)}
    adj: list[set[int]] = [set() for _ in t_ids]
    seen_edges: set[tuple[str, str]] = set()
    for lineno, a, b in edges:
        if a in t_index and b in t_index:
            raise GraphFormatError(f"edge ({a}, {b}) joins two transformer nodes", lineno)
        if a in s_index and b in s_index:
            raise GraphFormatError(f"edge ({a}, {b}) joins two sensor sites", lineno)
        if a in s_index and b in t_index:
            raise GraphFormatError("edge must list the transformer first", lineno)
        if a not in t_index:
            raise GraphFormatError(f"edge references undeclared node {a!r}", lineno)
        if b not in s_index:
            raise GraphFormatError(f"edge references undeclared node {b!r}", lineno)
        if (a, b) in seen_edges:
            raise GraphFormatError(f"duplicate edge ({a}, {b})", lineno)
        seen_edges.add((a, b))
        adj[t_index[a]].add(s_index[b])

    return BipartiteGraph(
        tuple(t_ids), tuple(s_ids), tuple(frozenset(nb) for nb in adj), hop_limit
    )


def save_graph(g: BipartiteGraph, dest) -> None:
    """Write a graph in the text format; load(save(g)) reproduces g exactly."""
    lines = [f"# hops {g.hop_limit}"]
    lines.extend(f"t {tid}" for tid in g.t_ids)
    lines.extend(f"s {sid}" for sid in g.s_ids)
    for ti, tid in enumerate(g.t_ids):
        for si in sorted(g.adj[ti]):
            lines.append(f"e {tid} {g.s_ids[si]}")
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)


def graph_to_text(g: BipartiteGraph) -> str:
    buf = io.StringIO()
    save_graph(g, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Codes and the discriminating predicate


def code_of(g: BipartiteGraph, t_id: str, active: Iterable[str]) -> frozenset[str]:
    """The code of transformer t under the active sensor set: N(t) ∩ active."""
    ti = g.t_index.get(t_id)
    if ti is None:
        raise ValueError(f"unknown transformer {t_id!r}")
    active_idx = g.site_indices(active)
    return g.site_names(g.adj[ti] & active_idx)


def codes_by_index(g: BipartiteGraph, active_idx: frozenset[int]) -> list[frozenset[int]]:
    return [nb & active_idx for nb in g.adj]


def is_dcs(g: BipartiteGraph, candidate: Iterable[str]) -> bool:
    """True iff every transformer's code under the candidate set is non-empty
    and all codes are pairwise distinct."""
    return is_dcs_indices(g, g.site_indices(candidate))


def is_dcs_indices(g: BipartiteGraph, candidate_idx: frozenset[int]) -> bool:
    codes = codes_by_index(g, candidate_idx)
    if any(not c for c in codes):
        return False
    return len(set(codes)) == len(codes)


# ---------------------------------------------------------------------------
# Random instances for experiments and tests


def random_bipartite(rng, n_t: int, n_s: int, density: float) -> BipartiteGraph:
    """Random monitoring graph: each (t, s) edge present with prob density.

    rng is a numpy Generator; ids are t1..tn, s1..sm.
    """
    mask = rng.random((n_t, n_s)) < density
    adj = tuple(frozenset(int(j) for j in range(n_s) if mask[i, j]) for i in range(n_t))
    return BipartiteGraph(
        tuple(f"t{i + 1}" for i in range(n_t)),
        tuple(f"s{j + 1}" for j in range(n_s)),
        adj,
    )
