import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmtd import (
    BipartiteGraph,
    Branch,
    GraphFormatError,
    ParseError,
    PowerGrid,
    build_bipartite,
    code_of,
    graph_to_text,
    is_dcs,
    load_graph,
    parse_matpower,
    random_bipartite,
    save_graph,
)
from conftest import with_branch_status

HVTS_14 = ["4-7", "4-9", "5-6", "7-8", "7-9"]


# ---------------------------------------------------------------------------
# MATPOWER parsing


def test_parse_case14_counts(case14_text):
    grid = parse_matpower(case14_text)
    assert len(grid.buses) == 14
    assert len(grid.branches) == 20
    # nonzero tap ratio flags the three tap-changing branches
    assert [grid.branch_ids[i] for i in grid.transformer_branches] == [
        "4-7",
        "4-9",
        "5-6",
    ]


def test_parse_ignores_other_blocks():
    text = """
mpc.gen = [
  1 232.4 -16.9 10 0 1.06 100 1 332.4 0;
];
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 0 1 1.06 0.94;
  2 1 0 0 0 0 1 1.0 0 0 1 1.06 0.94;
];
mpc.branch = [
  1 2 0.01 0.05 0 9900 0 0 0 0 1 -360 360;
];
"""
    grid = parse_matpower(text)
    assert grid.buses == (1, 2)
    assert len(grid.branches) == 1


def test_parse_zero_branches_is_structural_error():
    text = "mpc.bus = [\n 1 3 0 0 0 0 1 1 0 0 1 1.06 0.94;\n];\nmpc.branch = [\n];\n"
    with pytest.raises(ParseError, match="branch table"):
        parse_matpower(text)


def test_parse_empty_bus_table():
    text = "mpc.bus = [\n];\nmpc.branch = [\n 1 2 0 0 0 0 0 0 0 0 1 -360 360;\n];\n"
    with pytest.raises(ParseError, match="bus table"):
        parse_matpower(text)


def test_parse_unknown_bus_reference():
    text = """
mpc.bus = [
  1 3 0 0 0 0 1 1 0 0 1 1.06 0.94;
];
mpc.branch = [
  1 99 0.01 0.05 0 9900 0 0 0 0 1 -360 360;
];
"""
    with pytest.raises(ParseError, match="unknown bus 99"):
        parse_matpower(text)


def test_parse_out_of_service_branch_is_dropped(case14_text):
    off = with_branch_status(case14_text, (4, 5), "0")
    deleted = with_branch_status(case14_text, (4, 5), None)
    assert len(parse_matpower(off).branches) == 19
    g_off = graph_to_text(build_bipartite(parse_matpower(off), HVTS_14))
    assert g_off == graph_to_text(build_bipartite(parse_matpower(deleted), HVTS_14))
    # the branch carries signal hops when in service
    assert g_off != graph_to_text(build_bipartite(parse_matpower(case14_text), HVTS_14))


def test_parse_branch_status_must_be_0_or_1(case14_text):
    with pytest.raises(ParseError, match="status must be 0 or 1, got 2"):
        parse_matpower(with_branch_status(case14_text, (4, 5), "2"))
    # a row without a status column counts as in service
    text = "mpc.bus = [\n 1 3;\n 2 1;\n];\nmpc.branch = [\n 1 2 0 0 0 0 0 0 0;\n];\n"
    assert len(parse_matpower(text).branches) == 1


def mini_case(bus="2", bus_type="1", f="1", t="2", tap="0", shift="0", status="1") -> str:
    """Two buses and one branch; the arguments fill the consumed columns."""
    branch = f"{f} {t} 0 0 0 0 0 0 {tap} {shift} {status}"
    return f"mpc.bus = [\n 1 3;\n {bus} {bus_type};\n];\nmpc.branch = [\n {branch};\n];\n"


@pytest.mark.parametrize(
    "column, message",
    [
        ({"bus": "inf"}, "line 3: bus id must be finite, got inf"),
        ({"bus": "nan"}, "line 3: bus id must be finite, got nan"),
        ({"f": "-inf"}, "line 6: branch from-bus must be finite, got -inf"),
        ({"t": "nan"}, "line 6: branch to-bus must be finite, got nan"),
        ({"tap": "inf"}, "line 6: branch tap ratio must be finite, got inf"),
        ({"tap": "nan"}, "line 6: branch tap ratio must be finite, got nan"),
        ({"tap": "nan", "status": "0"}, "line 6: branch tap ratio must be finite, got nan"),
        ({"status": "nan"}, "line 6: branch status must be 0 or 1, got nan"),
        ({"shift": "nan"}, "line 6: branch phase shift must be finite, got nan"),
        ({"shift": "-inf", "status": "0"}, "line 6: branch phase shift must be finite, got -inf"),
        ({"bus_type": "nan"}, "line 3: bus type must be finite, got nan"),
    ],
    ids=["bus-inf", "bus-nan", "from-inf", "to-nan", "tap-inf", "tap-nan", "off-tap-nan", "status-nan",
         "shift-nan", "off-shift-inf", "type-nan"],
)
def test_parse_rejects_non_finite_consumed_values(column, message):
    with pytest.raises(ParseError, match=message):
        parse_matpower(mini_case(**column))


@pytest.mark.parametrize(
    "text, message",
    [
        (mini_case(bus="2.5"), "line 3: bus id must be an integer, got 2.5"),
        (mini_case(bus="1"), "duplicate bus id in bus table"),
        ("mpc.bus = [\n 1 3;\n 2 1;\n];\nmpc.branch = [\n 1 2 0 0 0 0 0 0;\n];\n",
         "line 6: branch row needs at least 9 columns, got 8"),
        (mini_case(f="7"), "line 6: branch references unknown bus 7"),
    ],
    ids=["bus-not-integer", "bus-duplicate", "branch-short", "from-unknown"],
)
def test_parse_rejects_malformed_tables(text, message):
    with pytest.raises(ParseError, match=message):
        parse_matpower(text)


def test_parse_flags_phase_shifters_as_transformers():
    # a nonzero angle makes a branch a transformer even at tap 0, and a row
    # that ends before column 10 has no shift
    for shift in ("-3.5", "2"):
        grid = parse_matpower(mini_case(shift=shift))
        assert grid.branches == (Branch(1, 2, 0.0),) and grid.transformer_branches == (0,)
        assert build_bipartite(grid).t_ids == ("1-2",)
    assert parse_matpower(mini_case()).transformer_branches == ()
    short = "mpc.bus = [\n 1 3;\n 2 1;\n];\nmpc.branch = [\n 1 2 0 0 0 0 0 0 0.98;\n];\n"
    assert parse_matpower(short).transformer_branches == (0,)


def test_parse_drops_branches_at_isolated_buses():
    # bus 3 is isolated (type 4): its branches are out of service, so the
    # transformer 2-3 is neither flagged nor nameable, while the bus stays
    text = (
        "mpc.bus = [\n 1 3;\n 2 1;\n 3 4;\n];\n"
        "mpc.branch = [\n 1 2 0 0 0 0 0 0 0.97 0 1;\n 2 3 0 0 0 0 0 0 0.95 0 1;\n"
        " 3 3 0 0 0 0 0 0 0 0 1;\n];\n"
    )
    grid = parse_matpower(text)
    assert grid.buses == (1, 2, 3)
    assert grid.branches == (Branch(1, 2, 0.97),) and grid.transformer_branches == (0,)
    with pytest.raises(ValueError, match="no branch matches HVT '2-3'"):
        build_bipartite(grid, ["2-3"])
    isolated = parse_matpower(mini_case(bus_type="4", tap="1.0"))
    assert isolated.branches == () and isolated.transformer_branches == ()
    # any other type, and a row without column 2, leaves the branch alone
    for bus_type in ("1", "2", "3"):
        assert parse_matpower(mini_case(bus_type=bus_type, tap="1.0")).transformer_branches == (0,)
    bare = "mpc.bus = [\n 1;\n 2;\n];\nmpc.branch = [\n 1 2 0 0 0 0 0 0 1.0;\n];\n"
    assert parse_matpower(bare).transformer_branches == (0,)


def test_parse_leaves_other_columns_alone():
    text = "mpc.bus = [\n 1 3 inf nan;\n 2 1;\n];\nmpc.branch = [\n 1 2 nan inf 0 0 0 0 0 0 1 -inf;\n];\n"
    grid = parse_matpower(text)
    assert grid.buses == (1, 2) and grid.branches == (Branch(1, 2, 0.0),)


def test_parse_malformed_row_reports_line():
    text = "mpc.bus = [\n 1 3 0 0;\n oops;\n];\nmpc.branch = [\n 1 1 0 0 0 0 0 0 0;\n];\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_matpower(text)


# ---------------------------------------------------------------------------
# Bipartite construction


def test_build_14bus_node_count(case14_text):
    grid = parse_matpower(case14_text)
    g = build_bipartite(grid, HVTS_14, hop_limit=2)
    assert g.n_t == 5
    assert g.n_s == 40  # one site per line-end of 20 branches
    assert g.n_t + g.n_s == 45


def test_build_saturates_at_large_hop_limit(case14_text):
    grid = parse_matpower(case14_text)
    g = build_bipartite(grid, HVTS_14, hop_limit=100)
    for nb in g.adj:
        assert len(nb) == g.n_s


def test_build_hop_monotone(case14_text):
    grid = parse_matpower(case14_text)
    previous = None
    for hops in (1, 2, 3, 4):
        g = build_bipartite(grid, HVTS_14, hop_limit=hops)
        if previous is not None:
            for a, b in zip(previous.adj, g.adj):
                assert a <= b
        previous = g


def test_build_singleton_neighborhood():
    # one bus, one self-looped transformer branch: exactly one site in range
    grid = PowerGrid((1,), (Branch(1, 1, 0.5),), (0,))
    g = build_bipartite(grid, None, hop_limit=1, site_rule="buses")
    assert g.adj[0] == frozenset({0})
    g2 = build_bipartite(grid, None, hop_limit=1, site_rule="line-ends")
    assert len(g2.adj[0]) == 1


def test_build_rejects_empty_hvts(case14_text):
    grid = parse_matpower(case14_text)
    with pytest.raises(ValueError, match="empty"):
        build_bipartite(grid, [], hop_limit=2)
    with pytest.raises(ValueError, match="no branch matches"):
        build_bipartite(grid, ["1-99"], hop_limit=2)
    with pytest.raises(ValueError, match="hop_limit"):
        build_bipartite(grid, HVTS_14, hop_limit=0)


def test_build_bus_sites(case14_text):
    grid = parse_matpower(case14_text)
    g = build_bipartite(grid, HVTS_14, hop_limit=2, site_rule="buses")
    assert g.n_s == 14
    # transformer 7-8 reaches its endpoints at hop 1, their neighbors at hop 2
    ti = g.t_index["7-8"]
    assert g.site_names(g.adj[ti]) == frozenset({"7", "8", "4", "9"})


# case14 bus-rule neighbourhoods at hops 1-3, per transformer in HVTS_14 order
BUS_REACH_14 = {
    1: ["4 7", "4 9", "5 6", "7 8", "7 9"],
    2: [
        "2 3 4 5 7 8 9",
        "2 3 4 5 7 9 10 14",
        "1 2 4 5 6 11 12 13",
        "4 7 8 9",
        "4 7 8 9 10 14",
    ],
    3: [
        "1 2 3 4 5 6 7 8 9 10 14",
        "1 2 3 4 5 6 7 8 9 10 11 13 14",
        "1 2 3 4 5 6 7 9 10 11 12 13 14",
        "2 3 4 5 7 8 9 10 14",
        "2 3 4 5 7 8 9 10 11 13 14",
    ],
}


@pytest.mark.parametrize("hops", sorted(BUS_REACH_14))
def test_bus_sites_pinned_neighbourhoods(case14_text, hops):
    g = build_bipartite(parse_matpower(case14_text), HVTS_14, hops, site_rule="buses")
    assert g.t_ids == tuple(HVTS_14)
    got = [g.site_names(nb) for nb in g.adj]
    assert got == [frozenset(row.split()) for row in BUS_REACH_14[hops]]


def test_default_hvts_from_tap_ratio(case14_text):
    grid = parse_matpower(case14_text)
    g = build_bipartite(grid, None, hop_limit=2)
    assert g.t_ids == ("4-7", "4-9", "5-6")


# ---------------------------------------------------------------------------
# Graph text format


def test_load_tiny_fixture(tiny_graph):
    assert tiny_graph.t_ids == ("t1", "t2")
    assert tiny_graph.s_ids == ("s1", "s2", "s3", "s4")
    assert tiny_graph.neighborhood("t1") == frozenset({"s1", "s3"})
    assert tiny_graph.neighborhood("t2") == frozenset({"s2", "s4"})
    assert tiny_graph.hop_limit == 2


def test_edge_joining_two_transformers_rejected():
    text = "t t1\nt t2\ns s1\ne t1 t2\n"
    with pytest.raises(GraphFormatError, match="two transformer"):
        load_graph(io.StringIO(text))


def test_duplicate_declaration_rejected():
    with pytest.raises(GraphFormatError, match="duplicate"):
        load_graph(io.StringIO("t a\ns a\n"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("t t1 t2\n", "line 1: expected 't <id>'"),
        ("t t1\ns\n", "line 2: expected 's <id>'"),
        ("t t1\ns s1\ne t1\n", "line 3: expected 'e <t-id> <s-id>'"),
        ("t t1\ns s1\ne t1 s1 s1\n", "line 3: expected 'e <t-id> <s-id>'"),
        ("t t1\nx t1\n", "line 2: unknown line kind 'x'"),
        ("s s1\ns s2\ne s1 s2\n", "line 3: edge (s1, s2) joins two sensor sites"),
        ("t t1\ns s1\ne t9 s1\n", "line 3: edge references undeclared node 't9'"),
    ],
    ids=["t-tokens", "s-tokens", "e-short", "e-long", "unknown-kind", "site-site", "undeclared-t"],
)
def test_graph_text_rejects_malformed_lines(text, message):
    with pytest.raises(GraphFormatError, match=re.escape(message)):
        load_graph(io.StringIO(text))


def test_edge_to_undeclared_node_rejected():
    with pytest.raises(GraphFormatError, match="undeclared"):
        load_graph(io.StringIO("t t1\ns s1\ne t1 s9\n"))


def test_duplicate_edge_rejected():
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        load_graph(io.StringIO("t t1\ns s1\ne t1 s1\ne t1 s1\n"))


def test_reversed_edge_rejected():
    with pytest.raises(GraphFormatError, match="transformer first"):
        load_graph(io.StringIO("t t1\ns s1\ne s1 t1\n"))


@settings(max_examples=50)
@given(
    n_t=st.integers(1, 4),
    n_s=st.integers(1, 8),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    hops=st.integers(1, 5),
)
def test_save_load_round_trip(n_t, n_s, density, seed, hops):
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng, n_t, n_s, density)
    g = BipartiteGraph(g.t_ids, g.s_ids, g.adj, hops)
    buf = io.StringIO()
    save_graph(g, buf)
    assert load_graph(io.StringIO(buf.getvalue())) == g


@pytest.mark.parametrize("bad", ["", "t 1", "s\t1", "a\nb", "x\u2028y"])
@pytest.mark.parametrize("side", ["t", "s"])
def test_graph_rejects_ids_the_text_format_cannot_hold(bad, side):
    t_ids, s_ids = (bad,) if side == "t" else ("t1",), (bad,) if side == "s" else ("s1",)
    with pytest.raises(ValueError, match="empty or holds whitespace"):
        BipartiteGraph(t_ids, s_ids, (frozenset({0}),))


def test_save_load_round_trip_on_file(tmp_path, tiny_graph):
    path = tmp_path / "g.graph"
    save_graph(tiny_graph, path)
    assert load_graph(path) == tiny_graph
    # emitted text is canonical: saving the reloaded graph is byte-identical
    assert path.read_text() == graph_to_text(load_graph(path))


# ---------------------------------------------------------------------------
# Codes and the discriminating predicate


def test_code_of_examples(tiny_graph):
    assert code_of(tiny_graph, "t1", {"s1", "s2"}) == frozenset({"s1"})
    assert code_of(tiny_graph, "t1", set()) == frozenset()
    assert code_of(tiny_graph, "t2", tiny_graph.s_ids) == frozenset({"s2", "s4"})
    with pytest.raises(ValueError, match="unknown transformer"):
        code_of(tiny_graph, "nope", {"s1"})


def test_is_dcs_examples(tiny_graph, identical_pair_graph):
    assert is_dcs(tiny_graph, {"s1", "s2"})
    assert not is_dcs(tiny_graph, {"s1"})  # t2's code is empty
    assert not is_dcs(identical_pair_graph, identical_pair_graph.s_ids)


@settings(max_examples=60)
@given(
    n_t=st.integers(1, 4),
    n_s=st.integers(1, 7),
    density=st.floats(0.1, 0.9),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_is_dcs_matches_definition_and_monotone(n_t, n_s, density, seed, data):
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng, n_t, n_s, density)
    subset = data.draw(st.sets(st.sampled_from(list(g.s_ids))))
    codes = [code_of(g, t, subset) for t in g.t_ids]
    expected = all(codes) and len(set(codes)) == len(codes)
    assert is_dcs(g, subset) == expected
    if expected:
        bigger = set(subset) | set(
            data.draw(st.sets(st.sampled_from(list(g.s_ids))))
        )
        assert is_dcs(g, bigger)
