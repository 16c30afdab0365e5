import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridmtd
from gridmtd import cli
from gridmtd.cli import main
from gridmtd.optim import SolverError
from conftest import DATA, FIXTURES, with_branch_status


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# build-graph


def test_build_graph_case14(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "build-graph",
        "--input",
        str(DATA / "case14.m"),
        "--hvts",
        "4-7,4-9,5-6,7-8,7-9",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    assert out.strip() == "|T|=5 |S|=40 edges=36"
    assert (tmp_path / "case14.graph").exists()


def test_build_graph_passthrough(tmp_path, capsys):
    src = FIXTURES / "tiny.graph"
    code, out, _ = run(
        capsys, "build-graph", "--input", str(src), "--out", str(tmp_path)
    )
    assert code == 0
    assert out.strip() == "|T|=2 |S|=4 edges=4"
    assert (tmp_path / "tiny.graph").read_text() == src.read_text()


def test_build_graph_missing_file(tmp_path, capsys):
    code, out, err = run(
        capsys, "build-graph", "--input", str(tmp_path / "nope.graph")
    )
    assert code == 2
    assert "not found" in err
    assert out == ""


def test_build_graph_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("t a\nt a\n")
    code, _, err = run(capsys, "build-graph", "--input", str(bad))
    assert code == 2
    assert "duplicate" in err


def test_build_graph_non_finite_bus_id_exit_2(tmp_path, capsys, case14_text):
    case = tmp_path / "case14_inf.m"
    case.write_text(case14_text.replace("\n\t2\t", "\n\tinf\t", 1))
    code, out, err = run(capsys, "build-graph", "--input", str(case), "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "line 15: bus id must be finite, got inf" in err


def test_build_graph_rejects_out_of_service_hvt(tmp_path, capsys, case14_text):
    case = tmp_path / "case14_off.m"
    case.write_text(with_branch_status(case14_text, (7, 8), "0"))
    code, out, err = run(
        capsys, "build-graph", "--input", str(case), "--hvts", "4-7,4-9,5-6,7-8,7-9",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert "'7-8'" in err


@pytest.mark.parametrize("flag", [["--hops", "7"], ["--hvts", "9-9"], ["--sites", "buses"], ["--hvts="]],
                         ids=["hops", "hvts", "sites", "empty-hvts"])
@pytest.mark.parametrize("command", [["build-graph"], ["kmax"], ["experiment", "--seed", "1"]],
                         ids=["build-graph", "kmax", "experiment"])
def test_graph_input_rejects_matpower_only_flags(tmp_path, capsys, command, flag):
    out_dir = [] if command == ["kmax"] else ["--out", str(tmp_path)]
    code, out, err = run(capsys, *command, "--input", str(FIXTURES / "tiny.graph"), *flag, *out_dir)
    assert code == 2
    assert out == ""
    assert f"error: {flag[0].rstrip('=')} applies to MATPOWER input only" in err
    assert not any(tmp_path.iterdir())


def test_matpower_input_keeps_two_hops_and_line_ends_by_default(tmp_path, capsys):
    case = ["--input", str(DATA / "case14.m"), "--hvts", "4-7,4-9,5-6,7-8,7-9"]
    texts = {}
    for name, extra in (("default", []), ("explicit", ["--hops", "2", "--sites", "line-ends"]),
                        ("three", ["--hops", "3"])):
        code, _, _ = run(capsys, "build-graph", *case, *extra, "--out", str(tmp_path / name))
        assert code == 0
        texts[name] = (tmp_path / name / "case14.graph").read_text()
    assert texts["default"] == texts["explicit"]
    assert texts["default"].startswith("# hops 2\n") and texts["three"].startswith("# hops 3\n")


# ---------------------------------------------------------------------------
# kmax


def test_kmax_tiny(capsys):
    code, out, err = run(capsys, "kmax", "--input", str(FIXTURES / "tiny.graph"))
    assert code == 0
    assert "optimal" in out and "greedy" in out
    assert "kmax 2 l 2" in out
    assert "optimal_seconds=" in err and "greedy_seconds=" in err


def test_kmax_rejects_out(tmp_path, capsys):
    # kmax writes to stdout only, so it takes no output directory
    with pytest.raises(SystemExit) as exit_:
        main(["kmax", "--input", str(FIXTURES / "tiny.graph"), "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err


def test_kmax_identical_neighborhoods_exit_3(capsys):
    code, _, err = run(
        capsys, "kmax", "--input", str(FIXTURES / "identical_pair.graph")
    )
    assert code == 3
    assert "t1" in err and "t2" in err


def test_kmax_transformer_without_sites_exit_3(tmp_path, capsys):
    src = tmp_path / "deaf.graph"
    src.write_text("t t1\nt t2\ns s1\ne t1 s1\n")
    code, out, err = run(capsys, "kmax", "--input", str(src))
    assert code == 3
    assert out == ""
    assert err == "infeasible: transformer t2 has no sensor site in range\n"


def test_kmax_solver_error_exit_4(monkeypatch, capsys):
    def fail(g):
        raise SolverError("simplex iteration cap exceeded")

    monkeypatch.setattr(cli, "find_kmax", fail)
    code, out, err = run(capsys, "kmax", "--input", str(FIXTURES / "tiny.graph"))
    assert code == 4
    assert out == ""
    assert err == "internal solver error: simplex iteration cap exceeded\n"


@pytest.mark.parametrize("text", ["s s1\ns s2\n", ""], ids=["sites-only", "empty"])
def test_kmax_graph_without_transformers_exit_2(tmp_path, capsys, text):
    src = tmp_path / "no_transformers.graph"
    src.write_text(text)
    code, out, err = run(capsys, "kmax", "--input", str(src))
    assert code == 2
    assert out == ""
    assert "graph has no transformers" in err


def test_kmax_stdout_deterministic(capsys):
    argv = ["kmax", "--input", str(FIXTURES / "greedy_gap.graph")]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "kmax 4 l 2" in out1  # optimal dump
    assert "kmax 3 l 2" in out1  # greedy dump


def test_kmax_case14_default_hvts_stdout(capsys):
    # the transformers are the branches with a tap ratio: 4-7, 4-9 and 5-6
    code, out, _ = run(capsys, "kmax", "--input", str(DATA / "case14.m"))
    assert code == 0
    assert out == (
        "optimal\n"
        "kmax 6 l 3\n"
        "mdcs 1: 2@2-4 4@4-7 11@6-11\n"
        "mdcs 2: 3@3-4 12@6-12 8@7-8\n"
        "mdcs 3: 13@6-13 9@7-9 10@9-10\n"
        "mdcs 4: 1@1-5 5@4-5 14@9-14\n"
        "mdcs 5: 2@2-5 7@4-7 4@4-9\n"
        "mdcs 6: 4@4-5 9@4-9 7@7-9\n"
        "greedy\n"
        "kmax 5 l 3\n"
        "mdcs 1: 1@1-5 2@2-4 4@4-7\n"
        "mdcs 2: 2@2-5 3@3-4 4@4-9\n"
        "mdcs 3: 4@4-5 5@4-5 8@7-8\n"
        "mdcs 4: 7@4-7 5@5-6 7@7-9\n"
        "mdcs 5: 9@4-9 6@5-6 9@7-9\n"
    )


# ---------------------------------------------------------------------------
# experiment


def test_experiment_deterministic_csv(tmp_path, capsys):
    argv = [
        "experiment",
        "--input",
        str(FIXTURES / "tiny.graph"),
        "--trials",
        "20",
        "--seed",
        "7",
        "--out",
        str(tmp_path),
    ]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    csv1 = (tmp_path / "trials.csv").read_bytes()
    code, out2, _ = run(capsys, *argv)
    assert code == 0
    csv2 = (tmp_path / "trials.csv").read_bytes()
    assert csv1 == csv2
    assert out1 == out2
    lines = csv1.decode().strip().splitlines()
    assert lines[0] == "trial,urs_k,urs_kmax,sse_k,sse_kmax"
    # per-row dominance of the equilibrium strategy over the uniform baseline
    for row in lines[1:-2]:
        _, urs_k, urs_kmax, sse_k, sse_kmax = map(float, row.split(","))
        assert sse_k >= urs_k - 1e-6
        assert sse_kmax >= urs_kmax - 1e-6
    assert "K=2 K_max=2 l=2" in out1


def csv_sha256(out_dir: Path) -> str:
    return hashlib.sha256((out_dir / "trials.csv").read_bytes()).hexdigest()


CASE14_EXPERIMENT = [
    "experiment", "--input", str(DATA / "case14.m"), "--hvts", "4-7,4-9,5-6,7-8,7-9",
    "--trials", "100", "--seed", "42",
]


def test_experiment_case14_headline_stdout(tmp_path, capsys):
    code, out, _ = run(capsys, *CASE14_EXPERIMENT, "--out", str(tmp_path))
    assert code == 0
    assert out == (
        "K=3 K_max=4 l=4\n"
        "attacker_actions K*l=12 K_max*l=16\n"
        "strategy mean std\n"
        "urs_k 19.9408 5.1368\n"
        "urs_kmax 21.5112 5.6167\n"
        "sse_k 22.5319 5.5517\n"
        "sse_kmax 23.6640 5.8480\n"
        f"csv={tmp_path / 'trials.csv'}\n"
    )
    assert csv_sha256(tmp_path) == "cec4e00f53809b55d365999aeec254cf663feb65b08b1503facb1cbd497e24bf"


def test_experiment_case14_free_miss_integer_stdout(tmp_path, capsys):
    code, out, _ = run(
        capsys, *CASE14_EXPERIMENT, "--cost-on-miss", "false", "--integer-utilities",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert out == (
        "K=3 K_max=4 l=4\n"
        "attacker_actions K*l=12 K_max*l=16\n"
        "strategy mean std\n"
        "urs_k 19.9700 5.1725\n"
        "urs_kmax 21.2625 5.3955\n"
        "sse_k 22.1514 5.3030\n"
        "sse_kmax 23.0239 5.5344\n"
        f"csv={tmp_path / 'trials.csv'}\n"
    )
    assert csv_sha256(tmp_path) == "c558d3fcfb3e6af32d52cc8ebd52c49e81e9fc2c84c8261c1a124ce7832ce6b8"


def test_experiment_case14_cost_on_miss_integer_stdout(tmp_path, capsys):
    code, out, _ = run(
        capsys, *CASE14_EXPERIMENT, "--cost-on-miss", "true", "--integer-utilities",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert out == (
        "K=3 K_max=4 l=4\n"
        "attacker_actions K*l=12 K_max*l=16\n"
        "strategy mean std\n"
        "urs_k 20.5233 5.4260\n"
        "urs_kmax 21.9550 5.4580\n"
        "sse_k 23.1710 5.5248\n"
        "sse_kmax 24.2527 5.7607\n"
        f"csv={tmp_path / 'trials.csv'}\n"
    )
    assert csv_sha256(tmp_path) == "3ce7d59e4930902bfc47a759baf2b9b893e46bb9810c6032239a9f56a1721b83"


def test_experiment_case14_free_miss_float_stdout(tmp_path, capsys):
    code, out, _ = run(capsys, *CASE14_EXPERIMENT, "--cost-on-miss", "false", "--out", str(tmp_path))
    assert code == 0
    assert out == (
        "K=3 K_max=4 l=4\n"
        "attacker_actions K*l=12 K_max*l=16\n"
        "strategy mean std\n"
        "urs_k 19.6021 5.1944\n"
        "urs_kmax 20.8819 5.4877\n"
        "sse_k 21.6946 5.4050\n"
        "sse_kmax 22.5940 5.5913\n"
        f"csv={tmp_path / 'trials.csv'}\n"
    )
    assert csv_sha256(tmp_path) == "080262411904600ce38c2b759893e3863162cb84063e16de51d68f308947aae3"


def test_experiment_single_trial_reports_zero_std(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "experiment",
        "--input",
        str(FIXTURES / "tiny.graph"),
        "--trials",
        "1",
        "--seed",
        "3",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    std_line = (tmp_path / "trials.csv").read_text().strip().splitlines()[-1]
    assert std_line == "std,0.0000,0.0000,0.0000,0.0000"


def test_experiment_requires_seed(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "experiment",
        "--input",
        str(FIXTURES / "tiny.graph"),
        "--out",
        str(tmp_path),
    )
    assert code == 2
    assert "seed" in err


def test_experiment_rejects_negative_seed_before_solving(tmp_path, capsys):
    code, out, err = run(
        capsys, "experiment", "--input", str(FIXTURES / "tiny.graph"), "--seed", "-1", "--out", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be >= 0\n"
    assert not (tmp_path / "trials.csv").exists()


def test_experiment_rejects_zero_trials_before_solving(tmp_path, capsys):
    code, out, err = run(
        capsys, "experiment", "--input", str(FIXTURES / "tiny.graph"), "--seed", "1", "--trials", "0",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert err == "error: --trials must be >= 1\n"
    assert not (tmp_path / "trials.csv").exists()


def test_experiment_flag_variants(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "experiment",
        "--input",
        str(FIXTURES / "tiny.graph"),
        "--trials",
        "3",
        "--seed",
        "4",
        "--integer-utilities",
        "--cost-on-miss",
        "false",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "trials.csv").exists()


def test_experiment_unwritable_out_fails_before_solving(capsys):
    code, out, err = run(
        capsys,
        "experiment",
        "--input",
        str(FIXTURES / "tiny.graph"),
        "--seed",
        "1",
        "--out",
        "/dev/null/x",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "optimal_seconds=" not in err


# ---------------------------------------------------------------------------
# entry point


def test_console_entry_smoke():
    # the child imports the same gridmtd as this process, installed or not
    path = [str(Path(gridmtd.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "gridmtd.cli", "kmax", "--input",
         str(FIXTURES / "tiny.graph")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )
    assert proc.returncode == 0
    assert "kmax 2 l 2" in proc.stdout
    assert "optimal_seconds=" in proc.stderr
