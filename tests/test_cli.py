import json

import pytest

from sosxxz import cli


def run_cli(args, tmp_path, name="out.jsonl"):
    out = tmp_path / name
    code = cli.main([*args, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def rows_and_summary(text):
    lines = [json.loads(line) for line in text.strip().splitlines()]
    return lines[:-1], lines[-1]


def test_verify_vertex_passes(tmp_path):
    code, text = run_cli(["verify", "--suite", "vertex", "--n", "2", "--seed", "7", "--trials", "4"], tmp_path)
    assert code == 0
    rows, summary = rows_and_summary(text)
    assert rows and all(r["pass"] for r in rows)
    assert all(r["residual"] < 1e-10 for r in rows)
    assert summary["all_pass"] is True


def test_partition_n1_closed_form(tmp_path):
    code, text = run_cli(["partition", "--kind", "bminus", "--n", "1", "--method", "both", "--seed", "5"], tmp_path)
    assert code == 0
    rows, summary = rows_and_summary(text)
    det = complex(*summary["extra"]["value_det"])
    con = complex(*summary["extra"]["value_contract"])
    assert abs(det - con) < 1e-12 * abs(con)
    from sosxxz import partition as pt
    from sosxxz.cli import load_config
    import argparse

    cfg = cli.load_config(None, argparse.Namespace(n=1, seed=5, trials=None, tol_scale=None, sector=None))
    lam = complex(*summary["extra"]["lambdas"][0])
    closed = pt.closed_form_n1(lam, cfg.params.xi[0], cfg.params.delta, cfg.params.zeta, cfg.params.eta)
    assert abs(det - closed) < 1e-12 * abs(closed)


def test_bethe_constrained_run(tmp_path):
    code, text = run_cli(
        ["bethe", "--branch", "b1", "--m", "1", "--n", "2", "--constrained", "--seed", "3"], tmp_path
    )
    assert code == 0
    rows, summary = rows_and_summary(text)
    assert summary["extra"]["solutions"], "expected at least one verified solution"
    assert all(r["pass"] for r in rows)


def test_spectrum_reports_incompleteness_without_failing(tmp_path):
    code, text = run_cli(["spectrum", "--constrained", "--n", "2", "--seed", "3"], tmp_path)
    assert code == 0
    _, summary = rows_and_summary(text)
    extra = summary["extra"]
    assert extra["matched"] >= 1
    assert extra["matched"] + extra["unmatched_spectrum"] == extra["transfer_dimension"]


def strip_wall_time(text):
    lines = text.strip().splitlines()
    summary = json.loads(lines[-1])
    summary.pop("wall_time")
    return "\n".join(lines[:-1]) + json.dumps(summary, sort_keys=True)


def test_determinism_byte_identical(tmp_path):
    args = ["verify", "--suite", "sos", "--n", "2", "--seed", "11", "--trials", "3"]
    _, text1 = run_cli(args, tmp_path, "a.jsonl")
    _, text2 = run_cli(args, tmp_path, "b.jsonl")
    assert strip_wall_time(text1) == strip_wall_time(text2)


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "N": 1,
                "eta": [0.47, 0.19],
                "xi": [[0.11, -0.07]],
                "delta": [0.83, -0.31],
                "zeta": [0.59, 0.42],
                "tau": [0.25, 0.13],
                "delta_bar": [0.91, 0.27],
                "zeta_bar": [0.67, -0.23],
                "tau_bar": [0.35, -0.17],
                "seed": 5,
            }
        )
    )
    code, text = run_cli(["partition", "--kind", "cplus", "--config", str(cfg_path)], tmp_path)
    assert code == 0
    _, summary = rows_and_summary(text)
    assert summary["config"]["N"] == 1
    assert summary["config"]["seed"] == 5


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["verify", "--config", str(bad)]) == 2


def test_exit_code_degenerate(tmp_path):
    cfg = tmp_path / "degenerate.json"
    cfg.write_text(json.dumps({"N": 1, "zeta": [0.83, -0.31], "delta": [0.83, -0.31]}))
    # delta = zeta makes theta = 0, a pole of every height-picture object
    assert cli.main(["partition", "--kind", "bminus", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3


def test_exit_code_tolerance_failure(tmp_path):
    code, text = run_cli(
        ["verify", "--suite", "vertex", "--n", "1", "--seed", "7", "--trials", "2", "--tol-scale", "1e-18"],
        tmp_path,
    )
    assert code == 4
    rows, summary = rows_and_summary(text)
    assert not summary["all_pass"]


def test_exit_code_solver_failure(tmp_path):
    # five pairwise separated roots cannot be accommodated at N = 2 inside
    # the search window, so the multi-start solve comes back empty
    assert (
        cli.main(["bethe", "--branch", "b1", "--m", "5", "--n", "2", "--seed", "1", "--out", str(tmp_path / "x")])
        == 5
    )


def test_sector_flag_wins_over_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 1, "sector_s": 2, "seed": 4}))
    code, text = run_cli(["partition", "--n", "1", "--config", str(cfg_path), "--sector", "0"], tmp_path)
    assert code == 0
    _, summary = rows_and_summary(text)
    assert summary["config"]["sector_s"] == 0
    assert summary["config"]["seed"] == 4


def test_n_zero_is_config_error(tmp_path):
    assert cli.main(["verify", "--suite", "vertex", "--n", "0", "--out", str(tmp_path / "x")]) == 2


def test_negative_n_is_config_error(tmp_path):
    assert cli.main(["verify", "--suite", "vertex", "--n", "-1", "--out", str(tmp_path / "x")]) == 2


def test_zero_trials_is_config_error(tmp_path):
    assert cli.main(["verify", "--suite", "vertex", "--n", "1", "--trials", "0", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("scale", ["0", "-1", "nan"])
def test_bad_tol_scale_is_config_error(scale, tmp_path):
    args = ["verify", "--suite", "vertex", "--n", "1", "--trials", "1", "--tol-scale", scale]
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--n", "12"],
        ["verify", "--n", "30"],
        ["bethe", "--m", "1", "--n", "30"],
        ["partition", "--n", "40"],
        ["verify", "--n", "700"],
    ],
)
def test_dense_budget_is_config_error(args, monkeypatch, tmp_path, capsys):
    # refused before any matrix is built: 2^(N+2) square at N = 12 is 4.3 GB,
    # and a gate stack of the N = 40 block string holds 2^43 entries, 141 TB;
    # at N = 700 the byte count is past the float range
    def unreachable(*args, **kwargs):
        raise AssertionError("the run went past the dense budget")

    monkeypatch.setattr(cli, "sample_points", unreachable)
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--n", "11"],
        ["bethe", "--m", "1", "--n", "12"],
        ["spectrum", "--n", "12"],
        ["partition", "--n", "1000000"],
    ],
)
def test_dense_budget_refused_before_parameters(args, monkeypatch, tmp_path, capsys):
    # building the parameters costs time and memory linear in N
    def unreachable(*args, **kwargs):
        raise AssertionError("parameters built before the dense budget was checked")

    monkeypatch.setattr(cli, "generic_params", unreachable)
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("m", ["0", "-1"])
def test_bethe_without_roots_is_config_error(m, tmp_path):
    assert cli.main(["bethe", "--m", m, "--n", "2", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--constrained", "--n", "3"],
        ["bethe", "--constrained", "--n", "3", "--m", "1"],
        ["bethe", "--constrained", "--n", "4", "--m", "1", "--sector", "4"],
    ],
)
def test_bad_sector_is_config_error(args, tmp_path):
    # the boundary constraints need N - s even and |s| < N
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "eta, args",
    [
        (800, ["verify"]),
        (800, ["partition"]),
        (300, ["spectrum", "--n", "3", "--sector", "1"]),
        (100, ["verify", "--n", "3", "--trials", "1"]),
    ],
)
def test_overflow_is_degenerate(eta, args, tmp_path):
    # sinh(800) overflows a float; at eta = 100 or 300 an operator product does
    cfg = tmp_path / "eta.json"
    cfg.write_text(json.dumps({"eta": [eta, 0]}))
    assert cli.main([*args, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_residual_is_degenerate(tmp_path):
    # at eta = 100 the dual reflection algebra's gate products overflow to NaN
    cfg = tmp_path / "eta.json"
    cfg.write_text(json.dumps({"eta": [100, 0]}))
    code, text = run_cli(["verify", "--n", "3", "--suite", "vertex", "--trials", "1", "--config", str(cfg)], tmp_path)
    assert code == 3
    assert "NaN" not in text


@pytest.mark.parametrize(
    "command, entries",
    [("spectrum", 4**6), ("partition", 2**8)],
    ids=["spectrum", "partition"],
)
def test_spectrum_obeys_dense_budget(command, entries, monkeypatch, tmp_path):
    # at N = 5 the transfer matrix on the auxiliary leg and the sites is
    # 64-square, and each two-leg gate of the partition block string is a
    # stack of 16 4 x 4 blocks; the budget is one entry short of either
    monkeypatch.setattr(cli, "DENSE_BUDGET", 16 * (entries - 1))
    assert cli.main([command, "--n", "5", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "entry",
    [{"N": "two"}, {"trials": 1e400}, {"constraint_n": [1]}, {"N": 2.7}, {"seed": 1.9}, {"trials": True}],
)
def test_non_integer_config_is_config_error(entry, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "entry",
    [
        {"N": 2.7},  # checked although --n overrides it
        {"xi": 5},
        {"tolerances": [1]},
        {"tolerances": {"identity": "x"}},
        {"tolerances": {"partition": None}},
        {"tolerances": {"pole": [1, 2]}},
        {"tolerances": {"bethe": 0}},
        {"tolerances": {"pole": -1e-8}},
        {"tolerances": {"identity": 1e400}},
    ],
)
def test_malformed_config_is_config_error(entry, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    assert cli.main(["partition", "--n", "2", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_integral_float_config_is_accepted(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 1.0, "seed": 4.0, "tolerances": {"pole": 0}}))
    code, text = run_cli(["partition", "--config", str(cfg_path)], tmp_path)
    assert code == 0
    _, summary = rows_and_summary(text)
    assert (summary["config"]["N"], summary["config"]["seed"]) == (1, 4)


def test_spectrum_without_roots_is_config_error(tmp_path):
    # unconstrained, the sector is not checked against N: s = N gives M = 0
    assert cli.main(["spectrum", "--n", "2", "--sector", "2", "--out", str(tmp_path / "x")]) == 2


def test_csv_format(tmp_path):
    out = tmp_path / "rows.csv"
    code = cli.main(["verify", "--suite", "vertex", "--n", "1", "--seed", "7", "--trials", "2",
                     "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check,params_digest,residual,tolerance,pass"
    assert len(lines) > 1
