import importlib.util
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

from sosxxz import bethe as bt
from sosxxz import cli
from sosxxz import params
from sosxxz import sos
from sosxxz import tensor as tn
from sosxxz import vertex as vx
from sosxxz.params import SAMPLE_MARGIN, generic_params, min_pole_gap, sample_points


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


def test_partition_n1_closed_form(tmp_path, closed_form_n1):
    code, text = run_cli(["partition", "--kind", "bminus", "--n", "1", "--method", "both", "--seed", "5"], tmp_path)
    assert code == 0
    rows, summary = rows_and_summary(text)
    det = complex(*summary["extra"]["value_det"])
    con = complex(*summary["extra"]["value_contract"])
    assert abs(det - con) < 1e-12 * abs(con)
    from sosxxz.cli import load_config
    import argparse

    cfg = cli.load_config(None, argparse.Namespace(n=1, seed=5, trials=None, tol_scale=None, sector=None))
    lam = complex(*summary["extra"]["lambdas"][0])
    closed = closed_form_n1(lam, cfg.params.xi[0], cfg.params.delta, cfg.params.zeta, cfg.params.eta)
    assert abs(det - closed) < 1e-12 * abs(closed)


def test_bethe_constrained_run(tmp_path):
    code, text = run_cli(
        ["bethe", "--branch", "b1", "--m", "1", "--n", "2", "--constrained", "--seed", "3"], tmp_path
    )
    assert code == 0
    rows, summary = rows_and_summary(text)
    assert summary["extra"]["solutions"], "expected at least one verified solution"
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
@pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (6, 2)])
def test_unconstrained_bethe_checks_the_sos_rows_of_the_constrained_run(branch, n, m, tmp_path):
    # both runs impose the height condition of the family's sector, which is
    # all the Bethe equations and the SOS rows read; only the constrained run
    # adds the vertex condition and the vertex rows
    args = ["bethe", "--branch", branch, "--n", str(n), "--m", str(m), "--seed", "0"]
    code, text = run_cli(args, tmp_path, "free.jsonl")
    sector = str(bt.family_sector(branch, m, n))
    fixed_code, fixed_text = run_cli([*args, "--constrained", "--sector", sector], tmp_path, "fixed.jsonl")
    assert code == fixed_code and code in (0, 5)
    if code == 0:
        def sos_rows(rows):
            return [{k: r[k] for k in ("check", "residual", "pass")} for r in rows
                    if not r["check"].endswith(".vertex_eigenstate")]

        rows, summary = rows_and_summary(text)
        fixed_rows, fixed_summary = rows_and_summary(fixed_text)
        assert all(r["pass"] for r in rows)
        assert sos_rows(rows) == sos_rows(fixed_rows) and len(sos_rows(rows)) == len(rows)
        assert summary["extra"] == fixed_summary["extra"]


def test_spectrum_reports_incompleteness_without_failing(tmp_path):
    code, text = run_cli(["spectrum", "--constrained", "--n", "2", "--seed", "3"], tmp_path)
    assert code == 0
    rows, summary = rows_and_summary(text)
    # the matches are counted in extra; only the sector checks are rows
    assert [r["check"] for r in rows] == ["spectrum.sector_commute", "spectrum.sector_in_vertex"]
    extra = summary["extra"]
    assert extra["matched"] >= 1
    assert extra["matched"] + extra["unmatched_spectrum"] == extra["sector_dimension"]
    assert "note" not in extra


def constrained_sectors(n):
    """The sectors s the boundary constraints take at chain length n: N - s even, |s| < N."""
    return range(-(n - 2), n - 1, 2)


def spectrum_report(n, s, seed, tmp_path, expect=0):
    code, text = run_cli(["spectrum", "--constrained", "--n", str(n), "--sector", str(s), "--seed", str(seed)],
                         tmp_path)
    assert code == expect
    rows, summary = rows_and_summary(text)
    return {r["check"]: r for r in rows}, summary["extra"]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_sector_rows_pass_in_every_constrained_sector(n, tmp_path):
    for seed in range(3):
        for s in constrained_sectors(n):
            rows, _ = spectrum_report(n, s, seed, tmp_path)
            assert rows["spectrum.sector_commute"]["residual"] < 1e-13
            assert rows["spectrum.sector_in_vertex"]["residual"] < 1e-10
            assert rows["spectrum.sector_commute"]["pass"] and rows["spectrum.sector_in_vertex"]["pass"]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sector_block_against_dense_vertex_spectrum(n, tmp_path, chain_identity):
    # the dense eigenvalues of the vertex transfer matrix, which the sector path
    # no longer builds, as the oracle of the block's eigenvalues and of the matches
    for seed in range(3):
        for s in constrained_sectors(n):
            rows, extra = spectrum_report(n, s, seed, tmp_path)
            tol = rows["spectrum.sector_in_vertex"]["tolerance"]
            p = bt.apply_constraints(generic_params(n), bt.BoundaryConstraint(s))
            mu = complex(*extra["mu"])
            dense = np.linalg.eigvals(vx.transfer_xxz(mu, p, chain_identity(p)))
            eye = np.eye(comb(n, (n - s) // 2), dtype=complex)
            block = sos.sector_transfer(mu, bt.branch_theta("b1", p), "SOS1", p, s, eye)
            for lam in np.linalg.eigvals(block):
                assert np.min(np.abs(dense - lam)) < 1e-10 * abs(lam)
            for sol in extra["solutions"]:
                lam = complex(*sol["lambda"])
                dist = np.min(np.abs(dense - lam)) / abs(lam)
                assert (dist < tol) == (sol["match_residual"] < tol)
            assert extra["matched"] == sum(sol["match_residual"] < tol for sol in extra["solutions"])


@pytest.mark.parametrize("n, s", [(3, 1), (4, -2), (6, 2)])
def test_constrained_spectrum_reports_sector_and_pole_gap(n, s, tmp_path):
    _, extra = spectrum_report(n, s, 0, tmp_path)
    p = bt.apply_constraints(generic_params(n), bt.BoundaryConstraint(s))
    assert extra["sector_dimension"] == comb(n, (n - s) // 2)
    # the unmatched count is of the sector block's eigenvalues, the ones a
    # Bethe solution of this sector can match
    assert extra["transfer_dimension"] == 2**n
    assert extra["unmatched_spectrum"] == extra["sector_dimension"] - extra["matched"]
    assert extra["min_pole_gap"] == min_pole_gap(p, [complex(*extra["mu"])])


def test_spectrum_without_constraints_is_config_error(tmp_path, capsys):
    # the dense vertex spectrum has no sector block for the Bethe states to diagonalize
    assert cli.main(["spectrum", "--n", "4", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("n, s", [(3, 1), (4, 2), (5, -3), (8, 2)])
def test_sector_in_vertex_fails_on_the_opposite_sector(n, s, monkeypatch, tmp_path):
    # the block of sector -s is not gauge-equivalent to the vertex transfer matrix
    # under the constraints of sector s, so its gauge images are no eigenstates;
    # nor does the height condition of sector s hold there, so its blocks at
    # two points do not commute
    block = sos.sector_transfer
    monkeypatch.setattr(sos, "sector_transfer", lambda mu, theta, which, p, s, v: block(mu, theta, which, p, -s, v))
    rows, _ = spectrum_report(n, s, 0, tmp_path, expect=4)
    for name in ("spectrum.sector_commute", "spectrum.sector_in_vertex"):
        assert not rows[name]["pass"]
        assert rows[name]["residual"] > 0.1


@pytest.mark.parametrize("entry", [(0, 0), (1, 1)])
@pytest.mark.parametrize("branch, n, m", [("b1", 4, 1), ("b1", 5, 2), ("p1", 4, 1), ("p1", 5, 2)])
def test_sos_eigenstate_rows_see_a_defect_of_k_tilde(branch, n, m, entry, monkeypatch, tmp_path):
    # the packed SOS rows read rounding; a relative 1e-9 defect in a
    # diagonal entry of the dressed boundary K~, which the sector kernel
    # keeps, lifts every state's row above 1e-10 (to 7e-10 .. 9e-9 here)
    args = ["bethe", "--branch", branch, "--n", str(n), "--m", str(m), "--seed", "0"]
    code, text = run_cli(args, tmp_path)
    assert code == 0
    clean = [r for r in rows_and_summary(text)[0] if r["check"].endswith(".sos_eigenstate")]
    assert clean and all(r["residual"] < 1e-12 for r in clean)
    tilde_k2 = sos.tilde_k2

    def defective(*a, **k):
        kt = tilde_k2(*a, **k)
        kt[entry] *= 1 + 1e-9
        return kt

    monkeypatch.setattr(sos, "tilde_k2", defective)
    code, text = run_cli(args, tmp_path)
    rows = [r for r in rows_and_summary(text)[0] if r["check"].endswith(".sos_eigenstate")]
    assert len(rows) == len(clean)
    assert all(r["residual"] > 1e-10 for r in rows), [r["residual"] for r in rows]


@pytest.mark.parametrize("entry", [(0, 0), (1, 1)])
@pytest.mark.parametrize("n, s", [(3, 1), (4, 2), (5, -1), (6, 0)])
def test_sector_commute_sees_a_defect_of_k_tilde(n, s, entry, monkeypatch, tmp_path):
    # the sector blocks at two points commute to rounding; a relative 1e-6
    # defect in a diagonal entry of the dressed boundary K~ breaks the
    # commuting family, and the row fails with exit 4
    tilde_k2 = sos.tilde_k2

    def defective(*a, **k):
        kt = tilde_k2(*a, **k)
        kt[entry] *= 1 + 1e-6
        return kt

    monkeypatch.setattr(sos, "tilde_k2", defective)
    rows, _ = spectrum_report(n, s, 0, tmp_path, expect=4)
    assert not rows["spectrum.sector_commute"]["pass"]
    assert rows["spectrum.sector_commute"]["residual"] > 1e-7


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


def _benchmark_commands():
    spec = importlib.util.spec_from_file_location("perfbench_run", Path(__file__).parents[1] / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return [c for commands in run.WORKLOADS.values() for c in commands]


@pytest.mark.parametrize("args", _benchmark_commands(), ids=" ".join)
def test_benchmark_command_same_bytes_cold_and_warm(args, tmp_path, capsys):
    # the first run builds every gate-list plan and layout, the second
    # replays them; the reports (none on a solver failure) and stderr must
    # not tell the two apart
    caches = (tn._plan, tn._charge_layout, sos._chain_layout)
    for cache in caches:
        cache.cache_clear()

    def run(name):
        code, text = run_cli(args, tmp_path, name)
        return code, strip_wall_time(text) if text else text, capsys.readouterr().err

    cold = run("cold.jsonl")
    built = tn._plan.cache_info().misses
    assert run("warm.jsonl") == cold
    assert tn._plan.cache_info().misses == built


def test_commands_in_one_process_match_each_run_alone(tmp_path, capsys):
    # the parser is built once per process: no parse state may carry from one
    # command to the next, such as a refused run's --sector into the bethe
    # run after it, which takes its family's sector.  Each verify draws its
    # own trials and gate lists, none kept from the verify run before it
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"N": 3, "seed": 2, "trials": 3, "delta": [0.7, -0.2]}))
    commands = [
        ["partition", "--kind", "cplus", "--method", "both", "--n", "3"],
        ["bethe", "--n", "4", "--m", "1", "--sector", "0"],
        ["bethe", "--n", "4", "--m", "1"],
        ["verify", "--suite", "vertex", "--n", "2", "--trials", "2", "--seed", "4"],
        ["verify", "--n", "3", "--trials", "3", "--seed", "1"],
        ["verify", "--config", str(cfg)],
    ]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for i, args in enumerate(commands):
        code, text = run_cli(args, tmp_path, f"shared{i}.jsonl")
        shared = (code, strip_wall_time(text) if text else text, capsys.readouterr().err)
        out = tmp_path / f"alone{i}.jsonl"
        alone = subprocess.run(
            [sys.executable, "-m", "sosxxz.cli", *args, "--out", str(out)], capture_output=True, text=True, env=env
        )
        text = out.read_text() if out.exists() else ""
        assert shared == (alone.returncode, strip_wall_time(text) if text else text, alone.stderr), args
        assert code == (2 if "--sector" in args else 0)


def _check_by_check(p, seed, trials, commutation_alone):
    """Every verify residual from the loop each check once ran on its own: a
    generator seeded afresh per check, each trial's draws made again for it,
    no gate list shared, and each exchange relation evaluated alone."""
    residuals = {}
    for check, residual in vx.VERTEX_RESIDUALS.items():
        rng = np.random.default_rng(seed)
        values = [residual(sample_points(rng, p, 3), p) for _ in range(trials)]
        residuals[f"vertex.{check}"] = float(np.max(values, initial=0.0))
    thetas = (p.theta("minus"), p.theta("plus"))
    relation = {"commutation_ab": "A", "commutation_dtb": "D"}
    for check, residual in sos.SOS_RESIDUALS.items():
        rng = np.random.default_rng(seed)

        def draw_theta():
            for _ in range(10_000):
                t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                if min_pole_gap(p, (), [t]) > SAMPLE_MARGIN:
                    return t
            raise AssertionError("no generic dynamical parameter")

        values = []
        for _ in range(trials):
            lams, theta = sample_points(rng, p, 3, thetas=thetas), draw_theta()
            if check in relation:
                values.append(commutation_alone(lams[0], lams[1], p, relation[check]))
            else:
                values.append(residual(sos.SosTrial(lams, theta), p))
        residuals[f"sos.{check}"] = float(np.max(values, initial=0.0))
    return residuals


@pytest.mark.parametrize("n", range(1, 7))
def test_shared_trials_equal_check_by_check(n, commutation_alone):
    # one draw per trial and suite, one gate list per (lam, theta, kind, p)
    # and one exchange evaluation for both its checks: every residual keeps
    # its bits
    p = generic_params(n)
    for seed in range(3):
        for trials in range(1, 5):
            rows, _ = cli.run_verify(cli.RunConfig(params=p, seed=seed, trials=trials), "all")
            assert {r["check"]: r["residual"] for r in rows} == _check_by_check(p, seed, trials, commutation_alone)


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


def test_theta_on_a_pole_fails_the_sos_draws(tmp_path, capsys):
    # theta = delta - zeta = 2 eta leaves no generic spectral point
    p = generic_params(4)
    delta = p.zeta + 2 * p.eta
    cfg = tmp_path / "theta.json"
    cfg.write_text(json.dumps({"N": 4, "delta": [delta.real, delta.imag]}))
    assert run_cli(["verify", "--suite", "sos", "--config", str(cfg)], tmp_path) == (3, "")
    assert capsys.readouterr().err == "degenerate parameters: could not sample generic spectral points\n"


@pytest.mark.parametrize("xi2", [[0.11, -0.07], [-0.11, 0.07]], ids=["xi2=xi1", "xi2=-xi1"])
@pytest.mark.parametrize("method", ["det", "both", "contract"])
def test_coincident_inhomogeneities_are_regular(xi2, method, tmp_path, capsys):
    # the divided differences cancel the determinant's xi-pair factor
    # sinh(xi_2 + xi_1) sinh(xi_2 - xi_1), so neither path has a pole there
    cfg = tmp_path / "xi.json"
    cfg.write_text(json.dumps({"N": 2, "xi": [[0.11, -0.07], xi2]}))
    code, text = run_cli(["partition", "--method", method, "--config", str(cfg)], tmp_path)
    assert code == 0
    assert capsys.readouterr().err == ""
    rows, _ = rows_and_summary(text)
    assert rows and all(r["pass"] for r in rows)
    if method == "both":
        (agree,) = [r["residual"] for r in rows if r["check"].endswith("det_vs_contract")]
        assert agree < 1e-12


def test_main_calls_functions_wrapped_after_import(monkeypatch, tmp_path):
    # a tracer wraps module attributes after import; the command table and
    # the suite table must look them up when a command runs
    calls = {}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((cli, "run_partition"), (params, "identity_suite")):
        counting(module, name)
    assert run_cli(["verify", "--n", "2", "--trials", "1"], tmp_path)[0] == 0
    assert run_cli(["partition", "--n", "2"], tmp_path)[0] == 0
    assert calls == {"identity_suite": 2, "run_partition": 1}


@pytest.mark.parametrize("n, trials, builds", [(7, 2, 36), (5, 20, 360)])
def test_sos_suite_builds_each_trial_gate_list_once(n, trials, builds, monkeypatch, tmp_path):
    # every check of a trial that reads a monodromy at the trial's points
    # takes it from the trial's memo, so no (lam, theta, kind, p) list is built twice
    calls = []
    build = sos.dyn_monodromy_gates
    monkeypatch.setattr(sos, "dyn_monodromy_gates", lambda *a, **k: calls.append(a) or build(*a, **k))
    args = ["verify", "--suite", "sos", "--n", str(n), "--trials", str(trials)]
    assert run_cli(args, tmp_path)[0] == 0
    assert len(calls) == len(set(calls)) == builds


def test_pole_at_one_charge_is_degenerate(tmp_path, capsys):
    # delta - zeta = 2 eta puts a pole at the charge -2 of the first gate of
    # each N = 3 monodromy; the Bethe state's dynamical R stack finds it
    p = generic_params(3)
    delta = p.zeta + 2 * p.eta
    cfg = tmp_path / "pole.json"
    cfg.write_text(json.dumps({"N": 3, "delta": [delta.real, delta.imag]}))
    assert run_cli(["bethe", "--n", "3", "--branch", "b1", "--m", "1", "--config", str(cfg)], tmp_path)[0] == 3
    assert capsys.readouterr().err == "degenerate parameters: |sinh(theta)| <= 1.0e-08 in dynamical R\n"


@pytest.mark.parametrize("coupling", ["zeta", "delta", "zeta_bar"])
def test_spectrum_runs_at_zero_boundary_couplings(coupling, tmp_path):
    # spectrum builds no open-chain boundary field, the one construction that
    # divided by sinh(zeta) sinh(delta); the constraints overwrite delta_bar
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({coupling: 0}))
    code, text = run_cli(["spectrum", "--constrained", "--n", "2", "--config", str(cfg)], tmp_path)
    assert code == 0
    rows, summary = rows_and_summary(text)
    assert rows and all(r["pass"] for r in rows)
    assert summary["all_pass"] is True


def test_exit_code_tolerance_failure(tmp_path):
    code, text = run_cli(
        ["verify", "--suite", "vertex", "--n", "1", "--seed", "7", "--trials", "2", "--tol-scale", "1e-18"],
        tmp_path,
    )
    assert code == 4
    rows, summary = rows_and_summary(text)
    assert not summary["all_pass"]


def test_exit_code_solver_failure(tmp_path):
    # an in-range root count whose seed-0 starts all miss (seeds 1 and 2 find
    # solutions), so the multi-start solve comes back empty
    args = ["bethe", "--constrained", "--n", "4", "--sector", "0", "--branch", "b1", "--m", "2", "--seed", "0"]
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 5


def _ledger_sums_hold(ledger):
    batch = ("converged", "bad_y", "bad_jacobian", "halvings_exhausted", "runaway", "iteration_cap")
    filters = ("re_max", "fixed_point", "separation", "duplicate", "residual", "accepted")
    assert sorted(ledger) == sorted(bt.LEDGER)
    assert ledger["starts"] == sum(ledger[k] for k in batch)
    assert ledger["converged"] == sum(ledger[k] for k in filters)


def test_bethe_and_spectrum_report_the_newton_ledger(tmp_path):
    code, text = run_cli(["bethe", "--constrained", "--sector", "2", "--n", "6", "--branch", "b1", "--m", "2"],
                         tmp_path, "bethe.jsonl")
    assert code == 0
    extra = rows_and_summary(text)[1]["extra"]
    _ledger_sums_hold(extra["newton"])
    assert extra["newton"]["accepted"] == len(extra["solutions"])
    code, text = run_cli(["spectrum", "--constrained", "--n", "4"], tmp_path, "spectrum.jsonl")
    assert code == 0
    extra = rows_and_summary(text)[1]["extra"]
    _ledger_sums_hold(extra["newton"])
    assert extra["newton"]["accepted"] == extra["solutions_found"] == len(extra["solutions"])


def test_solver_failure_prints_the_newton_ledger(tmp_path, capsys):
    args = ["bethe", "--constrained", "--n", "4", "--sector", "0", "--branch", "b1", "--m", "2"]
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 5
    err = capsys.readouterr().err
    prefix = "solver failed: no verified b1 solutions with M = 2 (Newton ledger: "
    assert err.startswith(prefix) and err.endswith(")\n") and len(err.splitlines()) == 1
    ledger = {k: int(v) for k, v in (item.split() for item in err[len(prefix):-2].split(", "))}
    _ledger_sums_hold(ledger)
    assert ledger["starts"] == bt.N_STARTS and ledger["accepted"] == 0


def test_sector_flag_wins_over_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 1, "sector_s": 2, "seed": 4}))
    code, text = run_cli(["partition", "--n", "1", "--config", str(cfg_path), "--sector", "0"], tmp_path)
    assert code == 0
    _, summary = rows_and_summary(text)
    assert summary["config"]["sector_s"] == 0
    assert summary["config"]["seed"] == 4


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "all", "--n", "2"],
        ["bethe", "--branch", "b1", "--m", "1", "--n", "2"],
        ["spectrum", "--constrained", "--n", "2"],
        ["partition", "--kind", "bminus", "--n", "2"],
    ],
    ids=lambda args: args[0],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_config_error(args, source, tmp_path, capsys):
    # numpy's generators take no negative seed, so it is refused up front
    if source == "flag":
        given = ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -3}))
        given = ["--config", str(cfg)]
    assert cli.main([*args, *given, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: seed")


def test_unwritable_out_path_is_config_error(tmp_path, capsys):
    # a directory that does not exist: one message line, no traceback
    out = tmp_path / "missing" / "x.json"
    assert cli.main(["verify", "--suite", "vertex", "--n", "1", "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write the report") and err.count("\n") == 1


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
        ["verify", "--n", "20"],
        ["verify", "--n", "30"],
        ["bethe", "--m", "1", "--n", "30"],
        ["partition", "--n", "40"],
        ["verify", "--n", "700"],
    ],
)
def test_dense_budget_is_config_error(args, monkeypatch, tmp_path, capsys):
    # refused before any matrix is built: the (2^(N+2), 8) probe block at
    # N = 20 is 537 MB, and a gate stack of the N = 40 block string holds 2^43 entries, 141 TB;
    # at N = 700 the byte count is past the float range
    def unreachable(*args, **kwargs):
        raise AssertionError("the run went past the dense budget")

    monkeypatch.setattr(cli, "sample_points", unreachable)
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--n", "20"],
        ["bethe", "--m", "1", "--n", "12"],
        ["spectrum", "--constrained", "--n", "12"],
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


@pytest.mark.parametrize("m", ["0", "-1", "3", "20", "50"])
def test_bethe_without_roots_is_config_error(m, tmp_path, capsys):
    # fewer than one root, or more roots than the N = 2 sites: such a state is exactly zero
    assert cli.main(["bethe", "--m", m, "--n", "2", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: M = ")


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--constrained", "--n", "3"],
        ["bethe", "--constrained", "--n", "3", "--m", "1"],
        ["bethe", "--constrained", "--n", "4", "--m", "1", "--sector", "4"],
        ["spectrum", "--constrained", "--n", "4", "--sector", "4"],
        ["bethe", "--constrained", "--n", "3", "--m", "3", "--sector", "-3"],
    ],
)
def test_bad_sector_is_config_error(args, tmp_path, capsys):
    # the boundary constraints need N - s even and |s| < N, and the M roots
    # of a constrained bethe run must reach its sector
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "args, implied",
    [
        (["--n", "4", "--m", "1", "--sector", "0"], 2),
        (["--n", "3", "--m", "1"], 1),
        (["--n", "6", "--m", "2", "--sector", "2", "--branch", "b2"], -2),
        (["--n", "6", "--m", "4", "--sector", "-2", "--branch", "p2"], 2),
    ],
)
def test_constrained_bethe_off_its_family_sector_is_config_error(args, implied, tmp_path, capsys):
    # M roots of a family reach one sector only: N - 2M for b1 and p1, 2M - N for b2 and p2
    assert cli.main(["bethe", "--constrained", *args, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sector s = ") and err.endswith(f"make sector {implied}\n")


@pytest.mark.parametrize(
    "args, config, implied",
    [
        (["--n", "4", "--m", "1", "--sector", "0"], {}, 2),
        (["--n", "6", "--m", "2", "--sector", "2", "--branch", "b2"], {}, -2),
        (["--n", "4", "--m", "1"], {"sector_s": 0}, 2),
    ],
)
def test_unconstrained_bethe_off_its_family_sector_is_config_error(args, config, implied, tmp_path, capsys):
    # an explicit sector, from a flag or the config, must be the family's one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["bethe", *args, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sector s = ") and err.endswith(f"make sector {implied}\n")


@pytest.mark.parametrize("branch, n, m", [("b1", 4, 1), ("p1", 5, 1), ("p2", 3, 2)])
def test_unconstrained_bethe_reports_its_family_sector(branch, n, m, tmp_path):
    args = ["bethe", "--branch", branch, "--n", str(n), "--m", str(m)]
    sector = bt.family_sector(branch, m, n)
    code, text = run_cli(args, tmp_path, "implied.jsonl")
    given_code, given = run_cli([*args, "--sector", str(sector)], tmp_path, "given.jsonl")
    assert code == given_code == 0
    _, summary = rows_and_summary(text)
    assert summary["config"]["sector_s"] == sector
    assert {sol["sector"] for sol in summary["extra"]["solutions"]} == {sector}
    assert strip_wall_time(text) == strip_wall_time(given)


def test_root_count_is_checked_before_the_sector(tmp_path, capsys):
    args = ["bethe", "--constrained", "--n", "2", "--m", "3", "--sector", "5", "--out", str(tmp_path / "x")]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith("config error: M = 3 ")


@pytest.mark.parametrize(
    "eta, args",
    [
        (800, ["verify"]),
        (800, ["partition"]),
        (300, ["spectrum", "--constrained", "--n", "3", "--sector", "1"]),
        (100, ["verify", "--n", "3", "--trials", "1"]),
    ],
)
def test_overflow_is_degenerate(eta, args, tmp_path, capsys):
    # sinh(800) overflows a float; at eta = 100 or 300 an operator product
    # does, which raises instead of warning, so stderr is the one message line
    cfg = tmp_path / "eta.json"
    cfg.write_text(json.dumps({"eta": [eta, 0]}))
    assert cli.main([*args, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("degenerate parameters:")


def test_nan_residual_is_degenerate(tmp_path):
    # at eta = 100 the dual reflection algebra's gate products overflow to NaN
    cfg = tmp_path / "eta.json"
    cfg.write_text(json.dumps({"eta": [100, 0]}))
    code, text = run_cli(["verify", "--n", "3", "--suite", "vertex", "--trials", "1", "--config", str(cfg)], tmp_path)
    assert code == 3
    assert "NaN" not in text


@pytest.mark.parametrize(
    "command, entries",
    [(["spectrum", "--constrained"], 4**6), (["partition"], 2**8), (["verify"], 2**10)],
    ids=["spectrum", "partition", "verify"],
)
def test_spectrum_obeys_dense_budget(command, entries, monkeypatch, tmp_path, capsys):
    # at N = 5 the spectrum entry is 4^6, each two-leg gate of the partition
    # block string is a stack of 16 4 x 4 blocks, and the verify probe block
    # on two auxiliary legs and the sites is 128 x 8; the budget is one entry
    # short of each.  Sector 1 keeps N - s even, which spectrum needs
    monkeypatch.setattr(cli, "DENSE_BUDGET", 16 * (entries - 1))
    assert cli.main([*command, "--n", "5", "--sector", "1", "--out", str(tmp_path / "x")]) == 2
    assert "over the" in capsys.readouterr().err


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
        {"tolerances": {"idenity": 1e-6}},
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


def test_spectrum_without_roots_is_config_error(tmp_path, capsys):
    # s = N would give M = 0 roots, and s = -10 at N = 4 M = 7 > N; the
    # constraints refuse both sectors before any matrix is built
    for n, s in ((2, 2), (4, -10)):
        args = ["spectrum", "--constrained", "--n", str(n), "--sector", str(s), "--out", str(tmp_path / "x")]
        assert cli.main(args) == 2
        assert capsys.readouterr().err.startswith("config error: sector |s|")


def test_csv_format(tmp_path):
    out = tmp_path / "rows.csv"
    code = cli.main(["verify", "--suite", "vertex", "--n", "1", "--seed", "7", "--trials", "2",
                     "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check,params_digest,residual,tolerance,pass"
    assert len(lines) > 1
