"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line; tolerances are pinned here and nowhere
else.  Chain-level identity checks run at N = 3, matrix-level ones need
no chain.  All randomness is seeded.
"""

import json
import time

import numpy as np
import pytest

from sosxxz import bethe as bt
from sosxxz import cli
from sosxxz import partition as pt
from sosxxz import sos
from sosxxz import tensor as tn
from sosxxz import vertex as vx
from sosxxz.params import generic_params, identity_suite, sample_points

SEED = 20260808


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_identity_suites():
    t0 = time.monotonic()
    p3 = generic_params(3)
    vertex_checks = (
        "ybe", "unitarity", "z2", "crossing", "reflection", "dual_reflection",
        "reflection_algebra", "dual_reflection_algebra",
    )
    sos_checks = (
        "dybe1", "dybe2", "ice", "unitarity", "crossing1", "crossing2", "parity",
        "dyn_reflection", "dual_dyn_reflection", "sos_algebra", "dual_sos_algebra",
    )
    res = {
        **identity_suite({c: vx.VERTEX_RESIDUALS[c] for c in vertex_checks}, vx.vertex_trial, p3, SEED, 20),
        **identity_suite({c: sos.SOS_RESIDUALS[c] for c in sos_checks}, sos.sos_trial, p3, SEED, 20),
    }
    assert all(r < 1e-10 for r in res.values()), res
    worst = max(res.values())
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"identity suites took {elapsed:.1f}s"
    report(f"1 identity suites (vertex + height, 20 points each, N=3): "
           f"max residual {worst:.2e} < 1e-10, {elapsed:.1f}s: PASS")


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_2_gauge_layer(n):
    p = generic_params(n)
    checks = ("vertex_face1", "vertex_face2", "monodromy_gauge", "dual_monodromy_gauge", "vsos_state", "dual_vsos_state")
    res = identity_suite({c: sos.SOS_RESIDUALS[c] for c in checks}, sos.sos_trial, p, SEED, 8)
    assert all(r < 1e-10 for r in res.values()), res
    worst = max(res.values())
    report(f"2 gauge layer (vertex-face, monodromy gauge, double-row relations, N={n}): "
           f"max residual {worst:.2e} < 1e-10: PASS")


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_3_hamiltonian_reconstruction(n, hamiltonian, hamiltonian_direct, chain_identity):
    p = generic_params(n).replace(xi=(0,) * n)
    h_cand, kappa = hamiltonian(p)
    h_dir = hamiltonian_direct(p)
    resid = tn.max_abs(h_cand - h_dir - kappa * np.eye(2**n)) / tn.max_abs(h_cand)
    assert resid < 1e-8
    rng = np.random.default_rng(SEED)
    worst_comm = 0.0
    for mu in sample_points(rng, p, 5):
        t = vx.transfer_xxz(mu, p, chain_identity(p))
        comm = tn.rel_residual(h_dir @ t, t @ h_dir)
        assert comm < 1e-9
        worst_comm = max(worst_comm, comm)
    report(f"3 Hamiltonian reconstruction (N={n}): identity-shift residual {resid:.2e} < 1e-8, "
           f"[H, T(mu)] {worst_comm:.2e} < 1e-9 at 5 points: PASS")


def test_criterion_4_bethe_verification(sector_indices, chain_identity):
    p = bt.apply_constraints(generic_params(2), bt.BoundaryConstraint(s=0, n=0, m=0))
    sols = bt.find_bethe_solutions("b1", 1, p, seed=SEED)
    assert len(sols) >= 1, "no psi_-^1 solution found"
    theta = p.delta - p.zeta
    rng = np.random.default_rng(SEED)
    mus = sample_points(rng, p, 3)
    idx = sector_indices(p.N)[0]
    matched = 0
    for sol in sols:
        psi = bt.bethe_state("b1", [sol], p)[:, 0]
        v = bt.vertex_eigenstate("b1", psi, p)
        for mu in mus:
            lam = bt.branch_eigenvalue("b1", mu, sol.roots, p)
            ts = sos.sos_transfer(mu, theta, "SOS1", p, chain_identity(p))
            r_s = np.linalg.norm(ts @ psi - lam * psi) / (np.linalg.norm(psi) * abs(lam))
            assert r_s < 1e-8, r_s
            tv = vx.transfer_xxz(mu, p, chain_identity(p))
            r_v = np.linalg.norm(tv @ v - lam * v) / (np.linalg.norm(v) * abs(lam))
            assert r_v < 1e-8, r_v
        block = sos.sos_transfer(mus[0], theta, "SOS1", p, chain_identity(p))[np.ix_(idx, idx)]
        eigs = np.linalg.eigvals(block)
        lam0 = bt.branch_eigenvalue("b1", mus[0], sol.roots, p)
        dist = np.min(np.abs(eigs - lam0)) / abs(lam0)
        assert dist < 1e-8, dist
        matched += 1
    full = np.linalg.eigvals(vx.transfer_xxz(mus[0], p, chain_identity(p)))
    lam_found = [bt.branch_eigenvalue("b1", mus[0], s.roots, p) for s in sols]
    n_matched = sum(1 for e in full if any(abs(e - l) / abs(l) < 1e-8 for l in lam_found))
    report(f"4 Bethe verification (N=2, s=0): {len(sols)} psi_-^1 solutions verified; "
           f"{n_matched}/{len(full)} transfer eigenvalues matched "
           f"(incompleteness expected): PASS")


def test_criterion_5_partition_functions(closed_form_n1):
    t0 = time.monotonic()
    worst = {"inhomogeneous": 0.0, "homogeneous": 0.0}
    for n in range(1, 9):
        p = generic_params(n)
        # the homogeneous case: every xi_j equal to xi_1
        cases = {"inhomogeneous": p, "homogeneous": p.replace(xi=(p.xi[0],) * n)}
        for case, q in cases.items():
            for kind in pt.KINDS:
                for trial in range(10):
                    rng = np.random.default_rng(SEED + 100 * n + trial)
                    lams = sample_points(rng, q, n)
                    rel = pt.rel_disagreement(pt.z_determinant(q, lams, kind), pt.z_contraction(q, lams, kind))
                    assert rel < 1e-9, (case, n, kind, trial, rel)
                    worst[case] = max(worst[case], rel)
    p1 = generic_params(1)
    lam = 0.21 + 0.12j
    closed = closed_form_n1(lam, p1.xi[0], p1.delta, p1.zeta, p1.eta)
    assert abs(pt.z_determinant(p1, (lam,), "bminus") - closed) < 1e-12 * abs(closed)
    assert abs(pt.z_contraction(p1, (lam,), "bminus") - closed) < 1e-12 * abs(closed)
    prop_worst = 0.0
    for n in (2, 3):
        p = generic_params(n)
        rng = np.random.default_rng(SEED + n)
        lams = sample_points(rng, p, n)
        for name, res in pt.z_property_suite(p, lams, "bminus", seed=SEED)[0].items():
            tol = 1e-8 if name.startswith("degree") else 1e-9
            assert res < tol, (n, name, res)
            prop_worst = max(prop_worst, res)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"partition block took {elapsed:.1f}s"
    report(f"5 partition functions: det vs contraction {worst['inhomogeneous']:.2e} < 1e-9, "
           f"homogeneous xi {worst['homogeneous']:.2e} < 1e-9 "
           f"(4 kinds, N=1..8, 10 seeded sets each); N=1 closed form to 1e-12; "
           f"symmetry/crossing/recursions/degree worst {prop_worst:.2e}; {elapsed:.1f}s: PASS")


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_6_inter_algebra_relations(n, dense_symmetry, double_row_blocks):
    p = generic_params(n)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for lam in sample_points(rng, p, 5):
        worst = max(worst, sos.gamma_parity_residual(lam, p))
        worst = max(worst, sos.isomorphism_residual(lam, 0.63 + 0.29j, p))
        theta = p.delta_bar - p.zeta_bar
        cp = double_row_blocks(lam, theta, "plus", p)["C"]
        mapped = p.replace(delta=p.delta_bar, zeta=p.zeta_bar,
                           xi=tuple(-x for x in reversed(p.xi)))
        bm = double_row_blocks(-lam - p.eta, theta, "minus", mapped)["B"]
        gy, perm = dense_symmetry(tn.SY, n)
        worst = max(worst, tn.rel_residual(cp, gy @ perm @ bm @ perm.T @ gy))
    assert worst < 1e-10
    report(f"6 inter-algebra relations (parity + isomorphism, operator level, N={n}): "
           f"max residual {worst:.2e} < 1e-10: PASS")


def test_criterion_7_determinism(tmp_path):
    args = ["verify", "--suite", "all", "--n", "2", "--seed", "13", "--trials", "3"]
    outs = []
    for name in ("r1.jsonl", "r2.jsonl"):
        path = tmp_path / name
        assert cli.main([*args, "--out", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        summary = json.loads(lines[-1])
        summary.pop("wall_time")
        outs.append("\n".join(lines[:-1]) + json.dumps(summary, sort_keys=True))
    assert outs[0] == outs[1]
    report("7 determinism: repeated seeded runs byte-identical (wall_time aside): PASS")
