from cmath import cosh, sinh

import numpy as np
import pytest

from sosxxz import bethe as bt
from sosxxz import sos
from sosxxz import vertex as vx
from sosxxz.errors import BadSector, ConfigError, DegenerateParameter, NullState
from sosxxz.params import generic_params, sample_points


def test_apply_constraints_direct_substitution():
    p = generic_params(2).replace(eta=0.7, tau=0.3)
    pc = bt.apply_constraints(p, bt.BoundaryConstraint(s=0, n=0, m=0))
    assert pc.tau_bar == pytest.approx(1.0)
    assert (pc.delta_bar - pc.zeta_bar) == pytest.approx(p.delta - p.zeta)


def test_constraints_solve_cosh_conditions():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = generic_params(2).replace(
            delta=complex(rng.uniform(0.4, 1.2), rng.uniform(-0.5, 0.5)),
            zeta=complex(rng.uniform(0.4, 1.2), rng.uniform(-0.5, 0.5)),
            tau=complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
        )
        pc = bt.apply_constraints(p, bt.BoundaryConstraint(s=0, n=1, m=1))
        base = pc.delta - pc.zeta
        lhs = cosh(pc.delta_bar - pc.zeta_bar)
        assert abs(lhs - cosh(base + pc.tau_bar - pc.tau - pc.eta)) < 1e-13
        assert abs(lhs - cosh(base - pc.tau_bar + pc.tau + pc.eta)) < 1e-13


def test_bad_sector():
    p = generic_params(2)
    with pytest.raises(BadSector):
        bt.apply_constraints(p, bt.BoundaryConstraint(s=2))
    with pytest.raises(BadSector):
        bt.apply_constraints(p, bt.BoundaryConstraint(s=1))


def test_y2_is_swapped_y1(p2):
    lam = 0.21 + 0.12j
    roots = (lam,)
    swapped = p2.replace(delta=p2.zeta, zeta=p2.delta, delta_bar=p2.zeta_bar, zeta_bar=p2.delta_bar)
    assert bt.bethe_y("b2", lam, roots, 0, p2) == bt.bethe_y("b1", lam, roots, 0, swapped)


def test_lambda2_is_swapped_lambda1(p2):
    mu = 0.17 - 0.23j
    roots = (0.31 + 0.21j,)
    swapped = p2.replace(delta=p2.zeta, zeta=p2.delta, delta_bar=p2.zeta_bar, zeta_bar=p2.delta_bar)
    assert bt.branch_eigenvalue("b2", mu, roots, p2) == bt.branch_eigenvalue("b1", mu, roots, swapped)


def test_lambda1_second_term_vanishes_at_xi(p2):
    roots = (0.31 + 0.21j,)
    mu = p2.xi[0]
    full = bt.branch_eigenvalue("b1", mu, roots, p2)
    d, z, db, zb = p2.delta, p2.zeta, p2.delta_bar, p2.zeta_bar
    eta = p2.eta
    t1 = (
        sinh(zb - mu) * sinh(db + mu) * sinh(d - mu) * sinh(2 * mu + 2 * eta)
        / (sinh(zb - mu - eta) * sinh(db - mu - eta) * sinh(d + mu) * sinh(2 * mu + eta))
    )
    for li in roots:
        t1 *= sinh(mu + li) * sinh(mu - li - eta) / (sinh(mu + li + eta) * sinh(mu - li))
    for xj in p2.xi:
        t1 *= sinh(mu + xj + eta) * sinh(mu - xj + eta)
    assert abs(full - t1) < 1e-13 * abs(t1)


def test_solver_finds_verified_solutions(constrained2):
    sols = bt.find_bethe_solutions("b1", 1, constrained2, seed=1)
    assert len(sols) >= 1
    for sol in sols:
        assert max(sol.residuals) < 1e-10
        assert sol.sector == 0


def test_root_reflection_invariance(constrained2):
    p = constrained2
    sol = bt.find_bethe_solutions("b1", 1, p, seed=1)[0]
    lam = sol.roots[0]
    reflected = (-lam - p.eta,)
    r0 = bt.bethe_residual("b1", sol.roots, p)
    r1 = bt.bethe_residual("b1", reflected, p)
    assert max(r1) < max(max(r0) * 10, 1e-9)


@pytest.mark.parametrize("m", [0, -1])
def test_solver_without_roots_is_config_error(m, constrained2):
    with pytest.raises(ConfigError):
        bt.find_bethe_solutions("b1", m, constrained2)


def test_sector_count_sanity(constrained2):
    sols = bt.find_bethe_solutions("b1", 1, constrained2, seed=1)
    sector_dim = len(sos.sector_indices(constrained2.N)[0])
    assert len(sols) <= sector_dim


def test_solver_no_convergence(constrained2):
    # a start far out on the real axis runs away; the search comes back empty
    assert bt.find_bethe_solutions("b1", 1, constrained2, guesses=[[100.0 + 0.0j]]) == []


def test_eigenvalue_matches_dense_diagonalization(constrained2):
    p = constrained2
    mu = 0.17 - 0.23j
    theta = p.delta - p.zeta
    sols = bt.find_bethe_solutions("b1", 1, p, seed=1)
    idx = sos.sector_indices(p.N)[0]
    block = sos.sos_transfer(mu, theta, "SOS1", p)[np.ix_(idx, idx)]
    eigs = np.linalg.eigvals(block)
    for sol in sols:
        lam = bt.branch_eigenvalue("b1", mu, sol.roots, p)
        assert np.min(np.abs(eigs - lam)) / abs(lam) < 1e-8


@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_all_families_give_eigenstates(branch, constrained2):
    p = constrained2
    spec = bt.BRANCHES[branch]
    m = 1  # N = 2, s = 0 gives M = 1 for every family
    sols = bt.find_bethe_solutions(branch, m, p, seed=2)
    assert sols, branch
    rng = np.random.default_rng(4)
    mus = sample_points(rng, p, 2)
    theta = bt.branch_theta(branch, p)
    for sol in sols:
        psi = bt.bethe_state(branch, sol, p)
        for mu in mus:
            lam = bt.branch_eigenvalue(branch, mu, sol.roots, p)
            t = sos.sos_transfer(mu, theta, spec.sos_kind, p)
            assert np.linalg.norm(t @ psi - lam * psi) / (np.linalg.norm(psi) * abs(lam)) < 1e-8
            v = bt.vertex_eigenstate(branch, sol, p)
            tv = vx.transfer_xxz(mu, p)
            assert np.linalg.norm(tv @ v - lam * v) / (np.linalg.norm(v) * abs(lam)) < 1e-8


@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_too_many_roots_is_null_state(branch, p2):
    # N + 2 creation blocks leave every sector the chain can reach, so the
    # charge-conserving gates give an exactly zero state
    roots = (0.21 + 0.12j, -0.33 + 0.27j, 0.41 - 0.18j, -0.52 - 0.09j)
    sol = bt.BetheSolution(branch, roots, len(roots), (0.0,) * len(roots), 0)
    with pytest.raises(NullState):
        bt.bethe_state(branch, sol, p2)


def test_minus_and_plus_families_build_the_same_states(constrained2):
    p = constrained2
    sols_m = bt.find_bethe_solutions("b1", 1, p, seed=2)
    sols_p = bt.find_bethe_solutions("p1", 1, p, seed=2)
    roots_m = sorted((round(s.roots[0].real, 8), round(s.roots[0].imag, 8)) for s in sols_m)
    roots_p = sorted((round(s.roots[0].real, 8), round(s.roots[0].imag, 8)) for s in sols_p)
    assert roots_m == roots_p
    sol = sols_m[0]
    a = bt.vertex_eigenstate("b1", sol, p)
    b = bt.vertex_eigenstate("p1", bt.BetheSolution("p1", sol.roots, 1, sol.residuals, sol.sector), p)
    overlap = 1 - abs(np.conj(a) @ b) ** 2 / ((np.conj(a) @ a).real * (np.conj(b) @ b).real)
    assert abs(overlap) < 1e-8


def test_plus_family_gauge_binding(constrained3):
    """At s = 1 the two dynamical parameters differ; only the barred pair
    (theta_bar, tau_bar) sends plus states to vertex eigenstates."""
    p = constrained3
    mu = 0.17 - 0.23j
    sols = bt.find_bethe_solutions("p1", 1, p, seed=5)
    assert sols
    sol = sols[0]
    lam = bt.branch_eigenvalue("p1", mu, sol.roots, p)
    tv = vx.transfer_xxz(mu, p)
    good = bt.vertex_eigenstate("p1", sol, p)  # defaults to (theta_bar, tau_bar)
    r_good = np.linalg.norm(tv @ good - lam * good) / (np.linalg.norm(good) * abs(lam))
    assert r_good < 1e-8
    bad = sos.gauge_row(p.delta - p.zeta, p.tau_bar, "plus", p) @ bt.bethe_state("p1", sol, p)
    r_bad = np.linalg.norm(tv @ bad - lam * bad) / (np.linalg.norm(bad) * abs(lam))
    assert r_bad > 1e-3


def test_energy_single_root_closed_form():
    p = generic_params(2)
    c1v = vx.c1(p)
    lam = -p.eta / 2 + 0.3j  # a generic point, then the closed-form point
    sol = bt.BetheSolution("b1", (-p.eta / 2 + 0.5,), 1, (0.0,), 0)
    # epsilon at lam = -eta/2 equals -c1 sinh(eta) / sinh^2(eta/2)
    at = bt.BetheSolution("b1", (-p.eta / 2,), 1, (0.0,), 0)
    e = bt.energy(at, p) - c1v * p.N * cosh(p.eta) / sinh(p.eta)
    expect = -c1v * sinh(p.eta) / sinh(p.eta / 2) ** 2
    assert abs(e - expect) < 1e-12 * abs(expect)


def test_energy_reflection_invariant(constrained2):
    p = constrained2
    sol = bt.find_bethe_solutions("b1", 1, p, seed=1)[0]
    reflected = bt.BetheSolution("b1", tuple(-z - p.eta for z in sol.roots), 1, sol.residuals, 0)
    assert abs(bt.energy(sol, p) - bt.energy(reflected, p)) < 1e-12 * abs(bt.energy(sol, p))


def test_energy_pole_raises(p2):
    sol = bt.BetheSolution("b1", (0.0,), 1, (0.0,), 0)
    with pytest.raises(DegenerateParameter):
        bt.energy(sol, p2)


def test_hamiltonian_energy_matches_rayleigh(constrained2):
    p = constrained2.replace(xi=(0,) * constrained2.N)
    h_dir = vx.hamiltonian_direct(p)
    _, kappa = vx.hamiltonian(p)
    sols = bt.find_bethe_solutions("b1", 1, p, seed=3)
    assert len(sols) >= 2
    c1v = vx.c1(p)
    offsets = []
    for sol in sols:
        v = bt.vertex_eigenstate("b1", sol, p)
        rq = (np.conj(v) @ (h_dir @ v)) / (np.conj(v) @ v)
        he = bt.hamiltonian_energy("b1", sol, p, kappa)
        assert abs(rq - he) < 1e-7 * abs(rq)
        # the conventional energy formula is affine in the eigenvalue with slope
        # 2 sinh(eta) / c1; the measured offset must be state-independent
        e_disp = bt.energy(sol, p)
        offsets.append(rq - 2 * sinh(p.eta) / c1v * (e_disp - c1v * p.N * cosh(p.eta) / sinh(p.eta)))
    assert abs(offsets[0] - offsets[1]) < 1e-7 * max(abs(offsets[0]), 1.0)


def _fold(z):
    return complex(z.real, (z.imag + np.pi) % (2 * np.pi) - np.pi)


def _random_roots(rng, starts, m):
    return rng.uniform(-1, 1, (starts, m)) + 1j * rng.uniform(-1.4, 1.4, (starts, m))


@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_mismatch_matches_scalar_y(branch, m):
    p = bt.apply_constraints(generic_params(4), bt.BoundaryConstraint(s=0))
    roots = _random_roots(np.random.default_rng(10 * m + 1), 5, m)
    # a root at 0 makes its own factor sinh(lam_i + lam_i) vanish: y stays
    # nonzero only if the self term k = i is masked
    roots[0, 0] = 0
    f, ok = bt._log_mismatch(branch, roots, p)
    assert ok.all()
    for s, row in enumerate(roots):
        for i, lam in enumerate(row):
            a = bt.bethe_y(branch, lam, row, i, p)
            b = bt.bethe_y(branch, -lam - p.eta, row, i, p)
            assert abs(f[s, i] - _fold(np.log(a) - np.log(b))) < 1e-12 * max(abs(f[s, i]), 1.0)


@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_jacobian_matches_finite_differences(branch, m):
    p = bt.apply_constraints(generic_params(3), bt.BoundaryConstraint(s=1))
    roots = _random_roots(np.random.default_rng(m), 4, m)
    jac = bt._jacobian(branch, roots, p)
    h = 1e-6
    for k in range(m):
        shift = np.zeros(m)
        shift[k] = h
        up, ok_up = bt._log_mismatch(branch, roots + shift, p)
        down, ok_down = bt._log_mismatch(branch, roots - shift, p)
        assert ok_up.all() and ok_down.all()
        diff = up - down
        diff.imag = np.mod(diff.imag + np.pi, 2 * np.pi) - np.pi
        assert np.abs(jac[:, :, k] - diff / (2 * h)).max() < 1e-6 * max(np.abs(jac).max(), 1.0)


@pytest.mark.parametrize("broken", [0.0, np.nan])
def test_bad_jacobian_drops_only_its_start(broken, monkeypatch):
    p = bt.apply_constraints(generic_params(4), bt.BoundaryConstraint(s=0))
    starts = np.array(bt._start_grid(2, np.random.default_rng(0), 60, p.eta))
    clean = bt._newton_batch("b2", starts, p, 80, 1e-13)
    bad = next(k for k, roots in enumerate(clean) if roots is not None)
    jacobian, mismatch = bt._jacobian, bt._log_mismatch
    jac_sizes, mismatch_sizes = [], []

    def first_call_broken(branch, roots, p):
        jac = jacobian(branch, roots, p)
        if not jac_sizes:
            jac[bad] = broken  # all zero is singular; NaN is not finite
        jac_sizes.append(len(roots))
        return jac

    def counted(branch, roots, p):
        mismatch_sizes.append(len(roots))
        return mismatch(branch, roots, p)

    monkeypatch.setattr(bt, "_jacobian", first_call_broken)
    monkeypatch.setattr(bt, "_log_mismatch", counted)
    hit = bt._newton_batch("b2", starts, p, 80, 1e-13)
    # the start leaves the batch before the first line search
    assert mismatch_sizes[:2] == [len(starts), len(starts) - 1]
    assert jac_sizes[0] == len(starts)
    assert hit[bad] is None
    for k, (a, b) in enumerate(zip(clean, hit)):
        if k != bad:
            assert (a is None) == (b is None)
            assert a is None or np.abs(a - b).max() < 1e-12


# counts and 8-digit canonical roots at seed 0, recorded from the scalar
# per-start solver that the batched one replaced
PINNED_SOLUTIONS = {
    (4, 0, "b2"): [
        [(-0.15363084, -0.31003948), (0.40789336, 0.72435387)],
        [(0.58002119, 0.44658958), (0.77123539, -1.3825663)],
        [(-0.11253066, -0.52482954), (0.44859931, 0.53553873)],
    ],
    (6, 2, "b1"): [
        [(0.0194018, -0.99047567), (0.54365722, -0.44416935)],
        [(0.16988592, -1.02134818), (0.6662886, -0.16412238)],
        [(-0.08946119, -0.47070652), (0.61816813, -0.14815987)],
    ],
}
PINNED_SOLUTIONS[4, 0, "p2"] = PINNED_SOLUTIONS[4, 0, "b2"]
PINNED_SOLUTIONS[6, 2, "p1"] = PINNED_SOLUTIONS[6, 2, "b1"]


@pytest.mark.parametrize("n, s", [(4, 0), (6, 2)])
@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_pinned_solutions_at_seed_0(n, s, branch):
    p = bt.apply_constraints(generic_params(n), bt.BoundaryConstraint(s=s))
    m = (n - s) // 2 if bt.BRANCHES[branch].sign > 0 else (n + s) // 2
    sols = bt.find_bethe_solutions(branch, m, p, seed=0)
    got = [[(round(z.real, 8), round(z.imag, 8)) for z in sol.roots] for sol in sols]
    assert got == PINNED_SOLUTIONS.get((n, s, branch), [])
