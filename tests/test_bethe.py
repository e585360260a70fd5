from cmath import cosh, sinh
from collections import Counter
from math import comb

import mpmath
import numpy as np
import pytest

from sosxxz import bethe as bt
from sosxxz import sos
from sosxxz import tensor as tn
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


def test_constraints_are_the_height_then_the_vertex_condition():
    p = generic_params(4)
    c = bt.BoundaryConstraint(s=2, n=1, m=-1)
    height, vertex = bt.height_condition(p, c), bt.vertex_condition(p, c)
    assert height == p.replace(delta_bar=height.delta_bar)
    assert vertex == p.replace(tau_bar=vertex.tau_bar)
    assert bt.apply_constraints(p, c) == p.replace(delta_bar=height.delta_bar, tau_bar=vertex.tau_bar)


@pytest.mark.parametrize("branch, sign", [("b1", 1), ("p1", 1), ("b2", -1), ("p2", -1)])
def test_family_sector(branch, sign):
    for n in range(1, 8):
        for m in range(1, n + 1):
            assert bt.family_sector(branch, m, n) == sign * (n - 2 * m)
    for m in (0, 4):
        with pytest.raises(ConfigError, match=f"^M = {m} Bethe roots"):
            bt.family_sector(branch, m, 3)


def _sos_and_vertex_residuals(branch, sols, p, sos_transfer, unpack):
    """The worst SOS and the worst vertex eigenpair residual of each solution
    over two points, the SOS one on the dense oracle ``sos_transfer``."""
    mus = sample_points(np.random.default_rng(4), p, 2)
    theta = bt.branch_theta(branch, p)
    out = []
    for sol in sols:
        packed = bt.bethe_state(branch, [sol], p)
        psi = unpack(p.N, sol.sector, packed)
        v = bt.vertex_eigenstate(branch, packed, sol.sector, p)
        worst = [0.0, 0.0]
        for mu in mus:
            lam = bt.branch_eigenvalue(branch, mu, sol.roots, p)
            images = ((sos_transfer(mu, theta, bt.BRANCHES[branch].sos_kind, p) @ psi, psi),
                      (vx.transfer_xxz(mu, p, v), v))
            worst = [max(w, np.linalg.norm(t - lam * x) / (np.linalg.norm(x) * abs(lam)))
                     for w, (t, x) in zip(worst, images)]
        out.append(worst)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_height_condition_alone_gives_sos_eigenstates(branch, n, sos_transfer, unpack):
    # delta_bar at the family's sector is all the SOS rows need; tau_bar stays
    # generic, so the gauge images are no vertex eigenstates
    found = 0
    for m in range(1, n + 1):
        p = bt.height_condition(generic_params(n), bt.BoundaryConstraint(bt.family_sector(branch, m, n)))
        sols = bt.find_bethe_solutions(branch, m, p, seed=0)
        found += len(sols)
        for sos_res, vertex_res in _sos_and_vertex_residuals(branch, sols, p, sos_transfer, unpack):
            assert sos_res < 1e-12
            assert vertex_res > 1e-3
    assert found


@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_generic_delta_bar_fails_the_sos_row(branch, sos_transfer, unpack):
    # the same search at the generic delta_bar solves its Bethe equations,
    # but their states are no eigenstates of the SOS transfer matrix
    p = generic_params(4)
    sols = bt.find_bethe_solutions(branch, 1, p, seed=0)
    assert sols
    for sos_res, _ in _sos_and_vertex_residuals(branch, sols, p, sos_transfer, unpack):
        assert sos_res > 1e-3


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


@pytest.mark.parametrize("m", [0, -1, 3, 50])
def test_solver_without_roots_is_config_error(m, constrained2):
    with pytest.raises(ConfigError):
        bt.find_bethe_solutions("b1", m, constrained2)


def test_sector_count_sanity(constrained2, sector_indices):
    sols = bt.find_bethe_solutions("b1", 1, constrained2, seed=1)
    sector_dim = len(sector_indices(constrained2.N)[0])
    assert len(sols) <= sector_dim


def test_solver_no_convergence(constrained2):
    # y overflows at the first mismatch of a start far out on the real axis, so
    # the batch drops it as bad_y (a runaway is a start that keeps growing past
    # RE_MAX, as in test_ledger_names_how_a_start_ended); the search comes back empty
    ledger = dict.fromkeys(bt.LEDGER, 0)
    assert bt.find_bethe_solutions("b1", 1, constrained2, guesses=[[100.0 + 0.0j]], ledger=ledger) == []
    assert ledger == {**dict.fromkeys(bt.LEDGER, 0), "starts": 1, "bad_y": 1}


def test_eigenvalue_matches_dense_diagonalization(constrained2, sector_indices, sos_transfer):
    p = constrained2
    mu = 0.17 - 0.23j
    theta = p.delta - p.zeta
    sols = bt.find_bethe_solutions("b1", 1, p, seed=1)
    idx = sector_indices(p.N)[0]
    block = sos_transfer(mu, theta, "SOS1", p)[np.ix_(idx, idx)]
    eigs = np.linalg.eigvals(block)
    for sol in sols:
        lam = bt.branch_eigenvalue("b1", mu, sol.roots, p)
        assert np.min(np.abs(eigs - lam)) / abs(lam) < 1e-8


@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_all_families_give_eigenstates(branch, constrained2, chain_identity, sos_transfer, unpack):
    p = constrained2
    spec = bt.BRANCHES[branch]
    m = 1  # N = 2, s = 0 gives M = 1 for every family
    sols = bt.find_bethe_solutions(branch, m, p, seed=2)
    assert sols, branch
    rng = np.random.default_rng(4)
    mus = sample_points(rng, p, 2)
    theta = bt.branch_theta(branch, p)
    for sol in sols:
        packed = bt.bethe_state(branch, [sol], p)[:, 0]
        psi = unpack(p.N, sol.sector, packed)
        for mu in mus:
            lam = bt.branch_eigenvalue(branch, mu, sol.roots, p)
            t = sos_transfer(mu, theta, spec.sos_kind, p)
            assert np.linalg.norm(t @ psi - lam * psi) / (np.linalg.norm(psi) * abs(lam)) < 1e-8
            v = bt.vertex_eigenstate(branch, packed, sol.sector, p)
            tv = vx.transfer_xxz(mu, p, chain_identity(p))
            assert np.linalg.norm(tv @ v - lam * v) / (np.linalg.norm(v) * abs(lam)) < 1e-8


@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_too_many_roots_is_null_state(branch, p2):
    # N + 2 creation blocks leave every sector the chain can reach, so the
    # charge-conserving gates give an exactly zero state
    roots = (0.21 + 0.12j, -0.33 + 0.27j, 0.41 - 0.18j, -0.52 - 0.09j)
    sol = bt.BetheSolution(branch, roots, len(roots), (0.0,) * len(roots), 0)
    with pytest.raises(NullState):
        bt.bethe_state(branch, [sol], p2)


@pytest.mark.parametrize("size", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("keep, null", [(1e-13, True), (1e-9, False)])
@pytest.mark.parametrize("branch", ["b1", "p2"])
def test_norm_floor_is_relative_to_the_column_growth(branch, keep, null, size, constrained2, monkeypatch):
    # each creation block keeps `keep` of its column's norm, the column
    # growing by `size`: the state is refused when it keeps under 1e-10 of
    # the growth, whatever the growth's size
    apply = sos.sector_block_column

    def leaky(*args, **kwargs):
        created, other = apply(*args, **kwargs)
        norm = np.linalg.norm(created)
        return size * keep * created, np.full_like(other, size * norm / np.sqrt(other.size))

    sol = bt.find_bethe_solutions(branch, 1, constrained2, seed=2)[0]
    monkeypatch.setattr(sos, "sector_block_column", leaky)
    if null:
        with pytest.raises(NullState, match="norm floor"):
            bt.bethe_state(branch, [sol], constrained2)
    else:
        assert np.any(bt.bethe_state(branch, [sol], constrained2))


def _state_alone(branch, sol, p, sector_column):
    """One solution's packed Bethe state, root by root through single packed
    ``sector_column`` calls: the reference of the batched ``bt.bethe_state``."""
    spec = bt.BRANCHES[branch]
    v, s = np.ones(1, dtype=complex), p.N if spec.reference == "up" else -p.N
    for lam in reversed(sol.roots):
        v, _ = sector_column(lam, bt.branch_theta(branch, p), spec.side, spec.creator, p, v, s)
        s += sos.BLOCK_SZ[spec.creator]
    assert s == sol.sector
    return v


def _dense_state(branch, sol, p, block_column):
    """The same state through the dense ``block_column``, root by root."""
    spec = bt.BRANCHES[branch]
    v = np.eye(2**p.N, dtype=complex)[0 if spec.reference == "up" else -1]
    for lam in reversed(sol.roots):
        v, _ = block_column(lam, bt.branch_theta(branch, p), spec.side, spec.creator, p, v)
    return v


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_batched_states_equal_each_state_alone(branch, n, sector_column, block_column, unpack):
    # each state of the batch is its packed string alone bit for bit, and the
    # dense string to rounding
    largest = 0
    for m in range(1, n):
        p = bt.apply_constraints(generic_params(n), bt.BoundaryConstraint(bt.family_sector(branch, m, n)))
        sols = bt.find_bethe_solutions(branch, m, p, seed=0)
        if not sols:
            continue
        states = bt.bethe_state(branch, sols, p)
        assert states.shape == (comb(n, m), len(sols)) and states.flags.c_contiguous
        for i, sol in enumerate(sols):
            assert np.array_equal(states[:, i], _state_alone(branch, sol, p, sector_column))
            dense = _dense_state(branch, sol, p, block_column)
            assert tn.rel_residual(unpack(n, sol.sector, states[:, i]), dense) < 1e-12
        largest = max(largest, len(sols))
    assert largest >= 2


@pytest.mark.parametrize("zero, floor, reason", [(0, 1, "exactly zero"), (1, 0, "norm floor")])
def test_first_failing_state_in_order_is_raised(zero, floor, reason, constrained2, monkeypatch):
    # in a batch of two, one state is exactly zero after its first block and
    # the other falls below its norm floor only at the end: the NullState
    # raised is that of the first state in order, not the first to fail
    apply = sos.sector_block_column

    def failing(*args, **kwargs):
        created, other = apply(*args, **kwargs)
        norm = np.linalg.norm(created)
        created = created.copy()
        created[zero] = 0
        created[floor] *= 1e-13
        return created, np.full_like(other, norm)

    sol = bt.find_bethe_solutions("b1", 1, constrained2, seed=2)[0]
    monkeypatch.setattr(sos, "sector_block_column", failing)
    with pytest.raises(NullState, match=reason):
        bt.bethe_state("b1", [sol, sol], constrained2)


def test_each_state_keeps_its_own_norm_floor(constrained2, monkeypatch):
    # the first state's column grows 1e6 times faster than the second's,
    # which keeps 1e-9 of its own growth: above its own floor, below a floor
    # taken from the whole batch's growth
    apply = sos.sector_block_column

    def uneven(*args, **kwargs):
        created, other = (a.copy() for a in apply(*args, **kwargs))
        created[0] *= 1e6
        other[0] *= 1e6
        other[1] = np.linalg.norm(created[1]) / np.sqrt(other[1].size)
        created[1] *= 1e-9
        return created, other

    sol = bt.find_bethe_solutions("b1", 1, constrained2, seed=2)[0]
    monkeypatch.setattr(sos, "sector_block_column", uneven)
    states = bt.bethe_state("b1", [sol, sol], constrained2)
    assert np.all(np.any(states, axis=0))


@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_bethe_state_builds_the_gates_of_all_roots_once(branch, monkeypatch):
    # two solutions of M = 3 roots: one dyn_double_row_gates call builds
    # all six blocks
    p = generic_params(4)
    roots = ((0.21 + 0.12j, -0.33 + 0.27j, 0.41 - 0.18j), (0.17 - 0.31j, 0.52 + 0.09j, -0.26 + 0.44j))
    sols = [bt.BetheSolution(branch, r, 3, (0.0,) * 3, 0) for r in roots]
    calls = []
    gates = sos.dyn_double_row_gates
    monkeypatch.setattr(sos, "dyn_double_row_gates", lambda *a, **k: calls.append(a) or gates(*a, **k))
    states = bt.bethe_state(branch, sols, p)
    assert len(calls) == 1 and len(calls[0][0]) == 6
    # packed on the C(4, 3) = 4 states of the family's sector
    assert states.shape == (4, 2) and np.all(np.any(states, axis=0))


def test_minus_and_plus_families_build_the_same_states(constrained2):
    p = constrained2
    sols_m = bt.find_bethe_solutions("b1", 1, p, seed=2)
    sols_p = bt.find_bethe_solutions("p1", 1, p, seed=2)
    roots_m = sorted((round(s.roots[0].real, 8), round(s.roots[0].imag, 8)) for s in sols_m)
    roots_p = sorted((round(s.roots[0].real, 8), round(s.roots[0].imag, 8)) for s in sols_p)
    assert roots_m == roots_p
    sol = sols_m[0]
    a = bt.vertex_eigenstate("b1", bt.bethe_state("b1", [sol], p)[:, 0], sol.sector, p)
    plus = bt.BetheSolution("p1", sol.roots, 1, sol.residuals, sol.sector)
    b = bt.vertex_eigenstate("p1", bt.bethe_state("p1", [plus], p)[:, 0], plus.sector, p)
    overlap = 1 - abs(np.conj(a) @ b) ** 2 / ((np.conj(a) @ a).real * (np.conj(b) @ b).real)
    assert abs(overlap) < 1e-8


def test_plus_family_gauge_binding(constrained3, gauge_row, chain_identity, unpack):
    """At s = 1 the two dynamical parameters differ; only the barred pair
    (theta_bar, tau_bar) sends plus states to vertex eigenstates."""
    p = constrained3
    mu = 0.17 - 0.23j
    sols = bt.find_bethe_solutions("p1", 1, p, seed=5)
    assert sols
    sol = sols[0]
    lam = bt.branch_eigenvalue("p1", mu, sol.roots, p)
    tv = vx.transfer_xxz(mu, p, chain_identity(p))
    packed = bt.bethe_state("p1", [sol], p)[:, 0]
    good = bt.vertex_eigenstate("p1", packed, sol.sector, p)  # defaults to (theta_bar, tau_bar)
    r_good = np.linalg.norm(tv @ good - lam * good) / (np.linalg.norm(good) * abs(lam))
    assert r_good < 1e-8
    bad = gauge_row(p.delta - p.zeta, p.tau_bar, "plus", p) @ unpack(p.N, sol.sector, packed)
    r_bad = np.linalg.norm(tv @ bad - lam * bad) / (np.linalg.norm(bad) * abs(lam))
    assert r_bad > 1e-3


@pytest.mark.parametrize("n, s", [(3, 1), (5, 1)])
@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_vertex_image_matches_dense_gauge_row(n, s, branch, gauge_row, unpack):
    p = bt.apply_constraints(generic_params(n), bt.BoundaryConstraint(s=s))
    m = (n - s) // 2 if bt.BRANCHES[branch].sign > 0 else (n + s) // 2
    sols = bt.find_bethe_solutions(branch, m, p, seed=0)
    assert sols
    packed = bt.bethe_state(branch, sols, p)
    psi = unpack(n, s, packed)
    side = bt.BRANCHES[branch].side
    row = gauge_row(bt.branch_theta(branch, p), p.tau if side == "minus" else p.tau_bar, side, p)
    block = bt.vertex_eigenstate(branch, packed, s, p)
    assert tn.rel_residual(block, row @ psi) < 1e-13
    assert tn.rel_residual(bt.vertex_eigenstate(branch, packed[:, 0], s, p), row @ psi[:, 0]) < 1e-13


def test_vertex_image_of_a_zero_state_is_null(constrained3):
    p = constrained3
    sols = bt.find_bethe_solutions("b1", 1, p, seed=0)[:1]
    psi, s = bt.bethe_state("b1", sols, p)[:, 0], sols[0].sector
    assert bt.vertex_eigenstate("b1", psi, s, p).shape == (2**p.N,)
    with pytest.raises(NullState):
        bt.vertex_eigenstate("b1", np.zeros_like(psi), s, p)
    # one zero column fails the whole block
    with pytest.raises(NullState):
        bt.vertex_eigenstate("b1", np.stack([psi, np.zeros_like(psi)], axis=1), s, p)


def test_energy_single_root_closed_form(c1, energy):
    p = generic_params(2)
    c1v = c1(p)
    lam = -p.eta / 2 + 0.3j  # a generic point, then the closed-form point
    sol = bt.BetheSolution("b1", (-p.eta / 2 + 0.5,), 1, (0.0,), 0)
    # epsilon at lam = -eta/2 equals -c1 sinh(eta) / sinh^2(eta/2)
    at = bt.BetheSolution("b1", (-p.eta / 2,), 1, (0.0,), 0)
    e = energy(at, p) - c1v * p.N * cosh(p.eta) / sinh(p.eta)
    expect = -c1v * sinh(p.eta) / sinh(p.eta / 2) ** 2
    assert abs(e - expect) < 1e-12 * abs(expect)


def test_energy_reflection_invariant(constrained2, energy):
    p = constrained2
    sol = bt.find_bethe_solutions("b1", 1, p, seed=1)[0]
    reflected = bt.BetheSolution("b1", tuple(-z - p.eta for z in sol.roots), 1, sol.residuals, 0)
    assert abs(energy(sol, p) - energy(reflected, p)) < 1e-12 * abs(energy(sol, p))


def test_energy_pole_raises(p2, energy):
    sol = bt.BetheSolution("b1", (0.0,), 1, (0.0,), 0)
    with pytest.raises(DegenerateParameter):
        energy(sol, p2)


def test_hamiltonian_energy_matches_rayleigh(constrained2, hamiltonian, hamiltonian_direct,
                                             hamiltonian_energy, c1, energy):
    p = constrained2.replace(xi=(0,) * constrained2.N)
    h_dir = hamiltonian_direct(p)
    _, kappa = hamiltonian(p)
    sols = bt.find_bethe_solutions("b1", 1, p, seed=3)
    assert len(sols) >= 2
    c1v = c1(p)
    offsets = []
    for sol in sols:
        v = bt.vertex_eigenstate("b1", bt.bethe_state("b1", [sol], p)[:, 0], sol.sector, p)
        rq = (np.conj(v) @ (h_dir @ v)) / (np.conj(v) @ v)
        he = hamiltonian_energy("b1", sol, p, kappa)
        assert abs(rq - he) < 1e-7 * abs(rq)
        # the conventional energy formula is affine in the eigenvalue with slope
        # 2 sinh(eta) / c1; the measured offset must be state-independent
        e_disp = energy(sol, p)
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
    f, ok = bt._log_mismatch(bt._search(branch, p, m), roots)
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
    search = bt._search(branch, p, m)
    jac = bt._jacobian(search, roots)
    h = 1e-6
    for k in range(m):
        shift = np.zeros(m)
        shift[k] = h
        up, ok_up = bt._log_mismatch(search, roots + shift)
        down, ok_down = bt._log_mismatch(search, roots - shift)
        assert ok_up.all() and ok_down.all()
        diff = up - down
        diff.imag = np.mod(diff.imag + np.pi, 2 * np.pi) - np.pi
        assert np.abs(jac[:, :, k] - diff / (2 * h)).max() < 1e-6 * max(np.abs(jac).max(), 1.0)


def _coth_jacobian(search, roots):
    """The Jacobian with every coth from np.tanh of its own argument: the
    oracle of the exponential form of ``bt._jacobian``.  It reads only the
    family and the parameters of the search record."""
    branch, p = search.branch, search.p
    d, z, db, zb = bt._pars(p, bt.BRANCHES[branch].y_order)
    eta = p.eta
    diag = np.arange(roots.shape[1])
    x = np.stack([roots, -roots - eta])
    col = x[..., None]
    others = roots[None, :, None, :]
    xis = np.asarray(p.xi, dtype=complex)
    with np.errstate(all="ignore"):
        coth = lambda u: 1 / np.tanh(u)
        plus = coth(col + others)
        minus = coth(col - others - eta)
        plus[..., diag, diag] = 0
        minus[..., diag, diag] = 0
        dlog = (
            coth(z + x) - coth(d - x) - coth(zb - x) + coth(db + x)
            + (plus + minus).sum(axis=-1)
            + (coth(col + xis + eta) + coth(col - xis + eta)).sum(axis=-1)
        )
    jac = (plus[0] - minus[0]) - (plus[1] - minus[1])
    jac[:, diag, diag] = dlog[0] + dlog[1]
    return jac


def _rel_diff(jac, oracle):
    """Per start, the largest entry of jac - oracle relative to the oracle's
    largest entry, floored at 1: an entry sums O(M + N) coth terms, and
    where they cancel (a far root, whose y-factors all saturate) the
    rounding of either form is absolute."""
    return np.abs(jac - oracle).max(axis=(1, 2)) / np.maximum(np.abs(oracle).max(axis=(1, 2)), 1.0)


def _far_rows(branch, m, p):
    """Rows with one root pushed out to Re lam = +-R, for every R up to the
    last one at which the mismatch is still finite and nonzero."""
    rows = []
    base = _random_roots(np.random.default_rng(7), 1, m)[0]
    search = bt._search(branch, p, m)
    for r in np.arange(2.0, 400.0, 2.0):
        batch = np.array([base, base])
        batch[0, 0] = r + 0.3j
        batch[1, -1] = -r - 0.2j
        if not bt._log_mismatch(search, batch)[1].all():
            break
        rows.append(batch)
    return np.concatenate(rows)


@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
@pytest.mark.parametrize("n, s, m", [(3, 1, 1), (3, 1, 2), (4, 0, 3), (6, 2, 4)])
def test_jacobian_matches_coth_oracle(branch, n, s, m):
    p = bt.apply_constraints(generic_params(n), bt.BoundaryConstraint(s=s))
    random_rows = _random_roots(np.random.default_rng(n + 10 * m), 40, m)
    far = _far_rows(branch, m, p)
    assert np.abs(far.real).max() > 30
    search = bt._search(branch, p, m)
    for roots in (random_rows, far):
        jac, oracle = bt._jacobian(search, roots), _coth_jacobian(search, roots)
        assert np.isfinite(oracle).all() and np.isfinite(jac).all()
        assert (_rel_diff(jac, oracle) <= 1e-12).all()


def test_jacobian_finite_where_coth_oracle_is():
    # past where the mismatch overflows, the exponentials no longer square
    # safely as (W^2 + 1) / (W^2 - 1); the oracle reads coth = +-1 there
    p = generic_params(2)
    roots = np.array([[400 + 0.3j, -0.2 + 0.1j], [-400 - 0.3j, 0.4 - 0.5j], [400.0, 400.1 + 0.2j]])
    search = bt._search("b1", p, 2)
    oracle = _coth_jacobian(search, roots)
    assert np.isfinite(oracle).all()
    jac = bt._jacobian(search, roots)
    assert np.isfinite(jac).all()
    assert (_rel_diff(jac, oracle) <= 1e-12).all()


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_search_finds_the_same_solutions_under_the_coth_jacobian(n, branch, monkeypatch):
    s = n % 2
    p = bt.apply_constraints(generic_params(n), bt.BoundaryConstraint(s=s))
    m = (n - s) // 2 if bt.BRANCHES[branch].sign > 0 else (n + s) // 2
    new = bt.find_bethe_solutions(branch, m, p, seed=0)
    monkeypatch.setattr(bt, "_jacobian", _coth_jacobian)
    old = bt.find_bethe_solutions(branch, m, p, seed=0)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert np.abs(np.subtract(a.roots, b.roots)).max() < 1e-12


def _sinh_y_pair(search, roots):
    """y(lam_i) and y(-lam_i-eta) as products of np.sinh of each factor's own
    argument: the oracle of the exponential form of ``bt._y_pair``.  It
    reads only the family and the parameters of the search record."""
    branch, p = search.branch, search.p
    d, z, db, zb = bt._pars(p, bt.BRANCHES[branch].y_order)
    eta = p.eta
    x = np.stack([roots, -roots - eta])
    col = x[..., None]
    others = roots[None, :, None, :]
    xis = np.asarray(p.xi, dtype=complex)
    pairs = np.where(np.eye(roots.shape[1], dtype=bool), 1, np.sinh(col + others) * np.sinh(col - others - eta))
    v = np.sinh(z + x) * np.sinh(d - x) * np.sinh(zb - x) * np.sinh(db + x)
    v = v * np.prod(pairs, axis=-1)
    return v * np.prod(np.sinh(col + xis + eta) * np.sinh(col - xis + eta), axis=-1)


def _mp_mismatch(branch, roots, p):
    """The mismatch of an (S, M) array of starts from 50-digit y-products of
    the same float inputs, imaginary part folded to (-pi, pi]."""
    out = np.empty(roots.shape, dtype=complex)
    with mpmath.workdps(50):
        d, z, db, zb, eta = map(mpmath.mpc, (*bt._pars(p, bt.BRANCHES[branch].y_order), p.eta))
        xis = [mpmath.mpc(v) for v in p.xi]
        sh = mpmath.sinh

        def y(x, row, i):
            v = sh(z + x) * sh(d - x) * sh(zb - x) * sh(db + x)
            for k, r in enumerate(row):
                if k != i:
                    v *= sh(x + r) * sh(x - r - eta)
            for xj in xis:
                v *= sh(x + xj + eta) * sh(x - xj + eta)
            return v

        for s, row in enumerate(roots):
            row = [mpmath.mpc(r) for r in row]
            for i, lam in enumerate(row):
                f = mpmath.log(y(lam, row, i)) - mpmath.log(y(-lam - eta, row, i))
                im = f.imag - 2 * mpmath.pi * mpmath.floor((f.imag + mpmath.pi) / (2 * mpmath.pi))
                out[s, i] = complex(f.real, im)
    return out


def _near_zero_rows(kind, u, branch, p):
    """Starts with one factor of y at sinh(+-u): a near string (lam_1 = lam_0 -
    eta + u), a near reflection (lam_1 = -lam_0 + u) or a root near the
    boundary pole (lam_0 = d + u, with d the first parameter of the branch)."""
    rows = _random_roots(np.random.default_rng(11), 3, 3)
    if kind == "string":
        rows[:, 1] = rows[:, 0] - p.eta + u
    elif kind == "reflection":
        rows[:, 1] = -rows[:, 0] + u
    else:
        rows[:, 0] = bt._pars(p, bt.BRANCHES[branch].y_order)[0] + u
    return rows


@pytest.mark.parametrize("size", [1e-1, 1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("kind", ["string", "reflection", "pole"])
def test_mismatch_near_a_zero_factor_is_as_accurate_as_the_sinh_oracle(kind, size, monkeypatch):
    # the exponential form of sinh(u) loses eps / |u| where it cancels; the
    # guarded kernel must stay within 2x of the sinh products, which lose as
    # much only to the rounding of the argument itself
    p = bt.apply_constraints(generic_params(4), bt.BoundaryConstraint(s=0))
    u = size * np.exp(0.6j)
    for branch in bt.BRANCHES:
        roots = _near_zero_rows(kind, u, branch, p)
        exact = _mp_mismatch(branch, roots, p)
        search = bt._search(branch, p, roots.shape[1])
        new, ok = bt._log_mismatch(search, roots)
        with monkeypatch.context() as patch:
            patch.setattr(bt, "_y_pair", _sinh_y_pair)
            oracle, ok_oracle = bt._log_mismatch(search, roots)
        assert ok.all() and ok_oracle.all()
        assert np.abs(new - exact).max() <= 2 * np.abs(oracle - exact).max() + 1e-15


@pytest.mark.parametrize("shift", [0, 2])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_search_finds_the_same_solutions_under_the_sinh_mismatch(branch, n, shift, monkeypatch):
    # each case takes one of the four pairs of constraint and seed, as the
    # runaway test does; along N every family and sector meets all four
    k = list(bt.BRANCHES).index(branch) + n + shift // 2
    constrain, seed = (bt.apply_constraints, bt.height_condition)[k % 2], k // 2 % 2
    s = n % 2 + shift
    p = constrain(generic_params(n), bt.BoundaryConstraint(s=s))
    m = (n - s) // 2 if bt.BRANCHES[branch].sign > 0 else (n + s) // 2
    new = bt.find_bethe_solutions(branch, m, p, seed=seed)
    monkeypatch.setattr(bt, "_y_pair", _sinh_y_pair)
    old = bt.find_bethe_solutions(branch, m, p, seed=seed)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert np.abs(np.subtract(a.roots, b.roots)).max() < 1e-12


def test_consts_are_built_once_per_search(monkeypatch):
    # every mismatch and Jacobian of the search reads one record
    p = bt.apply_constraints(generic_params(6), bt.BoundaryConstraint(s=2))
    consts, mismatch = bt._consts, bt._log_mismatch
    built, evaluated = [], []
    monkeypatch.setattr(bt, "_consts", lambda branch, p: built.append(branch) or consts(branch, p))
    monkeypatch.setattr(bt, "_log_mismatch", lambda search, roots: evaluated.append(search) or mismatch(search, roots))
    assert bt.find_bethe_solutions("b1", 2, p, seed=0)
    assert built == ["b1"]
    assert len(evaluated) > 10 and all(search is evaluated[0] for search in evaluated)


def _start_rows(m, rng, eta):
    """The start grid as a list of one-row arrays, one draw per row: the
    reference of ``bt._start_grid``'s single array."""
    res = np.linspace(-1.0, 1.0, 7)
    ims = np.linspace(-np.pi / 2 + 0.12, np.pi / 2, 7)
    singles = [complex(r, i) for r in res for i in ims if abs(sinh(2 * complex(r, i) + eta)) > 1e-3]
    rng.shuffle(singles)
    if m == 1:
        return [np.array([z]) for z in singles[: bt.N_STARTS]]
    picks = (rng.choice(len(singles), size=m, replace=False) for _ in range(bt.N_STARTS))
    return [np.array([singles[int(k)] for k in pick]) for pick in picks]


@pytest.mark.parametrize("m", [1, 2, 5])
def test_start_grid_is_one_array_of_the_row_draws(m):
    eta = generic_params(4).eta
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    got, rows = bt._start_grid(m, rng, eta), _start_rows(m, ref_rng, eta)
    # m = 1 takes one start per grid point, of which there are at most 49
    assert got.shape == (min(len(rows), bt.N_STARTS), m) and got.dtype == complex
    assert np.array_equal(got, np.array(rows))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("broken", [0.0, np.nan])
def test_bad_jacobian_drops_only_its_start(broken, monkeypatch):
    p = bt.apply_constraints(generic_params(4), bt.BoundaryConstraint(s=0))
    starts = bt._start_grid(2, np.random.default_rng(0), p.eta)
    clean = bt._newton_batch("b2", starts, p, 80, 1e-13)
    bad = next(k for k, roots in enumerate(clean) if roots is not None)
    jacobian, mismatch = bt._jacobian, bt._log_mismatch
    jac_sizes, mismatch_sizes = [], []

    def first_call_broken(search, roots):
        jac = jacobian(search, roots)
        if not jac_sizes:
            jac[bad] = broken  # all zero is singular; NaN is not finite
        jac_sizes.append(len(roots))
        return jac

    def counted(search, roots):
        mismatch_sizes.append(len(roots))
        return mismatch(search, roots)

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


def _newton_batch_to_the_end(branch, starts, p, max_iter, tol, ledger=None):
    """The batch before runaway retirement, halving one scale at a time:
    every start runs until it converges, a drop condition hits, or
    ``max_iter`` steps pass.  The reference of ``bt._newton_batch``, which
    must return the same roots wherever a start ends inside RE_MAX.  It
    keeps no ``ledger``."""
    found = [None] * len(starts)
    live = np.arange(len(starts))
    roots = starts.astype(complex)
    search = bt._search(branch, p, roots.shape[1])
    f, ok = bt._log_mismatch(search, roots)
    live, roots, f = live[ok], roots[ok], f[ok]
    for _ in range(max_iter):
        if not len(live):
            break
        fn = np.abs(f).max(axis=1)
        done = fn < tol
        for k, r in zip(live[done], roots[done]):
            found[k] = r
        live, roots, f, fn = (a[~done] for a in (live, roots, f, fn))
        step, ok = bt._newton_step(search, roots, f)
        live, roots, f, fn, step = (a[ok] for a in (live, roots, f, fn, step))
        pending = np.ones(len(live), dtype=bool)
        scale = 1.0
        for _ in range(20):
            idx = np.flatnonzero(pending)
            if not len(idx):
                break
            cand = roots[idx] - scale * step[idx]
            fc, ok = bt._log_mismatch(search, cand)
            better = ok & (np.abs(fc).max(axis=1) < fn[idx])
            roots[idx[better]] = cand[better]
            f[idx[better]] = fc[better]
            pending[idx[better]] = False
            scale /= 2
        live, roots, f = live[~pending], roots[~pending], f[~pending]
    return found


@pytest.mark.parametrize("shift", [0, 2])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_runaway_retirement_keeps_every_solution(branch, n, shift, monkeypatch):
    # all four pairs of constraint and seed for every case take about 10 s;
    # each case takes one pair, and along N every family and sector meets all four
    k = list(bt.BRANCHES).index(branch) + n + shift // 2
    constrain, seed = (bt.apply_constraints, bt.height_condition)[k % 2], k // 2 % 2
    s = n % 2 + shift
    p = constrain(generic_params(n), bt.BoundaryConstraint(s=s))
    m = (n - s) // 2 if bt.BRANCHES[branch].sign > 0 else (n + s) // 2
    new = bt.find_bethe_solutions(branch, m, p, seed=seed)
    monkeypatch.setattr(bt, "_newton_batch", _newton_batch_to_the_end)
    old = bt.find_bethe_solutions(branch, m, p, seed=seed)
    assert new == old  # roots and residuals bit-equal, in the same order


def _ledger_search(branch, n, s, seed=0):
    p = bt.apply_constraints(generic_params(n), bt.BoundaryConstraint(s=s))
    m = (n - s) // 2 if bt.BRANCHES[branch].sign > 0 else (n + s) // 2
    ledger = dict.fromkeys(bt.LEDGER, 0)
    return bt.find_bethe_solutions(branch, m, p, seed=seed, ledger=ledger), ledger, p, m


@pytest.mark.parametrize("n, s", [(4, 0), (4, 2), (6, 2), (8, 0)])
@pytest.mark.parametrize("branch", ["b1", "b2", "p1", "p2"])
def test_newton_ledger_accounts_for_every_start(branch, n, s):
    sols, ledger, p, m = _ledger_search(branch, n, s)
    starts = bt._start_grid(m, np.random.default_rng(0), p.eta)
    batch = ("converged", "bad_y", "bad_jacobian", "halvings_exhausted", "runaway", "iteration_cap")
    filters = ("re_max", "fixed_point", "separation", "duplicate", "residual", "accepted")
    assert list(ledger) == list(bt.LEDGER) == ["starts", *batch, *filters]
    assert ledger["starts"] == len(starts) == sum(ledger[k] for k in batch)
    assert ledger["converged"] == sum(ledger[k] for k in filters)
    assert ledger["converged"] == sum(r is not None for r in bt._newton_batch(branch, starts, p, 80, 1e-13))
    assert ledger["accepted"] == len(sols)


# seed-0 ledgers of two searches that between them end starts in every way
# but bad_y, duplicate, residual and the iteration cap
PINNED_LEDGERS = {
    ("b2", 4, 2): dict(starts=60, converged=9, bad_jacobian=1, halvings_exhausted=1, runaway=49,
                       fixed_point=6, separation=3),
    ("b1", 8, 0): dict(starts=60, converged=18, halvings_exhausted=4, runaway=38,
                       re_max=1, fixed_point=7, separation=10),
}


@pytest.mark.parametrize("case", list(PINNED_LEDGERS))
def test_pinned_ledgers_at_seed_0(case):
    _, ledger, _, _ = _ledger_search(*case)
    assert ledger == {**dict.fromkeys(bt.LEDGER, 0), **PINNED_LEDGERS[case]}


def test_ledger_names_how_a_start_ended(constrained2):
    p = constrained2
    # y vanishes at the boundary pole lam = delta; a start at Re lam = 3 runs away
    for outcome, guess in (("bad_y", p.delta), ("runaway", 3 + 0.2j)):
        ledger = Counter()
        assert bt.find_bethe_solutions("b1", 1, p, guesses=[[guess]], ledger=ledger) == []
        assert +ledger == Counter(starts=1, **{outcome: 1})
    ledger = Counter()
    starts = bt._start_grid(1, np.random.default_rng(0), p.eta)
    assert not any(r is not None for r in bt._newton_batch("b1", starts, p, 1, 1e-13, ledger))
    assert +ledger == Counter(starts=len(starts), iteration_cap=len(starts))


def _reach(roots, eta):
    """The largest canonical real part of each start's roots."""
    return np.maximum(roots.real, -roots.real - eta.real).max(axis=1)


def _jacobian_inputs(monkeypatch):
    """Wrap ``bt._jacobian`` to record the roots of each call."""
    calls, jacobian = [], bt._jacobian

    def recorded(search, roots):
        calls.append(roots.copy())
        return jacobian(search, roots)

    monkeypatch.setattr(bt, "_jacobian", recorded)
    return calls


def test_a_start_that_returns_from_past_re_max_is_kept(monkeypatch):
    p = bt.height_condition(generic_params(8), bt.BoundaryConstraint(s=4))
    start = bt._start_grid(6, np.random.default_rng(5), p.eta)[24:25]
    calls = _jacobian_inputs(monkeypatch)
    [kept] = bt._newton_batch("p2", start, p, 80, 1e-13)
    reach = [_reach(r, p.eta)[0] for r in calls if len(r)]
    # the path runs out past |Re lam| = 8 and comes back
    assert max(reach) > 8 > bt.RE_MAX > reach[-1]
    [reference] = _newton_batch_to_the_end("p2", start, p, 80, 1e-13)
    assert kept is not None and np.array_equal(kept, reference)


def test_a_runaway_start_is_retired(monkeypatch):
    p = bt.apply_constraints(generic_params(6), bt.BoundaryConstraint(s=2))
    start = bt._start_grid(2, np.random.default_rng(0), p.eta)[:1]
    calls = _jacobian_inputs(monkeypatch)
    [reference] = _newton_batch_to_the_end("b1", start, p, 80, 1e-13)
    # Jacobian call k (from 0) sees the roots after k steps
    first_past = next(k for k, r in enumerate(calls) if _reach(r, p.eta)[0] > bt.RE_MAX)
    assert reference is None or _reach(reference[None], p.eta)[0] > bt.RE_MAX
    unretired = len(calls)
    calls.clear()
    [retired] = bt._newton_batch("b1", start, p, 80, 1e-13)
    assert retired is None
    assert len(calls) <= first_past + bt.RUNAWAY_RISES + 1 < unretired


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
