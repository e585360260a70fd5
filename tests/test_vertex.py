import tracemalloc
from cmath import cosh, sinh

import numpy as np
import pytest

from sosxxz import sos
from sosxxz import tensor as tn
from sosxxz import vertex as vx
from sosxxz.errors import DegenerateParameter, FormMismatch
from sosxxz.params import generic_params, identity_suite, sample_points


# permutation operator on C^2 x C^2: P |a b> = |b a>
PERM4 = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def leg_identity(legs):
    """The identity on ``legs``: the x for which ``tn.product`` reads the dense operator."""
    return np.eye(2 ** len(legs), dtype=complex)


def test_r_matrix_entries(p2):
    lam = 0.31 + 0.17j
    r = vx.r4(lam, p2.eta)
    assert r[0, 0] == sinh(lam + p2.eta)
    assert r[1, 1] == sinh(lam)
    assert r[1, 2] == sinh(p2.eta)
    assert tn.rel_residual(vx.r4(0, p2.eta), sinh(p2.eta) * PERM4) < 1e-15


def test_r_matrix_symmetric(p2):
    r = vx.r4(0.41 - 0.23j, p2.eta)
    assert tn.max_abs(tn.swapped4(r) - r) < 1e-14


def test_unitarity_against_direct_product(p2):
    lam = 0.52 - 0.11j
    prod = vx.r4(lam, p2.eta) @ tn.swapped4(vx.r4(-lam, p2.eta))
    assert tn.rel_residual(prod, -sinh(lam - p2.eta) * sinh(lam + p2.eta) * np.eye(4)) < 1e-13


def test_crossing_relation(p2):
    lam = -0.27 + 0.31j
    y1 = np.kron(tn.SY, tn.ID2)
    lhs = -y1 @ tn.transpose_first4(vx.r4(-lam - p2.eta, p2.eta)) @ y1
    assert tn.rel_residual(lhs, tn.swapped4(vx.r4(lam, p2.eta))) < 1e-13


def test_k_matrix_identity_at_zero(p2):
    assert tn.rel_residual(vx.k2(0, "minus", p2), np.eye(2)) < 1e-14


def test_k_matrix_pole_raises(p2):
    with pytest.raises(DegenerateParameter):
        vx.k2(-p2.delta, "minus", p2)


def test_k_reflection_equation(p2):
    assert vx.reflection_residual(0.21 + 0.12j, -0.33 + 0.27j, p2, "minus") < 1e-11


def test_bulk_monodromy_initial_condition():
    p = generic_params(1)
    legs = vx.chain_legs(1)
    t = tn.product(legs, vx.monodromy_gates(p.xi[0], p), leg_identity(legs))
    expected = sinh(p.eta) * PERM4
    assert tn.rel_residual(t, expected) < 1e-14


def test_yang_baxter_algebra(p2):
    l1, l2 = 0.21 + 0.12j, -0.33 + 0.27j
    legs = ("x1", "x2") + vx.site_legs(p2.N)
    r12 = [(vx.r4(l1 - l2, p2.eta), ("x1", "x2"))]
    t1 = tn.relabel(vx.monodromy_gates(l1, p2), {vx.AUX: "x1"})
    t2 = tn.relabel(vx.monodromy_gates(l2, p2), {vx.AUX: "x2"})
    eye = leg_identity(legs)
    assert tn.rel_residual(tn.product(legs, r12 + t1 + t2, eye), tn.product(legs, t2 + t1 + r12, eye)) < 1e-11


def monodromy(lam, p, hatted=False):
    legs = vx.chain_legs(p.N)
    return tn.product(legs, vx.monodromy_gates(lam, p, hatted), leg_identity(legs))


def hat_monodromy_via_inverse(lam, p):
    """That_0(lam) in its inverse form gamma_hat(lam) T_0(-lam)^{-1}."""
    return vx.gamma_hat(lam, p) * np.linalg.inv(monodromy(-lam, p))


def test_hat_monodromy_two_paths(p2):
    lam = 0.31 + 0.17j
    direct = monodromy(lam, p2, hatted=True)
    inverse = hat_monodromy_via_inverse(lam, p2)
    assert tn.rel_residual(direct, inverse) < 1e-11
    prod = direct @ monodromy(-lam, p2)
    assert tn.rel_residual(prod, vx.gamma_hat(lam, p2) * np.eye(len(direct))) < 1e-11


def test_double_row_two_path_consistency(p2):
    lam = 0.27 - 0.19j
    legs = vx.chain_legs(p2.N)
    u_direct = tn.product(legs, vx.double_row_gates(lam, "minus", p2), leg_identity(legs))
    k_that = tn.product(legs, [(vx.k2(lam, "minus", p2), (vx.AUX,))], hat_monodromy_via_inverse(lam, p2))
    u_inverse = monodromy(lam, p2) @ k_that
    assert tn.rel_residual(u_direct, u_inverse) < 1e-10


def test_diagonal_boundary_annihilates_reference(p2):
    # with a diagonal boundary matrix the all-up state is annihilated by
    # the lowering block; the general non-diagonal boundary breaks this
    lam = 0.23 + 0.31j
    legs = vx.chain_legs(p2.N)
    from sosxxz.sos import k2_minus_diag

    kd = (k2_minus_diag(lam, p2.delta, p2.zeta), ("a0",))
    gates = [*vx.monodromy_gates(lam, p2), kd, *vx.monodromy_gates(lam, p2, hatted=True)]
    u = tn.product(legs, gates, leg_identity(legs))
    d = 2**p2.N
    c_block = u[d:, :d]
    v0 = np.eye(2**p2.N, dtype=complex)[0]
    assert np.max(np.abs(c_block @ v0)) < 1e-12 * tn.max_abs(c_block)
    u_gen = tn.product(legs, vx.double_row_gates(lam, "minus", p2), leg_identity(legs))
    c_gen = u_gen[d:, :d]
    assert np.max(np.abs(c_gen @ v0)) > 1e-6 * tn.max_abs(c_gen)


def test_reflection_algebra_of_double_row(p2):
    assert vx.reflection_algebra_residual(0.21 + 0.12j, -0.33 + 0.27j, p2, "minus") < 1e-10
    assert vx.reflection_algebra_residual(0.21 + 0.12j, -0.33 + 0.27j, p2, "plus") < 1e-10


def test_transfer_matrices_commute(p2, chain_identity):
    t1 = vx.transfer_xxz(0.23 + 0.11j, p2, chain_identity(p2))
    t2 = vx.transfer_xxz(-0.37 + 0.29j, p2, chain_identity(p2))
    assert tn.rel_residual(t1 @ t2, t2 @ t1) < 1e-10


def _transfer_n1_by_hand(lam, p):
    """Independent N = 1 transfer matrix from explicit 2x2 block sums."""
    kp = vx.k2(lam, "plus", p)
    km = vx.k2(lam, "minus", p)
    r = vx.r4(lam - p.xi[0], p.eta)
    rh = vx.r4(lam + p.xi[0], p.eta)
    out = np.zeros((2, 2), dtype=complex)
    # T_XXZ = sum over auxiliary indices a, b, c, d of
    #   K+_{ab} R_{b.,c.} K-_{cd} Rhat_{.d,.a} as quantum 2x2 blocks
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    rb = np.array([[r[2 * b + i, 2 * c + j] for j in range(2)] for i in range(2)])
                    # hatted factor acts with the site leg first
                    rhb = np.array([[rh[2 * i + d, 2 * j + a] for j in range(2)] for i in range(2)])
                    out += kp[a, b] * rb @ (km[c, d] * rhb)
    return out


def test_transfer_n1_hand_expansion(p1, chain_identity):
    lam = 0.19 - 0.27j
    hand = _transfer_n1_by_hand(lam, p1)
    built = vx.transfer_xxz(lam, p1, chain_identity(p1))
    assert tn.max_abs(hand - built) / tn.max_abs(hand) < 1e-12


def test_transfer_spectrum_symmetric_in_inhomogeneities(p2, chain_identity):
    mu = 0.21 - 0.17j
    e1 = np.sort_complex(np.linalg.eigvals(vx.transfer_xxz(mu, p2, chain_identity(p2))))
    swapped = p2.replace(xi=(p2.xi[1], p2.xi[0]))
    e2 = np.sort_complex(np.linalg.eigvals(vx.transfer_xxz(mu, swapped, chain_identity(swapped))))
    assert np.max(np.abs(e1 - e2)) / np.max(np.abs(e1)) < 1e-9


@pytest.mark.parametrize("n", [2, 4, 6])
def test_transfer_xxz_is_trace_of_whole_product(n, aux_trace, chain_identity):
    # on the identity, the traced gate lists read the trace of the whole product bit for bit
    p = generic_params(n)
    legs = vx.chain_legs(n)
    for lam in sample_points(np.random.default_rng(n), p, 2):
        gates = [(vx.k2(lam, "plus", p), (vx.AUX,)), *vx.double_row_gates(lam, "minus", p)]
        whole = tn.product(legs, gates, leg_identity(legs))
        assert np.array_equal(vx.transfer_xxz(lam, p, chain_identity(p)), aux_trace(whole))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transfer_matrices_on_a_block_match_dense(n, chain_identity, sos_transfer, sector_indices):
    """Each transfer matrix applied to a (2^N, k) block, or to one vector,
    equals the dense matrix times it; the height-picture ones, packed on
    each sector, equal the dense oracle's sector block times it."""
    p = generic_params(n)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
    mu = sample_points(rng, p, 1)[0]
    theta = 0.63 + 0.29j
    dense = vx.transfer_xxz(mu, p, chain_identity(p))
    for y in (x, x[:, 0]):
        assert tn.rel_residual(vx.transfer_xxz(mu, p, y), dense @ y) < 1e-13
    for which in ("SOS1", "SOS2"):
        dense = sos_transfer(mu, theta, which, p)
        for s, idx in sector_indices(n).items():
            for y in (x[: len(idx)], x[: len(idx), 0]):
                block = dense[np.ix_(idx, idx)]
                assert tn.rel_residual(sos.sector_transfer(mu, theta, which, p, s, y), block @ y) < 1e-13


@pytest.mark.parametrize("n", [1, 3, 5])
def test_transfer_xxz_at_three_points_equals_each_point_alone(n):
    p = generic_params(n)
    rng = np.random.default_rng(n)
    mus = np.array(sample_points(rng, p, 3))
    x = rng.normal(size=(2**n, 4)) + 1j * rng.normal(size=(2**n, 4))
    for y in (x, x[:, 0]):
        got = vx.transfer_xxz(mus, p, y)
        assert got.shape == (3,) + y.shape
        for mu, t in zip(mus, got):
            assert np.array_equal(t, vx.transfer_xxz(mu, p, y))


def test_batched_trace_forms_are_compared_point_by_point(monkeypatch):
    # one point's second trace form is off by 1e-9 relative while another
    # point's entries are over 1e3 times larger: compared point by point the
    # mismatch is seen; against the stack's largest entry it would hide
    p = generic_params(3)
    x = np.random.default_rng(2).normal(size=(8, 2)) + 0j
    mus = np.array([0.21 + 0.12j, 2.4 + 0.17j])
    sizes = [tn.max_abs(vx.transfer_xxz(mu, p, x)) for mu in mus]
    assert sizes[1] > 1e3 * sizes[0]
    column, calls = tn.column_product, []

    def second_form_off(legs, gates, y, c):
        # the calls run form by form, column 0 then column 1
        t = column(legs, gates, y, c)
        calls.append(len(calls))
        if len(calls) == 3:
            t[0] *= 1 + 1e-9
        return t

    monkeypatch.setattr(tn, "column_product", second_form_off)
    with pytest.raises(FormMismatch):
        vx.transfer_xxz(mus, p, x)
    assert calls == [0, 1, 2, 3]


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("n", [6, 8])
def test_transfer_xxz_holds_one_auxiliary_column_at_a_time(n, b):
    # the trace pads one auxiliary column, 2 x the input, at a time: the
    # traced allocations peak at about 8 x the B inputs, where padding both
    # columns at once read 13 x
    p = generic_params(n)
    mus = np.array(sample_points(np.random.default_rng(n), p, b))
    x = np.random.default_rng(1).normal(size=(2**n, 32)) + 0j
    vx.transfer_xxz(mus, p, x)  # the plans are cached before the measurement
    tracemalloc.start()
    try:
        vx.transfer_xxz(mus, p, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * b * x.nbytes, peak / (b * x.nbytes)


def _match_spectra(a, b):
    a = sorted(a, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    b = sorted(b, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    return max(abs(x - y) for x, y in zip(a, b))


def test_hamiltonian_spectrum_symmetric_in_boundary_swap(p2, hamiltonian_direct):
    h0 = np.linalg.eigvals(hamiltonian_direct(p2))
    swapped = p2.replace(delta=p2.zeta, zeta=p2.delta, delta_bar=p2.zeta_bar, zeta_bar=p2.delta_bar)
    h1 = np.linalg.eigvals(hamiltonian_direct(swapped))
    assert _match_spectra(h0, h1) / np.max(np.abs(h0)) < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_hamiltonian_reconstruction(n, hamiltonian, hamiltonian_direct, chain_identity):
    p = generic_params(n).replace(xi=(0,) * n)
    h_cand, kappa = hamiltonian(p)
    h_dir = hamiltonian_direct(p)
    resid = tn.max_abs(h_cand - h_dir - kappa * np.eye(2**n)) / tn.max_abs(h_cand)
    assert resid < 1e-8
    rng = np.random.default_rng(9)
    for mu in sample_points(rng, p, 3):
        t = vx.transfer_xxz(mu, p, chain_identity(p))
        assert tn.rel_residual(h_dir @ t, t @ h_dir) < 1e-9


def test_contour_derivative_of_sinh(d_dz):
    z0 = 0.37 - 0.21j
    assert abs(d_dz(sinh, z0, 0.1, 32) - cosh(z0)) < 1e-13 * abs(cosh(z0))


@pytest.mark.parametrize("r", [0.05, 0.1])
def test_contour_derivative_near_a_pole(r, d_dz):
    # a pole at distance 3r: the trapezoid error falls like 3^-k
    z0 = 0.2 + 0.1j
    pole = z0 + 3 * r * np.exp(0.7j)
    expect = -1 / (z0 - pole) ** 2
    assert abs(d_dz(lambda z: 1 / (z - pole), z0, r, 32) - expect) < 1e-13 * abs(expect)


def test_hamiltonian_build_twice_determinism(p2, hamiltonian_direct):
    # termwise build against an independently ordered matrix sum
    h1 = hamiltonian_direct(p2)
    n = p2.N
    total = np.zeros((2**n, 2**n), dtype=complex)

    def at(mat, first):
        # mat on the sites first, first + 1, ... as a kron with identities
        k = int(np.log2(mat.shape[0]))
        return np.kron(np.kron(np.eye(2 ** (first - 1)), mat), np.eye(2 ** (n - first - k + 1)))

    pieces = []
    for i in range(1, n):
        for pauli in (tn.SX, tn.SY):
            pieces.append(at(np.kron(pauli, pauli), i))
        pieces.append(cosh(p2.eta) * at(np.kron(tn.SZ, tn.SZ), i))
    pref1 = sinh(p2.eta) / (sinh(p2.zeta_bar) * sinh(p2.delta_bar))
    pieces.append(pref1 * at(
        cosh(p2.zeta_bar) * cosh(p2.delta_bar) * tn.SZ + sinh(p2.tau_bar) * tn.SX - 1j * cosh(p2.tau_bar) * tn.SY, 1))
    pref_n = sinh(p2.eta) / (sinh(p2.zeta) * sinh(p2.delta))
    pieces.append(pref_n * at(
        -cosh(p2.zeta) * cosh(p2.delta) * tn.SZ - sinh(p2.tau) * tn.SX + 1j * cosh(p2.tau) * tn.SY, n))
    for piece in reversed(pieces):
        total = total + piece
    assert tn.max_abs(h1 - total) < 1e-13


@pytest.mark.parametrize("check", tuple(vx.VERTEX_RESIDUALS))
def test_vertex_identity_suite(check, p2):
    res = identity_suite({check: vx.VERTEX_RESIDUALS[check]}, vx.vertex_trial, p2, 7, 5)[check]
    assert res < 1e-10, (check, res)


ALGEBRA_CHECKS = [
    ("vertex", "reflection_algebra"),
    ("vertex", "dual_reflection_algebra"),
    ("sos", "sos_algebra"),
    ("sos", "dual_sos_algebra"),
]


# every check whose residual applies its operators to the seeded probe block
PROBE_CHECKS = [
    *[("vertex", c) for c in ("ybe", "reflection", "dual_reflection")],
    *[("sos", c) for c in (
        "dybe1", "dybe2", "vertex_face1", "vertex_face2", "dyn_reflection", "dual_dyn_reflection",
        "reflection_equivalence", "zero_weight", "that_inverse", "vhat_inverse", "monodromy_gauge",
        "dual_monodromy_gauge", "vsos_state", "dual_vsos_state", "gamma_parity", "isomorphism",
        "commutation_ab", "commutation_dtb",
    )],
]


def _suite(suite):
    """``(check, p, seed, trials) -> residual`` of one check of ``suite`` run alone."""
    registry, draw = (vx.VERTEX_RESIDUALS, vx.vertex_trial) if suite == "vertex" else (sos.SOS_RESIDUALS, sos.sos_trial)
    return lambda check, p, seed, trials: identity_suite({check: registry[check]}, draw, p, seed, trials)[check]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("suite, check", ALGEBRA_CHECKS)
def test_algebra_residual_column_blocks_match_whole_matrix(suite, check, n, whole_identity):
    # the residual on the column block of seeded probes reads what the
    # whole 2^(N+2)-square sides read, within 10x
    p = generic_params(n)
    probe, _ = whole_identity(lambda: _suite(suite)(check, p, seed=n, trials=1))
    assert probe < 1e-10


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("suite, check", PROBE_CHECKS)
def test_probe_residual_matches_whole_identity(suite, check, n, whole_identity):
    p = generic_params(n)
    probe, _ = whole_identity(lambda: _suite(suite)(check, p, seed=n, trials=1))
    assert probe < 1e-10


@pytest.mark.parametrize(
    "suite, check",
    [
        ("vertex", "ybe"),
        ("vertex", "reflection_algebra"),
        ("sos", "sos_algebra"),
        ("sos", "isomorphism"),
        ("sos", "that_inverse"),
        ("sos", "vhat_inverse"),
        ("sos", "zero_weight"),
        ("sos", "commutation_ab"),
        ("sos", "commutation_dtb"),
    ],
)
def test_probe_residual_sees_one_perturbed_gate(suite, check, p3, perturb_first_product):
    # plain gate lists, the inversion relations, zero weight and the exchange
    # relations: one gate of one side moved by eps reads at least eps / 10
    eps = 1e-9
    run = lambda: _suite(suite)(check, p3, seed=3, trials=1)
    assert run() < 1e-13
    perturb_first_product(eps)
    assert run() >= 0.1 * eps
