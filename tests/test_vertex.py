from cmath import cosh, sinh

import numpy as np
import pytest

from sosxxz import sos
from sosxxz import tensor as tn
from sosxxz import vertex as vx
from sosxxz.errors import DegenerateParameter, NotHomogeneous
from sosxxz.params import generic_params, sample_points


def test_r_matrix_entries(p2):
    lam = 0.31 + 0.17j
    r = vx.r4(lam, p2.eta)
    assert r[0, 0] == sinh(lam + p2.eta)
    assert r[1, 1] == sinh(lam)
    assert r[1, 2] == sinh(p2.eta)
    assert tn.rel_residual(vx.r4(0, p2.eta), sinh(p2.eta) * tn.PERM4) < 1e-15


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
    from sosxxz.params import generic_params

    p = generic_params(1)
    t = vx.bulk_monodromy(p.xi[0], p)
    expected = sinh(p.eta) * tn.PERM4
    assert tn.rel_residual(t, expected) < 1e-14


def test_yang_baxter_algebra(p2):
    l1, l2 = 0.21 + 0.12j, -0.33 + 0.27j
    legs = ("x1", "x2") + vx.site_legs(p2.N)
    r12 = [(vx.r4(l1 - l2, p2.eta), ("x1", "x2"))]
    t1 = vx.on_aux(vx.monodromy_gates(l1, p2), "x1")
    t2 = vx.on_aux(vx.monodromy_gates(l2, p2), "x2")
    assert tn.rel_residual(tn.product(legs, r12 + t1 + t2), tn.product(legs, t2 + t1 + r12)) < 1e-11


def test_hat_monodromy_two_paths(p2):
    lam = 0.31 + 0.17j
    direct = vx.hat_monodromy(lam, p2)
    inverse = vx.hat_monodromy(lam, p2, via_inverse=True)
    assert tn.rel_residual(direct, inverse) < 1e-11
    prod = direct @ vx.bulk_monodromy(-lam, p2)
    assert tn.rel_residual(prod, vx.gamma_hat(lam, p2) * np.eye(len(direct))) < 1e-11


def test_double_row_two_path_consistency(p2):
    lam = 0.27 - 0.19j
    legs = vx.chain_legs(p2.N)
    u_direct = vx.double_row(lam, "minus", p2)
    that = vx.hat_monodromy(lam, p2, via_inverse=True)
    u_inverse = vx.bulk_monodromy(lam, p2) @ tn.apply_gate(that, legs, vx.k2(lam, "minus", p2), (vx.AUX,))
    assert tn.rel_residual(u_direct, u_inverse) < 1e-10


def test_diagonal_boundary_annihilates_reference(p2):
    # with a diagonal boundary matrix the all-up state is annihilated by
    # the lowering block; the general non-diagonal boundary breaks this
    lam = 0.23 + 0.31j
    legs = vx.chain_legs(p2.N)
    from sosxxz.sos import k2_minus_diag

    kd = (k2_minus_diag(lam, p2.delta, p2.zeta), ("a0",))
    u = tn.product(legs, [*vx.monodromy_gates(lam, p2), kd, *vx.monodromy_gates(lam, p2, hatted=True)])
    d = 2**p2.N
    c_block = u[d:, :d]
    v0 = tn.all_up(p2.N)
    assert np.max(np.abs(c_block @ v0)) < 1e-12 * tn.max_abs(c_block)
    u_gen = vx.double_row(lam, "minus", p2)
    c_gen = u_gen[d:, :d]
    assert np.max(np.abs(c_gen @ v0)) > 1e-6 * tn.max_abs(c_gen)


def test_reflection_algebra_of_double_row(p2):
    assert vx.reflection_algebra_residual(0.21 + 0.12j, -0.33 + 0.27j, p2, "minus") < 1e-10
    assert vx.reflection_algebra_residual(0.21 + 0.12j, -0.33 + 0.27j, p2, "plus") < 1e-10


def test_transfer_matrices_commute(p2):
    t1 = vx.transfer_xxz(0.23 + 0.11j, p2)
    t2 = vx.transfer_xxz(-0.37 + 0.29j, p2)
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


def test_transfer_n1_hand_expansion(p1):
    lam = 0.19 - 0.27j
    hand = _transfer_n1_by_hand(lam, p1)
    built = vx.transfer_xxz(lam, p1)
    assert tn.max_abs(hand - built) / tn.max_abs(hand) < 1e-12


def test_transfer_spectrum_symmetric_in_inhomogeneities(p2):
    mu = 0.21 - 0.17j
    e1 = np.sort_complex(np.linalg.eigvals(vx.transfer_xxz(mu, p2)))
    swapped = p2.replace(xi=(p2.xi[1], p2.xi[0]))
    e2 = np.sort_complex(np.linalg.eigvals(vx.transfer_xxz(mu, swapped)))
    assert np.max(np.abs(e1 - e2)) / np.max(np.abs(e1)) < 1e-9


def _match_spectra(a, b):
    a = sorted(a, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    b = sorted(b, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    return max(abs(x - y) for x, y in zip(a, b))


def test_hamiltonian_spectrum_symmetric_in_boundary_swap(p2):
    h0 = np.linalg.eigvals(vx.hamiltonian_direct(p2))
    swapped = p2.replace(delta=p2.zeta, zeta=p2.delta, delta_bar=p2.zeta_bar, zeta_bar=p2.delta_bar)
    h1 = np.linalg.eigvals(vx.hamiltonian_direct(swapped))
    assert _match_spectra(h0, h1) / np.max(np.abs(h0)) < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_hamiltonian_reconstruction(n):
    from sosxxz.params import generic_params

    p = generic_params(n).replace(xi=(0,) * n)
    h_cand, kappa = vx.hamiltonian(p)
    h_dir = vx.hamiltonian_direct(p)
    resid = tn.max_abs(h_cand - h_dir - kappa * np.eye(2**n)) / tn.max_abs(h_cand)
    assert resid < 1e-8
    rng = np.random.default_rng(9)
    for mu in sample_points(rng, p, 3):
        t = vx.transfer_xxz(mu, p)
        assert tn.rel_residual(h_dir @ t, t @ h_dir) < 1e-9


def test_hamiltonian_requires_homogeneous(p2):
    with pytest.raises(NotHomogeneous):
        vx.hamiltonian(p2)


def test_hamiltonian_build_twice_determinism(p2):
    # termwise build against an independently ordered matrix sum
    h1 = vx.hamiltonian_direct(p2)
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


@pytest.mark.parametrize("check", vx.VERTEX_CHECKS)
def test_vertex_identity_suite(check, p2):
    res = vx.vertex_identity_suite(check, p2, seed=7, trials=5)
    assert res < 1e-10, (check, res)


ALGEBRA_CHECKS = [
    ("vertex", "reflection_algebra"),
    ("vertex", "dual_reflection_algebra"),
    ("sos", "sos_algebra"),
    ("sos", "dual_sos_algebra"),
]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("suite, check", ALGEBRA_CHECKS)
def test_algebra_residual_column_blocks_match_whole_matrix(suite, check, n, monkeypatch):
    # blocked sides give the residual of the whole 2^(N+2)-square sides
    # exactly: half the columns, and 12, which divides no power of two
    blocked = tn.product_residual
    seen = []

    def compare(legs, lhs, rhs):
        d = 2 ** len(legs)
        whole = tn.rel_residual(tn.product(legs, lhs), tn.product(legs, rhs))
        for width in (d // 2, 12):
            assert blocked(legs, lhs, rhs, width) == whole
        seen.append(d)
        return blocked(legs, lhs, rhs)

    monkeypatch.setattr(tn, "product_residual", compare)
    run = vx.vertex_identity_suite if suite == "vertex" else sos.sos_identity_suite
    assert run(check, generic_params(n), seed=n, trials=2) < 1e-10
    assert seen == [2 ** (n + 2)] * 2
