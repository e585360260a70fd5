from cmath import exp, sinh

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosxxz import sos
from sosxxz import tensor as tn
from sosxxz import vertex as vx
from sosxxz.errors import ConstraintViolated, DegenerateParameter
from sosxxz.params import generic_params, sample_points


def bounded_complex(lo=0.15, hi=1.2):
    mag = st.floats(lo, hi, allow_nan=False)
    phase = st.floats(0, 6.28, allow_nan=False)
    return st.builds(lambda m, ph: complex(m * np.cos(ph), m * np.sin(ph)), mag, phase)


@settings(max_examples=40, deadline=None)
@given(bounded_complex(), bounded_complex(), bounded_complex())
def test_gauge_determinant(lam, theta, omega):
    s = sos.gauge_s2(lam, theta, omega)
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    expect = -2 * exp(-omega) * sinh(theta)
    assert abs(det - expect) <= 1e-12 * max(abs(expect), 1)


def test_gauge_inverse_closed_form():
    lam, theta, omega = 0.31 + 0.21j, 0.63 + 0.29j, 0.25 + 0.13j
    prod = sos.gauge_s2(lam, theta, omega) @ sos.gauge_s2_inv(lam, theta, omega)
    assert tn.max_abs(prod - np.eye(2)) < 1e-13
    st_ = sos.gauge_s_tilde2(lam, theta, omega)
    assert tn.max_abs(st_ - tn.SY @ sos.gauge_s2(lam, theta, omega) @ tn.SY) < 1e-15


def test_gauge_singular_theta():
    with pytest.raises(DegenerateParameter):
        sos.gauge_s2(0.3, 0.0, 0.1, eps=1e-8)


def test_dyn_r_entries(p2):
    lam, theta = 0.31 + 0.17j, 0.63 + 0.29j
    r = sos.dyn_r4(lam, theta, p2.eta)
    assert r[0, 0] == sinh(lam + p2.eta)
    assert abs(r[1, 1] - sinh(lam) * sinh(theta - p2.eta) / sinh(theta)) < 1e-15
    assert abs(r[2, 1] - sinh(p2.eta) * sinh(theta + lam) / sinh(theta)) < 1e-15
    forced_zero = [(0, 1), (0, 2), (0, 3), (1, 0), (1, 3), (2, 0), (2, 3), (3, 0), (3, 1), (3, 2)]
    assert all(r[i, j] == 0 for i, j in forced_zero)
    with pytest.raises(DegenerateParameter):
        sos.dyn_r4(lam, 0.0, p2.eta, eps=1e-8)


@pytest.mark.parametrize("check", sos.SOS_CHECKS)
def test_sos_identity_suite(check, p2):
    res = sos.sos_identity_suite(check, p2, seed=11, trials=4)
    assert res < 1e-10, (check, res)


def test_zero_weight_exact(p2):
    assert sos.zero_weight_residual(0.21 + 0.12j, 0.63 + 0.29j, p2) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_weights(n):
    p = generic_params(n)
    theta = 0.63 + 0.29j
    lam = 0.21 + 0.12j
    blocks = sos.double_row_blocks(lam, theta, "minus", p)
    for name, weight in (("B", -2), ("C", +2), ("A", 0), ("D", 0)):
        assert sos.sector_leakage(blocks[name], weight) < 1e-13


def test_reference_state_actions(p2):
    # the closed-form reference actions hold at the consistent binding
    # theta = delta - zeta of the minus reflection algebra
    lam = 0.21 + 0.12j
    theta = p2.delta - p2.zeta
    v0 = tn.all_up(p2.N)
    blocks = sos.double_row_blocks(lam, theta, "minus", p2)
    assert np.max(np.abs(blocks["C"] @ v0)) < 1e-13 * tn.max_abs(blocks["C"])
    ea = sinh(p2.delta - lam) / sinh(p2.delta + lam)
    for x in p2.xi:
        ea *= sinh(lam - x + p2.eta) * sinh(lam + x + p2.eta)
    assert np.max(np.abs(blocks["A"] @ v0 - ea * v0)) / abs(ea) < 1e-13
    dt = sos.modified_d_minus(lam, theta, p2)
    ed = (
        sinh(2 * lam) * sinh(p2.zeta - lam - p2.eta) * sinh(p2.delta + lam + p2.eta)
        / (sinh(2 * lam + p2.eta) * sinh(p2.zeta + lam) * sinh(p2.delta + lam))
    )
    for x in p2.xi:
        ed *= sinh(lam - x) * sinh(lam + x)
    assert np.max(np.abs(dt @ v0 - ed * v0)) / abs(ed) < 1e-12


def test_commutation_relations_full_operator(p3):
    l1, l2 = 0.21 + 0.12j, -0.33 + 0.27j
    assert sos.commutation_residual(l1, l2, p3, "A") < 1e-10
    assert sos.commutation_residual(l1, l2, p3, "D") < 1e-10


def test_generalized_transfer_via_modified_d(p2):
    """The transfer matrix decomposes through D-tilde with the right-end
    coupling tied to theta sector by sector, for free theta."""
    lam = 0.21 + 0.12j
    theta = 0.63 + 0.29j
    eta, zb = p2.eta, p2.zeta_bar
    slegs = vx.site_legs(p2.N)
    szv = tn.sz_sum(slegs, slegs)
    dt = sos.modified_d_minus(lam, theta, p2)
    blocks = sos.double_row_blocks(lam, theta, "minus", p2)
    d_co = sinh(zb + lam + eta) / sinh(zb - lam - eta)
    a_co = np.array(
        [
            sinh(zb - lam) * sinh(zb + theta - eta * s + lam) * sinh(2 * lam + 2 * eta)
            / (sinh(zb - lam - eta) * sinh(zb + theta - eta * s - lam - eta) * sinh(2 * lam + eta))
            for s in szv
        ]
    )
    t_via = d_co * dt + a_co[:, None] * blocks["A"]
    out = np.zeros_like(t_via)
    for s, idx in sos.sector_indices(p2.N).items():
        kt = sos.tilde_k2(-lam - eta, theta + zb - eta * s, zb, eta)
        block = kt[0, 0] * blocks["A"] + kt[1, 1] * blocks["D"]
        out[:, idx] = block[:, idx]
    assert tn.max_abs(t_via - out) / tn.max_abs(out) < 1e-12


def test_transfer_gauge_identity(constrained2):
    """T_XXZ conjugated by the gauge row equals the dressed height trace."""
    p = constrained2
    lam = 0.21 + 0.12j
    theta = p.delta - p.zeta
    legs = vx.chain_legs(p.N)
    srow = sos.gauge_row(theta, p.tau, "minus", p)
    t = vx.transfer_xxz(lam, p)
    # S_0^{-1}(-lam; theta - eta S^z) as a dynamical gate
    s_inv = (lambda c: sos.gauge_s2_inv(-lam, theta + p.eta * c, p.tau, p.eps_pole), (vx.AUX,),
             [(l, -1) for l in vx.site_legs(p.N)])
    w = (
        tn.apply_gate(np.eye(2 ** (p.N + 1)), legs, vx.k2(lam, "plus", p), (vx.AUX,))
        @ tn.product(legs, [sos.gauge_aux_gate(lam, theta, p.tau, "minus", p)])
        @ tn.product(legs, sos.dyn_double_row_gates(lam, theta, "minus", p))
        @ tn.product(legs, [s_inv])
    )
    trace = tn.partial_trace(w, legs, vx.AUX)
    assert tn.rel_residual(t @ srow, srow @ trace) < 1e-10
    # on the constrained sector the dressed trace is the height transfer matrix
    idx = sos.sector_indices(p.N)[0]
    ts = sos.sos_transfer(lam, theta, "SOS1", p)
    diff = trace[np.ix_(idx, idx)] - ts[np.ix_(idx, idx)]
    assert np.max(np.abs(diff)) / np.max(np.abs(ts[np.ix_(idx, idx)])) < 1e-10


def test_gauge_coefficients_vanish_under_constraints(constrained2):
    p = constrained2
    lam = 0.21 + 0.12j
    m_b = sos.gauge_coefficient_matrix(lam, 0, -2, p)
    m_c = sos.gauge_coefficient_matrix(lam, 0, +2, p)
    scale = max(tn.max_abs(m_b), tn.max_abs(m_c))
    assert abs(m_b[1, 0]) < 1e-10 * scale
    assert abs(m_c[0, 1]) < 1e-10 * scale


def test_require_constraints(p2, constrained2):
    with pytest.raises(ConstraintViolated):
        sos.require_constraints(p2, 0)
    sos.require_constraints(constrained2, 0)


def test_sos_transfer_commutes_on_sector(constrained2):
    p = constrained2
    theta = p.delta - p.zeta
    t1 = sos.sos_transfer(0.21 + 0.12j, theta, "SOS1", p)
    t2 = sos.sos_transfer(-0.31 + 0.24j, theta, "SOS1", p)
    idx = sos.sector_indices(p.N)[0]
    a = t1[np.ix_(idx, idx)]
    b = t2[np.ix_(idx, idx)]
    assert tn.max_abs(a @ b - b @ a) / tn.max_abs(a @ b) < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_gamma_parity_operator_level(n):
    p = generic_params(n)
    assert sos.gamma_parity_residual(0.21 + 0.12j, p) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_isomorphism_operator_level(n):
    """The plus double-row matrix is the sigma^y-string, site-reversed,
    spectrally reflected image of the minus one with barred couplings and
    reversed, negated inhomogeneities."""
    p = generic_params(n)
    assert sos.isomorphism_residual(0.21 + 0.12j, 0.63 + 0.29j, p) < 1e-10


def test_isomorphism_block_form(p2, dense_symmetry):
    lam = 0.21 + 0.12j
    theta = p2.delta_bar - p2.zeta_bar
    cp = sos.double_row_blocks(lam, theta, "plus", p2)["C"]
    mapped = p2.replace(
        delta=p2.delta_bar, zeta=p2.zeta_bar, xi=tuple(-x for x in reversed(p2.xi))
    )
    bm = sos.double_row_blocks(-lam - p2.eta, theta, "minus", mapped)["B"]
    gy, perm = dense_symmetry(tn.SY, p2.N)
    assert tn.rel_residual(cp, gy @ perm @ bm @ perm.T @ gy) < 1e-10


def test_gamma_relation_for_transfer(p2, dense_symmetry):
    lam = 0.21 + 0.12j
    theta = p2.delta - p2.zeta
    swapped = p2.replace(
        delta=p2.zeta, zeta=p2.delta, delta_bar=p2.zeta_bar, zeta_bar=p2.delta_bar
    )
    t1 = sos.sos_transfer(lam, theta, "SOS1", p2)
    t2 = sos.sos_transfer(lam, -theta, "SOS1", swapped)
    gx, _ = dense_symmetry(tn.SX, p2.N)
    assert tn.rel_residual(t1, gx @ t2 @ gx) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_isomorphism_gate_form_matches_dense_oracle(n, dense_symmetry, within_10x):
    """The gate-list isomorphism check on the probe block agrees within 10x
    with the dense rel_residual(U_+, Gy P U_- P^T Gy), which has the sigma^y
    string and the site-reversal permutation as matrices."""
    p = generic_params(n)
    legs = vx.chain_legs(n)
    gy, perm = dense_symmetry(tn.SY, n, n + 1)
    mapped = p.replace(delta=p.delta_bar, zeta=p.zeta_bar, xi=tuple(-x for x in reversed(p.xi)))
    lams = sample_points(np.random.default_rng(40 + n), p, 3)
    for lam, theta in zip(lams, (0.63 + 0.29j, -0.41 + 0.37j, 0.27 - 0.52j)):
        u_plus = tn.product(legs, sos.dyn_double_row_gates(lam, theta, "plus", p))
        u_minus = tn.product(legs, sos.dyn_double_row_gates(-lam - p.eta, theta, "minus", mapped))
        dense = tn.rel_residual(u_plus, gy @ perm @ u_minus @ perm.T @ gy)
        res = sos.isomorphism_residual(lam, theta, p)
        assert within_10x(res, dense), (res, dense)


def dense_inverse_residual(lam, theta, p, kind):
    """The inversion relation in its dense form: That(lam) against
    gamma_hat(lam) T(-lam)^{-1}, or Vhat(lam) against gamma_tilde(lam)
    V(-lam - 2 eta)^{-1}, with the inverse from np.linalg.inv."""
    legs = vx.chain_legs(p.N)

    def monodromy(mu, which):
        return tn.product(legs, sos.dyn_monodromy_gates(mu, theta, which, p))

    if kind == "That":
        via = vx.gamma_hat(lam, p) * np.linalg.inv(monodromy(-lam, "T"))
    else:
        via = vx.gamma_tilde(lam, p) * np.linalg.inv(monodromy(-lam - 2 * p.eta, "V"))
    return tn.rel_residual(monodromy(lam, kind), via)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", ["That", "Vhat"])
def test_inverse_probe_residual_against_dense_inverse(kind, n):
    """The inversion relation as one gate-list product on the probe block
    never reads 10x below its dense form.  It may read above it: both grow
    with the condition number of the inverted monodromy, by different
    constants (up to 86x above, in one of these 36 cases at N = 6)."""
    p = generic_params(n)
    lams = sample_points(np.random.default_rng(n), p, 3)
    for lam, theta in zip(lams, (0.63 + 0.29j, -0.41 + 0.37j, 0.27 - 0.52j)):
        probe = sos.monodromy_inverse_residual(lam, theta, p, kind)
        dense = dense_inverse_residual(lam, theta, p, kind)
        assert 0.1 * dense <= max(probe, np.finfo(float).eps), (probe, dense)
        assert probe < 1e-10


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_block_string_matches_matrix_block(side, p3):
    """Each block applied gate by gate to a vector equals the block of the full double row times it."""
    lam, theta = 0.21 + 0.12j, 0.63 + 0.29j
    rng = np.random.default_rng(4)
    v = rng.normal(size=2**p3.N) + 1j * rng.normal(size=2**p3.N)
    blocks = sos.double_row_blocks(lam, theta, side, p3)
    for name in "ABCD":
        string = sos.block_column(lam, theta, side, name, p3, v)[0]
        expect = blocks[name] @ v
        assert np.max(np.abs(string - expect)) < 1e-13 * np.max(np.abs(expect)), name
