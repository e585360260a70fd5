import itertools
from cmath import cosh, exp, sinh

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosxxz import sos
from sosxxz import tensor as tn
from sosxxz import vertex as vx
from sosxxz.errors import DegenerateParameter
from sosxxz.params import generic_params, identity_suite, sample_points


def leg_identity(legs):
    """The identity on ``legs``: the x for which ``tn.product`` reads the dense operator."""
    return np.eye(2 ** len(legs), dtype=complex)


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


# scalar oracles: the cmath builders of one block at one (lam, theta)

SWAP4 = np.eye(4)[[0, 2, 1, 3]]


def _dyn_r4_scalar(lam, theta, eta):
    st, sl, se, sle = sinh(theta), sinh(lam), sinh(eta), sinh(lam + eta)
    return np.array(
        [
            [sle, 0, 0, 0],
            [0, sl * sinh(theta - eta) / st, se * sinh(theta - lam) / st, 0],
            [0, se * sinh(theta + lam) / st, sl * sinh(theta + eta) / st, 0],
            [0, 0, 0, sle],
        ],
        dtype=complex,
    )


def _crossed_l4_scalar(lam, theta, eta, kind):
    w = 1 if kind == "L" else -1
    r_up, r_down = (_dyn_r4_scalar(lam, theta + w * s * eta, eta) for s in (1, -1))
    if kind == "Lhat":
        r_up, r_down = SWAP4 @ r_up @ SWAP4, SWAP4 @ r_down @ SWAP4
    base = np.concatenate([r_up[:, :2], r_down[:, 2:]], axis=1)
    # entry (a b, c d) of the leg-1 transpose is entry (c b, a d)
    transposed = base.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    return transposed * np.array([sinh(theta - w * eta * s) / sinh(theta) for s in (1, -1, 1, -1)])


def _gauge_s2_scalar(lam, theta, omega):
    return exp(lam / 2) * np.array(
        [[exp(-(lam + theta + omega)), exp(-(lam - theta + omega))], [1.0, 1.0]], dtype=complex
    )


def _gauge_s2_inv_scalar(lam, theta, omega):
    det_m = -2 * exp(-lam - omega) * sinh(theta)
    return (exp(-lam / 2) / det_m) * np.array(
        [[1.0, -exp(-(lam - theta + omega))], [-1.0, exp(-(lam + theta + omega))]], dtype=complex
    )


# name -> (array builder, scalar oracle), each at (lam, theta, p)
ARRAY_BUILDERS = {
    "dyn_r4": (lambda l, t, p: sos.dyn_r4(l, t, p.eta), lambda l, t, p: _dyn_r4_scalar(l, t, p.eta)),
    "crossed_L": (
        lambda l, t, p: sos.crossed_l4(l, t, p.eta, "L"),
        lambda l, t, p: _crossed_l4_scalar(l, t, p.eta, "L"),
    ),
    "crossed_Lhat": (
        lambda l, t, p: sos.crossed_l4(l, t, p.eta, "Lhat"),
        lambda l, t, p: _crossed_l4_scalar(l, t, p.eta, "Lhat"),
    ),
    "gauge_s2": (lambda l, t, p: sos.gauge_s2(l, t, p.tau), lambda l, t, p: _gauge_s2_scalar(l, t, p.tau)),
    "gauge_s2_inv": (
        lambda l, t, p: sos.gauge_s2_inv(l, t, p.tau),
        lambda l, t, p: _gauge_s2_inv_scalar(l, t, p.tau),
    ),
    "gauge_s_tilde2": (
        lambda l, t, p: sos.gauge_s_tilde2(l, t, p.tau),
        lambda l, t, p: tn.SY @ _gauge_s2_scalar(l, t, p.tau) @ tn.SY,
    ),
}


@pytest.mark.parametrize("shape", [(), (9,), (2, 3)])
@pytest.mark.parametrize("name", tuple(ARRAY_BUILDERS))
def test_array_builder_matches_scalar_oracle(name, shape, p3):
    # array lam and theta give one block per entry, each within 1e-15 of
    # the cmath oracle relative to its largest entry; theta runs over the
    # shifts theta0 + eta c of a dynamical gate
    build, oracle = ARRAY_BUILDERS[name]
    rng = np.random.default_rng(len(shape))
    lam = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    theta = 0.63 + 0.29j + p3.eta * rng.integers(-3, 4, shape)
    stack = build(lam, theta, p3)
    assert stack.shape == shape + oracle(0.1, 0.6, p3).shape
    for idx in np.ndindex(shape):
        expect = oracle(complex(lam[idx]), complex(theta[idx]), p3)
        assert tn.max_abs(stack[idx] - expect) <= 1e-15 * tn.max_abs(expect), (name, idx)


@pytest.mark.parametrize("name", tuple(ARRAY_BUILDERS))
def test_array_builder_broadcasts_a_scalar_argument(name, p3):
    build, _ = ARRAY_BUILDERS[name]
    theta = 0.63 + 0.29j + p3.eta * np.arange(-2, 3)
    stack = build(0.31 + 0.17j, theta, p3)
    for i, t in enumerate(theta):
        assert tn.max_abs(stack[i] - build(0.31 + 0.17j, t, p3)) <= 1e-15 * tn.max_abs(stack[i])


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("name", ["dyn_r4", "crossed_L", "crossed_Lhat"])
def test_lam_factors_once_per_gate_equal_the_repeated_build(name, batch, p3):
    # sinh(lam) and sinh(lam + eta) taken once per gate value and repeated
    # give the blocks of the build on the repeated values, bit for bit
    sizes = np.array([1, 3, 2, 4])
    rng = np.random.default_rng(len(batch))
    x = rng.uniform(-1, 1, batch + (4,)) + 1j * rng.uniform(-1, 1, batch + (4,))
    theta = 0.63 + 0.29j + p3.eta * rng.integers(-3, 4, sizes.sum())
    repeat = lambda a: np.repeat(a, sizes, axis=-1)
    build = {
        "dyn_r4": lambda l, rep=None: sos.dyn_r4(l, theta, p3.eta, repeat=rep),
        "crossed_L": lambda l, rep=None: sos.crossed_l4(l, theta, p3.eta, "L", repeat=rep),
        "crossed_Lhat": lambda l, rep=None: sos.crossed_l4(l, theta, p3.eta, "Lhat", repeat=rep),
    }[name]
    assert np.array_equal(build(x, repeat), build(repeat(x)))


@pytest.mark.parametrize("kind", ["T", "That", "V", "Vhat"])
def test_pole_at_one_charge_is_degenerate(kind, p3):
    # at theta = 2 eta the shift theta + eta c vanishes at the charge c = -2
    # of one gate's stack only; a small offset clears it
    with pytest.raises(DegenerateParameter):
        sos.dyn_monodromy_gates(0.21 + 0.12j, 2 * p3.eta, kind, p3)
    gates = sos.dyn_monodromy_gates(0.21 + 0.12j, 2 * p3.eta + 1e-3, kind, p3)
    assert all(np.all(np.isfinite(stack)) for stack, _, _ in gates)
    with pytest.raises(DegenerateParameter):
        sos.gauge_row_gates(2 * p3.eta, p3.tau, "minus" if kind in ("T", "That") else "plus", p3)


@pytest.mark.parametrize("kind", ["T", "That", "V", "Vhat"])
def test_monodromy_stacks_hold_the_block_of_each_charge(kind, p3):
    # stack i of each gate is the block at the i-th of its charge values,
    # ascending: checked against the scalar oracle at each charge
    lam, theta = 0.21 + 0.12j, 0.63 + 0.29j
    hatted, crossed = kind.endswith("hat"), kind in ("V", "Vhat")
    for stack, on, charge in sos.dyn_monodromy_gates(lam, theta, kind, p3):
        k = int(next(l for l in on if l != vx.AUX)[1:])
        x = lam + p3.xi[k - 1] if hatted else lam - p3.xi[k - 1]
        weights = [w for _, w in charge]
        spins = itertools.product((1, -1), repeat=len(weights))
        values = sorted({sum(w * s for w, s in zip(weights, sz)) for sz in spins})
        assert len(stack) == len(values)
        for block, c in zip(stack, values):
            if crossed:
                expect = _crossed_l4_scalar(x, theta + p3.eta * c, p3.eta, "Lhat" if hatted else "L")
            else:
                expect = _dyn_r4_scalar(x, theta + p3.eta * c, p3.eta)
            assert tn.max_abs(block - expect) <= 1e-15 * tn.max_abs(expect)


@pytest.mark.parametrize("n", [1, 4, 6])
def test_d_tilde_matches_per_state_coefficients(n):
    # the S^z coefficients, once per distinct S^z and gathered, are the
    # per-basis-state loop bit for bit
    p = generic_params(n)
    rng = np.random.default_rng(n)
    blocks = {k: rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3)) for k in "AD"}
    lam, theta, eta = 0.31 + 0.17j, p.delta - p.zeta, p.eta
    sz = [sum(1 - 2 * ((i >> j) & 1) for j in range(n)) for i in range(2**n)]
    s2 = sinh(2 * lam + eta)
    front = np.array([sinh(theta - eta * s + eta) / sinh(theta - eta * s) for s in sz])
    inner = np.array([sinh(theta - eta * s + 2 * lam + eta) * sinh(eta) / (s2 * sinh(theta - eta * s + eta)) for s in sz])
    expect = front[:, None] * (blocks["D"] - inner[:, None] * blocks["A"])
    assert np.array_equal(sos._d_tilde(lam, theta, p, blocks), expect)


@pytest.mark.parametrize("check", tuple(sos.SOS_RESIDUALS))
def test_sos_identity_suite(check, p2):
    res = identity_suite({check: sos.SOS_RESIDUALS[check]}, sos.sos_trial, p2, 11, 4)[check]
    assert res < 1e-10, (check, res)


def test_zero_weight_exact(p2):
    assert sos.zero_weight_residual(0.21 + 0.12j, 0.63 + 0.29j, p2) < 1e-13


def sector_leakage(op, weight, sectors):
    """Largest entry of an operator on the sites that maps a sector S^z = s
    outside s + weight, relative to its largest entry."""
    worst = 0.0
    for s, idx in sectors.items():
        outside = np.ones(len(op), dtype=bool)
        outside[sectors.get(s + weight, [])] = False
        worst = max(worst, tn.max_abs(op[np.ix_(outside, idx)]))
    return worst / max(tn.max_abs(op), 1e-300)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_weights(n, double_row_blocks, sector_indices):
    p = generic_params(n)
    theta = 0.63 + 0.29j
    lam = 0.21 + 0.12j
    blocks = double_row_blocks(lam, theta, "minus", p)
    for name, weight in (("B", -2), ("C", +2), ("A", 0), ("D", 0)):
        assert sector_leakage(blocks[name], weight, sector_indices(n)) < 1e-13


def test_reference_state_actions(p2, double_row_blocks):
    # the closed-form reference actions hold at the consistent binding
    # theta = delta - zeta of the minus reflection algebra
    lam = 0.21 + 0.12j
    theta = p2.delta - p2.zeta
    v0 = tn.all_up(p2.N)
    blocks = double_row_blocks(lam, theta, "minus", p2)
    assert np.max(np.abs(blocks["C"] @ v0)) < 1e-13 * tn.max_abs(blocks["C"])
    ea = sinh(p2.delta - lam) / sinh(p2.delta + lam)
    for x in p2.xi:
        ea *= sinh(lam - x + p2.eta) * sinh(lam + x + p2.eta)
    assert np.max(np.abs(blocks["A"] @ v0 - ea * v0)) / abs(ea) < 1e-13
    dt = sos._d_tilde(lam, theta, p2, blocks)
    ed = (
        sinh(2 * lam) * sinh(p2.zeta - lam - p2.eta) * sinh(p2.delta + lam + p2.eta)
        / (sinh(2 * lam + p2.eta) * sinh(p2.zeta + lam) * sinh(p2.delta + lam))
    )
    for x in p2.xi:
        ed *= sinh(lam - x) * sinh(lam + x)
    assert np.max(np.abs(dt @ v0 - ed * v0)) / abs(ed) < 1e-12


def test_commutation_relations_full_operator(p3):
    l1, l2 = 0.21 + 0.12j, -0.33 + 0.27j
    res = sos.commutation_residual(l1, l2, p3)
    assert res["A"] < 1e-10
    assert res["D"] < 1e-10


@pytest.mark.parametrize("n", range(1, 7))
def test_one_commutation_evaluation_equals_each_relation_alone(n, commutation_alone):
    # the shared block strings act on the columns they acted on alone, so
    # both residuals keep their bits
    p = generic_params(n)
    for seed in range(3):
        l1, l2, _ = sample_points(np.random.default_rng(seed), p, 3)
        res = sos.commutation_residual(l1, l2, p)
        assert res == {left: commutation_alone(l1, l2, p, left) for left in "AD"}


# the block strings of one commutation evaluation in the order it applies
# them, with the relations that read each: the first five are shared, the
# A and D columns at l2 on x, at l1 on [x, B(l2) x] and B(l1) on
# [A(l2) x, D-tilde(l2) x]; the B column of the l1 D string feeds nothing,
# so the A relation does not read that string.  The first product, the one
# ``perturb_first_product`` hits by default, is the A column at l2.  There
# is no eighth product, so perturbing one moves nothing
COMMUTATION_STRINGS = ["AD", "AD", "AD", "D", "AD", "A", "D"]


@pytest.mark.parametrize("at, readers", enumerate([*COMMUTATION_STRINGS, ""]))
def test_perturbed_commutation_string_moves_every_relation_reading_it(at, readers, p3, perturb_first_product):
    # a gate of one string moved by eps reads at least eps / 10 in each
    # relation that reads the string, and leaves the other at rounding
    eps = 1e-9
    l1, l2, _ = sample_points(np.random.default_rng(3), p3, 3)
    assert max(sos.commutation_residual(l1, l2, p3).values()) < 1e-13
    perturb_first_product(eps, at=at)
    res = sos.commutation_residual(l1, l2, p3)
    for left in "AD":
        assert (res[left] >= 0.1 * eps) if left in readers else (res[left] < 1e-13), (left, res)


def test_generalized_transfer_via_modified_d(p2, double_row_blocks, sector_indices):
    """The transfer matrix decomposes through D-tilde with the right-end
    coupling tied to theta sector by sector, for free theta."""
    lam = 0.21 + 0.12j
    theta = 0.63 + 0.29j
    eta, zb = p2.eta, p2.zeta_bar
    slegs = vx.site_legs(p2.N)
    szv = sum(tn.leg_sz(slegs, l) for l in slegs)
    blocks = double_row_blocks(lam, theta, "minus", p2)
    dt = sos._d_tilde(lam, theta, p2, blocks)
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
    for s, idx in sector_indices(p2.N).items():
        kt = sos.tilde_k2(-lam - eta, theta + zb - eta * s, zb, eta)
        block = kt[0, 0] * blocks["A"] + kt[1, 1] * blocks["D"]
        out[:, idx] = block[:, idx]
    assert tn.max_abs(t_via - out) / tn.max_abs(out) < 1e-12


def test_transfer_gauge_identity(constrained2, aux_trace, sector_indices, gauge_row, chain_identity):
    """T_XXZ conjugated by the gauge row equals the dressed height trace."""
    p = constrained2
    lam = 0.21 + 0.12j
    theta = p.delta - p.zeta
    legs = vx.chain_legs(p.N)
    srow = gauge_row(theta, p.tau, "minus", p)
    t = vx.transfer_xxz(lam, p, chain_identity(p))
    # S_0^{-1}(-lam; theta - eta S^z) as a dynamical gate
    charge = [(l, -1) for l in vx.site_legs(p.N)]
    s_inv = (sos.gauge_s2_inv(-lam, theta + p.eta * tn.charge_values(charge), p.tau, p.eps_pole), (vx.AUX,), charge)
    w = (
        tn.product(legs, [(vx.k2(lam, "plus", p), (vx.AUX,))], leg_identity(legs))
        @ tn.product(legs, [sos.gauge_aux_gate(lam, theta, p.tau, "minus", p)], leg_identity(legs))
        @ tn.product(legs, sos.dyn_double_row_gates(lam, theta, "minus", p), leg_identity(legs))
        @ tn.product(legs, [s_inv], leg_identity(legs))
    )
    trace = aux_trace(w)
    assert tn.rel_residual(t @ srow, srow @ trace) < 1e-10
    # on the constrained sector the dressed trace is the height transfer matrix
    idx = sector_indices(p.N)[0]
    ts = sos.sos_transfer(lam, theta, "SOS1", p, chain_identity(p))
    diff = trace[np.ix_(idx, idx)] - ts[np.ix_(idx, idx)]
    assert np.max(np.abs(diff)) / np.max(np.abs(ts[np.ix_(idx, idx)])) < 1e-10


def gauge_coefficient_matrix(lam, s, shift, p):
    """S^{-1}(-lam; th - eta s) K_+(lam) S(lam; th - eta (s + shift)) with th = delta - zeta.

    The off-diagonal entries of this 2x2 matrix must vanish (shift = -2 for
    the B coefficient, +2 for the C one) when the boundary constraints hold.
    """
    th = p.delta - p.zeta
    sinv = sos.gauge_s2_inv(-lam, th - p.eta * s, p.tau, p.eps_pole)
    sm = sos.gauge_s2(lam, th - p.eta * (s + shift), p.tau, p.eps_pole)
    return sinv @ vx.k2(lam, "plus", p) @ sm


def test_gauge_coefficients_vanish_under_constraints(constrained2):
    p = constrained2
    lam = 0.21 + 0.12j
    m_b = gauge_coefficient_matrix(lam, 0, -2, p)
    m_c = gauge_coefficient_matrix(lam, 0, +2, p)
    scale = max(tn.max_abs(m_b), tn.max_abs(m_c))
    assert abs(m_b[1, 0]) < 1e-10 * scale
    assert abs(m_c[0, 1]) < 1e-10 * scale


def constraint_residuals(p, s):
    """Residuals of the two boundary constraints at sector s."""
    lhs = cosh(p.delta_bar - p.zeta_bar)
    base = p.delta - p.zeta - p.eta * s
    r1 = abs(lhs - cosh(base + p.tau_bar - p.tau - p.eta))
    r2 = abs(lhs - cosh(base - p.tau_bar + p.tau + p.eta))
    return float(r1), float(r2)


def test_constraints_hold_only_where_imposed(p2, constrained2):
    assert max(constraint_residuals(p2, 0)) > 1e-10
    assert max(constraint_residuals(constrained2, 0)) < 1e-10


def test_sos_transfer_commutes_on_sector(constrained2, sector_indices, chain_identity):
    p = constrained2
    theta = p.delta - p.zeta
    t1 = sos.sos_transfer(0.21 + 0.12j, theta, "SOS1", p, chain_identity(p))
    t2 = sos.sos_transfer(-0.31 + 0.24j, theta, "SOS1", p, chain_identity(p))
    idx = sector_indices(p.N)[0]
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


def test_isomorphism_block_form(p2, dense_symmetry, double_row_blocks):
    lam = 0.21 + 0.12j
    theta = p2.delta_bar - p2.zeta_bar
    cp = double_row_blocks(lam, theta, "plus", p2)["C"]
    mapped = p2.replace(
        delta=p2.delta_bar, zeta=p2.zeta_bar, xi=tuple(-x for x in reversed(p2.xi))
    )
    bm = double_row_blocks(-lam - p2.eta, theta, "minus", mapped)["B"]
    gy, perm = dense_symmetry(tn.SY, p2.N)
    assert tn.rel_residual(cp, gy @ perm @ bm @ perm.T @ gy) < 1e-10


def test_gamma_relation_for_transfer(p2, dense_symmetry, chain_identity):
    lam = 0.21 + 0.12j
    theta = p2.delta - p2.zeta
    swapped = p2.replace(
        delta=p2.zeta, zeta=p2.delta, delta_bar=p2.zeta_bar, zeta_bar=p2.delta_bar
    )
    t1 = sos.sos_transfer(lam, theta, "SOS1", p2, chain_identity(p2))
    t2 = sos.sos_transfer(lam, -theta, "SOS1", swapped, chain_identity(swapped))
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
        u_plus = tn.product(legs, sos.dyn_double_row_gates(lam, theta, "plus", p), leg_identity(legs))
        mirrored = sos.dyn_double_row_gates(-lam - p.eta, theta, "minus", mapped)
        u_minus = tn.product(legs, mirrored, leg_identity(legs))
        dense = tn.rel_residual(u_plus, gy @ perm @ u_minus @ perm.T @ gy)
        res = sos.isomorphism_residual(lam, theta, p)
        assert within_10x(res, dense), (res, dense)


def dense_inverse_residual(lam, theta, p, kind):
    """The inversion relation in its dense form: That(lam) against
    gamma_hat(lam) T(-lam)^{-1}, or Vhat(lam) against gamma_tilde(lam)
    V(-lam - 2 eta)^{-1}, with the inverse from np.linalg.inv."""
    legs = vx.chain_legs(p.N)

    def monodromy(mu, which):
        return tn.product(legs, sos.dyn_monodromy_gates(mu, theta, which, p), leg_identity(legs))

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
def test_block_string_matches_matrix_block(side, p3, block_column):
    """Each block applied gate by gate to a vector equals the block of the full double row times it."""
    lam, theta = 0.21 + 0.12j, 0.63 + 0.29j
    rng = np.random.default_rng(4)
    v = rng.normal(size=2**p3.N) + 1j * rng.normal(size=2**p3.N)
    legs = vx.chain_legs(p3.N)
    u = tn.product(legs, sos.dyn_double_row_gates(lam, theta, side, p3), leg_identity(legs))
    u = u.reshape(2, 2**p3.N, 2, 2**p3.N)
    blocks = {name: u[r, :, c] for name, (r, c) in sos._BLOCK_INDEX[side].items()}
    for name in "ABCD":
        string = block_column(lam, theta, side, name, p3, v)[0]
        expect = blocks[name] @ v
        assert np.max(np.abs(string - expect)) < 1e-13 * np.max(np.abs(expect)), name


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("side", ["minus", "plus"])
def test_batched_block_columns_equal_single_calls_bit_for_bit(n, side, block_column):
    # B values of lam, each with its own inhomogeneities and input, against B
    # calls on the same inputs; vectors and column blocks
    p = generic_params(n)
    rng = np.random.default_rng(10 * n)
    lams = np.array(sample_points(rng, p, 4))
    xis = np.array([rng.permutation(np.array(p.xi)) for _ in lams])
    theta = p.theta(side)
    for shape in [(len(lams), 2**n), (len(lams), 2**n, 3)]:
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for name in "ABCD":
            got = block_column(lams, theta, side, name, p, v, xis)
            for b, lam in enumerate(lams):
                one = block_column(complex(lam), theta, side, name, p.replace(xi=tuple(xis[b])), v[b])
                assert np.array_equal(got[0][b], one[0]) and np.array_equal(got[1][b], one[1]), (name, b)


@pytest.mark.parametrize("n, steps", [(1, 1), (3, 2), (4, 4)])
@pytest.mark.parametrize("side", ["minus", "plus"])
def test_block_strings_apply_each_block_as_its_own_build(n, steps, side, block_column, monkeypatch):
    # three strings, each with its own blocks, points and inhomogeneities,
    # last column first: every step's pair equals the single block on that
    # string's input bit for bit, and all the blocks share one gate build
    p = generic_params(n)
    rng = np.random.default_rng(7 * n + steps)
    lam = np.array([sample_points(rng, p, steps) for _ in range(3)])
    xis = np.array([rng.permutation(np.array(p.xi)) for _ in lam])
    names = ["B", "C", "B"]
    v = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
    builds = []
    gates = sos.dyn_double_row_gates
    monkeypatch.setattr(sos, "dyn_double_row_gates", lambda *a: builds.append(a) or gates(*a))
    pairs = list(sos.block_strings(lam, p.theta(side), side, names, p, v, xis))
    assert list(sos.block_strings(lam[:, :0], p.theta(side), side, names, p, v, xis)) == []
    assert len(builds) == 1 and len(pairs) == steps
    for b, name in enumerate(names):
        w = v[b]
        for t, (applied, other) in enumerate(pairs):
            want = block_column(lam[b, steps - 1 - t], p.theta(side), side, name, p.replace(xi=tuple(xis[b])), w)
            assert np.array_equal(applied[b], want[0]) and np.array_equal(other[b], want[1]), (b, t)
            w = want[0]


def test_batched_k_diag_keeps_the_scalar_entries(p3):
    lams = [0.21 + 0.12j, -0.33 + 0.4j, 0.05 - 0.61j]
    for side in ("minus", "plus"):
        stack = sos.k_diag(np.array(lams), side, p3)
        for k, lam in zip(stack, lams):
            assert np.array_equal(k, sos.k_diag(lam, side, p3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sos_transfer_is_the_trace_of_its_blocks(n, double_row_blocks, chain_identity):
    # the traced gate list against k_00 A + k_11 D from the block strings
    p = generic_params(n)
    theta = 0.63 + 0.29j
    for mu in sample_points(np.random.default_rng(n), p, 2):
        for which, side, kt in (
            ("SOS1", "minus", sos.tilde_k2(-mu - p.eta, p.delta_bar, p.zeta_bar, p.eta)),
            ("SOS2", "plus", sos.tilde_k2(mu, p.delta, p.zeta, p.eta)),
        ):
            blocks = double_row_blocks(mu, theta, side, p)
            expect = kt[0, 0] * blocks["A"] + kt[1, 1] * blocks["D"]
            assert tn.rel_residual(sos.sos_transfer(mu, theta, which, p, chain_identity(p)), expect) < 1e-15


@pytest.mark.parametrize("which", ["SOS1", "SOS2"])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_sos_transfer_at_three_points_equals_each_point_alone(n, which):
    # one batched traced product for the three points, on a vector and on a
    # block of columns, against one call per point, bit for bit
    p = generic_params(n)
    rng = np.random.default_rng(n)
    mus = np.array(sample_points(rng, p, 3))
    theta = 0.63 + 0.29j
    x = rng.normal(size=(2**n, 4)) + 1j * rng.normal(size=(2**n, 4))
    for y in (x, x[:, 0]):
        got = sos.sos_transfer(mus, theta, which, p, y)
        assert got.shape == (3,) + y.shape
        for mu, t in zip(mus, got):
            assert np.array_equal(t, sos.sos_transfer(mu, theta, which, p, y))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sector_transfer_is_the_sector_columns_of_sos_transfer(n, sector_indices, chain_identity):
    # both transfer kinds keep S^z exactly at generic couplings: every column
    # of a sector lands in it, and nothing leaves
    p = generic_params(n)
    theta = 0.63 + 0.29j
    for mu in sample_points(np.random.default_rng(n), p, 2):
        for which in ("SOS1", "SOS2"):
            full = sos.sos_transfer(mu, theta, which, p, chain_identity(p))
            for s, expect in sector_indices(n).items():
                idx, cols = sos.sector_transfer(mu, theta, which, p, s)
                assert np.array_equal(idx, np.sort(expect))
                assert tn.rel_residual(cols, full[:, idx]) < 1e-15
                outside = np.setdiff1d(np.arange(2**n), idx)
                assert not np.any(cols[outside])
