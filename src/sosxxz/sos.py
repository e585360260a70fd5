"""Dynamical (SOS) layer: gauge matrices, dynamical R-matrix, monodromies.

Operator-valued dynamical shifts like theta - eta * sum_i sigma^z_i are
resolved per computational-basis configuration of the shift legs, read
off the input (column) state.  For shifts involving the auxiliary space
itself (which does not commute with the matrix it parameterizes) this
realizes the normal ordering in which the sigma^z argument acts first.
"""

from __future__ import annotations

from cmath import cosh, exp, sinh
from functools import lru_cache
from typing import Callable

import numpy as np

from . import tensor as tn
from . import vertex as vx
from .errors import ConstraintViolated, DegenerateParameter
from .params import SAMPLE_MARGIN, ModelParams, min_pole_gap, sample_points
from .vertex import AUX, chain_legs, site_legs


# ----------------------------------------------------------------------
# gauge (vertex-face) matrices


def gauge_s2(lam: complex, theta: complex, omega: complex, eps: float = 0.0) -> np.ndarray:
    """Local gauge matrix S(lam; theta, omega); det S = -2 e^{-omega} sinh(theta)."""
    if abs(sinh(theta)) <= eps:
        raise DegenerateParameter(f"gauge matrix singular: |sinh(theta)| <= {eps:.1e}")
    return exp(lam / 2) * np.array(
        [
            [exp(-(lam + theta + omega)), exp(-(lam - theta + omega))],
            [1.0, 1.0],
        ],
        dtype=complex,
    )


def gauge_s2_inv(lam: complex, theta: complex, omega: complex, eps: float = 0.0) -> np.ndarray:
    """Closed-form inverse of the gauge matrix."""
    if abs(sinh(theta)) <= eps:
        raise DegenerateParameter(f"gauge matrix singular: |sinh(theta)| <= {eps:.1e}")
    det_m = -2 * exp(-lam - omega) * sinh(theta)
    return (exp(-lam / 2) / det_m) * np.array(
        [
            [1.0, -exp(-(lam - theta + omega))],
            [-1.0, exp(-(lam + theta + omega))],
        ],
        dtype=complex,
    )


def gauge_s_tilde2(lam: complex, theta: complex, omega: complex, eps: float = 0.0) -> np.ndarray:
    """S-tilde = sigma^y S sigma^y."""
    return tn.SY @ gauge_s2(lam, theta, omega, eps) @ tn.SY


def gauge_s_tilde2_inv(lam: complex, theta: complex, omega: complex, eps: float = 0.0) -> np.ndarray:
    return tn.SY @ gauge_s2_inv(lam, theta, omega, eps) @ tn.SY


# ----------------------------------------------------------------------
# dynamical R-matrix and crossed L-operators


def dyn_r4(lam: complex, theta: complex, eta: complex, eps: float = 0.0) -> np.ndarray:
    """Dynamical R-matrix (trigonometric SOS weights) as a raw 4x4 block."""
    st = sinh(theta)
    if abs(st) <= eps:
        raise DegenerateParameter(f"|sinh(theta)| <= {eps:.1e} in dynamical R")
    sl, se = sinh(lam), sinh(eta)
    sle = sinh(lam + eta)
    return np.array(
        [
            [sle, 0, 0, 0],
            [0, sl * sinh(theta - eta) / st, se * sinh(theta - lam) / st, 0],
            [0, se * sinh(theta + lam) / st, sl * sinh(theta + eta) / st, 0],
            [0, 0, 0, sle],
        ],
        dtype=complex,
    )


_L_LEGS = ("c1", "c2")


def crossed_l4(lam: complex, theta: complex, eta: complex, kind: str = "L", eps: float = 0.0) -> np.ndarray:
    """Crossed L-operator on two legs as a raw 4x4 block.

    kind "L":    L^{t1}_{12}(lam; th) = R^{t1}_{12}(lam; th + eta sz_1) sinh(th - eta sz_2)/sinh th
    kind "Lhat": Lhat^{t1}_{21}(lam; th) = R^{t1}_{21}(lam; th - eta sz_1) sinh(th + eta sz_2)/sinh th
    """
    if kind not in ("L", "Lhat"):
        raise ValueError(f"unknown crossed L kind {kind!r}")
    if abs(sinh(theta)) <= eps:
        raise DegenerateParameter("crossed L needs |sinh(theta)| > eps")
    w = 1 if kind == "L" else -1
    r_up, r_down = (dyn_r4(lam, theta + w * s * eta, eta, eps) for s in (1, -1))
    if kind == "Lhat":
        r_up, r_down = tn.swapped4(r_up), tn.swapped4(r_down)
    # the sigma^z_1 argument acts first: it picks the columns of the
    # untransposed matrix (sz_1 = +1 are the first two), then leg 1 is transposed
    base = np.concatenate([r_up[:, :2], r_down[:, 2:]], axis=1)
    pref = [sinh(theta - w * eta * s) / sinh(theta) for s in (1, -1, 1, -1)]
    return tn.transpose_first4(base) * np.array(pref)


# ----------------------------------------------------------------------
# diagonal SOS boundary matrices


def k2_minus_diag(lam: complex, delta: complex, zeta: complex, eps: float = 0.0) -> np.ndarray:
    """Diagonalized boundary matrix of the height picture."""
    d1, d2 = sinh(delta + lam), sinh(zeta + lam)
    if abs(d1) <= eps or abs(d2) <= eps:
        raise DegenerateParameter("diagonal K_- denominator vanishes")
    return np.diag([sinh(delta - lam) / d1, sinh(zeta - lam) / d2]).astype(complex)


def tilde_k2(lam: complex, delta: complex, zeta: complex, eta: complex, eps: float = 0.0) -> np.ndarray:
    """sinh(th - eta sz)/sinh(th) * K_-(lam; d, z), th = d - z (2x2 diagonal).

    The dressed K_+(lam) of the barred pair is tilde_k2(-lam - eta, db, zb).
    """
    th = delta - zeta
    if abs(sinh(th)) <= eps:
        raise DegenerateParameter("|sinh(delta - zeta)| too small")
    base = k2_minus_diag(lam, delta, zeta, eps)
    return np.diag([sinh(th - eta) / sinh(th), sinh(th + eta) / sinh(th)]) @ base


# ----------------------------------------------------------------------
# dynamical monodromy matrices


# kind -> (hatted, crossed).  Hatted factors take lam + xi_k, the others
# lam - xi_k; crossed factors are L^{t0} gates shifted by the sites below k,
# the others R gates shifted by the sites above k.
_MONODROMY = {"T": (False, False), "That": (True, False), "V": (False, True), "Vhat": (True, True)}


def dyn_monodromy_gates(lam: complex, theta: complex, kind: str, p: ModelParams) -> list:
    """Gates of the dynamical monodromy matrices on legs (aux, s1..sN), left to right.

    kind "T":    R_{01}(lam-xi_1; th - eta sum_{i>1} sz_i) ... R_{0N}(lam-xi_N; th)
    kind "That": R_{N0}(lam+xi_N; th) ... R_{10}(lam+xi_1; th - eta sum_{i>1} sz_i)
    kind "V":    L^{t0}_{0N}(lam-xi_N; th + eta sum_{i<N} sz_i) ... L^{t0}_{01}(lam-xi_1; th)
    kind "Vhat": Lhat^{t0}_{10}(lam+xi_1; th) ... Lhat^{t0}_{N0}(lam+xi_N; th + eta sum_{i<N} sz_i)
    """
    if kind not in _MONODROMY:
        raise ValueError(f"unknown monodromy kind {kind!r}")
    hatted, crossed = _MONODROMY[kind]
    N, eta, eps = p.N, p.eta, p.eps_pole

    def gate(k):
        x = lam + p.xi[k - 1] if hatted else lam - p.xi[k - 1]
        if crossed:
            l_kind = "Lhat" if hatted else "L"
            block = lambda c: crossed_l4(x, theta + eta * c, eta, l_kind, eps)
            return block, (AUX, f"s{k}"), [(f"s{i}", +1) for i in range(1, k)]
        block = lambda c: dyn_r4(x, theta + eta * c, eta, eps)
        on = (f"s{k}", AUX) if hatted else (AUX, f"s{k}")
        return block, on, [(f"s{i}", -1) for i in range(k + 1, N + 1)]

    sites = range(1, N + 1)
    return [gate(k) for k in (reversed(sites) if hatted != crossed else sites)]


def dyn_monodromy(lam: complex, theta: complex, kind: str, p: ModelParams) -> np.ndarray:
    """Dynamical monodromy matrix of the given kind (see ``dyn_monodromy_gates``)."""
    return tn.product(chain_legs(p.N), dyn_monodromy_gates(lam, theta, kind, p))


def dyn_monodromy_inverse_form(lam: complex, theta: complex, kind: str, p: ModelParams) -> np.ndarray:
    """That and Vhat from the inversion identities (two-path consistency)."""
    if kind == "That":
        return vx.gamma_hat(lam, p) * np.linalg.inv(dyn_monodromy(-lam, theta, "T", p))
    if kind == "Vhat":
        return vx.gamma_tilde(lam, p) * np.linalg.inv(dyn_monodromy(-lam - 2 * p.eta, theta, "V", p))
    raise ValueError(f"no inverse form for kind {kind!r}")


# ----------------------------------------------------------------------
# dynamical double-row monodromy matrices and their blocks


def dyn_double_row_gates(lam: complex, theta: complex, side: str, p: ModelParams) -> list:
    """Gates of U_-(lam; theta) = T K_- That for side "minus", of
    U_+^{t_0}(lam; theta) = V K_+ Vhat for side "plus".

    The minus side uses the diagonal K_-(lam; delta, zeta); the plus side
    the diagonal K_+(lam) = K_-(-lam-eta; delta_bar, zeta_bar).
    """
    if side == "minus":
        k, kinds = k2_minus_diag(lam, p.delta, p.zeta, p.eps_pole), ("T", "That")
    elif side == "plus":
        k, kinds = k2_minus_diag(-lam - p.eta, p.delta_bar, p.zeta_bar, p.eps_pole), ("V", "Vhat")
    else:
        raise ValueError(f"unknown side {side!r}")
    left, right = (dyn_monodromy_gates(lam, theta, kind, p) for kind in kinds)
    return [*left, (k, (AUX,)), *right]


def dyn_double_row(lam: complex, theta: complex, side: str, p: ModelParams) -> np.ndarray:
    """U_-(lam; theta) for side "minus", U_+^{t_0}(lam; theta) for side "plus"."""
    return tn.product(chain_legs(p.N), dyn_double_row_gates(lam, theta, side, p))


_BLOCK_INDEX = {
    "minus": {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)},
    # layout of U_+^{t_0}: upper-right block is C_+, lower-left is B_+
    "plus": {"A": (0, 0), "C": (0, 1), "B": (1, 0), "D": (1, 1)},
}


def block_column(
    lam: complex, theta: complex, side: str, name: str, p: ModelParams, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Block ``name`` = U[r, c] applied to v, and the other block U[1 - r, c] of its column.

    Both are auxiliary rows of U(lam; theta)(e_c (x) v), built gate by gate
    without the double-row matrix; v is a (2^N,) vector or a (2^N, m)
    matrix, so the identity gives the blocks themselves.
    """
    r, c = _BLOCK_INDEX[side][name]
    x = np.zeros((2,) + np.shape(v), dtype=complex)
    x[c] = v
    y = tn.product(chain_legs(p.N), dyn_double_row_gates(lam, theta, side, p), x.reshape((-1,) + x.shape[2:]))
    y = y.reshape(x.shape)
    return y[r], y[1 - r]


def double_row_blocks(lam: complex, theta: complex, side: str, p: ModelParams) -> dict[str, np.ndarray]:
    """All four blocks of one double row, as 2^N arrays."""
    d = 2**p.N
    u = tn.product(chain_legs(p.N), dyn_double_row_gates(lam, theta, side, p))
    return {name: u[r * d:(r + 1) * d, c * d:(c + 1) * d] for name, (r, c) in _BLOCK_INDEX[side].items()}


def _d_tilde(lam: complex, theta: complex, p: ModelParams, blocks: dict[str, np.ndarray]) -> np.ndarray:
    legs = site_legs(p.N)
    sz = tn.sz_sum(legs, legs)
    s2 = sinh(2 * lam + p.eta)
    if abs(s2) <= p.eps_pole:
        raise DegenerateParameter("|sinh(2 lam + eta)| too small for modified D_-")
    for s in np.unique(sz):
        if abs(sinh(theta - p.eta * s)) <= p.eps_pole:
            raise DegenerateParameter("|sinh(theta - eta S^z)| too small for modified D_-")
    front = np.array([sinh(theta - p.eta * s + p.eta) / sinh(theta - p.eta * s) for s in sz])
    inner = np.array(
        [
            sinh(theta - p.eta * s + 2 * lam + p.eta)
            * sinh(p.eta)
            / (s2 * sinh(theta - p.eta * s + p.eta))
            for s in sz
        ]
    )
    return front[:, None] * (blocks["D"] - inner[:, None] * blocks["A"])


def modified_d_minus(lam: complex, theta: complex, p: ModelParams) -> np.ndarray:
    """Modified diagonal generator D-tilde of the minus reflection algebra."""
    return _d_tilde(lam, theta, p, double_row_blocks(lam, theta, "minus", p))


# ----------------------------------------------------------------------
# gauge rows and auxiliary-space gauges with operator shifts


def gauge_row_gates(
    theta: complex,
    omega: complex,
    side: str,
    p: ModelParams,
    extra_shift: tuple[tuple[str, int], ...] = (),
) -> list:
    """Gates of the gauge row of the height picture, left to right.

    side "minus": S_-({xi}; theta) = S_N(xi_N; theta) ... S_1(xi_1; theta - eta sum_{i>1} sz_i)
    side "plus":  S_+({xi}; theta) = S_1(xi_1; theta) ... S_N(xi_N; theta + eta sum_{i<N} sz_i)

    ``extra_shift`` adds weighted legs to every factor's dynamical argument
    (used for the theta - eta sz_aux variants in the gauge relations).
    """
    if side not in ("minus", "plus"):
        raise ValueError(f"unknown side {side!r}")
    minus = side == "minus"

    def gate(k):
        if minus:
            shift = [(f"s{i}", -1) for i in range(k + 1, p.N + 1)]
        else:
            shift = [(f"s{i}", +1) for i in range(1, k)]
        block = lambda c: gauge_s2(p.xi[k - 1], theta + p.eta * c, omega, p.eps_pole)
        return block, (f"s{k}",), shift + list(extra_shift)

    return [gate(k) for k in (reversed(range(1, p.N + 1)) if minus else range(1, p.N + 1))]


def gauge_row(theta: complex, omega: complex, side: str, p: ModelParams) -> np.ndarray:
    """Gauge row S_-({xi}; theta) or S_+({xi}; theta) on the sites (see ``gauge_row_gates``)."""
    return tn.product(site_legs(p.N), gauge_row_gates(theta, omega, side, p))


def gauge_aux_gate(lam: complex, theta: complex, omega: complex, side: str, p: ModelParams) -> tuple:
    """Gate of S_0(lam; theta - eta S^z) ("minus") or of the sigma^y-conjugated
    S-tilde_0(lam; theta + eta S^z) ("plus") on the chain legs."""
    build2, w = (gauge_s2, -1) if side == "minus" else (gauge_s_tilde2, +1)
    return lambda c: build2(lam, theta + p.eta * c, omega, p.eps_pole), (AUX,), [(l, w) for l in site_legs(p.N)]


# ----------------------------------------------------------------------
# SOS transfer matrices


def sos_transfer(mu: complex, theta: complex, which: str, p: ModelParams) -> np.ndarray:
    """Height-picture transfer matrices with diagonal dressed boundaries.

    "SOS1": Tr_0 ( K~_+(mu; db, zb) U_-(mu; theta) )
    "SOS2": Tr_0 ( U_+^{t_0}(mu; theta) K~_-^{t_0}(mu; d, z) )
    """
    if which == "SOS1":
        kt, side = tilde_k2(-mu - p.eta, p.delta_bar, p.zeta_bar, p.eta, p.eps_pole), "minus"
    elif which == "SOS2":
        kt, side = tilde_k2(mu, p.delta, p.zeta, p.eta, p.eps_pole), "plus"
    else:
        raise ValueError(f"unknown transfer kind {which!r}")
    blocks = double_row_blocks(mu, theta, side, p)
    return kt[0, 0] * blocks["A"] + kt[1, 1] * blocks["D"]


def constraint_residuals(p: ModelParams, s: int) -> tuple[float, float]:
    """Residuals of the two boundary constraints at sector s."""
    lhs = cosh(p.delta_bar - p.zeta_bar)
    base = p.delta - p.zeta - p.eta * s
    r1 = abs(lhs - cosh(base + p.tau_bar - p.tau - p.eta))
    r2 = abs(lhs - cosh(base - p.tau_bar + p.tau + p.eta))
    return float(r1), float(r2)


def require_constraints(p: ModelParams, s: int, tol: float = 1e-10) -> None:
    r1, r2 = constraint_residuals(p, s)
    if r1 > tol or r2 > tol:
        raise ConstraintViolated(
            f"boundary constraints fail at sector {s}: residuals {r1:.3e}, {r2:.3e}"
        )


def gauge_coefficient_matrix(lam: complex, s: int, shift: int, p: ModelParams) -> np.ndarray:
    """S^{-1}(-lam; th - eta s) K_+(lam) S(lam; th - eta (s + shift)) with th = delta - zeta.

    The off-diagonal entries of this 2x2 matrix must vanish (shift = -2 for
    the B coefficient, +2 for the C one) when the boundary constraints hold.
    """
    th = p.delta - p.zeta
    sinv = gauge_s2_inv(-lam, th - p.eta * s, p.tau, p.eps_pole)
    kp = vx.k2(lam, "plus", p)
    sm = gauge_s2(lam, th - p.eta * (s + shift), p.tau, p.eps_pole)
    return sinv @ kp @ sm


@lru_cache(maxsize=None)
def sector_indices(n_sites: int) -> dict[int, np.ndarray]:
    """Computational-basis indices per total-sigma^z eigenvalue."""
    legs = site_legs(n_sites)
    sz = tn.sz_sum(legs, legs)
    return {int(s): np.nonzero(sz == s)[0] for s in np.unique(sz)}


def sector_leakage(op: np.ndarray, weight: int) -> float:
    """Largest relative weight of the image outside the declared target sector
    of an operator on the N sites."""
    sectors = sector_indices(len(op).bit_length() - 1)
    worst = 0.0
    scale = max(tn.max_abs(op), 1e-300)
    for s, idx in sectors.items():
        target = sectors.get(s + weight)
        cols = op[:, idx]
        mask = np.ones(len(op), dtype=bool)
        if target is not None:
            mask[target] = False
        leak = np.max(np.abs(cols[mask, :])) if mask.any() and cols.size else 0.0
        worst = max(worst, float(leak) / scale)
    return worst


# ----------------------------------------------------------------------
# discrete symmetries relating the two reflection algebras


def string_operator(pauli: np.ndarray, n_sites: int) -> np.ndarray:
    """Product of one Pauli matrix over all sites (2^N matrix)."""
    out = np.eye(1, dtype=complex)
    for _ in range(n_sites):
        out = np.kron(out, pauli)
    return out


def site_reversal_matrix(n_legs: int, n_sites: int) -> np.ndarray:
    """Permutation reversing the site order; leading legs stay in place."""
    fixed = n_legs - n_sites
    d = 2**n_legs
    perm = np.zeros(d, dtype=int)
    for col in range(d):
        bits = [(col >> (n_legs - 1 - j)) & 1 for j in range(n_legs)]
        nb = bits[:fixed] + bits[fixed:][::-1]
        row = 0
        for bj in nb:
            row = (row << 1) | bj
        perm[col] = row
    mat = np.zeros((d, d), dtype=complex)
    mat[perm, np.arange(d)] = 1.0
    return mat


def isomorphism_image(lam: complex, theta: complex, p: ModelParams) -> np.ndarray:
    """Image of the minus double-row matrix under the algebra isomorphism.

    Returns Gy P U_-(-lam-eta; theta) P Gy built with the barred boundary
    pair and with inhomogeneities reversed and negated; this reproduces
    U_+^{t_0}(lam; theta) exactly (Gy is the sigma^y string and P the
    site-order reversal).
    """
    mapped = p.replace(
        delta=p.delta_bar,
        zeta=p.zeta_bar,
        xi=tuple(-x for x in reversed(p.xi)),
    )
    u = dyn_double_row(-lam - p.eta, theta, "minus", mapped)
    gy = np.kron(tn.ID2, string_operator(tn.SY, p.N))
    perm = site_reversal_matrix(p.N + 1, p.N)
    return gy @ perm @ u @ perm.T @ gy


def gamma_parity_image(lam: complex, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the parity relation for the minus double-row matrix:
    sigma^x_0 U_-(lam; delta-zeta) sigma^x_0  =  Gx U_-(lam; zeta-delta)|_swapped Gx."""
    legs = chain_legs(p.N)
    theta = p.delta - p.zeta
    x0 = [(tn.SX, (AUX,))]
    lhs = tn.product(legs, [*x0, *dyn_double_row_gates(lam, theta, "minus", p), *x0])
    swapped = p.replace(delta=p.zeta, zeta=p.delta)
    gx = [(tn.SX, (s,)) for s in site_legs(p.N)]
    rhs = tn.product(legs, [*gx, *dyn_double_row_gates(lam, -theta, "minus", swapped), *gx])
    return lhs, rhs


# ----------------------------------------------------------------------
# named identity checks


def dybe_residual(l1, l2, l3, theta, eta, form: int = 1) -> float:
    """Dynamical Yang-Baxter equation on three legs.

    Each R_{ab} appears once plain and once with theta shifted by w eta
    sz of the third leg, w = -1 in form 1 and +1 in form 2.
    """
    legs = ("v1", "v2", "v3")
    w = -1 if form == 1 else +1
    r = {}
    for name, x, third in (("12", l1 - l2, "v3"), ("13", l1 - l3, "v2"), ("23", l2 - l3, "v1")):
        pair = tuple(f"v{i}" for i in name)
        for weight in (0, w):
            r[name, weight] = (lambda c, x=x: dyn_r4(x, theta + eta * c, eta)), pair, [(third, weight)]
    if form == 1:
        lhs = [r["12", w], r["13", 0], r["23", w]]
        rhs = [r["23", 0], r["13", w], r["12", 0]]
    else:
        lhs = [r["12", 0], r["13", w], r["23", 0]]
        rhs = [r["23", w], r["13", 0], r["12", w]]
    return tn.product_residual(legs, lhs, rhs)


def dyn_ice_residual(lam, theta, eta) -> float:
    r = dyn_r4(lam, theta, eta)
    zz = np.kron(tn.SZ, tn.ID2) + np.kron(tn.ID2, tn.SZ)
    return tn.max_abs(r @ zz - zz @ r) / max(tn.max_abs(r), 1e-300)


def dyn_unitarity_residual(lam, theta, eta) -> float:
    lhs = dyn_r4(lam, theta, eta) @ tn.swapped4(dyn_r4(-lam, theta, eta))
    rhs = -sinh(lam - eta) * sinh(lam + eta) * np.eye(4)
    return tn.rel_residual(lhs, rhs)


def dyn_crossing_residual(lam, theta, eta, form: int = 1) -> float:
    """-y_1 L(-lam-eta) y_1 against R_21(lam) (form 1), or -y_1 Lhat(-lam-eta) y_1 against R_12(lam) (form 2)."""
    y1 = np.kron(tn.SY, tn.ID2)
    kind = "L" if form == 1 else "Lhat"
    lhs = -y1 @ crossed_l4(-lam - eta, theta, eta, kind) @ y1
    rhs = tn.swapped4(dyn_r4(lam, theta, eta)) if form == 1 else dyn_r4(lam, theta, eta)
    return tn.rel_residual(lhs, rhs)


def dyn_parity_residual(lam, theta, eta) -> float:
    r = dyn_r4(lam, theta, eta)
    r21 = tn.swapped4(r)
    xx = np.kron(tn.SX, tn.SX)
    yy = np.kron(tn.SY, tn.SY)
    res = max(
        tn.rel_residual(r21, xx @ r @ xx),
        tn.rel_residual(r21, yy @ r @ yy),
        tn.rel_residual(r21, dyn_r4(lam, -theta, eta)),
    )
    return res


def crossed_l_unitarity_residual(lam, theta, eta) -> float:
    lhs = crossed_l4(-lam - eta, theta, eta, "Lhat") @ crossed_l4(lam - eta, theta, eta, "L")
    rhs = -sinh(lam - eta) * sinh(lam + eta) * np.eye(4)
    return tn.rel_residual(lhs, rhs)


def crossed_l_ice_residual(lam, theta, eta) -> float:
    l = crossed_l4(lam, theta, eta, "L")
    dz = np.kron(tn.SZ, tn.ID2) - np.kron(tn.ID2, tn.SZ)
    return tn.max_abs(l @ dz - dz @ l) / max(tn.max_abs(l), 1e-300)


def crossed_l_parity_residual(lam, theta, eta) -> float:
    l = crossed_l4(lam, theta, eta, "L")
    xx = np.kron(tn.SX, tn.SX)
    return max(
        tn.rel_residual(xx @ l @ xx, crossed_l4(lam, theta, eta, "Lhat")),
        tn.rel_residual(xx @ l @ xx, crossed_l4(lam, -theta, eta, "L")),
    )


def vertex_face_residual(l1, l2, theta, omega, eta, form: int = 1) -> float:
    """Vertex-face correspondence R S_1 S_2 = S_2 S_1 R(theta) on two legs.

    The inner gauge factor of each side carries theta + w eta sz of the
    outer one's leg, w = -1 in form 1 and +1 in form 2.
    """
    legs = _L_LEGS
    w = -1 if form == 1 else +1

    s = {}
    for leg, other, x in (("c1", "c2", l1), ("c2", "c1", l2)):
        for weight in (0, w):
            s[leg, weight] = (lambda c, x=x: gauge_s2(x, theta + eta * c, omega)), (leg,), [(other, weight)]
    rv = (vx.r4(l1 - l2, eta), legs)
    rd = (dyn_r4(l1 - l2, theta, eta), legs)
    if form == 1:
        lhs = [rv, s["c1", 0], s["c2", w]]
        rhs = [s["c2", 0], s["c1", w], rd]
    else:
        lhs = [rv, s["c2", 0], s["c1", w]]
        rhs = [s["c1", 0], s["c2", w], rd]
    return tn.product_residual(legs, lhs, rhs)


def k_minus_diag_residual(lam, p: ModelParams) -> float:
    theta = p.delta - p.zeta
    lhs = gauge_s2_inv(lam, theta, p.tau, p.eps_pole) @ vx.k2(lam, "minus", p) @ gauge_s2(-lam, theta, p.tau, p.eps_pole)
    return tn.rel_residual(lhs, k2_minus_diag(lam, p.delta, p.zeta, p.eps_pole))


def k_plus_diag_residual(lam, p: ModelParams) -> float:
    tb = p.delta_bar - p.zeta_bar
    lhs = (
        gauge_s_tilde2_inv(lam + p.eta, tb, p.tau_bar, p.eps_pole)
        @ vx.k2(lam, "plus", p).T
        @ gauge_s_tilde2(-lam - p.eta, tb, p.tau_bar, p.eps_pole)
    )
    return tn.rel_residual(lhs, k2_minus_diag(-lam - p.eta, p.delta_bar, p.zeta_bar, p.eps_pole))


def dyn_reflection_residual(l1, l2, p: ModelParams, side: str) -> float:
    """Reflection equation for the diagonal height-picture K_- ("minus") or K_+ ("plus")."""
    if side == "minus":
        theta = p.delta - p.zeta
        k = lambda lam: k2_minus_diag(lam, p.delta, p.zeta, p.eps_pole)
    else:
        theta = p.delta_bar - p.zeta_bar
        k = lambda lam: k2_minus_diag(-lam - p.eta, p.delta_bar, p.zeta_bar, p.eps_pole)
    legs = _L_LEGS
    return vx.reflection_type_residual(
        lambda x, c: dyn_r4(x, theta, p.eta),
        lambda lam, leg: [(k(lam), (leg,))],
        legs, (), side, l1, l2, p.eta,
    )


def reflection_equivalence_residual(l1, l2, p: ModelParams) -> float:
    """Vertex reflection-equation side against its gauge-conjugated height form."""
    legs = _L_LEGS
    eta = p.eta
    theta = p.delta - p.zeta
    om = p.tau

    lhs = [
        (vx.r4(l1 - l2, eta), legs),
        (vx.k2(l1, "minus", p), ("c1",)),
        (tn.swapped4(vx.r4(l1 + l2, eta)), legs),
        (vx.k2(l2, "minus", p), ("c2",)),
    ]
    rhs = [
        (gauge_s2(l2, theta, om, p.eps_pole), ("c2",)),
        (lambda c: gauge_s2(l1, theta + eta * c, om, p.eps_pole), ("c1",), [("c2", -1)]),
        (dyn_r4(l1 - l2, theta, eta), legs),
        (k2_minus_diag(l1, p.delta, p.zeta, p.eps_pole), ("c1",)),
        (tn.swapped4(dyn_r4(l1 + l2, theta, eta)), legs),
        (k2_minus_diag(l2, p.delta, p.zeta, p.eps_pole), ("c2",)),
        (lambda c: gauge_s2_inv(-l1, theta + eta * c, om, p.eps_pole), ("c1",), [("c2", -1)]),
        (gauge_s2_inv(-l2, theta, om, p.eps_pole), ("c2",)),
    ]
    return tn.product_residual(legs, lhs, rhs)


def zero_weight_residual(lam, theta, p: ModelParams) -> float:
    legs = chain_legs(p.N)
    t = dyn_monodromy(lam, theta, "T", p)
    q = tn.sz_sum(legs, legs)
    return tn.max_abs(t * q - q[:, None] * t) / max(tn.max_abs(t), 1e-300)


def monodromy_inverse_residual(lam, theta, p: ModelParams, kind: str) -> float:
    direct = dyn_monodromy(lam, theta, kind, p)
    via = dyn_monodromy_inverse_form(lam, theta, kind, p)
    return tn.rel_residual(direct, via)


def monodromy_gauge_residual(lam, theta, omega, p: ModelParams, side: str) -> float:
    """Gauge relation between the dynamical monodromy T ("minus") or V ("plus") and the vertex one."""
    eps = p.eps_pole
    srow = gauge_row_gates(theta, omega, side, p)
    srow_aux = gauge_row_gates(theta, omega, side, p, extra_shift=((AUX, -1),))
    t0 = vx.monodromy_gates(lam, p)
    if side == "minus":
        lhs = [*srow, gauge_aux_gate(lam, theta, omega, side, p), *dyn_monodromy_gates(lam, theta, "T", p)]
        rhs = [*t0, (gauge_s2(lam, theta, omega, eps), (AUX,)), *srow_aux]
    else:
        shifted = gauge_aux_gate(lam + p.eta, theta, omega, side, p)
        lhs = [*srow, shifted, *dyn_monodromy_gates(lam, theta, "V", p)]
        s0t = (gauge_s_tilde2(lam + p.eta, theta, omega, eps), (AUX,))
        rhs = [*vx.aux_transposed(t0), s0t, *srow_aux]
    legs = chain_legs(p.N)
    return tn.product_residual(legs, lhs, rhs)


def sos_algebra_residual(l1, l2, p: ModelParams, side: str) -> float:
    """Dynamical reflection algebra of the double-row matrices (minus or plus).

    The R-matrices carry theta - eta S^z ("minus") or theta + eta S^z
    ("plus") of the quantum sites.
    """
    if side == "minus":
        theta, w = p.delta - p.zeta, -1
    else:
        theta, w = p.delta_bar - p.zeta_bar, +1
    slegs = site_legs(p.N)
    return vx.reflection_type_residual(
        lambda x, c: dyn_r4(x, theta + p.eta * c, p.eta),
        lambda lam, leg: vx.on_aux(dyn_double_row_gates(lam, theta, side, p), leg),
        ("x1", "x2") + slegs, [(s, w) for s in slegs], side, l1, l2, p.eta,
    )


def vsos_state_residual(lam, p: ModelParams, side: str) -> float:
    """Double-row vertex-face relation between the two pictures, minus or plus side."""
    if side == "minus":
        theta, om = p.delta - p.zeta, p.tau
        x = lam
    else:
        theta, om = p.delta_bar - p.zeta_bar, p.tau_bar
        x = lam + p.eta
    left, right = (gauge_aux_gate(y, theta, om, side, p) for y in (x, -x))
    srow = gauge_row_gates(theta, om, side, p)
    lhs = [*srow, left, *dyn_double_row_gates(lam, theta, side, p)]
    rhs = [*vx.double_row_gates(lam, side, p), *srow, right]
    legs = chain_legs(p.N)
    return tn.product_residual(legs, lhs, rhs)


def gamma_parity_residual(lam, p: ModelParams) -> float:
    lhs, rhs = gamma_parity_image(lam, p)
    return tn.rel_residual(lhs, rhs)


def isomorphism_residual(lam, theta, p: ModelParams) -> float:
    lhs = dyn_double_row(lam, theta, "plus", p)
    rhs = isomorphism_image(lam, theta, p)
    return tn.rel_residual(lhs, rhs)


def commutation_residual(l1, l2, p: ModelParams, left: str) -> float:
    """Three-term exchange relation of A_- ("A") or D-tilde_- ("D") past B_- at theta = delta - zeta."""
    eta = p.eta
    theta = p.delta - p.zeta
    slegs = site_legs(p.N)
    szv = tn.sz_sum(slegs, slegs)

    def dg(fn):
        return np.array([fn(s) for s in szv])[:, None]

    u1 = double_row_blocks(l1, theta, "minus", p)
    u2 = double_row_blocks(l2, theta, "minus", p)
    b1, a2, b2 = u1["B"], u2["A"], u2["B"]
    dt2 = _d_tilde(l2, theta, p, u2)
    lb, lm = l1 + l2, l1 - l2
    if left == "A":
        a1 = u1["A"]
        c1 = dg(lambda s: -sinh(eta) * sinh(theta - eta * s - 2 * eta - lb) / (sinh(theta - eta * s - eta) * sinh(lb + eta)))
        c2 = sinh(lb) * sinh(lm - eta) / (sinh(lm) * sinh(lb + eta))
        c3 = dg(lambda s: -sinh(eta) * sinh(2 * l2) * sinh(lm - theta + eta * s + eta) / (sinh(theta - eta * s - eta) * sinh(lm) * sinh(2 * l2 + eta)))
        return tn.rel_residual(a1 @ b2, c1 * (b1 @ dt2) + c2 * (b2 @ a1) + c3 * (b1 @ a2))
    dt1 = _d_tilde(l1, theta, p, u1)
    d1 = dg(
        lambda s: sinh(lb + theta - eta * s)
        / sinh(theta - eta * s - eta)
        * sinh(eta) * sinh(2 * l2) * sinh(2 * l1 + 2 * eta)
        / (sinh(lb + eta) * sinh(2 * l1 + eta) * sinh(2 * l2 + eta))
    )
    d2 = sinh(lm + eta) * sinh(lb + 2 * eta) / (sinh(lm) * sinh(lb + eta))
    d3 = dg(
        lambda s: -sinh(eta) * sinh(2 * (l1 + eta)) * sinh(lm + theta - eta * s - eta)
        / (sinh(lm) * sinh(2 * l1 + eta) * sinh(theta - eta * s - eta))
    )
    return tn.rel_residual(dt1 @ b2, d1 * (b1 @ a2) + d2 * (b2 @ dt1) + d3 * (b1 @ dt2))


# name -> residual at three seeded spectral points and a free theta
SOS_RESIDUALS: dict[str, Callable[[list[complex], complex, ModelParams], float]] = {
    "dybe1": lambda l, th, p: dybe_residual(l[0], l[1], l[2], th, p.eta, form=1),
    "dybe2": lambda l, th, p: dybe_residual(l[0], l[1], l[2], th, p.eta, form=2),
    "ice": lambda l, th, p: dyn_ice_residual(l[0], th, p.eta),
    "unitarity": lambda l, th, p: dyn_unitarity_residual(l[0], th, p.eta),
    "crossing1": lambda l, th, p: dyn_crossing_residual(l[0], th, p.eta, form=1),
    "crossing2": lambda l, th, p: dyn_crossing_residual(l[0], th, p.eta, form=2),
    "parity": lambda l, th, p: dyn_parity_residual(l[0], th, p.eta),
    "l_unitarity": lambda l, th, p: crossed_l_unitarity_residual(l[0], th, p.eta),
    "l_ice": lambda l, th, p: crossed_l_ice_residual(l[0], th, p.eta),
    "l_parity": lambda l, th, p: crossed_l_parity_residual(l[0], th, p.eta),
    "vertex_face1": lambda l, th, p: vertex_face_residual(l[0], l[1], th, p.tau, p.eta, form=1),
    "vertex_face2": lambda l, th, p: vertex_face_residual(l[0], l[1], th, p.tau, p.eta, form=2),
    "k_minus_diag": lambda l, th, p: k_minus_diag_residual(l[0], p),
    "k_plus_diag": lambda l, th, p: k_plus_diag_residual(l[0], p),
    "dyn_reflection": lambda l, th, p: dyn_reflection_residual(l[0], l[1], p, "minus"),
    "dual_dyn_reflection": lambda l, th, p: dyn_reflection_residual(l[0], l[1], p, "plus"),
    "reflection_equivalence": lambda l, th, p: reflection_equivalence_residual(l[0], l[1], p),
    "zero_weight": lambda l, th, p: zero_weight_residual(l[0], th, p),
    "that_inverse": lambda l, th, p: monodromy_inverse_residual(l[0], th, p, "That"),
    "vhat_inverse": lambda l, th, p: monodromy_inverse_residual(l[0], th, p, "Vhat"),
    "monodromy_gauge": lambda l, th, p: monodromy_gauge_residual(l[0], th, p.tau, p, "minus"),
    "dual_monodromy_gauge": lambda l, th, p: monodromy_gauge_residual(l[0], th, p.tau, p, "plus"),
    "sos_algebra": lambda l, th, p: sos_algebra_residual(l[0], l[1], p, "minus"),
    "dual_sos_algebra": lambda l, th, p: sos_algebra_residual(l[0], l[1], p, "plus"),
    "vsos_state": lambda l, th, p: vsos_state_residual(l[0], p, "minus"),
    "dual_vsos_state": lambda l, th, p: vsos_state_residual(l[0], p, "plus"),
    "gamma_parity": lambda l, th, p: gamma_parity_residual(l[0], p),
    "isomorphism": lambda l, th, p: isomorphism_residual(l[0], th, p),
    "commutation_ab": lambda l, th, p: commutation_residual(l[0], l[1], p, "A"),
    "commutation_dtb": lambda l, th, p: commutation_residual(l[0], l[1], p, "D"),
}
SOS_CHECKS = tuple(SOS_RESIDUALS)


def sos_identity_suite(check: str, p: ModelParams, seed: int = 0, trials: int = 20) -> float:
    """Largest residual of one named height-picture identity over seeded random points.

    Each trial draws three spectral points, then a free dynamical parameter.
    """
    if check not in SOS_RESIDUALS:
        raise ValueError(f"unknown height-picture check {check!r}")
    residual = SOS_RESIDUALS[check]
    rng = np.random.default_rng(seed)
    thetas = (p.delta - p.zeta, p.delta_bar - p.zeta_bar)

    def draw_theta():
        for _ in range(10_000):
            t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if min_pole_gap(p, (), [t]) > SAMPLE_MARGIN:
                return t
        raise DegenerateParameter("could not sample a generic dynamical parameter")

    # np.max keeps a NaN residual, which the caller's finite check then reports
    residuals = [residual(sample_points(rng, p, 3, thetas=thetas), draw_theta(), p) for _ in range(trials)]
    return float(np.max(residuals, initial=0.0))
