"""Six-vertex R-matrix, boundary K-matrices, monodromy and transfer matrices.

Everything here lives in the vertex picture: the trigonometric six-vertex
R-matrix with crossing parameter eta, the general non-diagonal boundary
matrices, the inhomogeneous bulk monodromy T and its hatted partner, the
double-row monodromy matrices around either boundary, the open-chain
transfer matrix, and the boundary Hamiltonian together with its
reconstruction from the transfer-matrix derivative.
"""

from __future__ import annotations

from cmath import cosh, exp, sinh
from typing import Callable, Sequence

import numpy as np

from . import tensor as tn
from .errors import DegenerateParameter, FormMismatch, NonIdentityResidue, NotHomogeneous
from .params import ModelParams, assert_generic, sample_points

AUX = "a0"


def site_legs(N: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(1, N + 1))


def chain_legs(N: int) -> tuple[str, ...]:
    return (AUX,) + site_legs(N)


def gamma_sign(N: int) -> complex:
    return complex((-1) ** N)


def gamma_hat(lam: complex, p: ModelParams) -> complex:
    v = gamma_sign(p.N)
    for x in p.xi:
        v *= sinh(lam + x - p.eta) * sinh(lam + x + p.eta)
    return v


def gamma_tilde(lam: complex, p: ModelParams) -> complex:
    v = gamma_sign(p.N)
    for x in p.xi:
        v *= sinh(lam + x) * sinh(lam + x + 2 * p.eta)
    return v


def c1(p: ModelParams) -> complex:
    return -8 * sinh(p.delta) * sinh(p.delta_bar - p.eta) * sinh(p.zeta) * sinh(p.zeta_bar - p.eta)


def r4(lam: complex, eta: complex) -> np.ndarray:
    """Six-vertex R-matrix as a raw 4x4 block."""
    sl, se = sinh(lam), sinh(eta)
    sle = sinh(lam + eta)
    return np.array(
        [
            [sle, 0, 0, 0],
            [0, sl, se, 0],
            [0, se, sl, 0],
            [0, 0, 0, sle],
        ],
        dtype=complex,
    )


def dr4(lam: complex, eta: complex) -> np.ndarray:
    """Analytic lambda-derivative of the R-matrix block."""
    cl = cosh(lam)
    cle = cosh(lam + eta)
    return np.array(
        [
            [cle, 0, 0, 0],
            [0, cl, 0, 0],
            [0, 0, cl, 0],
            [0, 0, 0, cle],
        ],
        dtype=complex,
    )


def k2_minus(lam: complex, delta: complex, zeta: complex, tau: complex, eps: float) -> np.ndarray:
    """General boundary matrix K_-(lambda; delta, zeta, tau) as a 2x2 block."""
    d1 = sinh(delta + lam)
    d2 = sinh(zeta + lam)
    if abs(d1) <= eps or abs(d2) <= eps:
        raise DegenerateParameter("K_- denominator sinh(delta+lam) or sinh(zeta+lam) vanishes")
    den = 2 * d1 * d2
    cp = cosh(delta + zeta)
    cm = cosh(delta - zeta)
    s2 = sinh(2 * lam)
    return np.array(
        [
            [(cp * exp(-lam) - cm * exp(lam)) / den, exp(-tau) * s2 / den],
            [-exp(tau) * s2 / den, (cp * exp(lam) - cm * exp(-lam)) / den],
        ],
        dtype=complex,
    )


def dk2_minus(lam: complex, delta: complex, zeta: complex, tau: complex, eps: float) -> np.ndarray:
    """Analytic lambda-derivative of the K_- block (quotient rule)."""
    d1 = sinh(delta + lam)
    d2 = sinh(zeta + lam)
    if abs(d1) <= eps or abs(d2) <= eps:
        raise DegenerateParameter("K_- denominator vanishes in derivative")
    den = 2 * d1 * d2
    dden = 2 * sinh(delta + zeta + 2 * lam)
    cp = cosh(delta + zeta)
    cm = cosh(delta - zeta)
    s2 = sinh(2 * lam)
    c2 = cosh(2 * lam)
    num = np.array(
        [
            [cp * exp(-lam) - cm * exp(lam), exp(-tau) * s2],
            [-exp(tau) * s2, cp * exp(lam) - cm * exp(-lam)],
        ],
        dtype=complex,
    )
    dnum = np.array(
        [
            [-cp * exp(-lam) - cm * exp(lam), 2 * exp(-tau) * c2],
            [-2 * exp(tau) * c2, cp * exp(lam) + cm * exp(-lam)],
        ],
        dtype=complex,
    )
    return (dnum * den - num * dden) / den**2


def k2(lam: complex, side: str, p: ModelParams) -> np.ndarray:
    """Boundary block: K_- at lambda, or K_+(lam) = K_-(-lam-eta; barred)."""
    if side == "minus":
        return k2_minus(lam, p.delta, p.zeta, p.tau, p.eps_pole)
    if side == "plus":
        return k2_minus(-lam - p.eta, p.delta_bar, p.zeta_bar, p.tau_bar, p.eps_pole)
    raise ValueError(f"unknown side {side!r}")


def monodromy_gates(lam: complex, p: ModelParams, hatted: bool = False) -> list:
    """Gates of T_0(lam) = R_{01}(lam - xi_1) ... R_{0N}(lam - xi_N), left to right,
    or with ``hatted`` of That_0(lam) = R_{N0}(lam + xi_N) ... R_{10}(lam + xi_1)."""
    if hatted:
        return [(r4(lam + p.xi[k], p.eta), (f"s{k + 1}", AUX)) for k in reversed(range(p.N))]
    return [(r4(lam - p.xi[k], p.eta), (AUX, f"s{k + 1}")) for k in range(p.N)]


def aux_transposed(gates: list) -> list:
    """Gates of M^{t_0} for M a product of gates on AUX and distinct sites.

    Factors on distinct sites commute, so the transposition reverses the
    order and transposes each factor on its auxiliary leg.
    """
    return [(tn.partial_transpose(block, on, AUX), on) for block, on in reversed(gates)]


def on_aux(gates: list, leg: str) -> list:
    """The same gates with the auxiliary leg renamed to ``leg``."""
    return [(g[0], tuple(leg if l == AUX else l for l in g[1]), *g[2:]) for g in gates]


def bulk_monodromy(lam: complex, p: ModelParams) -> np.ndarray:
    """T_0(lam) = R_{01}(lam - xi_1) ... R_{0N}(lam - xi_N)."""
    return tn.product(chain_legs(p.N), monodromy_gates(lam, p))


def hat_monodromy(lam: complex, p: ModelParams, via_inverse: bool = False) -> np.ndarray:
    """That_0(lam) = R_{N0}(lam + xi_N) ... R_{10}(lam + xi_1).

    With ``via_inverse`` the equivalent form gamma_hat(lam) T_0(-lam)^{-1}
    is used instead (raises DegenerateParameter if T_0(-lam) is singular).
    """
    if via_inverse:
        t = bulk_monodromy(-lam, p)
        try:
            inv = np.linalg.inv(t)
        except np.linalg.LinAlgError as exc:
            raise DegenerateParameter("T_0(-lam) is singular") from exc
        if not np.all(np.isfinite(inv.view(float))) or tn.max_abs(inv) * np.finfo(float).eps * len(t) > 1e-4:
            raise DegenerateParameter("T_0(-lam) is numerically singular")
        return gamma_hat(lam, p) * inv
    return tn.product(chain_legs(p.N), monodromy_gates(lam, p, hatted=True))


def double_row_gates(lam: complex, side: str, p: ModelParams) -> list:
    """Gates of U_- = T K_- That ("minus") or U_+^{t_0} = T^{t_0} K_+^t That^{t_0} ("plus")."""
    assert_generic(p, [lam])
    t, that = monodromy_gates(lam, p), monodromy_gates(lam, p, hatted=True)
    if side == "minus":
        return [*t, (k2(lam, "minus", p), (AUX,)), *that]
    if side == "plus":
        return [*aux_transposed(t), (k2(lam, "plus", p).T, (AUX,)), *aux_transposed(that)]
    raise ValueError(f"unknown side {side!r}")


def double_row(lam: complex, side: str, p: ModelParams) -> np.ndarray:
    """Double-row monodromy: U_- for side "minus", U_+^{t_0} for side "plus"."""
    return tn.product(chain_legs(p.N), double_row_gates(lam, side, p))


def transfer_xxz(lam: complex, p: ModelParams) -> np.ndarray:
    """Open-chain transfer matrix; both trace forms are computed and must agree to 1e-11."""
    legs = chain_legs(p.N)
    kp_um = tn.product(legs, [(k2(lam, "plus", p), (AUX,)), *double_row_gates(lam, "minus", p)])
    form1 = tn.partial_trace(kp_um, legs, AUX)

    km_up = tn.product(legs, [(k2(lam, "minus", p).T, (AUX,)), *double_row_gates(lam, "plus", p)])
    form2 = tn.partial_trace(km_up, legs, AUX)

    res = tn.rel_residual(form1, form2)
    if res > 1e-11:
        raise FormMismatch(f"transfer-matrix trace forms disagree: {res:.3e}")
    return form1


def hamiltonian_direct(p: ModelParams) -> np.ndarray:
    """Open XXZ Hamiltonian with general non-diagonal boundary fields.

    This is the conserved charge produced by the transfer-matrix
    derivative for the K-matrices used here: site 1 carries the boundary
    adjacent to K_+ (barred parameters), site N the one adjacent to K_-.
    The sign pattern of the boundary fields is fixed by that derivative.
    Raises DegenerateParameter if an entry is not finite.
    """
    N, eta = p.N, p.eta
    legs = site_legs(N)
    eye = np.eye(2**N, dtype=complex)
    bond = np.kron(tn.SX, tn.SX) + np.kron(tn.SY, tn.SY) + cosh(eta) * np.kron(tn.SZ, tn.SZ)
    h = sum(tn.apply_gate(eye, legs, bond, (f"s{i}", f"s{i + 1}")) for i in range(1, N))

    def boundary_term(delta, zeta, tau, leg, z_sign, xy_sign):
        pref = sinh(eta) / (sinh(zeta) * sinh(delta))
        m = z_sign * cosh(zeta) * cosh(delta) * tn.SZ + xy_sign * (
            sinh(tau) * tn.SX - 1j * cosh(tau) * tn.SY
        )
        return tn.apply_gate(eye, legs, pref * m, (leg,))

    h = h + boundary_term(p.delta_bar, p.zeta_bar, p.tau_bar, "s1", +1, +1)
    h = h + boundary_term(p.delta, p.zeta, p.tau, f"s{N}", -1, -1)
    return tn.require_finite(h)


def transfer_at_zero_scalar(p: ModelParams) -> complex:
    """Scalar value of T_XXZ(0), which is a multiple of the identity."""
    return sinh(p.eta) ** (2 * p.N) * complex(np.trace(k2(0, "plus", p)))


def transfer_norm_constant(p: ModelParams) -> complex:
    """Normalization making the transfer derivative reproduce the Hamiltonian:
    H = transfer_norm_constant * d/dlam T_XXZ(lam)|_0 + const."""
    return sinh(p.eta) / transfer_at_zero_scalar(p)


def transfer_derivative_at_zero(p: ModelParams) -> np.ndarray:
    """d/dlam T_XXZ(lam) at lam = 0 via the product rule (homogeneous chain).

    Each factor of tr_0 { K_+ R_{01}..R_{0N} K_- R_{N0}..R_{10} } is
    differentiated analytically.
    """
    if not p.homogeneous():
        raise NotHomogeneous("transfer-matrix derivative needs xi_m = 0")
    N = p.N
    legs = chain_legs(N)
    # (factor, derivative) pairs of K_+ R_{01}..R_{0N} K_- R_{N0}..R_{10}
    pairs = [(k2(0, "plus", p), -dk2_minus(-p.eta, p.delta_bar, p.zeta_bar, p.tau_bar, p.eps_pole), (AUX,))]
    pairs += [(r4(0, p.eta), dr4(0, p.eta), (AUX, f"s{k}")) for k in range(1, N + 1)]
    pairs.append((k2(0, "minus", p), dk2_minus(0, p.delta, p.zeta, p.tau, p.eps_pole), (AUX,)))
    pairs += [(r4(0, p.eta), dr4(0, p.eta), (f"s{k}", AUX)) for k in reversed(range(1, N + 1))]

    total = sum(
        tn.product(legs, [(d if i == j else f, on) for i, (f, d, on) in enumerate(pairs)])
        for j in range(len(pairs))
    )
    return tn.partial_trace(total, legs, AUX)


def hamiltonian(p: ModelParams) -> tuple[np.ndarray, complex]:
    """The Hamiltonian reconstructed from the transfer matrix, with its identity shift.

    Returns (H_candidate, kappa) with H_candidate = transfer_norm_constant *
    T'(0) and kappa the measured identity shift H_candidate - H_direct =
    kappa * Id; raises NonIdentityResidue if the difference is not a
    multiple of the identity to 1e-8, and DegenerateParameter if H_candidate
    is not finite.
    """
    h_cand = tn.require_finite(transfer_norm_constant(p) * transfer_derivative_at_zero(p))
    h_dir = hamiltonian_direct(p)
    diff = h_cand - h_dir
    kappa = complex(np.trace(diff) / diff.shape[0])
    resid = tn.max_abs(diff - kappa * np.eye(diff.shape[0])) / max(tn.max_abs(h_cand), 1e-300)
    if resid > 1e-8:
        raise NonIdentityResidue(f"H_candidate - H_direct deviates from identity: {resid:.3e}")
    return h_cand, kappa


# ----------------------------------------------------------------------
# identity checks


def ybe_residual(l1: complex, l2: complex, l3: complex, eta: complex) -> float:
    legs = ("v1", "v2", "v3")
    r12 = (r4(l1 - l2, eta), ("v1", "v2"))
    r13 = (r4(l1 - l3, eta), ("v1", "v3"))
    r23 = (r4(l2 - l3, eta), ("v2", "v3"))
    return tn.product_residual(legs, [r12, r13, r23], [r23, r13, r12])


def unitarity_residual(lam: complex, eta: complex) -> float:
    lhs = r4(lam, eta) @ tn.swapped4(r4(-lam, eta))
    rhs = -sinh(lam - eta) * sinh(lam + eta) * np.eye(4)
    return tn.rel_residual(lhs, rhs)


def z2_residual(lam: complex, eta: complex) -> float:
    yy = np.kron(tn.SY, tn.SY)
    r = r4(lam, eta)
    return tn.rel_residual(yy @ r @ yy, r)


def crossing_residual(lam: complex, eta: complex) -> float:
    y1 = np.kron(tn.SY, tn.ID2)
    lhs = -y1 @ tn.transpose_first4(r4(-lam - eta, eta)) @ y1
    rhs = tn.swapped4(r4(lam, eta))
    return tn.rel_residual(lhs, rhs)


def reflection_type_residual(
    r4fn: Callable[[complex, int], np.ndarray],
    boundary: Callable[[complex, str], list],
    legs: tuple[str, ...],
    shift: Sequence[tuple[str, int]],
    side: str,
    l1: complex,
    l2: complex,
    eta: complex,
) -> float:
    """Residual of R(a) X1 R21(b) X2 = X2 R(b) X1 R21(a) on ``legs``, built
    over column blocks of the identity (``tn.product_residual``).

    The first two legs are the auxiliary pair.  ``r4fn(x, c)`` is the raw
    R-matrix block at spectral argument x and charge c of the weighted
    ``shift`` legs; ``boundary(lam, leg)`` lists the gates of the boundary
    object at lam on one auxiliary leg, X1 = boundary(l1, legs[0]) and
    X2 = boundary(l2, legs[1]).  The side picks the spectral pair: (a, b) = (l1 - l2,
    l1 + l2) for "minus", (l2 - l1, -l1 - l2 - 2 eta) for "plus".
    """
    if side == "minus":
        a, b = l1 - l2, l1 + l2
    elif side == "plus":
        a, b = l2 - l1, -(l1 + l2) - 2 * eta
    else:
        raise ValueError(f"unknown side {side!r}")

    def gate(x, swapped):
        return (lambda c: tn.swapped4(r4fn(x, c)) if swapped else r4fn(x, c)), legs[:2], shift

    x1, x2 = boundary(l1, legs[0]), boundary(l2, legs[1])
    lhs = [gate(a, False), *x1, gate(b, True), *x2]
    rhs = [*x2, gate(b, False), *x1, gate(a, True)]
    return tn.product_residual(legs, lhs, rhs)


def reflection_residual(l1: complex, l2: complex, p: ModelParams, side: str) -> float:
    """Boundary Yang-Baxter equation for K_- ("minus"), or the dual one for K_+^t ("plus")."""
    legs = ("v1", "v2")

    def k(lam, leg):
        m = k2(lam, side, p)
        return [(m.T if side == "plus" else m, (leg,))]

    return reflection_type_residual(lambda x, c: r4(x, p.eta), k, legs, (), side, l1, l2, p.eta)


def reflection_algebra_residual(l1: complex, l2: complex, p: ModelParams, side: str) -> float:
    """Reflection algebra of U_- ("minus"), or the dual one of U_+^{t_0} ("plus")."""
    legs = ("x1", "x2") + site_legs(p.N)

    def u(lam, leg):
        return on_aux(double_row_gates(lam, side, p), leg)

    return reflection_type_residual(lambda x, c: r4(x, p.eta), u, legs, (), side, l1, l2, p.eta)


# name -> residual at three seeded spectral points
VERTEX_RESIDUALS: dict[str, Callable[[list[complex], ModelParams], float]] = {
    "ybe": lambda pts, p: ybe_residual(pts[0], pts[1], pts[2], p.eta),
    "unitarity": lambda pts, p: unitarity_residual(pts[0], p.eta),
    "z2": lambda pts, p: z2_residual(pts[0], p.eta),
    "crossing": lambda pts, p: crossing_residual(pts[0], p.eta),
    "reflection": lambda pts, p: reflection_residual(pts[0], pts[1], p, "minus"),
    "dual_reflection": lambda pts, p: reflection_residual(pts[0], pts[1], p, "plus"),
    "reflection_algebra": lambda pts, p: reflection_algebra_residual(pts[0], pts[1], p, "minus"),
    "dual_reflection_algebra": lambda pts, p: reflection_algebra_residual(pts[0], pts[1], p, "plus"),
}
VERTEX_CHECKS = tuple(VERTEX_RESIDUALS)


def vertex_identity_suite(check: str, p: ModelParams, seed: int = 0, trials: int = 20) -> float:
    """Largest residual of one named vertex identity over seeded random spectral points."""
    if check not in VERTEX_RESIDUALS:
        raise ValueError(f"unknown vertex check {check!r}")
    residual = VERTEX_RESIDUALS[check]
    rng = np.random.default_rng(seed)
    # np.max keeps a NaN residual, which the caller's finite check then reports
    return float(np.max([residual(sample_points(rng, p, 3), p) for _ in range(trials)], initial=0.0))
