"""Six-vertex R-matrix, boundary K-matrices, monodromy and transfer matrices.

Everything here lives in the vertex picture: the trigonometric six-vertex
R-matrix with crossing parameter eta, the general non-diagonal boundary
matrices, the gate lists of the inhomogeneous bulk monodromy T, its
hatted partner and the double-row monodromy matrices around either
boundary, and the open-chain transfer matrix as their trace over the
auxiliary leg.
"""

from __future__ import annotations

from cmath import cosh, exp, sinh
from typing import Callable

import numpy as np

from . import tensor as tn
from .errors import DegenerateParameter, FormMismatch
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


def k2(lam: complex, side: str, p: ModelParams) -> np.ndarray:
    """Boundary block: K_- at lambda, or K_+(lam) = K_-(-lam-eta; barred)."""
    return k2_minus(p.k_point(lam, side), *p.boundary(side), p.eps_pole)


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


def double_row_gates(lam: complex, side: str, p: ModelParams) -> list:
    """Gates of U_- = T K_- That ("minus") or U_+^{t_0} = T^{t_0} K_+^t That^{t_0} ("plus")."""
    assert_generic(p, [lam])
    t, that = monodromy_gates(lam, p), monodromy_gates(lam, p, hatted=True)
    k = k2(lam, side, p)
    if side == "minus":
        return [*t, (k, (AUX,)), *that]
    return [*aux_transposed(t), (k.T, (AUX,)), *aux_transposed(that)]


def transfer_xxz(lam, p: ModelParams, x: np.ndarray) -> np.ndarray:
    """Open-chain transfer matrix applied to ``x``, a (2^N,) or (2^N, m) array.

    Both trace forms, tr_0 K_+ U_- and tr_0 K_-^t U_+^{t_0}, are traced gate
    lists applied to ``x`` (``tn.traced_product``), and must agree to 1e-11.
    An array of B values of lam stacks each point's blocks into one batched
    traced product per form, a (B,) + x.shape result whose every slice
    equals its single call bit for bit, and the forms are compared point by
    point: a stack-wide residual would let one point's mismatch hide under
    a larger point's entries.  A scalar lam runs as a batch of one and
    gives x.shape.
    """
    legs = chain_legs(p.N)
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    x = np.broadcast_to(x, lams.shape + np.shape(x))
    forms = []
    for build in (
        lambda l: [(k2(l, "plus", p), (AUX,)), *double_row_gates(l, "minus", p)],
        lambda l: [(k2(l, "minus", p).T, (AUX,)), *double_row_gates(l, "plus", p)],
    ):
        # each gate's blocks at every point, stacked: one gate list for the batch
        per_point = zip(*(build(l) for l in map(complex, lams)))
        gates = [(np.stack([block for block, _ in gate]), gate[0][1]) for gate in per_point]
        forms.append(tn.traced_product(legs, gates, x, batch=True))
    for form1, form2 in zip(*forms):
        res = tn.rel_residual(form1, form2)
        if res > 1e-11:
            raise FormMismatch(f"transfer-matrix trace forms disagree: {res:.3e}")
    return forms[0] if np.ndim(lam) else forms[0][0]


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
    r_pair: Callable[[complex, complex], list],
    boundary: Callable[[complex, str], list],
    legs: tuple[str, ...],
    side: str,
    l1: complex,
    l2: complex,
    eta: complex,
) -> float:
    """Residual of R(a) X1 R21(b) X2 = X2 R(b) X1 R21(a) on ``legs``, both
    sides applied to the seeded probe block (``tn.product_residual``).

    The first two legs are the auxiliary pair.  ``r_pair(a, b)`` gives the
    gates R(a) and R(b) on that pair, static or dynamical (a stack per
    charge); R21 is each gate with its blocks' legs exchanged.
    ``boundary(lam, leg)`` lists the gates of the boundary object at lam on
    one auxiliary leg, X1 = boundary(l1, legs[0]) and X2 = boundary(l2,
    legs[1]).  The side picks the spectral pair: (a, b) = (l1 - l2,
    l1 + l2) for "minus", (l2 - l1, -l1 - l2 - 2 eta) for "plus".
    """
    if side == "minus":
        a, b = l1 - l2, l1 + l2
    elif side == "plus":
        a, b = l2 - l1, -(l1 + l2) - 2 * eta
    else:
        raise ValueError(f"unknown side {side!r}")

    r_a, r_b = r_pair(a, b)
    r21_a, r21_b = ((tn.swapped4(block), *rest) for block, *rest in (r_a, r_b))
    x1, x2 = boundary(l1, legs[0]), boundary(l2, legs[1])
    lhs = [r_a, *x1, r21_b, *x2]
    rhs = [*x2, r_b, *x1, r21_a]
    return tn.product_residual(legs, lhs, rhs)


def _r4_pair(legs: tuple[str, ...], eta: complex) -> Callable[[complex, complex], list]:
    """``(a, b) -> [R(a), R(b)]`` as gates on the first two legs."""
    return lambda a, b: [(r4(x, eta), legs[:2]) for x in (a, b)]


def reflection_residual(l1: complex, l2: complex, p: ModelParams, side: str) -> float:
    """Boundary Yang-Baxter equation for K_- ("minus"), or the dual one for K_+^t ("plus")."""
    legs = ("v1", "v2")

    def k(lam, leg):
        m = k2(lam, side, p)
        return [(m.T if side == "plus" else m, (leg,))]

    return reflection_type_residual(_r4_pair(legs, p.eta), k, legs, side, l1, l2, p.eta)


def reflection_algebra_residual(l1: complex, l2: complex, p: ModelParams, side: str) -> float:
    """Reflection algebra of U_- ("minus"), or the dual one of U_+^{t_0} ("plus")."""
    legs = ("x1", "x2") + site_legs(p.N)

    def u(lam, leg):
        return tn.relabel(double_row_gates(lam, side, p), {AUX: leg})

    return reflection_type_residual(_r4_pair(legs, p.eta), u, legs, side, l1, l2, p.eta)


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


def vertex_trial(rng: np.random.Generator, p: ModelParams) -> list[complex]:
    """One trial of the vertex suite (``params.identity_suite``): three spectral points."""
    return sample_points(rng, p, 3)
