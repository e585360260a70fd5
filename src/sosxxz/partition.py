"""Domain-wall partition functions of the SOS model with one reflecting end.

Four boundary configurations exist (reflecting end left or right, heights
rising or falling along the top row).  Each is a matrix element of a string
of creation-type double-row blocks between the two reference states, and
each reduces to a single N x N determinant, free of poles at coincident xi_j.
The direct contraction is the ground truth; the determinant and recursion
paths are checked against it.
"""

from __future__ import annotations

import functools
from cmath import exp, pi, sinh
from typing import Callable, Sequence

import numpy as np

from . import params
from . import sos
from . import tensor as tn
from .errors import DegenerateParameter
from .params import ModelParams

# kind -> (side, creator): the boundary its block string reflects on and its creation block
KINDS = {"bminus": ("minus", "B"), "cminus": ("minus", "C"), "bplus": ("plus", "B"), "cplus": ("plus", "C")}


def _kind_params(p: ModelParams, lambdas: Sequence[complex], kind: str) -> tuple[ModelParams, tuple[complex, ...]]:
    """The parameters ``kind`` reads, and its N spectral points.

    The minus kinds reflect on (delta, zeta), the plus kinds on
    (delta_bar, zeta_bar).  Both boundary slots carry that pair, so either
    side of the construction and the pole guard see it; tau never enters
    the height-picture blocks.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown partition kind {kind!r}")
    side, _ = KINDS[kind]
    lams = tuple(complex(x) for x in lambdas)
    if len(lams) != p.N:
        raise ValueError("need exactly N spectral parameters")
    d, z, _ = p.boundary(side)
    return p.replace(delta=d, zeta=z, tau=0.0, delta_bar=d, zeta_bar=z, tau_bar=0.0), lams


def _point_contraction(
    p: ModelParams, lambdas: Sequence[complex], i: int, kind: str
) -> Callable[[complex], complex]:
    """``lam -> z_contraction(p, lambdas with lambdas[i] = lam, kind)``.

    The kind's parameters, theta and reference states (ket, bra) are taken
    once; each call runs the pole guard on its own point, so a non-generic
    lam raises ``DegenerateParameter``.  The tail B(lambdas[i+1]) ...
    B(lambdas[N-1]) |ref> is contracted by the first call that passes the
    guard, and each call applies only the blocks of lambdas[0..i] to it,
    last block first.  This is the one contraction: ``z_contraction`` is
    its i = 0 case.
    """
    q, lams = _kind_params(p, lambdas, kind)
    side, creator = KINDS[kind]
    theta = q.theta(side)
    up, down = tn.all_up(q.N), tn.all_down(q.N)
    ket, bra = (up, down) if creator == "B" else (down, up)
    tail: list[np.ndarray] = []

    def apply(points: Sequence[complex], v: np.ndarray) -> np.ndarray:
        for lam in reversed(points):
            v = sos.block_column(lam, theta, side, creator, q, v)[0]
        return v

    def z(lam: complex) -> complex:
        trial = lams[:i] + (complex(lam),) + lams[i + 1:]
        params.assert_generic(q, trial, [theta])
        if not tail:
            tail.append(apply(trial[i + 1:], ket))
        return complex(bra @ apply(trial[:i + 1], tail[0]))

    return z


def z_contraction(p: ModelParams, lambdas: Sequence[complex], kind: str) -> complex:
    """Matrix element of the defining block string between reference states."""
    return _point_contraction(p, lambdas, 0, kind)(lambdas[0])


def _z_determinant_bminus(q: ModelParams, lams: tuple[complex, ...]) -> complex:
    """Tsuchiya's determinant in u = cosh 2lam, v = cosh(2lam + 2eta), w = cosh(2lam + eta), x = cosh 2xi.

    Kernel entry (i, j) is r_i c_j [1/(u_i - x_j) - 1/(v_i - x_j)].  Divided differences over x_1..x_j
    make column j 1/prod_{m<=j}(u_i - x_m) - 1/prod_{m<=j}(v_i - x_m); their Jacobian cancels the xi-pair
    prefactor prod (x_j - x_i)/2.  Rows, then columns, are scaled to unit max (Higham, ch. 9).
    """
    th = q.theta("minus")
    params.assert_generic(q, lams, [th])
    n, eta, d, z = q.N, q.eta, q.delta, q.zeta
    lam, xi = np.array(lams), np.array(q.xi)
    u, v, w, x = np.cosh(2 * lam), np.cosh(2 * lam + 2 * eta), np.cosh(2 * lam + eta), np.cosh(2 * xi)
    ux, vx = u[:, None] - x, v[:, None] - x
    lam_xi = ux * vx / 4  # sinh(lam_i +- xi_j) sinh(lam_i + eta +- xi_j)
    if np.min(np.abs(lam_xi)) <= q.eps_pole:
        raise DegenerateParameter("coincident lambda/xi in the determinant kernel")
    i = np.arange(n)
    pair = (w - w[:, None])[i[:, None] < i] / 2  # sinh(lam_j - lam_i) sinh(lam_j + lam_i + eta), i < j
    if np.any(np.abs(pair) <= q.eps_pole):
        raise DegenerateParameter("coincident spectral parameters")
    k = 1 / np.cumprod(ux, axis=1) - 1 / np.cumprod(vx, axis=1)
    rows = np.max(np.abs(k), axis=1)
    cols = np.max(np.abs(k / rows[:, None]), axis=0)
    r = 4 * np.sinh(2 * lam) * np.sinh(eta) / ((v - u) * np.sinh(d + lam) * np.sinh(z + lam))
    c = np.sinh(d + xi) * np.sinh(z - xi)
    theta_ratio = np.sinh(th + eta * (n - 2 - 2 * i)) / np.sinh(th + eta * (n - 1 - i))
    # (-2)^(N(N-1)/2): the 2 per pair left by the xi-pair cancellation, and the reversal sign
    # (-1)^(N(N-1)/2), fixed by the contraction oracle and the N = 1 closed form
    scale = (-2) ** (n * (n - 1) // 2) * np.prod(rows * cols * r * c * theta_ratio)
    return complex(np.linalg.det(k / rows[:, None] / cols) * scale * np.prod(lam_xi) / np.prod(pair))


def z_determinant(p: ModelParams, lambdas: Sequence[complex], kind: str) -> complex:
    """Determinant evaluation for any kind, via the inter-kind relations.

    cminus and bplus swap the boundary pair; the plus kinds map onto the
    minus ones with all spectral parameters sent to -lam - eta, the
    inhomogeneities negated, and an overall (-1)^N.
    """
    q, lams = _kind_params(p, lambdas, kind)
    side, _ = KINDS[kind]
    if kind in ("cminus", "bplus"):
        q = q.replace(delta=q.zeta, zeta=q.delta, delta_bar=q.zeta, zeta_bar=q.delta)
    if side == "minus":
        return _z_determinant_bminus(q, lams)
    reflected = q.replace(xi=tuple(-x for x in q.xi))
    return (-1) ** q.N * _z_determinant_bminus(reflected, tuple(q.k_point(l, side) for l in lams))


def z_value(p: ModelParams, lambdas: Sequence[complex], kind: str, method: str) -> complex:
    if method == "det":
        return z_determinant(p, lambdas, kind)
    if method == "contract":
        return z_contraction(p, lambdas, kind)
    raise ValueError(f"unknown method {method!r}")


def crossing_factor(lam: complex, delta: complex, zeta: complex, eta: complex) -> complex:
    """Prefactor relating Z at lam_i -> -lam_i - eta to Z at lam_i."""
    return (
        -sinh(2 * (lam + eta))
        * sinh(lam + zeta)
        / (sinh(2 * lam) * sinh(lam - zeta + eta))
        * sinh(lam + delta)
        / sinh(lam - delta + eta)
    )


def recursion_value(p: ModelParams, lambdas: Sequence[complex], which: str, method: str = "det") -> complex:
    """The N-1 reduction of the bminus function of p's (delta, zeta) at the special points.

    which "lam1=xi1" evaluates the coefficient of Z_{N-1}({lam}_{2..N},
    {xi}_{2..N}) at lam_1 = xi_1; which "lamN=-xi1" the companion at
    lam_N = -xi_1.  The spectral points must already satisfy the substitution.
    """
    q, lams = _kind_params(p, lambdas, "bminus")
    n, eta, xis = q.N, q.eta, q.xi
    th = q.theta("minus")
    # lam is the substituted point, member its boundary coupling, x0 = +-xi_1
    # the value lam takes there, and rest the points Z_{N-1} keeps
    if which == "lam1=xi1":
        lam, member, x0, rest = lams[0], q.zeta, xis[0], lams[1:]
    elif which == "lamN=-xi1":
        lam, member, x0, rest = lams[-1], q.delta, -xis[0], lams[:-1]
    else:
        raise ValueError(f"unknown recursion {which!r}")
    coeff = sinh(eta) * sinh(member - lam) / sinh(member + lam)
    for i in range(1, n + 1):
        coeff *= sinh(lams[i - 1] + x0)
        coeff *= sinh(th + (n - 2 * i) * eta) / sinh(th + (n - 2 * i + 1) * eta)
    for xi, other in zip(xis[1:], rest):
        coeff *= sinh(lam - xi + eta) * sinh(lam + xi + eta)
        coeff *= sinh(other - x0 + eta)
    return coeff * z_value(q.replace(N=n - 1, xi=xis[1:]), rest, "bminus", method)


def polynomial_degree_residual(p: ModelParams, z_at: Callable[[complex], complex], rng: np.random.Generator) -> float:
    """Interpolation test of the degree bound in exp(2 lam_i) of the bminus
    function of p's (delta, zeta), with ``z_at(lam)`` its value at lam_i =
    lam (``_point_contraction``, or any other method).  ``z_at`` raises
    ``DegenerateParameter`` at a non-generic point, which skips that draw.

    Samples 2N+4 points, fits the unique degree-(2N+3) interpolant to
    exp((2N+2) lam_i) sinh(delta + lam_i) sinh(zeta + lam_i) Z, a
    polynomial of degree <= 2N+2 in exp(2 lam_i), and returns the top
    coefficient relative to the largest sampled value; a true
    degree-(2N+2) polynomial leaves it at rounding level.
    """
    n_pts = 2 * p.N + 4
    nodes, vals = [], []
    tries = 0
    while len(nodes) < n_pts and tries < 200:
        tries += 1
        phase = pi * (len(nodes) + 0.37 + 0.08 * rng.uniform(-1, 1)) / n_pts
        lam = complex(0.05 + 0.02 * rng.uniform(-1, 1), phase)
        try:
            weight = exp((2 * p.N + 2) * lam) * sinh(p.delta + lam) * sinh(p.zeta + lam)
            vals.append(weight * z_at(lam))
            nodes.append(lam)
        except DegenerateParameter:
            continue
    if len(nodes) < n_pts:
        raise DegenerateParameter("could not sample generic interpolation nodes")
    x = np.array([exp(2 * l) for l in nodes])
    vand = np.vander(x, N=n_pts, increasing=True)
    coeffs = np.linalg.solve(vand, np.array(vals))
    return float(abs(coeffs[-1]) / max(np.max(np.abs(vals)), 1e-300))


def z_property_suite(
    p: ModelParams,
    lambdas: Sequence[complex],
    kind: str,
    seed: int = 0,
    methods: tuple[str, ...] = ("det", "contract"),
    values: dict[str, complex] | None = None,
) -> dict[str, float]:
    """Symmetry, crossing, recursion, and degree checks on the given evaluation
    paths, for the bminus function of the pair that ``kind`` reflects on.

    Every contracted value that varies only lam_1 (Z itself, the crossed
    point, the lam_1 = xi_1 recursion and the degree samples) applies one
    block to a single shared tail B(lam_2) ... B(lam_N) |ref>, and each
    recursion's left side is contracted once, whatever the methods.  Each
    residual is a ``rel_disagreement``, and each degree sample's pole guard
    is the evaluator's own.  A ``values`` dict receives that function's
    value at ``lambdas`` by method, so a caller need not evaluate it again.
    """
    q, lams = _kind_params(p, lambdas, kind)
    rng = np.random.default_rng(seed)
    res: dict[str, float] = {}
    z1 = _point_contraction(q, lams, 0, "bminus")
    # at the substitution points the determinant kernel is singular
    # (removable), so the left sides are always contracted directly
    z_at1 = functools.cache(lambda: z1(q.xi[0]))
    z_atn = functools.cache(lambda: z_contraction(q, lams[:-1] + (-q.xi[0],), "bminus"))
    for method in methods:
        z_of1 = (
            z1 if method == "contract" else lambda lam: z_value(q, (lam,) + lams[1:], "bminus", method)
        )
        z0 = z_of1(lams[0])
        if values is not None:
            values[method] = z0
        if q.N >= 2:
            swapped = (lams[1], lams[0]) + lams[2:]
            res[f"lambda_swap_{method}"] = rel_disagreement(z_value(q, swapped, "bminus", method), z0)
            xs = q.replace(xi=(q.xi[1], q.xi[0]) + q.xi[2:])
            res[f"xi_swap_{method}"] = rel_disagreement(z_value(xs, lams, "bminus", method), z0)
        pred = crossing_factor(lams[0], q.delta, q.zeta, q.eta) * z0
        res[f"crossing_{method}"] = rel_disagreement(z_of1(-lams[0] - q.eta), pred)
        if q.N >= 2:
            at1 = (q.xi[0],) + lams[1:]
            lhs = z_at1()
            res[f"recursion_lam1_{method}"] = rel_disagreement(recursion_value(q, at1, "lam1=xi1", method), lhs)
            atn = lams[:-1] + (-q.xi[0],)
            lhs = z_atn()
            res[f"recursion_lamN_{method}"] = rel_disagreement(recursion_value(q, atn, "lamN=-xi1", method), lhs)
        res[f"degree_{method}"] = polynomial_degree_residual(q, z_of1, rng)
    return res


def rel_disagreement(a: complex, b: complex) -> float:
    """|a - b| relative to |b|: a value against its reference, such as
    Z_det against Z_contract."""
    return abs(a - b) / max(abs(b), 1e-300)
