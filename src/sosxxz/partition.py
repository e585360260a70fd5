"""Domain-wall partition functions of the SOS model with one reflecting end.

Four boundary configurations exist (reflecting end left or right, heights
rising or falling along the top row).  Each is a matrix element of a string
of creation-type double-row blocks between the two reference states, and
each reduces to a single N x N determinant.  The direct contraction is the
ground truth; the determinant and recursion paths are checked against it.
"""

from __future__ import annotations

from cmath import exp, pi, sinh
from typing import Sequence

import numpy as np

from . import params
from . import sos
from . import tensor as tn
from .errors import DegenerateParameter, SingularPrefactor
from .params import ModelParams

KINDS = ("bminus", "cminus", "bplus", "cplus")


def _kind_params(p: ModelParams, lambdas: Sequence[complex], kind: str) -> tuple[ModelParams, tuple[complex, ...]]:
    """The parameters ``kind`` reads, and its N spectral points.

    The minus kinds reflect on (delta, zeta), the plus kinds on
    (delta_bar, zeta_bar).  Both boundary slots carry that pair, so either
    side of the construction and the pole guard see it; tau never enters
    the height-picture blocks.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown partition kind {kind!r}")
    lams = tuple(complex(x) for x in lambdas)
    if len(lams) != p.N:
        raise ValueError("need exactly N spectral parameters")
    d, z = (p.delta, p.zeta) if kind.endswith("minus") else (p.delta_bar, p.zeta_bar)
    return p.replace(delta=d, zeta=z, tau=0.0, delta_bar=d, zeta_bar=z, tau_bar=0.0), lams


def z_contraction(p: ModelParams, lambdas: Sequence[complex], kind: str) -> complex:
    """Matrix element of the defining block string between reference states."""
    q, lams = _kind_params(p, lambdas, kind)
    th = q.delta - q.zeta
    params.assert_generic(q, lams, [th])
    side = "minus" if kind.endswith("minus") else "plus"
    creator = "B" if kind.startswith("b") else "C"
    v = tn.all_up(q.N) if creator == "B" else tn.all_down(q.N)
    for lam in reversed(lams):
        v = sos.block_column(lam, th, side, creator, q, v)[0]
    bra = tn.all_down(q.N) if creator == "B" else tn.all_up(q.N)
    return complex(bra @ v)


def m_entry(i: int, j: int, p: ModelParams, lambdas: Sequence[complex]) -> complex:
    """Entry (i, j), zero-based, of the bminus determinant kernel of p's (delta, zeta)."""
    lam, xi = lambdas[i], p.xi[j]
    d, z, eta = p.delta, p.zeta, p.eta
    den = sinh(lam - xi + eta) * sinh(lam + xi + eta) * sinh(lam - xi) * sinh(lam + xi)
    if abs(den) <= p.eps_pole:
        raise SingularPrefactor("coincident lambda/xi in the determinant kernel")
    return (
        sinh(d + xi) / sinh(d + lam) * sinh(z - xi) / sinh(z + lam) * sinh(2 * lam) * sinh(eta) / den
    )


def _z_determinant_bminus(q: ModelParams, lams: tuple[complex, ...]) -> complex:
    params.assert_generic(q, lams, [q.delta - q.zeta])
    n, xis = q.N, q.xi
    d, z, eta = q.delta, q.zeta, q.eta
    m = np.array([[m_entry(i, j, q, lams) for j in range(n)] for i in range(n)], dtype=complex)
    # sign of the reversal permutation; the contraction oracle and the N=1
    # closed form fix it to (-1)^(N(N-1)/2)
    value = (-1) ** (n * (n - 1) // 2) * np.linalg.det(m)
    for i in range(1, n + 1):
        value *= sinh(d - z + eta * (n - 2 * i)) / sinh(d - z + eta * (n - i))
    for lam in lams:
        for xi in xis:
            value *= sinh(lam + xi) * sinh(lam - xi) * sinh(lam + xi + eta) * sinh(lam - xi + eta)
    for i in range(n):
        for j in range(i + 1, n):
            den = (
                sinh(xis[j] + xis[i])
                * sinh(xis[j] - xis[i])
                * sinh(lams[j] - lams[i])
                * sinh(lams[j] + lams[i] + eta)
            )
            if abs(den) <= q.eps_pole:
                raise SingularPrefactor("coincident spectral or inhomogeneity parameters")
            value /= den
    return complex(value)


def z_determinant(p: ModelParams, lambdas: Sequence[complex], kind: str) -> complex:
    """Determinant evaluation for any kind, via the inter-kind relations.

    cminus and bplus swap the boundary pair; the plus kinds map onto the
    minus ones with all spectral parameters sent to -lam - eta, the
    inhomogeneities negated, and an overall (-1)^N.
    """
    q, lams = _kind_params(p, lambdas, kind)
    if kind in ("cminus", "bplus"):
        q = q.replace(delta=q.zeta, zeta=q.delta, delta_bar=q.zeta, zeta_bar=q.delta)
    if kind.endswith("minus"):
        return _z_determinant_bminus(q, lams)
    reflected = q.replace(xi=tuple(-x for x in q.xi))
    return (-1) ** q.N * _z_determinant_bminus(reflected, tuple(-l - q.eta for l in lams))


def z_value(p: ModelParams, lambdas: Sequence[complex], kind: str, method: str) -> complex:
    if method == "det":
        return z_determinant(p, lambdas, kind)
    if method == "contract":
        return z_contraction(p, lambdas, kind)
    raise ValueError(f"unknown method {method!r}")


def closed_form_n1(lam: complex, xi: complex, delta: complex, zeta: complex, eta: complex) -> complex:
    """The N = 1 partition function for the bminus kind in closed form."""
    th = delta - zeta
    return (
        sinh(eta)
        * sinh(th - eta)
        / sinh(th) ** 2
        * (
            sinh(delta - lam) / sinh(delta + lam) * sinh(lam - xi) * sinh(th + lam + xi)
            + sinh(zeta - lam) / sinh(zeta + lam) * sinh(lam + xi) * sinh(th - lam + xi)
        )
    )


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
    th = q.delta - q.zeta
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


def normalized_z(p: ModelParams, lambdas: Sequence[complex], i: int, method: str) -> complex:
    """exp((2N+2) lam_i) sinh(delta + lam_i) sinh(zeta + lam_i) Z, the
    combination polynomial of degree <= 2N+2 in exp(2 lam_i), for the
    bminus function of p's (delta, zeta)."""
    lam = lambdas[i]
    return exp((2 * p.N + 2) * lam) * sinh(p.delta + lam) * sinh(p.zeta + lam) * z_value(p, lambdas, "bminus", method)


def polynomial_degree_residual(
    p: ModelParams,
    lambdas: Sequence[complex],
    i: int = 0,
    method: str = "det",
    rng: np.random.Generator | None = None,
) -> float:
    """Interpolation test of the degree bound in exp(2 lam_i) of the bminus
    function of p's (delta, zeta).

    Samples 2N+4 points, fits the unique degree-(2N+3) interpolant, and
    returns the top coefficient relative to the largest sampled value; a
    true degree-(2N+2) polynomial leaves it at rounding level.
    """
    q, lams = _kind_params(p, lambdas, "bminus")
    rng = np.random.default_rng(0) if rng is None else rng
    n_pts = 2 * q.N + 4
    nodes, vals = [], []
    tries = 0
    while len(nodes) < n_pts and tries < 200:
        tries += 1
        phase = pi * (len(nodes) + 0.37 + 0.08 * rng.uniform(-1, 1)) / n_pts
        lam = complex(0.05 + 0.02 * rng.uniform(-1, 1), phase)
        trial = lams[:i] + (lam,) + lams[i + 1:]
        try:
            params.assert_generic(q, trial, [q.delta - q.zeta])
            vals.append(normalized_z(q, trial, i, method))
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
) -> dict[str, float]:
    """Symmetry, crossing, recursion, and degree checks on the given evaluation
    paths, for the bminus function of the pair that ``kind`` reflects on."""
    q, lams = _kind_params(p, lambdas, kind)
    rng = np.random.default_rng(seed)
    res: dict[str, float] = {}
    for method in methods:
        z0 = z_value(q, lams, "bminus", method)
        scale = max(abs(z0), 1e-300)
        if q.N >= 2:
            swapped = (lams[1], lams[0]) + lams[2:]
            res[f"lambda_swap_{method}"] = abs(z_value(q, swapped, "bminus", method) - z0) / scale
            xs = q.replace(xi=(q.xi[1], q.xi[0]) + q.xi[2:])
            res[f"xi_swap_{method}"] = abs(z_value(xs, lams, "bminus", method) - z0) / scale
        crossed = (-lams[0] - q.eta,) + lams[1:]
        pred = crossing_factor(lams[0], q.delta, q.zeta, q.eta) * z0
        res[f"crossing_{method}"] = abs(z_value(q, crossed, "bminus", method) - pred) / max(abs(pred), 1e-300)
        if q.N >= 2:
            # at the substitution point the determinant kernel is singular
            # (removable), so the left side is always contracted directly
            at1 = (q.xi[0],) + lams[1:]
            z_at1 = z_contraction(q, at1, "bminus")
            res[f"recursion_lam1_{method}"] = abs(
                z_at1 - recursion_value(q, at1, "lam1=xi1", method)
            ) / max(abs(z_at1), 1e-300)
            atn = lams[:-1] + (-q.xi[0],)
            z_atn = z_contraction(q, atn, "bminus")
            res[f"recursion_lamN_{method}"] = abs(
                z_atn - recursion_value(q, atn, "lamN=-xi1", method)
            ) / max(abs(z_atn), 1e-300)
        res[f"degree_{method}"] = polynomial_degree_residual(q, lams, 0, method, rng)
    return res


def rel_disagreement(zd: complex, zc: complex) -> float:
    """|Z_det - Z_contract| relative to the contraction."""
    return abs(zd - zc) / max(abs(zc), 1e-300)
