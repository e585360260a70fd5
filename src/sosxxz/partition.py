"""Domain-wall partition functions of the SOS model with one reflecting end.

Four boundary configurations exist (reflecting end left or right, heights
rising or falling along the top row).  Each is a matrix element of a string
of creation-type double-row blocks between the two reference states, and
each reduces to a single N x N determinant.  The direct contraction is the
ground truth; the determinant and recursion paths are checked against it.
"""

from __future__ import annotations

from cmath import exp, pi, sinh
from dataclasses import dataclass, field
import numpy as np

from . import sos
from . import tensor as tn
from .errors import DegenerateParameter, SingularPrefactor
from .params import ModelParams

KINDS = ("bminus", "cminus", "bplus", "cplus")


@dataclass(frozen=True)
class PartitionInput:
    """One partition-function evaluation point.

    ``delta`` and ``zeta`` are the boundary couplings of the reflecting
    end: the unbarred pair for the minus kinds, the barred pair for the
    plus kinds.
    """

    N: int
    lambdas: tuple[complex, ...]
    xis: tuple[complex, ...]
    delta: complex
    zeta: complex
    eta: complex
    kind: str
    eps_pole: float = 1e-8

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown partition kind {self.kind!r}")
        lams = tuple(complex(x) for x in self.lambdas)
        xis = tuple(complex(x) for x in self.xis)
        if len(lams) != self.N or len(xis) != self.N:
            raise ValueError("need exactly N spectral and N inhomogeneity parameters")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "xis", xis)

    def theta(self) -> complex:
        return self.delta - self.zeta

    def replace(self, **kw) -> "PartitionInput":
        import dataclasses

        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class PartitionReport:
    kind: str
    value_det: complex
    value_contract: complex
    rel_disagreement: float
    property_residuals: dict[str, float] = field(default_factory=dict)


def _model_params(inp: PartitionInput) -> ModelParams:
    # tau never enters the height-picture blocks; both boundary slots carry
    # the same pair so either side of the construction can be used
    return ModelParams(
        N=inp.N,
        eta=inp.eta,
        xi=inp.xis,
        delta=inp.delta,
        zeta=inp.zeta,
        tau=0.0,
        delta_bar=inp.delta,
        zeta_bar=inp.zeta,
        tau_bar=0.0,
        eps_pole=inp.eps_pole,
    )


def assert_generic(inp: PartitionInput) -> None:
    th = inp.theta()
    for k in range(-(inp.N + 2), inp.N + 3):
        if abs(sinh(th + k * inp.eta)) <= inp.eps_pole:
            raise DegenerateParameter(f"|sinh(theta + {k} eta)| below eps_pole")
    for lam in inp.lambdas:
        for base, name in ((inp.delta, "delta"), (inp.zeta, "zeta")):
            if abs(sinh(base + lam)) <= inp.eps_pole or abs(sinh(base - lam)) <= inp.eps_pole:
                raise DegenerateParameter(f"|sinh({name} +- lam)| below eps_pole")
        if abs(sinh(2 * lam + inp.eta)) <= inp.eps_pole:
            raise DegenerateParameter("|sinh(2 lam + eta)| below eps_pole")


def z_contraction(inp: PartitionInput) -> complex:
    """Matrix element of the defining block string between reference states."""
    assert_generic(inp)
    p = _model_params(inp)
    side = "minus" if inp.kind in ("bminus", "cminus") else "plus"
    creator = "B" if inp.kind in ("bminus", "bplus") else "C"
    th = inp.theta()
    n = inp.N
    v = tn.all_up(n) if creator == "B" else tn.all_down(n)
    for lam in reversed(inp.lambdas):
        v = sos.block_column(lam, th, side, creator, p, v)[0]
    bra = tn.all_down(n) if creator == "B" else tn.all_up(n)
    return complex(bra @ v)


def m_entry(i: int, j: int, inp: PartitionInput) -> complex:
    """Entry (i, j), zero-based, of the determinant kernel for the bminus kind."""
    lam, xi = inp.lambdas[i], inp.xis[j]
    d, z, eta = inp.delta, inp.zeta, inp.eta
    den = sinh(lam - xi + eta) * sinh(lam + xi + eta) * sinh(lam - xi) * sinh(lam + xi)
    if abs(den) <= inp.eps_pole:
        raise SingularPrefactor("coincident lambda/xi in the determinant kernel")
    return (
        sinh(d + xi) / sinh(d + lam) * sinh(z - xi) / sinh(z + lam) * sinh(2 * lam) * sinh(eta) / den
    )


def _z_determinant_bminus(inp: PartitionInput) -> complex:
    assert_generic(inp)
    n = inp.N
    d, z, eta = inp.delta, inp.zeta, inp.eta
    m = np.array([[m_entry(i, j, inp) for j in range(n)] for i in range(n)], dtype=complex)
    # sign of the reversal permutation; the contraction oracle and the N=1
    # closed form fix it to (-1)^(N(N-1)/2)
    value = (-1) ** (n * (n - 1) // 2) * np.linalg.det(m)
    for i in range(1, n + 1):
        value *= sinh(d - z + eta * (n - 2 * i)) / sinh(d - z + eta * (n - i))
    for lam in inp.lambdas:
        for xi in inp.xis:
            value *= sinh(lam + xi) * sinh(lam - xi) * sinh(lam + xi + eta) * sinh(lam - xi + eta)
    for i in range(n):
        for j in range(i + 1, n):
            den = (
                sinh(inp.xis[j] + inp.xis[i])
                * sinh(inp.xis[j] - inp.xis[i])
                * sinh(inp.lambdas[j] - inp.lambdas[i])
                * sinh(inp.lambdas[j] + inp.lambdas[i] + eta)
            )
            if abs(den) <= inp.eps_pole:
                raise SingularPrefactor("coincident spectral or inhomogeneity parameters")
            value /= den
    return complex(value)


def z_determinant(inp: PartitionInput) -> complex:
    """Determinant evaluation for any kind, via the inter-kind relations.

    cminus swaps the boundary pair; the plus kinds map onto the minus ones
    with all spectral parameters sent to -lam - eta, the inhomogeneities
    negated, and an overall (-1)^N.
    """
    if inp.kind == "bminus":
        return _z_determinant_bminus(inp)
    if inp.kind == "cminus":
        return _z_determinant_bminus(inp.replace(kind="bminus", delta=inp.zeta, zeta=inp.delta))
    reflected = inp.replace(
        kind="bminus",
        lambdas=tuple(-l - inp.eta for l in inp.lambdas),
        xis=tuple(-x for x in inp.xis),
    )
    if inp.kind == "cplus":
        return (-1) ** inp.N * _z_determinant_bminus(reflected)
    # bplus = cminus at reflected arguments = bminus with the pair swapped
    return (-1) ** inp.N * _z_determinant_bminus(
        reflected.replace(delta=inp.zeta, zeta=inp.delta)
    )


def z_value(inp: PartitionInput, method: str) -> complex:
    if method == "det":
        return z_determinant(inp)
    if method == "contract":
        return z_contraction(inp)
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


def recursion_value(inp: PartitionInput, which: str, method: str = "det") -> complex:
    """The N-1 reduction of the bminus function at the special points.

    which "lam1=xi1" evaluates the coefficient of Z_{N-1}({lam}_{2..N},
    {xi}_{2..N}) at lam_1 = xi_1; which "lamN=-xi1" the companion at
    lam_N = -xi_1.  The input must already satisfy the substitution.
    """
    if inp.kind != "bminus":
        raise ValueError("recursions are checked on the bminus kind")
    n, eta = inp.N, inp.eta
    d, z = inp.delta, inp.zeta
    lams, xis = inp.lambdas, inp.xis
    th = d - z
    if which == "lam1=xi1":
        lam1 = lams[0]
        coeff = sinh(eta) * sinh(z - lam1) / sinh(z + lam1)
        for i in range(1, n + 1):
            coeff *= sinh(lams[i - 1] + xis[0])
            coeff *= sinh(th + (n - 2 * i) * eta) / sinh(th + (n - 2 * i + 1) * eta)
        for i in range(2, n + 1):
            coeff *= sinh(lam1 - xis[i - 1] + eta) * sinh(lam1 + xis[i - 1] + eta)
            coeff *= sinh(lams[i - 1] - xis[0] + eta)
        sub = inp.replace(N=n - 1, lambdas=lams[1:], xis=xis[1:])
    elif which == "lamN=-xi1":
        lamn = lams[-1]
        coeff = sinh(eta) * sinh(d - lamn) / sinh(d + lamn)
        for i in range(1, n + 1):
            coeff *= sinh(lams[i - 1] - xis[0])
            coeff *= sinh(th + (n - 2 * i) * eta) / sinh(th + (n - 2 * i + 1) * eta)
        for i in range(2, n + 1):
            coeff *= sinh(lamn + xis[i - 1] + eta) * sinh(lamn - xis[i - 1] + eta)
            coeff *= sinh(lams[i - 2] + xis[0] + eta)
        sub = inp.replace(N=n - 1, lambdas=lams[:-1], xis=xis[1:])
    else:
        raise ValueError(f"unknown recursion {which!r}")
    return coeff * z_value(sub, method)


def normalized_z(inp: PartitionInput, i: int, method: str) -> complex:
    """exp((2N+2) lam_i) sinh(delta + lam_i) sinh(zeta + lam_i) Z, the
    combination polynomial of degree <= 2N+2 in exp(2 lam_i)."""
    lam = inp.lambdas[i]
    return (
        exp((2 * inp.N + 2) * lam)
        * sinh(inp.delta + lam)
        * sinh(inp.zeta + lam)
        * z_value(inp, method)
    )


def polynomial_degree_residual(
    inp: PartitionInput, i: int = 0, method: str = "det", rng: np.random.Generator | None = None
) -> float:
    """Interpolation test of the degree bound in exp(2 lam_i).

    Samples 2N+4 points, fits the unique degree-(2N+3) interpolant, and
    returns the top coefficient relative to the largest sampled value; a
    true degree-(2N+2) polynomial leaves it at rounding level.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    n_pts = 2 * inp.N + 4
    lams, vals = [], []
    tries = 0
    while len(lams) < n_pts and tries < 200:
        tries += 1
        phase = pi * (len(lams) + 0.37 + 0.08 * rng.uniform(-1, 1)) / n_pts
        lam = complex(0.05 + 0.02 * rng.uniform(-1, 1), phase)
        trial = inp.replace(lambdas=tuple(lam if k == i else l for k, l in enumerate(inp.lambdas)))
        try:
            assert_generic(trial)
            vals.append(normalized_z(trial, i, method))
            lams.append(lam)
        except DegenerateParameter:
            continue
    if len(lams) < n_pts:
        raise DegenerateParameter("could not sample generic interpolation nodes")
    x = np.array([exp(2 * l) for l in lams])
    vand = np.vander(x, N=n_pts, increasing=True)
    coeffs = np.linalg.solve(vand, np.array(vals))
    return float(abs(coeffs[-1]) / max(np.max(np.abs(vals)), 1e-300))


def z_property_suite(
    inp: PartitionInput, seed: int = 0, methods: tuple[str, ...] = ("det", "contract")
) -> dict[str, float]:
    """Symmetry, crossing, recursion, and degree checks on the given evaluation paths."""
    rng = np.random.default_rng(seed)
    res: dict[str, float] = {}
    base = inp.replace(kind="bminus")
    for method in methods:
        z0 = z_value(base, method)
        scale = max(abs(z0), 1e-300)
        if inp.N >= 2:
            swapped = base.replace(
                lambdas=(base.lambdas[1], base.lambdas[0]) + base.lambdas[2:]
            )
            res[f"lambda_swap_{method}"] = abs(z_value(swapped, method) - z0) / scale
            xs = base.replace(xis=(base.xis[1], base.xis[0]) + base.xis[2:])
            res[f"xi_swap_{method}"] = abs(z_value(xs, method) - z0) / scale
        crossed = base.replace(
            lambdas=(-base.lambdas[0] - base.eta,) + base.lambdas[1:]
        )
        pred = crossing_factor(base.lambdas[0], base.delta, base.zeta, base.eta) * z0
        res[f"crossing_{method}"] = abs(z_value(crossed, method) - pred) / max(abs(pred), 1e-300)
        if inp.N >= 2:
            # at the substitution point the determinant kernel is singular
            # (removable), so the left side is always contracted directly
            at1 = base.replace(lambdas=(base.xis[0],) + base.lambdas[1:])
            z_at1 = z_contraction(at1)
            res[f"recursion_lam1_{method}"] = abs(
                z_at1 - recursion_value(at1, "lam1=xi1", method)
            ) / max(abs(z_at1), 1e-300)
            atn = base.replace(lambdas=base.lambdas[:-1] + (-base.xis[0],))
            z_atn = z_contraction(atn)
            res[f"recursion_lamN_{method}"] = abs(
                z_atn - recursion_value(atn, "lamN=-xi1", method)
            ) / max(abs(z_atn), 1e-300)
        res[f"degree_{method}"] = polynomial_degree_residual(base, 0, method, rng)
    return res


def partition_report(inp: PartitionInput, seed: int = 0, with_properties: bool = False) -> PartitionReport:
    zd = z_determinant(inp)
    zc = z_contraction(inp)
    rel = abs(zd - zc) / max(abs(zc), 1e-300)
    props = z_property_suite(inp, seed) if with_properties else {}
    return PartitionReport(
        kind=inp.kind,
        value_det=zd,
        value_contract=zc,
        rel_disagreement=rel,
        property_residuals=props,
    )
