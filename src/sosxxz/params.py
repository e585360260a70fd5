"""Model parameter containers, genericity guards, and point sampling.

All couplings are complex; a parameter set is "generic" when every sinh
denominator that can appear in a construction stays away from zero.
"""

from __future__ import annotations

import dataclasses
from cmath import sinh
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import DegenerateParameter

POLE_EPS_DEFAULT = 1e-8
# Rejection margin used when drawing random spectral points for identity
# checks; larger than eps_pole so condition numbers stay tame.
SAMPLE_MARGIN = 1e-2
# the complex couplings of a parameter set besides the inhomogeneities
COUPLINGS = ("eta", "delta", "zeta", "tau", "delta_bar", "zeta_bar", "tau_bar")


@dataclass(frozen=True)
class ModelParams:
    """Chain length, crossing parameter, inhomogeneities, boundary couplings."""

    N: int
    eta: complex
    xi: tuple[complex, ...]
    delta: complex
    zeta: complex
    tau: complex
    delta_bar: complex
    zeta_bar: complex
    tau_bar: complex
    eps_pole: float = POLE_EPS_DEFAULT

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("chain length must be positive")
        xi = tuple(complex(x) for x in self.xi)
        if len(xi) != self.N:
            raise ValueError(f"expected {self.N} inhomogeneities, got {len(xi)}")
        object.__setattr__(self, "xi", xi)
        for name in COUPLINGS:
            v = complex(getattr(self, name))
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise ValueError(f"parameter {name} must be finite")
            object.__setattr__(self, name, v)

    def replace(self, **kw) -> "ModelParams":
        return dataclasses.replace(self, **kw)

    def boundary(self, side: str) -> tuple[complex, complex, complex]:
        """(delta, zeta, tau) of K_- for side "minus", (delta_bar, zeta_bar, tau_bar) of K_+ for "plus"."""
        if side == "minus":
            return self.delta, self.zeta, self.tau
        if side == "plus":
            return self.delta_bar, self.zeta_bar, self.tau_bar
        raise ValueError(f"unknown side {side!r}")

    def theta(self, side: str) -> complex:
        """The height-picture parameter delta - zeta of ``side``'s couplings."""
        delta, zeta, _ = self.boundary(side)
        return delta - zeta

    def k_point(self, lam: complex, side: str) -> complex:
        """Where ``side``'s K evaluates K_- of its couplings: lam for "minus",
        -lam - eta for "plus", as K_+(lam) = K_-(-lam - eta; barred)."""
        self.boundary(side)  # rejects an unknown side
        return lam if side == "minus" else -lam - self.eta


# the denominators of one spectral point lam, in the order _gaps lists them
_LAM_LABELS = tuple(
    f"{name}{sign}lam" for name in ("delta", "zeta", "delta_bar", "zeta_bar") for sign in "+-"
) + ("2lam+eta",)


def _gaps(p: ModelParams, lams: Sequence[complex], thetas: Sequence[complex]) -> list[float]:
    """|sinh| of every denominator the constructions can form.

    Covers delta +- lam, zeta +- lam (both boundaries), 2 lam + eta, and
    theta + k eta for |k| <= N + 2; ``_gap_label`` names each by position,
    so no label is formed unless a gap fails.
    """
    gaps: list[float] = []
    for lam in lams:
        for base in (p.delta, p.zeta, p.delta_bar, p.zeta_bar):
            gaps.append(abs(sinh(base + lam)))
            gaps.append(abs(sinh(base - lam)))
        gaps.append(abs(sinh(2 * lam + p.eta)))
    for th in thetas:
        gaps.extend(abs(sinh(th + k * p.eta)) for k in range(-(p.N + 2), p.N + 3))
    return gaps


def _gap_label(p: ModelParams, n_lams: int, i: int) -> str:
    """Label of the i-th gap of ``_gaps`` for n_lams spectral points."""
    if i < len(_LAM_LABELS) * n_lams:
        return _LAM_LABELS[i % len(_LAM_LABELS)]
    k = (i - len(_LAM_LABELS) * n_lams) % (2 * p.N + 5) - (p.N + 2)
    return f"theta{k:+d}eta"


def min_pole_gap(p: ModelParams, lams=(), thetas=()) -> float:
    return min(_gaps(p, lams, thetas), default=np.inf)


def assert_generic(p: ModelParams, lams=(), thetas=()) -> None:
    for i, gap in enumerate(_gaps(p, lams, thetas)):
        if gap <= p.eps_pole:
            label = _gap_label(p, len(lams), i)
            raise DegenerateParameter(f"|sinh({label})| = {gap:.3e} <= {p.eps_pole:.1e}")


def sample_points(
    rng: np.random.Generator,
    p: ModelParams,
    count: int,
    thetas: Sequence[complex] = (),
) -> list[complex]:
    """Draw spectral points from the [-1, 1]^2 square (at most 10,000 tries),
    rejecting any that come within SAMPLE_MARGIN of a pole of the standard
    denominators.  The theta gaps do not depend on the point, so they are
    taken once; if they alone fail, no point can pass and the call raises
    without drawing."""
    pts: list[complex] = []
    if min_pole_gap(p, (), thetas) > SAMPLE_MARGIN:
        for _ in range(10_000):
            if len(pts) == count:
                break
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if min_pole_gap(p, [z]) > SAMPLE_MARGIN:
                pts.append(z)
    if len(pts) < count:
        raise DegenerateParameter("could not sample generic spectral points")
    return pts


def identity_suite(
    residuals: Mapping[str, Callable[[Any, ModelParams], float]],
    draw: Callable[[np.random.Generator, ModelParams], Any],
    p: ModelParams,
    seed: int,
    trials: int,
) -> dict[str, float]:
    """Largest residual of each named check over seeded random trials.

    Trial-major: each ``draw(rng, p)`` of one generator seeded with
    ``seed`` is read by every check, in registry order, and then dropped,
    so whatever a trial memoizes is shared by its checks alone.  The
    trials depend on the seed, not on the registry: a one-entry registry
    reads the trials the whole one does.  A NaN residual sticks, for the
    caller's finite check to report.
    """
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(residuals, 0.0)
    for _ in range(trials):
        trial = draw(rng, p)
        for check, residual in residuals.items():
            r = residual(trial, p)
            if r > worst[check] or r != r:
                worst[check] = r
    return {check: float(r) for check, r in worst.items()}


def generic_params(N: int, eps_pole: float = POLE_EPS_DEFAULT) -> ModelParams:
    """A fixed generic parameter set used by tests, scripts, and CLI defaults."""
    xi_pool = [
        0.11 - 0.07j,
        -0.13 + 0.09j,
        0.17 + 0.05j,
        -0.08 - 0.12j,
        0.05 + 0.14j,
        -0.16 - 0.04j,
        0.09 + 0.11j,
        -0.06 + 0.13j,
    ]
    if N > len(xi_pool):
        xi = tuple(0.03 * (i + 1) - 0.02j * (i - 1) for i in range(N))
    else:
        xi = tuple(xi_pool[:N])
    return ModelParams(
        N=N,
        eta=0.47 + 0.19j,
        xi=xi,
        delta=0.83 - 0.31j,
        zeta=0.59 + 0.42j,
        tau=0.25 + 0.13j,
        delta_bar=0.91 + 0.27j,
        zeta_bar=0.67 - 0.23j,
        tau_bar=0.35 - 0.17j,
        eps_pole=eps_pole,
    )
