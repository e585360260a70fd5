"""Model parameter containers, genericity guards, and point sampling.

All couplings are complex; a parameter set is "generic" when every sinh
denominator that can appear in a construction stays away from zero.
"""

from __future__ import annotations

import dataclasses
from cmath import sinh
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateParameter

POLE_EPS_DEFAULT = 1e-8
# Rejection margin used when drawing random spectral points for identity
# checks; larger than eps_pole so condition numbers stay tame.
SAMPLE_MARGIN = 1e-2


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
        for name in ("eta", "delta", "zeta", "tau", "delta_bar", "zeta_bar", "tau_bar"):
            v = complex(getattr(self, name))
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise ValueError(f"parameter {name} must be finite")
            object.__setattr__(self, name, v)

    def replace(self, **kw) -> "ModelParams":
        return dataclasses.replace(self, **kw)

    def homogeneous(self) -> bool:
        return all(x == 0 for x in self.xi)


def pole_gaps(
    p: ModelParams,
    lams: Sequence[complex] = (),
    thetas: Sequence[complex] = (),
) -> list[tuple[str, float]]:
    """|sinh| of every denominator the constructions can form.

    Covers delta +- lam, zeta +- lam (both boundaries), 2 lam + eta, and
    theta + k eta for |k| <= N + 2.
    """
    gaps: list[tuple[str, float]] = []
    for lam in lams:
        for name, base in (
            ("delta", p.delta),
            ("zeta", p.zeta),
            ("delta_bar", p.delta_bar),
            ("zeta_bar", p.zeta_bar),
        ):
            gaps.append((f"{name}+lam", abs(sinh(base + lam))))
            gaps.append((f"{name}-lam", abs(sinh(base - lam))))
        gaps.append(("2lam+eta", abs(sinh(2 * lam + p.eta))))
    for th in thetas:
        for k in range(-(p.N + 2), p.N + 3):
            gaps.append((f"theta{k:+d}eta", abs(sinh(th + k * p.eta))))
    return gaps


def min_pole_gap(p: ModelParams, lams=(), thetas=()) -> float:
    gaps = pole_gaps(p, lams, thetas)
    return min((g for _, g in gaps), default=np.inf)


def assert_generic(p: ModelParams, lams=(), thetas=(), eps: float | None = None) -> None:
    eps = p.eps_pole if eps is None else eps
    for label, gap in pole_gaps(p, lams, thetas):
        if gap <= eps:
            raise DegenerateParameter(f"|sinh({label})| = {gap:.3e} <= {eps:.1e}")


def sample_points(
    rng: np.random.Generator,
    p: ModelParams,
    count: int,
    thetas: Sequence[complex] = (),
) -> list[complex]:
    """Draw spectral points from the [-1, 1]^2 square (at most 10,000 tries),
    rejecting any that come within SAMPLE_MARGIN of a pole of the standard
    denominators."""
    pts: list[complex] = []
    for _ in range(10_000):
        if len(pts) == count:
            break
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if min_pole_gap(p, [z], thetas) > SAMPLE_MARGIN:
            pts.append(z)
    if len(pts) < count:
        raise DegenerateParameter("could not sample generic spectral points")
    return pts


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
