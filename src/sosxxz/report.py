"""Residual reports produced by the identity suites."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of one named identity over a batch of random trials."""

    check: str
    residuals: tuple[float, ...]
    seed: int = 0

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0
