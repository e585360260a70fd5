"""Dense operators on ordered tensor products of C^2 spaces.

Every operator carries a tuple of leg labels, one per two-dimensional
factor.  The first leg is the most significant bit of the basis index
(numpy kron order), and basis value 0 of a leg is spin up (sigma^z = +1).
All operators are immutable; every function returns a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import UnknownLeg

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Permutation operator on C^2 x C^2: P |a b> = |b a>.
PERM4 = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense square matrix tagged with its ordered tensor-leg layout."""

    data: np.ndarray
    legs: tuple[str, ...]

    def __post_init__(self):
        legs = tuple(self.legs)
        if len(set(legs)) != len(legs):
            raise ValueError(f"duplicate leg labels: {legs}")
        data = np.ascontiguousarray(self.data, dtype=complex)
        d = 2 ** len(legs)
        if data.shape != (d, d):
            raise ValueError(f"matrix shape {data.shape} does not match legs {legs}")
        if not np.all(np.isfinite(data.view(float))):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "legs", legs)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def _check_same_legs(self, other: "Operator") -> None:
        if self.legs != other.legs:
            raise ValueError(f"leg mismatch: {self.legs} vs {other.legs}")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same_legs(other)
        return Operator(self.data @ other.data, self.legs)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_legs(other)
        return Operator(self.data + other.data, self.legs)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same_legs(other)
        return Operator(self.data - other.data, self.legs)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.data * scalar, self.legs)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.data, self.legs)


def identity(legs: Sequence[str]) -> Operator:
    return Operator(np.eye(2 ** len(legs), dtype=complex), tuple(legs))


def on(matrix: np.ndarray, legs: Sequence[str]) -> Operator:
    """Wrap a raw matrix as an operator acting on the given legs."""
    return Operator(np.asarray(matrix, dtype=complex), tuple(legs))


def tensor_product(a: Operator, b: Operator) -> Operator:
    return Operator(np.kron(a.data, b.data), a.legs + b.legs)


def relabel(op: Operator, new_legs: Sequence[str]) -> Operator:
    if len(new_legs) != len(op.legs):
        raise ValueError("relabel needs one label per leg")
    return Operator(op.data, tuple(new_legs))


def permute_legs(op: Operator, new_legs: Sequence[str]) -> Operator:
    """Reorder the legs of an operator (same leg set, new order)."""
    new_legs = tuple(new_legs)
    if set(new_legs) != set(op.legs) or len(new_legs) != len(op.legs):
        raise UnknownLeg(f"cannot permute {op.legs} into {new_legs}")
    n = len(op.legs)
    axes = [op.legs.index(l) for l in new_legs]
    t = op.data.reshape((2,) * (2 * n))
    t = t.transpose(axes + [n + a for a in axes])
    return Operator(t.reshape(2**n, 2**n), new_legs)


def embed(op: Operator, full_legs: Sequence[str], target_legs: Sequence[str] | None = None) -> Operator:
    """Extend an operator by the identity on all legs it does not act on.

    ``target_legs`` optionally relabels the operator's own legs before
    embedding (so a generic 4x4 block can be dropped onto any leg pair).
    """
    o = op if target_legs is None else relabel(op, target_legs)
    full_legs = tuple(full_legs)
    for l in o.legs:
        if l not in full_legs:
            raise UnknownLeg(f"target leg {l!r} absent from {full_legs}")
    rest = tuple(l for l in full_legs if l not in o.legs)
    big = Operator(np.kron(o.data, np.eye(2 ** len(rest), dtype=complex)), o.legs + rest)
    return permute_legs(big, full_legs)


def partial_transpose(op: Operator, leg: str) -> Operator:
    if leg not in op.legs:
        raise UnknownLeg(f"leg {leg!r} absent from {op.legs}")
    n = len(op.legs)
    i = op.legs.index(leg)
    t = op.data.reshape((2,) * (2 * n)).swapaxes(i, n + i)
    return Operator(t.reshape(2**n, 2**n), op.legs)


def partial_trace(op: Operator, leg: str) -> Operator:
    if leg not in op.legs:
        raise UnknownLeg(f"leg {leg!r} absent from {op.legs}")
    n = len(op.legs)
    i = op.legs.index(leg)
    t = op.data.reshape((2,) * (2 * n))
    t = np.trace(t, axis1=i, axis2=n + i)
    legs = tuple(l for l in op.legs if l != leg)
    d = 2 ** len(legs)
    return Operator(t.reshape(d, d), legs)


def block(op: Operator, leg: str, row: int, col: int) -> Operator:
    """Extract one 2x2 block over the given leg (row/col eigenvalue index)."""
    if leg not in op.legs:
        raise UnknownLeg(f"leg {leg!r} absent from {op.legs}")
    n = len(op.legs)
    i = op.legs.index(leg)
    t = op.data.reshape((2,) * (2 * n))
    t = np.take(np.take(t, row, axis=i), col, axis=n - 1 + i)
    legs = tuple(l for l in op.legs if l != leg)
    d = 2 ** len(legs)
    return Operator(t.reshape(d, d), legs)


def swapped4(matrix: np.ndarray) -> np.ndarray:
    """P M P for a 4x4 matrix on two C^2 legs (leg exchange)."""
    return np.asarray(matrix).reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def transpose_first4(matrix: np.ndarray) -> np.ndarray:
    """Partial transpose on the first leg of a 4x4 matrix."""
    return np.asarray(matrix).reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


def leg_sz(full_legs: Sequence[str], leg: str) -> np.ndarray:
    """Per-basis-state sigma^z value (+1/-1) of one leg."""
    full_legs = tuple(full_legs)
    if leg not in full_legs:
        raise UnknownLeg(f"leg {leg!r} absent from {full_legs}")
    n = len(full_legs)
    i = full_legs.index(leg)
    idx = np.arange(2**n)
    return 1 - 2 * ((idx >> (n - 1 - i)) & 1)


def sz_sum(full_legs: Sequence[str], legs: Sequence[str]) -> np.ndarray:
    """Per-basis-state sum of sigma^z over a subset of legs."""
    total = np.zeros(2 ** len(full_legs), dtype=int)
    for l in legs:
        total = total + leg_sz(full_legs, l)
    return total


def weighted_sz(full_legs: Sequence[str], weighted_legs: Sequence[tuple[str, int]]) -> np.ndarray:
    total = np.zeros(2 ** len(full_legs), dtype=int)
    for l, w in weighted_legs:
        total = total + w * leg_sz(full_legs, l)
    return total


def charge_resolved(
    full_legs: Sequence[str],
    weighted_legs: Sequence[tuple[str, int]],
    legs: Sequence[str],
    block: Callable[[int], np.ndarray],
) -> Operator:
    """Dynamical gate: a local block whose entries depend on sigma^z charges.

    The charge c = sum of w * sigma^z(leg) is read off the input (column)
    basis state; ``block(c)`` returns the raw matrix acting on ``legs``,
    which is embedded into ``full_legs``.  This realizes the convention
    that operator-valued dynamical arguments act first, before the matrix
    they parameterize.
    """
    full_legs = tuple(full_legs)
    charges = weighted_sz(full_legs, weighted_legs)
    out = np.zeros((2 ** len(full_legs),) * 2, dtype=complex)
    for c in np.unique(charges):
        cols = np.nonzero(charges == c)[0]
        out[:, cols] = embed(on(block(int(c)), legs), full_legs).data[:, cols]
    return Operator(out, full_legs)


def column_diag(full_legs: Sequence[str], values: np.ndarray) -> Operator:
    """Diagonal operator with one prescribed value per basis state."""
    return Operator(np.diag(np.asarray(values, dtype=complex)), tuple(full_legs))


def basis_vector(nlegs: int, index: int) -> np.ndarray:
    v = np.zeros(2**nlegs, dtype=complex)
    v[index] = 1.0
    return v


def all_up(nlegs: int) -> np.ndarray:
    return basis_vector(nlegs, 0)


def all_down(nlegs: int) -> np.ndarray:
    return basis_vector(nlegs, 2**nlegs - 1)


def max_abs(a) -> float:
    data = a.data if isinstance(a, Operator) else np.asarray(a)
    if data.size == 0:
        return 0.0
    return float(np.max(np.abs(data)))


def rel_residual(lhs, rhs) -> float:
    """Max-entry norm of (lhs - rhs), relative to the max-entry norm of lhs."""
    a = lhs.data if isinstance(lhs, Operator) else np.asarray(lhs)
    b = rhs.data if isinstance(rhs, Operator) else np.asarray(rhs)
    scale = max(max_abs(a), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)
