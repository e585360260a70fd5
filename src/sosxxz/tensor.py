"""Dense operators on ordered tensor products of C^2 spaces.

Every operator carries a tuple of leg labels, one per two-dimensional
factor.  The first leg is the most significant bit of the basis index
(numpy kron order), and basis value 0 of a leg is spin up (sigma^z = +1).
All operators are immutable; every function returns a fresh one.

Products of local gates are built by one kernel, ``apply_gate``, which
applies a block on a few legs to a plain array; ``product`` chains it.
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


def apply_gate(
    x: np.ndarray,
    legs: Sequence[str],
    block: np.ndarray | Callable[[int], np.ndarray],
    on: Sequence[str],
    charge: Sequence[tuple[str, int]] = (),
) -> np.ndarray:
    """G @ x for a local block G on the legs ``on`` of ``legs``.

    ``x`` is a (2^n,) or (2^n, m) array.  The gate axes are moved last
    and one batched matmul runs over the configurations of the other legs.
    A callable ``block`` is a dynamical gate: it receives the charge
    c = sum of w * sigma^z(leg) over ``charge`` for each configuration, so
    the charge legs must lie outside ``on``.  This realizes the convention
    that operator-valued dynamical arguments act first, before the matrix
    they parameterize.
    """
    legs, on = tuple(legs), tuple(on)
    for l in on + tuple(l for l, _ in charge):
        if l not in legs:
            raise UnknownLeg(f"leg {l!r} absent from {legs}")
    if any(l in on for l, _ in charge):
        raise ValueError(f"charge legs {charge} overlap the gate legs {on}")
    n, k = len(legs), len(on)
    axes = [legs.index(l) for l in on]
    rest = [i for i in range(n) if i not in axes]
    order = rest + axes + [n]
    t = np.asarray(x).reshape((2,) * n + (-1,)).transpose(order).reshape(2 ** (n - k), 2**k, -1)
    if callable(block):
        rest_legs = [legs[i] for i in rest]
        charges = np.zeros(2 ** (n - k), dtype=int)
        for l, w in charge:
            charges = charges + w * leg_sz(rest_legs, l)
        values, which = np.unique(charges, return_inverse=True)
        g = np.stack([np.asarray(block(int(c)), dtype=complex) for c in values])[which]
    else:
        g = np.asarray(block, dtype=complex)
    out = np.matmul(g, t).reshape((2,) * n + (-1,)).transpose(np.argsort(order))
    return out.reshape(np.shape(x))


def product(legs: Sequence[str], gates, x: np.ndarray | None = None) -> np.ndarray:
    """g_1 g_2 ... g_m @ x for gates (block, on[, charge]) listed left to right.

    The gates are applied right to left with ``apply_gate``; ``x``
    defaults to the identity on ``legs``.
    """
    if x is None:
        x = np.eye(2 ** len(legs), dtype=complex)
    for gate in reversed(gates):
        x = apply_gate(x, legs, *gate)
    return x


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
    """Max-entry norm of (lhs - rhs), relative to the larger max-entry norm of the two."""
    a = lhs.data if isinstance(lhs, Operator) else np.asarray(lhs)
    b = rhs.data if isinstance(rhs, Operator) else np.asarray(rhs)
    scale = max(max_abs(a), max_abs(b), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)
