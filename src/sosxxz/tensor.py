"""Dense matrices on ordered tensor products of C^2 spaces.

An operator is a plain square numpy array; its caller keeps the tuple of
leg labels, one per two-dimensional factor, that names the factors.  The
first leg is the most significant bit of the basis index (numpy kron
order), and basis value 0 of a leg is spin up (sigma^z = +1).

Products of local gates are built by one kernel, ``product``, which
applies a list of blocks, each on a few legs, to a plain array kept in a
running axis order, so each gate costs one transposed copy and one
batched matmul; ``apply_gate`` is its one-gate case.  ``product_residual``
compares two products over column blocks of the identity, so it never
holds a whole operator.  Entries are checked for finiteness with
``require_finite`` where values are compared or reported
(``rel_residual``, ``product_residual`` and the callers that report), not
on every construction.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateParameter, UnknownLeg

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


def require_finite(a: np.ndarray) -> np.ndarray:
    """Return ``a``, or raise DegenerateParameter if any entry is not finite."""
    if not np.all(np.isfinite(a)):
        raise DegenerateParameter("non-finite entries: a parameter is too far from the generic range")
    return a


def _leg_index(legs: tuple[str, ...], leg: str) -> int:
    if leg not in legs:
        raise UnknownLeg(f"leg {leg!r} absent from {legs}")
    return legs.index(leg)


def partial_transpose(a: np.ndarray, legs: Sequence[str], leg: str) -> np.ndarray:
    """Transpose of the square matrix ``a`` on ``legs`` over one leg."""
    legs = tuple(legs)
    n, i = len(legs), _leg_index(legs, leg)
    return np.asarray(a).reshape((2,) * (2 * n)).swapaxes(i, n + i).reshape(2**n, 2**n)


def partial_trace(a: np.ndarray, legs: Sequence[str], leg: str) -> np.ndarray:
    """Trace of the square matrix ``a`` on ``legs`` over one leg."""
    legs = tuple(legs)
    n, i = len(legs), _leg_index(legs, leg)
    t = np.trace(np.asarray(a).reshape((2,) * (2 * n)), axis1=i, axis2=n + i)
    return t.reshape(2 ** (n - 1), 2 ** (n - 1))


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
    """G @ x for a local block G on the legs ``on`` of ``legs``: ``product`` of one gate.

    ``x`` is a (2^n,) or (2^n, m) array.  A callable ``block`` is a
    dynamical gate: it receives the charge c = sum of w * sigma^z(leg) over
    ``charge`` for each configuration, so the charge legs must lie outside
    ``on``.  This realizes the convention that operator-valued dynamical
    arguments act first, before the matrix they parameterize.
    """
    return product(legs, [(block, on, charge)], x)


def product(legs: Sequence[str], gates, x: np.ndarray | None = None) -> np.ndarray:
    """g_1 g_2 ... g_m @ x for gates (block, on[, charge]) listed left to right.

    ``x`` is a (2^n,) or (2^n, m) array and defaults to the identity on
    ``legs``; each gate is as in ``apply_gate``.  The gates are applied
    right to left to an array of one axis per leg and one column axis,
    whose axis order runs with the gates: each gate transposes it once, to
    [charge legs, gate legs, other legs, columns], and applies its block by
    one matmul batched over the charge-leg configurations.  The caller's
    axis order is restored once, at the end.

    A single column instead puts the gate legs after the other legs, so
    each configuration is its own matrix-vector product (BLAS gemv): gemv
    rounds differently from the gemm of the batched layout, and this keeps
    the rounding of Bethe states and partition contractions fixed.
    """
    legs = tuple(legs)
    n = len(legs)
    if x is None:
        x = np.eye(2**n, dtype=complex)
    t = np.asarray(x).reshape((2,) * n + (-1,))
    vector = t.shape[-1] == 1
    # order[i] is the caller's axis held at axis i of t; axis n is the columns
    order = list(range(n + 1))
    for block, on, *charge in reversed(gates):
        on, charge = tuple(on), tuple(charge[0]) if charge else ()
        for l in on + tuple(l for l, _ in charge):
            if l not in legs:
                raise UnknownLeg(f"leg {l!r} absent from {legs}")
        if any(l in on for l, _ in charge):
            raise ValueError(f"charge legs {charge} overlap the gate legs {on}")
        charge_legs = tuple(dict.fromkeys(l for l, _ in charge)) if callable(block) else ()
        front = [legs.index(l) for l in charge_legs]
        gate = [legs.index(l) for l in on]
        other = [a for a in order[:-1] if a not in front + gate]
        c, k, o = len(front), len(gate), len(other)
        if vector:
            new, shape = front + other + gate + [n], (2**c, 2**o, 2**k, 1)
        else:
            new, shape = front + gate + other + [n], (2**c, 1, 2**k, -1)
        t = t.transpose([order.index(a) for a in new]).reshape(shape)
        if callable(block):
            charges = np.zeros(2**c, dtype=int)
            for l, w in charge:
                charges = charges + w * leg_sz(charge_legs, l)
            values, which = np.unique(charges, return_inverse=True)
            g = np.stack([np.asarray(block(int(v)), dtype=complex) for v in values])[which, None]
        else:
            g = np.asarray(block, dtype=complex)
        t = np.matmul(g, t).reshape((2,) * n + (-1,))
        order = new
    return t.transpose(np.argsort(order)).reshape(np.shape(x))


# complex entries (16 MiB) per block of ``product_residual``: 32 MiB blocks
# measured 2-2.5x slower per entry at N = 9 and 10, and splitting the
# 2^18-entry sides at N = 7 measured slower than one block
BLOCK_ENTRIES = 2**20


def product_residual(legs: Sequence[str], lhs, rhs, width: int | None = None) -> float:
    """``rel_residual`` of ``product(legs, lhs)`` against ``product(legs, rhs)``.

    Both products are built over blocks of ``width`` columns of the
    identity (by default ``BLOCK_ENTRIES`` entries, at least 4 columns),
    each block checked by ``require_finite``, and the max-entry norms are
    reduced block by block, so only one block of each side is held at a
    time.  With ``width`` a multiple of 4 the residual is the whole-matrix
    one bit for bit: the BLAS matmul rounds the columns of a trailing group
    of fewer than four differently, and then no block has one.
    """
    d = 2 ** len(legs)
    width = width or max(4, BLOCK_ENTRIES // d)
    diff = scale = 0.0
    for j in range(0, d, width):
        w = min(width, d - j)
        x = np.zeros((d, w), dtype=complex)
        x[j + np.arange(w), np.arange(w)] = 1.0
        a = require_finite(product(legs, lhs, x))
        b = require_finite(product(legs, rhs, x))
        scale = max(scale, max_abs(a), max_abs(b))
        diff = max(diff, max_abs(a - b))
    return diff / max(scale, 1e-300)


def basis_vector(nlegs: int, index: int) -> np.ndarray:
    v = np.zeros(2**nlegs, dtype=complex)
    v[index] = 1.0
    return v


def all_up(nlegs: int) -> np.ndarray:
    return basis_vector(nlegs, 0)


def all_down(nlegs: int) -> np.ndarray:
    return basis_vector(nlegs, 2**nlegs - 1)


def max_abs(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def rel_residual(lhs, rhs) -> float:
    """Max-entry norm of (lhs - rhs), relative to the larger max-entry norm of the two.

    Both sides must be finite (DegenerateParameter otherwise): a NaN would
    make every comparison with a tolerance false.
    """
    a = require_finite(np.asarray(lhs))
    b = require_finite(np.asarray(rhs))
    scale = max(max_abs(a), max_abs(b), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)
