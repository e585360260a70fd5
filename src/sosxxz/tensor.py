"""Dense matrices on ordered tensor products of C^2 spaces.

An operator is a plain square numpy array; its caller keeps the tuple of
leg labels, one per two-dimensional factor, that names the factors.  The
first leg is the most significant bit of the basis index (numpy kron
order), and basis value 0 of a leg is spin up (sigma^z = +1).

Products of local gates are built by one kernel, ``product``, which
applies a list of blocks, each on a few legs, to a plain array kept in a
running axis order, so each gate costs one transposed copy and one
batched matmul.  The array carries a leading batch axis: with ``batch``,
B inputs of one gate layout, each with its own blocks or sharing them,
run as one product, every input rounded as it would be alone.
``column_product`` is one column of such a product over its first
(auxiliary) leg, applied to a batch of arrays on the other legs: the
vertex picture's open-chain transfer matrices trace it one column at a
time, on a few states or on all of them, at several spectral points in
one call.  A
dynamical gate ``(stack, on, charge)`` carries its blocks as a stack, one
per distinct value of its charge in ascending order (``charge_values``),
so the kernel indexes it and calls no code per charge; ``dynamical_gates``
builds the stacks of a whole gate list in one vectorised call, for one
spectral value or for a batch of B.  ``product`` takes its transposes,
shapes and charge tables (``charge_table``, once per weight pattern) from
a plan cached per gate layout (``_plan``), one for every input shape, so
a gate list rebuilt at new spectral values replays it.  Gates that keep a
U(1) charge of their legs run on one charge sector instead
(``sector_product``: the creation strings and the height-picture
transfer matrices), by gathers whose plans hold only indices, on vectors
packed on the sector's states in ascending order (``sector_states``).
``relabel`` renames the legs of a gate list, its charge legs included,
so a site reversal or a renamed auxiliary leg is a new list of labels,
never a permutation matrix.
``product_residual`` checks an operator identity, two gate lists, on a
seeded block of ``PROBES`` random columns (``probe_block``) instead of
the identity, so its cost and memory grow as 2^n, not 4^n, and it never
builds an operator.  Entries are checked for finiteness with
``require_finite`` where values are compared or reported
(``rel_residual``, ``product_residual`` and the callers that report), not
on every construction.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from .errors import DegenerateParameter, UnknownLeg

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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


def swapped4(matrix: np.ndarray) -> np.ndarray:
    """P M P for a 4x4 matrix on two C^2 legs (leg exchange), or for each
    matrix of a (..., 4, 4) stack."""
    m = np.asarray(matrix)
    return m.reshape(m.shape[:-2] + (2, 2, 2, 2)).swapaxes(-4, -3).swapaxes(-2, -1).reshape(m.shape)


def transpose_first4(matrix: np.ndarray) -> np.ndarray:
    """Partial transpose on the first leg of a 4x4 matrix, or of each
    matrix of a (..., 4, 4) stack."""
    m = np.asarray(matrix)
    return m.reshape(m.shape[:-2] + (2, 2, 2, 2)).swapaxes(-4, -2).reshape(m.shape)


def leg_sz(full_legs: Sequence[str], leg: str) -> np.ndarray:
    """Per-basis-state sigma^z value (+1/-1) of one leg."""
    full_legs = tuple(full_legs)
    if leg not in full_legs:
        raise UnknownLeg(f"leg {leg!r} absent from {full_legs}")
    n = len(full_legs)
    i = full_legs.index(leg)
    idx = np.arange(2**n)
    return 1 - 2 * ((idx >> (n - 1 - i)) & 1)


@functools.lru_cache(maxsize=None)
def charge_table(weights: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(charges, return_inverse=True)`` of the charge sum_j
    weights[j] * sigma^z_j over the 2^len(weights) configurations of the
    charge legs (first leg most significant), both arrays read-only.

    A gate's charge resolution depends only on this weight pattern, so it
    is computed once per pattern; the dynamical gates of the chains carry
    runs of +1 or -1, two patterns per length.
    """
    legs = range(len(weights))
    charges = np.zeros(2 ** len(weights), dtype=int)
    for j, w in enumerate(weights):
        charges = charges + w * leg_sz(legs, j)
    values, which = np.unique(charges, return_inverse=True)
    values.flags.writeable = which.flags.writeable = False
    return values, which


def _net_weights(charge) -> dict[str, int]:
    """Net weight of each leg of a charge list, in order of first appearance."""
    net: dict[str, int] = {}
    for l, w in charge:
        net[l] = net.get(l, 0) + w
    return net


def charge_values(charge) -> np.ndarray:
    """The distinct values, ascending, of the charge sum of w * sigma^z(leg)
    over a charge list [(leg, w), ...]: a dynamical gate on that list holds
    one block per value, in this order (read-only)."""
    return charge_table(tuple(_net_weights(charge).values()))[0]


@functools.lru_cache(maxsize=None)
def _charge_layout(charges: tuple) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """The ``charge_values`` of each charge list, concatenated, and the
    index of the list each value belongs to (both read-only), with each
    list's value count and the running ends of the counts."""
    values = [charge_values(charge) for charge in charges]
    sizes = tuple(len(v) for v in values)
    c, owner = np.concatenate(values), np.repeat(np.arange(len(sizes)), sizes)
    c.flags.writeable = owner.flags.writeable = False
    return c, owner, sizes, tuple(itertools.accumulate(sizes))


def dynamical_gates(build, gates) -> list:
    """Dynamical gates (stack, on, charge) for the triples (x, on, charge),
    with every stack from one call ``build(x, c, repeat)``.

    ``x`` holds each gate's spectral value once, ``c`` concatenates each
    gate's ``charge_values``, and ``repeat`` maps an array over ``x`` to one
    over ``c``, each gate's entry repeated once per value: ``build`` maps
    them to a stack of blocks, one per entry of ``c``, and can take the
    factors of x alone once per gate before repeating them.  The stack is
    then split back into one per gate.  A list of gates costs one
    vectorised call, not one call per gate or per charge, and ``c``, the
    gate of each of its values and the split points are computed once per
    tuple of charge lists (``_charge_layout``).

    Each x may instead be an array of B values, the same B for every gate:
    ``x`` is then (B, gates), ``repeat`` gives (B, len(c)), ``build``
    returns (B, len(c), d, d), and each gate gets a (B, count, d, d) stack,
    one per input of a batched ``product``, still from one call.
    """
    c, owner, sizes, ends = _charge_layout(tuple(tuple(charge) for _, _, charge in gates))
    x = np.array([g[0] for g in gates], dtype=complex).T
    stack = build(x, c, lambda a: a.take(owner, axis=-1))
    return [(stack[..., j - n : j, :, :], on, charge) for j, n, (_, on, charge) in zip(ends, sizes, gates)]


def relabel(gates, names: dict[str, str]) -> list:
    """The same gates with each gate leg and charge leg renamed by ``names``
    (legs it does not list keep their label); no block is touched."""
    rename = lambda l: names.get(l, l)
    return [
        (block, tuple(map(rename, on)), *([(rename(l), w) for l, w in c] for c in charge))
        for block, on, *charge in gates
    ]


@functools.lru_cache(maxsize=None)
def _plan(legs: tuple[str, ...], layout: tuple) -> tuple[tuple, tuple[int, ...]]:
    """The axis bookkeeping of ``product`` for one gate layout.

    ``layout`` holds each gate's ``(on, charge)``, left to right, with
    ``charge`` None for a static gate and a tuple of (leg, w) pairs for a
    dynamical one.  The array it acts on has a leading batch axis, which
    stays first throughout, then one axis per leg and last the columns, so
    one plan serves any batch size and column count, an unbatched input or
    a single column included.  The result is one step per gate, in the
    order they are applied (right to left): the transpose permutation, the
    matmul shape after the batch axis and, for a dynamical gate, its charge
    count and the ``which`` index of ``charge_table`` (None and None for a
    static gate); then the permutation that restores the caller's axis
    order.  It depends on the labels alone, so a gate list rebuilt at other
    spectral values replays it.  A leg outside ``legs`` raises UnknownLeg
    and a charge leg among the gate legs ValueError; the cache stores no
    exception, so a bad layout raises on every call.
    """
    # order[i] is the caller's axis held at axis i of t: the batch axis, then
    # one axis per leg and last the columns, which stay last
    order = list(range(len(legs) + 2))
    steps = []
    for on, charge in reversed(layout):
        pairs = charge or ()
        for l in on + tuple(l for l, _ in pairs):
            if l not in legs:
                raise UnknownLeg(f"leg {l!r} absent from {legs}")
        if any(l in on for l, _ in pairs):
            raise ValueError(f"charge legs {charge} overlap the gate legs {on}")
        net = _net_weights(pairs)
        front = [1 + legs.index(l) for l in net]
        gate = [1 + legs.index(l) for l in on]
        other = [a for a in order[1:-1] if a not in front + gate]
        new = order[:1] + front + gate + other + order[-1:]
        # the charge-leg axis, absent for a static gate, is a matmul batch axis
        shape, count, which = (2 ** len(gate), -1), None, None
        if charge is not None:
            values, which = charge_table(tuple(net.values()))
            shape, count = (2 ** len(front),) + shape, len(values)
        steps.append((tuple(order.index(a) for a in new), shape, count, which))
        order = new
    return tuple(steps), tuple(int(a) for a in np.argsort(order))


def product(legs: Sequence[str], gates, x: np.ndarray, batch: bool = False) -> np.ndarray:
    """g_1 g_2 ... g_m @ x for gates (block, on) or (stack, on, charge)
    listed left to right.

    ``x`` is a (2^n,) or (2^n, m) array on ``legs``.  A gate (block, on)
    applies the 2^k-square ``block`` to its k legs ``on``.  A dynamical
    gate (stack, on, charge) applies, on each configuration of the legs,
    the block of the charge c = sum of w * sigma^z(leg) over ``charge`` in
    that configuration: ``stack[i]`` is the block at the i-th of
    ``charge_values(charge)``.  The charge legs must lie outside ``on``.
    This realizes the convention that operator-valued dynamical arguments
    act first, before the matrix they parameterize.

    With ``batch``, ``x`` is a (B, 2^n) or (B, 2^n, m) array of B inputs,
    and the result holds B products.  A block (2^k-square) or stack
    (count, 2^k, 2^k) acts on every input alike; one with a leading axis of
    length B, (B, 2^k, 2^k) or (B, count, 2^k, 2^k), gives input b its own
    block or stack b, so B gate lists of one layout run as one list.

    The gates are applied right to left to an array of a batch axis, one
    axis per leg and one column axis, whose axis order runs with the gates:
    each gate transposes it once, to [batch, charge legs, gate legs, other
    legs, columns], and applies its block by one matmul batched over the
    inputs and the charge-leg configurations.  The caller's axis order is
    restored once, at the end.  An unbatched input runs as a batch of one.
    So every input takes this one layout, a single column too: the other
    legs join the columns, and each charge configuration costs one
    matrix-matrix product (BLAS gemm) of the 2^k-square block by a
    (2^k, 2^o m) slab.  Each input of a batch takes the same gemm calls as
    it would alone, so a batched product equals its B single products bit
    for bit.  A
    dynamical gate's charge table (the distinct charges and which one each
    configuration has) is ``charge_table`` of the net weight of each charge
    leg, computed once per weight pattern.

    That bookkeeping is a plan (``_plan``), cached per key: the leg tuple
    and each gate's (on, charge), with charge None for a static gate.  The
    blocks, the batch size and the column count are not part of the key,
    so a gate list rebuilt at new spectral values replays its plan, and a
    call only builds the key and runs transpose, reshape, ``stack[which]``
    and matmul per gate.  The length of each stack is checked on every
    call.
    """
    legs = tuple(legs)
    x = np.asarray(x)
    lead = x.shape[:1] if batch else (1,)
    legs_shape = lead + (2,) * len(legs) + (-1,)
    t = x.reshape(legs_shape)
    layout = tuple((tuple(on), tuple(charge[0]) if charge else None) for _, on, *charge in gates)
    steps, restore = _plan(legs, layout)
    for gate, (perm, shape, count, which) in zip(reversed(gates), steps):
        # rebinding t to the transposed copy first frees the previous array
        # before matmul allocates the next one
        t = t.transpose(perm).reshape(lead + shape)
        g = np.asarray(gate[0], dtype=complex)
        if which is not None:
            # a stack with a leading batch axis gives each input its own
            own = int(batch and g.ndim == 4)
            if g.shape[own:-2] != (count,):
                raise ValueError(f"a stack of shape {g.shape} for the {count} charges of {tuple(gate[2])}")
            g = g[:, which] if own else g[which]
        t = np.matmul(g, t).reshape(legs_shape)
    return t.transpose(restore).reshape(x.shape)


@functools.lru_cache(maxsize=None)
def sector_states(weights: tuple[int, ...], charge: int) -> np.ndarray:
    """The ascending basis indices, read-only, of the configurations with charge
    sum_j weights[j] * sigma^z_j = ``charge``: a packed vector's entries."""
    values, which = charge_table(weights)
    states = np.flatnonzero(values[which] == charge)
    states.flags.writeable = False
    return states


def _build_sector_plan(legs: tuple[str, ...], layout: tuple, weights: tuple[int, ...], charge: int) -> tuple:
    """The gathers of ``sector_product`` by bit operations on the sector's
    states, per gate right to left: its stack shape, the flat index of each
    state's diagonal entry and of its partner's entry, those of the entries
    that break the charge, and each partner's source rank.  A partner has
    the other gate configuration of the state's local charge; with none,
    the state pairs with itself by a forbidden entry.
    """
    states = sector_states(weights, charge)
    bits = {l: len(legs) - 1 - legs.index(l) for l in legs}
    # the configuration of the legs ``on`` in each state, first leg most significant
    config = lambda on: sum(((states >> bits[l]) & 1) << (len(on) - 1 - j) for j, l in enumerate(on))
    small = lambda a, top: a.astype(np.min_scalar_type(top))
    steps = []
    for on, pairs in reversed(layout):
        _plan(legs, ((on, pairs),))  # the leg checks of ``product``
        d, cfg = 2 ** len(on), np.arange(2 ** len(on))
        _, local = charge_table(tuple(weights[legs.index(l)] for l in on))
        same = local[:, None] == local
        if np.any(same.sum(axis=1) > 2):
            raise ValueError(f"more than two configurations of {on} share a charge of the weights {weights}")
        # each configuration's partner, itself if it has none, and the entry
        # pairing them: the partner's, or with none the first forbidden one
        partner = np.where(same.sum(axis=1) == 2, np.argmax(same & (cfg[:, None] != cfg), axis=1), cfg)
        entry = np.where(partner != cfg, partner, np.argmin(same, axis=1))
        net = _net_weights(pairs or ())
        values, which = charge_table(tuple(net.values()))
        count, chi = len(values), which[config(tuple(net))]
        c, spread = config(on), sum(((cfg >> (len(on) - 1 - j)) & 1) << bits[l] for j, l in enumerate(on))
        row, top = (chi * d + c) * d, count * d * d
        src = np.searchsorted(states, states - spread[c] + spread[partner[c]])
        coefs = (small(i, top) for i in (row + c, row + entry[c], np.flatnonzero(np.tile(~same.ravel(), count))))
        steps.append(((d, d) if pairs is None else (count, d, d), *coefs, small(src, len(states))))
    return tuple(steps)


# sector plans of up to this many state-gate pairs are cached, larger ones rebuilt
SECTOR_PLAN_CACHED = 2**16
_cached_sector_plan = functools.lru_cache(maxsize=None)(_build_sector_plan)


def sector_product(legs: Sequence[str], gates, x: np.ndarray, weights: Sequence[int], charge: int) -> np.ndarray:
    """``product(legs, gates, x, batch=True)`` for gates that keep the
    charge sum_j weights[j] * sigma^z_j, on x (B, D) or (B, D, m) packed on
    the sector ``charge`` (``sector_states``) and likewise out: the U(1)
    symmetric contraction (Singh, Pfeifer and Vidal, Phys. Rev. B 83 (2011)
    115125).  Each gate is gathers (``_build_sector_plan``), two products
    and a sum, with no BLAS call, so a batch equals its inputs alone bit
    for bit; its entries that break the charge must be 0 (ValueError).
    """
    layout = tuple((tuple(on), tuple(charge[0]) if charge else None) for _, on, *charge in gates)
    key = (tuple(legs), layout, tuple(weights), charge)
    plan = _build_sector_plan if len(sector_states(*key[2:])) * len(gates) > SECTOR_PLAN_CACHED else _cached_sector_plan
    expand = (lambda a: a) if x.ndim == 2 else (lambda a: a[..., None])
    for gate, (shape, diag, off, forbid, src) in zip(reversed(gates), plan(*key)):
        g = np.asarray(gate[0], dtype=complex)
        own = int(g.ndim > len(shape))
        if g.shape[own:] != shape:
            raise ValueError(f"a block of shape {g.shape} for a gate of shape {shape} on {tuple(gate[1])}")
        g = g.reshape(g.shape[:own] + (-1,))
        if np.count_nonzero(g.take(forbid, axis=-1)):
            raise ValueError(f"a gate on {tuple(gate[1])} breaks the charge of the weights {tuple(weights)}")
        # in place where the shapes allow: at N = 16 this keeps the peak below the dense path's
        moved = x.take(src, axis=1)
        moved *= expand(g.take(off, axis=-1))
        x = expand(g.take(diag, axis=-1)) * x
        x += moved
    return x


def column_product(legs: Sequence[str], gates, x: np.ndarray, c: int) -> np.ndarray:
    """Auxiliary column c of ``product(legs, gates, batch=True)``: the
    product applied to e_c (x) x[b] on its first leg and the others, for
    ``x`` a (B, 2^(n-1)) or (B, 2^(n-1), m) array on the other legs.  The
    (B, 2) + x.shape[1:] result holds in row r the block (r, c) of the
    product applied to x[b].

    Only the padded column e_c (x) x, twice the size of x, is built, never
    the operator, so the cost and memory grow as 2^n, not 4^n; the trace
    over the first leg is row 0 of column 0 plus row 1 of column 1.  As in
    ``product``, a block or stack with a leading axis of B gives input b
    its own, and each result equals its batch of one bit for bit.
    """
    x = np.asarray(x)
    lead = x.shape[:1]
    cols = x.reshape(lead + (2 ** (len(legs) - 1), -1))
    e = np.zeros(lead + (2,) + cols.shape[1:], dtype=np.result_type(cols, complex))
    e[:, c] = cols
    y = product(legs, gates, e.reshape(lead + (-1, cols.shape[-1])), batch=True)
    return y.reshape(lead + (2,) + x.shape[1:])


# columns of the seeded probe block that ``product_residual`` applies both sides to
PROBES = 8


@functools.lru_cache(maxsize=None)
def probe_block(nlegs: int) -> np.ndarray:
    """The read-only (2^nlegs, PROBES) complex Gaussian block of ``product_residual``.

    It is drawn from a fixed seed, so it depends on the leg count alone: a
    residual does not depend on which checks ran before it.
    """
    rng = np.random.default_rng(0)
    shape = (2**nlegs, PROBES)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x.flags.writeable = False
    return x


def product_residual(legs: Sequence[str], lhs, rhs) -> float:
    """Residual of the operator identity ``product(legs, lhs) = product(legs, rhs)``.

    Both gate lists are applied to the seeded probe block X
    (``probe_block``), and the result is ``rel_residual(A X, B X)``: the
    max-entry norm of (A - B) X relative to the larger of those of A X and
    B X, each side checked by ``require_finite``.  No operator is built.
    This is Freivalds' randomized product check: an entry of (A - B) X is
    a complex Gaussian whose spread is the 2-norm of the matching row of
    A - B, so a wrong identity escapes all PROBES columns only with
    vanishing probability, and a correct one reads at rounding level.
    """
    x = probe_block(len(legs))
    return rel_residual(product(legs, lhs, x), product(legs, rhs, x))


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
