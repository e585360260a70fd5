"""Dynamical (SOS) layer: gauge matrices, dynamical R-matrix, monodromies.

Operator-valued dynamical shifts like theta - eta * sum_i sigma^z_i are
resolved per computational-basis configuration of the shift legs, read
off the input (column) state.  For shifts involving the auxiliary space
itself (which does not commute with the matrix it parameterizes) this
realizes the normal ordering in which the sigma^z argument acts first.

The local builders (``gauge_s2``, ``dyn_r4``, ``crossed_l4``, ...) take
scalar or array spectral and dynamical arguments and return one block or
a stack of blocks.  A gate list builds the stacks of all its dynamical
gates, one block per charge each, in one call (``tn.dynamical_gates``).
Every dynamical monodromy (T, That, V, Vhat) and both gauge rows carry one
of two height shifts at site k (``_shift``): theta - eta sum_{i>k} sz_i on
the minus side, theta + eta sum_{i<k} sz_i on the plus side.  One table
(``_CHAINS``) gives each chain its side, its site order and its gate legs,
so its leg and charge structure depends only on the chain and N and is
built once per pair (``_chain_layout``); a call computes only its spectral
values.  The double-row builders (``dyn_monodromy_gates``,
``dyn_double_row_gates``, ``k_diag``, ``block_column``) also take an array
of B values of lam, with optional per-element inhomogeneities, and build
the gates of B double rows in one call for a batched ``tn.product``.
The checks of the identity suite can share one set of seeded trials
(``sos_draws``); a trial (``SosTrial``) builds each monodromy gate list
once for all the checks that read it.
"""

from __future__ import annotations

import functools
from cmath import sinh
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as tn
from . import vertex as vx
from .errors import DegenerateParameter
from .params import SAMPLE_MARGIN, ModelParams, TrialDraws, min_pole_gap, sample_points
from .vertex import AUX, chain_legs, site_legs


# ----------------------------------------------------------------------
# gauge (vertex-face) matrices


def _arrays(lam, theta) -> tuple[np.ndarray, np.ndarray]:
    """Spectral and dynamical arguments as complex arrays of one shape."""
    return np.broadcast_arrays(np.asarray(lam, dtype=complex), np.asarray(theta, dtype=complex))


def _spread(a, shape: tuple) -> np.ndarray:
    """``a`` as a contiguous array of ``shape``, or ``a`` itself if it has that shape.

    A factor of theta alone is computed once per theta and spread over a
    batch of lam: the arithmetic then runs on arrays of one shape, as it
    does without a batch, so each entry rounds as it would alone.
    """
    if a.shape == shape:
        return a
    out = np.empty(shape, dtype=complex)
    out[...] = a
    return out


def _gauge_sinh(theta: np.ndarray, eps: float) -> np.ndarray:
    st = np.sinh(theta)
    if np.any(np.abs(st) <= eps):
        raise DegenerateParameter(f"gauge matrix singular: |sinh(theta)| <= {eps:.1e}")
    return st


def gauge_s2(lam, theta, omega: complex, eps: float = 0.0) -> np.ndarray:
    """Local gauge matrix S(lam; theta, omega); det S = -2 e^{-omega} sinh(theta).

    Array lam and theta (broadcast together) give a (..., 2, 2) stack.
    """
    lam, theta = _arrays(lam, theta)
    _gauge_sinh(theta, eps)
    s = np.ones(lam.shape + (2, 2), dtype=complex)
    s[..., 0, 0] = np.exp(-(lam + theta + omega))
    s[..., 0, 1] = np.exp(-(lam - theta + omega))
    return np.exp(lam / 2)[..., None, None] * s


def gauge_s2_inv(lam, theta, omega: complex, eps: float = 0.0) -> np.ndarray:
    """Closed-form inverse of the gauge matrix (a stack for array arguments)."""
    lam, theta = _arrays(lam, theta)
    det_m = -2 * np.exp(-lam - omega) * _gauge_sinh(theta, eps)
    s = np.empty(lam.shape + (2, 2), dtype=complex)
    s[..., 0, 0], s[..., 1, 0] = 1.0, -1.0
    s[..., 0, 1] = -np.exp(-(lam - theta + omega))
    s[..., 1, 1] = np.exp(-(lam + theta + omega))
    return (np.exp(-lam / 2) / det_m)[..., None, None] * s


def gauge_s_tilde2(lam, theta, omega: complex, eps: float = 0.0) -> np.ndarray:
    """S-tilde = sigma^y S sigma^y (a stack for array arguments)."""
    return tn.SY @ gauge_s2(lam, theta, omega, eps) @ tn.SY


def gauge_s_tilde2_inv(lam, theta, omega: complex, eps: float = 0.0) -> np.ndarray:
    return tn.SY @ gauge_s2_inv(lam, theta, omega, eps) @ tn.SY


# ----------------------------------------------------------------------
# dynamical R-matrix and crossed L-operators


def dyn_r4(lam, theta, eta: complex, eps: float = 0.0, repeat=None) -> np.ndarray:
    """Dynamical R-matrix (trigonometric SOS weights) as a raw 4x4 block,
    or a (..., 4, 4) stack for array lam and theta (broadcast together).

    ``repeat``, if given, maps an array over lam to one over theta's last
    axis (``tn.dynamical_gates``): sinh(lam) and sinh(lam + eta) are then
    taken once per lam and repeated, entry for entry as over the repeated lam.
    """
    lam, theta = np.asarray(lam, dtype=complex), np.asarray(theta, dtype=complex)
    st = np.sinh(theta)
    if np.any(np.abs(st) <= eps):
        raise DegenerateParameter(f"|sinh(theta)| <= {eps:.1e} in dynamical R")
    down, up = np.sinh(theta - eta), np.sinh(theta + eta)
    # the factors of lam alone, taken before lam is repeated or spread
    sl, sle = np.sinh(lam), np.sinh(lam + eta)
    if repeat is not None:
        lam, sl, sle = repeat(lam), repeat(sl), repeat(sle)
    if lam.shape != theta.shape:
        shape = np.broadcast_shapes(lam.shape, theta.shape)
        lam, theta, st, down, up, sl, sle = (_spread(a, shape) for a in (lam, theta, st, down, up, sl, sle))
    se = np.sinh(eta)
    r = np.zeros(lam.shape + (4, 4), dtype=complex)
    r[..., 0, 0] = r[..., 3, 3] = sle
    r[..., 1, 1] = sl * down / st
    r[..., 1, 2] = se * np.sinh(theta - lam) / st
    r[..., 2, 1] = se * np.sinh(theta + lam) / st
    r[..., 2, 2] = sl * up / st
    return r


_L_LEGS = ("c1", "c2")


def crossed_l4(lam, theta, eta: complex, kind: str = "L", eps: float = 0.0, repeat=None) -> np.ndarray:
    """Crossed L-operator on two legs as a raw 4x4 block, or a (..., 4, 4)
    stack for array lam and theta (broadcast together); ``repeat`` is
    passed to ``dyn_r4``.

    kind "L":    L^{t1}_{12}(lam; th) = R^{t1}_{12}(lam; th + eta sz_1) sinh(th - eta sz_2)/sinh th
    kind "Lhat": Lhat^{t1}_{21}(lam; th) = R^{t1}_{21}(lam; th - eta sz_1) sinh(th + eta sz_2)/sinh th
    """
    if kind not in ("L", "Lhat"):
        raise ValueError(f"unknown crossed L kind {kind!r}")
    lam, theta = np.asarray(lam, dtype=complex), np.asarray(theta, dtype=complex)
    st = np.sinh(theta)
    if np.any(np.abs(st) <= eps):
        raise DegenerateParameter("crossed L needs |sinh(theta)| > eps")
    w = 1 if kind == "L" else -1
    r_up, r_down = (dyn_r4(lam, theta + w * s * eta, eta, eps, repeat) for s in (1, -1))
    if kind == "Lhat":
        r_up, r_down = tn.swapped4(r_up), tn.swapped4(r_down)
    # the sigma^z_1 argument acts first: it picks the columns of the
    # untransposed matrix (sz_1 = +1 are the first two), then leg 1 is transposed
    base = np.concatenate([r_up[..., :2], r_down[..., 2:]], axis=-1)
    up, down = (_spread(np.sinh(theta - w * eta * s) / st, base.shape[:-2]) for s in (1, -1))
    return tn.transpose_first4(base) * np.stack([up, down, up, down], axis=-1)[..., None, :]


# ----------------------------------------------------------------------
# diagonal SOS boundary matrices


def _k2_minus_entries(lam: complex, delta: complex, zeta: complex, eps: float) -> tuple[complex, complex]:
    d1, d2 = sinh(delta + lam), sinh(zeta + lam)
    if abs(d1) <= eps or abs(d2) <= eps:
        raise DegenerateParameter("diagonal K_- denominator vanishes")
    return sinh(delta - lam) / d1, sinh(zeta - lam) / d2


def k2_minus_diag(lam: complex, delta: complex, zeta: complex, eps: float = 0.0) -> np.ndarray:
    """Diagonalized boundary matrix of the height picture."""
    return np.diag(_k2_minus_entries(lam, delta, zeta, eps)).astype(complex)


def k_diag(lam, side: str, p: ModelParams) -> np.ndarray:
    """Diagonal K_-(lam; delta, zeta) ("minus") or K_+(lam) = K_-(-lam-eta; delta_bar, zeta_bar) ("plus").

    An array of B values of lam gives a (B, 2, 2) stack, its entries taken
    one lam at a time in ``cmath``, as B calls would take them.
    """
    delta, zeta, _ = p.boundary(side)
    if not getattr(lam, "ndim", 0):
        return k2_minus_diag(p.k_point(lam, side), delta, zeta, p.eps_pole)
    k = np.zeros((len(lam), 2, 2), dtype=complex)
    entries = [_k2_minus_entries(p.k_point(complex(l), side), delta, zeta, p.eps_pole) for l in lam]
    k[:, 0, 0], k[:, 1, 1] = zip(*entries)
    return k


def tilde_k2(lam: complex, delta: complex, zeta: complex, eta: complex, eps: float = 0.0) -> np.ndarray:
    """sinh(th - eta sz)/sinh(th) * K_-(lam; d, z), th = d - z (2x2 diagonal)."""
    th = delta - zeta
    if abs(sinh(th)) <= eps:
        raise DegenerateParameter("|sinh(delta - zeta)| too small")
    base = k2_minus_diag(lam, delta, zeta, eps)
    return np.diag([sinh(th - eta) / sinh(th), sinh(th + eta) / sinh(th)]) @ base


# ----------------------------------------------------------------------
# dynamical monodromy matrices


# side -> the monodromy kinds to the left and right of its K in the double row
_DOUBLE_ROW = {"minus": ("T", "That"), "plus": ("V", "Vhat")}

# chain -> (the side of its height shift, whether its sites run N..1, its
# gate legs with "s{k}" for site k).  The monodromies of the plus side are
# crossed L^{t0} gates, the others R gates; S_minus and S_plus are the
# gauge rows.
_CHAINS = {
    "T": ("minus", False, (AUX, "s{k}")),
    "That": ("minus", True, ("s{k}", AUX)),
    "V": ("plus", True, (AUX, "s{k}")),
    "Vhat": ("plus", False, (AUX, "s{k}")),
    "S_minus": ("minus", True, ("s{k}",)),
    "S_plus": ("plus", False, ("s{k}",)),
}


def _shift(side: str, N: int, k: int) -> tuple:
    """Charge list of the height shift at site k: -eta sum_{i>k} sz_i ("minus")
    or +eta sum_{i<k} sz_i ("plus").  k = 0 ("minus") or k = N + 1 ("plus")
    shifts by the whole chain."""
    if side == "minus":
        return tuple((f"s{i}", -1) for i in range(k + 1, N + 1))
    return tuple((f"s{i}", +1) for i in range(1, k))


def _chain_shift(side: str, N: int) -> tuple:
    """The whole-chain shift -eta S^z ("minus") or +eta S^z ("plus")."""
    return _shift(side, N, 0 if side == "minus" else N + 1)


@functools.lru_cache(maxsize=None)
def _chain_layout(chain: str, N: int, extra_shift: tuple) -> tuple:
    """(k, on, charge) of each gate of a ``_CHAINS`` chain, left to right,
    with k the site whose xi_k the gate takes; ``extra_shift`` is appended
    to every charge list."""
    side, descending, legs = _CHAINS[chain]
    sites = range(N, 0, -1) if descending else range(1, N + 1)
    return tuple((k, tuple(l.format(k=k) for l in legs), _shift(side, N, k) + extra_shift) for k in sites)


def dyn_monodromy_gates(lam, theta: complex, kind: str, p: ModelParams, xi=None) -> list:
    """Gates of the dynamical monodromy matrices on legs (aux, s1..sN), left to right.

    kind "T":    R_{01}(lam-xi_1; th - eta sum_{i>1} sz_i) ... R_{0N}(lam-xi_N; th)
    kind "That": R_{N0}(lam+xi_N; th) ... R_{10}(lam+xi_1; th - eta sum_{i>1} sz_i)
    kind "V":    L^{t0}_{0N}(lam-xi_N; th + eta sum_{i<N} sz_i) ... L^{t0}_{01}(lam-xi_1; th)
    kind "Vhat": Lhat^{t0}_{10}(lam+xi_1; th) ... Lhat^{t0}_{N0}(lam+xi_N; th + eta sum_{i<N} sz_i)

    An array of B values of lam gives the gates of B monodromies, a
    (B, count, 4, 4) stack per gate for a batched ``tn.product``; ``xi``, a
    (B, N) array, then gives each its own inhomogeneities in place of p.xi.
    """
    if kind not in _DOUBLE_ROW["minus"] + _DOUBLE_ROW["plus"]:
        raise ValueError(f"unknown monodromy kind {kind!r}")
    hatted = kind.endswith("hat")
    eta, eps = p.eta, p.eps_pole
    if kind in _DOUBLE_ROW["plus"]:
        l_kind = "Lhat" if hatted else "L"
        build = lambda x, c, rep: crossed_l4(x, theta + eta * c, eta, l_kind, eps, rep)
    else:
        build = lambda x, c, rep: dyn_r4(x, theta + eta * c, eta, eps, rep)
    xis = p.xi if xi is None else np.asarray(xi, dtype=complex).T
    gates = [
        (lam + xis[k - 1] if hatted else lam - xis[k - 1], on, charge)
        for k, on, charge in _chain_layout(kind, p.N, ())
    ]
    return tn.dynamical_gates(build, gates)


# ----------------------------------------------------------------------
# dynamical double-row monodromy matrices and their blocks


def dyn_double_row_gates(lam, theta: complex, side: str, p: ModelParams, xi=None, monodromy=None) -> list:
    """Gates of U_-(lam; theta) = T K_- That for side "minus", of
    U_+^{t_0}(lam; theta) = V K_+ Vhat for side "plus".

    Each side's K is its diagonal ``k_diag``.  An array of B values of lam
    (with per-element ``xi``, as in ``dyn_monodromy_gates``) gives the gates
    of B double rows, each block with a leading axis of B.  ``monodromy``,
    called as ``monodromy(lam, theta, kind, p)`` in place of
    ``dyn_monodromy_gates`` for scalar lam, can hand out gate lists already
    built (``SosTrial.monodromy``).
    """
    k = k_diag(lam, side, p)
    if monodromy is None:
        monodromy = functools.partial(dyn_monodromy_gates, xi=xi)
    left, right = (monodromy(lam, theta, kind, p) for kind in _DOUBLE_ROW[side])
    return [*left, (k, (AUX,)), *right]


_BLOCK_INDEX = {
    "minus": {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)},
    # layout of U_+^{t_0}: upper-right block is C_+, lower-left is B_+
    "plus": {"A": (0, 0), "C": (0, 1), "B": (1, 0), "D": (1, 1)},
}


def block_column(
    lam, theta: complex, side: str, name: str, p: ModelParams, v: np.ndarray, xi=None
) -> tuple[np.ndarray, np.ndarray]:
    """Block ``name`` = U[r, c] applied to v, and the other block U[1 - r, c] of its column.

    Both are auxiliary rows of U(lam; theta)(e_c (x) v), built gate by gate
    without the double-row matrix; v is a (2^N,) vector or a (2^N, m)
    matrix, so the identity gives the blocks themselves.

    An array of B values of lam (and optionally a (B, N) ``xi``, as in
    ``dyn_monodromy_gates``) applies B blocks in one batched ``tn.product``:
    v is then (B, 2^N) or (B, 2^N, m), one input per block, and each result
    is that of the single call bit for bit.  Its two parts, the gate build
    and ``apply_block_column``, can run apart, as for gates built once for
    many blocks.
    """
    gates = dyn_double_row_gates(lam, theta, side, p, xi)
    return apply_block_column(gates, side, name, p.N, v, batch=bool(getattr(lam, "ndim", 0)))


def apply_block_column(gates: list, side: str, name: str, N: int, v: np.ndarray, batch: bool) -> tuple:
    """``block_column`` of the double row(s) with these gates (``dyn_double_row_gates``)
    on N sites: block ``name`` applied to v, and the other block of its column.

    With ``batch``, v is (B, 2^N) or (B, 2^N, m) and each gate block or stack
    leads with an axis of B, one double row per input, so gates built once
    for many blocks can be applied a slice at a time.  ``name`` may then
    list one block per input, so strings of different blocks on one gate
    layout share the product; each input's result is that of its block
    alone.
    """
    lead = np.shape(v)[:1] if batch else ()
    shape = np.shape(v)[len(lead) :]
    if isinstance(name, str):
        r, c = _BLOCK_INDEX[side][name]
        at = (slice(None),) * len(lead)
    else:
        r, c = np.array([_BLOCK_INDEX[side][n] for n in name]).T
        at = (np.arange(len(r)),)
    x = np.zeros(lead + (2,) + shape, dtype=complex)
    x[at + (c,)] = v
    y = tn.product(chain_legs(N), gates, x.reshape(lead + (-1,) + shape[1:]), batch=batch)
    y = y.reshape(x.shape)
    return y[at + (r,)], y[at + (1 - r,)]


def _per_sz(N: int, fn: Callable[[int], complex]) -> np.ndarray:
    """The S^z-diagonal coefficient fn(S^z) of the N sites as a (2^N, 1)
    column, evaluated once per distinct S^z and gathered per basis state."""
    values, which = tn.charge_table((1,) * N)
    return np.array([fn(s) for s in values])[which, None]


def _d_tilde(lam: complex, theta: complex, p: ModelParams, blocks: dict[str, np.ndarray]) -> np.ndarray:
    s2 = sinh(2 * lam + p.eta)
    if abs(s2) <= p.eps_pole:
        raise DegenerateParameter("|sinh(2 lam + eta)| too small for modified D_-")

    def front(s):
        den = sinh(theta - p.eta * s)
        if abs(den) <= p.eps_pole:
            raise DegenerateParameter("|sinh(theta - eta S^z)| too small for modified D_-")
        return sinh(theta - p.eta * s + p.eta) / den

    inner = lambda s: sinh(theta - p.eta * s + 2 * lam + p.eta) * sinh(p.eta) / (s2 * sinh(theta - p.eta * s + p.eta))
    return _per_sz(p.N, front) * (blocks["D"] - _per_sz(p.N, inner) * blocks["A"])


# ----------------------------------------------------------------------
# gauge rows and auxiliary-space gauges with operator shifts


def gauge_row_gates(
    theta: complex,
    omega: complex,
    side: str,
    p: ModelParams,
    extra_shift: tuple[tuple[str, int], ...] = (),
) -> list:
    """Gates of the gauge row of the height picture, left to right.

    side "minus": S_-({xi}; theta) = S_N(xi_N; theta) ... S_1(xi_1; theta - eta sum_{i>1} sz_i)
    side "plus":  S_+({xi}; theta) = S_1(xi_1; theta) ... S_N(xi_N; theta + eta sum_{i<N} sz_i)

    ``extra_shift`` adds weighted legs to every factor's dynamical argument
    (used for the theta - eta sz_aux variants in the gauge relations).
    """
    p.boundary(side)  # rejects an unknown side
    build = lambda x, c, rep: gauge_s2(rep(x), theta + p.eta * c, omega, p.eps_pole)
    layout = _chain_layout(f"S_{side}", p.N, tuple(extra_shift))
    return tn.dynamical_gates(build, [(p.xi[k - 1], on, charge) for k, on, charge in layout])


def gauge_aux_gate(lam: complex, theta: complex, omega: complex, side: str, p: ModelParams) -> tuple:
    """Gate of S_0(lam; theta - eta S^z) ("minus") or of the sigma^y-conjugated
    S-tilde_0(lam; theta + eta S^z) ("plus") on the chain legs."""
    build2 = gauge_s2 if side == "minus" else gauge_s_tilde2
    build = lambda x, c, rep: build2(rep(x), theta + p.eta * c, omega, p.eps_pole)
    return tn.dynamical_gates(build, [(lam, (AUX,), _chain_shift(side, p.N))])[0]


# ----------------------------------------------------------------------
# SOS transfer matrices


def sos_transfer(mu: complex, theta: complex, which: str, p: ModelParams, x: np.ndarray) -> np.ndarray:
    """Height-picture transfer matrices with diagonal dressed boundaries,
    applied to ``x``, a (2^N,) or (2^N, m) array, as traced gate lists.

    "SOS1": Tr_0 ( K~_+(mu; db, zb) U_-(mu; theta) )
    "SOS2": Tr_0 ( U_+^{t_0}(mu; theta) K~_-^{t_0}(mu; d, z) )

    Both put the diagonal K~ first, the trace being cyclic over an
    operator on the auxiliary leg alone.
    """
    if which not in ("SOS1", "SOS2"):
        raise ValueError(f"unknown transfer kind {which!r}")
    # the dressed K~ sits at the boundary opposite the double row's
    k_side, side = ("plus", "minus") if which == "SOS1" else ("minus", "plus")
    delta, zeta, _ = p.boundary(k_side)
    kt = tilde_k2(p.k_point(mu, k_side), delta, zeta, p.eta, p.eps_pole)
    return tn.traced_product(chain_legs(p.N), [(kt, (AUX,)), *dyn_double_row_gates(mu, theta, side, p)], x)


def sector_transfer(mu: complex, theta: complex, which: str, p: ModelParams, s: int) -> tuple[np.ndarray, np.ndarray]:
    """``sos_transfer`` applied to the basis columns of the sector
    sum_i sigma^z_i = s: the C(N, M) basis indices of the sector, ascending
    (M = (N - s)/2 spins down), and the (2^N, C(N, M)) columns they map to.
    The sector's block is the rows at those indices."""
    values, charge = tn.charge_table((1,) * p.N)
    idx = np.flatnonzero(values[charge] == s)
    x = np.zeros((2**p.N, len(idx)), dtype=complex)
    x[idx, np.arange(len(idx))] = 1.0
    return idx, sos_transfer(mu, theta, which, p, x)


# ----------------------------------------------------------------------
# discrete symmetries relating the two reflection algebras


def gamma_parity_residual(lam, p: ModelParams, monodromy=None) -> float:
    """Both sides of the parity relation for the minus double-row matrix:
    sigma^x_0 U_-(lam; delta-zeta) sigma^x_0  =  Gx U_-(lam; zeta-delta)|_swapped Gx.

    ``monodromy``, here and in the residuals that take it, builds the
    monodromy gate lists at lam itself and the side's own parameters, as in
    ``dyn_double_row_gates``; the lists at other points or parameters,
    which no other check reads, are built by ``dyn_monodromy_gates``."""
    theta = p.theta("minus")
    x0 = [(tn.SX, (AUX,))]
    lhs = [*x0, *dyn_double_row_gates(lam, theta, "minus", p, monodromy=monodromy), *x0]
    swapped = p.replace(delta=p.zeta, zeta=p.delta)
    gx = [(tn.SX, (s,)) for s in site_legs(p.N)]
    rhs = [*gx, *dyn_double_row_gates(lam, -theta, "minus", swapped), *gx]
    return tn.product_residual(chain_legs(p.N), lhs, rhs)


def isomorphism_residual(lam, theta, p: ModelParams, monodromy=None) -> float:
    """U_+^{t_0}(lam; theta) against the image of the minus double-row matrix
    under the algebra isomorphism.

    The image is Gy P U_-(-lam-eta; theta) P Gy built with the barred
    boundary pair and with inhomogeneities reversed and negated; it
    reproduces U_+^{t_0}(lam; theta) exactly.  Gy is the sigma^y string,
    one gate per site, and P the site-order reversal, which relabels leg
    s_k of the minus double row as s_{N+1-k}.
    """
    lhs = dyn_double_row_gates(lam, theta, "plus", p, monodromy=monodromy)
    mapped = p.replace(
        delta=p.delta_bar,
        zeta=p.zeta_bar,
        xi=tuple(-x for x in reversed(p.xi)),
    )
    reversal = {f"s{k}": f"s{p.N + 1 - k}" for k in range(1, p.N + 1)}
    u = tn.relabel(dyn_double_row_gates(-lam - p.eta, theta, "minus", mapped), reversal)
    gy = [(tn.SY, (s,)) for s in site_legs(p.N)]
    return tn.product_residual(chain_legs(p.N), lhs, [*gy, *u, *gy])


# ----------------------------------------------------------------------
# named identity checks


def dybe_residual(l1, l2, l3, theta, eta, form: int = 1) -> float:
    """Dynamical Yang-Baxter equation on three legs.

    Each R_{ab} appears once plain and once with theta shifted by w eta
    sz of the third leg, w = -1 in form 1 and +1 in form 2.
    """
    legs = ("v1", "v2", "v3")
    w = -1 if form == 1 else +1
    keys, gates = [], []
    for name, x, third in (("12", l1 - l2, "v3"), ("13", l1 - l3, "v2"), ("23", l2 - l3, "v1")):
        pair = tuple(f"v{i}" for i in name)
        for weight in (0, w):
            keys.append((name, weight))
            gates.append((x, pair, [(third, weight)]))
    r = dict(zip(keys, tn.dynamical_gates(lambda x, c, rep: dyn_r4(x, theta + eta * c, eta, repeat=rep), gates)))
    if form == 1:
        lhs = [r["12", w], r["13", 0], r["23", w]]
        rhs = [r["23", 0], r["13", w], r["12", 0]]
    else:
        lhs = [r["12", 0], r["13", w], r["23", 0]]
        rhs = [r["23", w], r["13", 0], r["12", w]]
    return tn.product_residual(legs, lhs, rhs)


def dyn_ice_residual(lam, theta, eta) -> float:
    r = dyn_r4(lam, theta, eta)
    zz = np.kron(tn.SZ, tn.ID2) + np.kron(tn.ID2, tn.SZ)
    return tn.max_abs(r @ zz - zz @ r) / max(tn.max_abs(r), 1e-300)


def dyn_unitarity_residual(lam, theta, eta) -> float:
    lhs = dyn_r4(lam, theta, eta) @ tn.swapped4(dyn_r4(-lam, theta, eta))
    rhs = -sinh(lam - eta) * sinh(lam + eta) * np.eye(4)
    return tn.rel_residual(lhs, rhs)


def dyn_crossing_residual(lam, theta, eta, form: int = 1) -> float:
    """-y_1 L(-lam-eta) y_1 against R_21(lam) (form 1), or -y_1 Lhat(-lam-eta) y_1 against R_12(lam) (form 2)."""
    y1 = np.kron(tn.SY, tn.ID2)
    kind = "L" if form == 1 else "Lhat"
    lhs = -y1 @ crossed_l4(-lam - eta, theta, eta, kind) @ y1
    rhs = tn.swapped4(dyn_r4(lam, theta, eta)) if form == 1 else dyn_r4(lam, theta, eta)
    return tn.rel_residual(lhs, rhs)


def dyn_parity_residual(lam, theta, eta) -> float:
    r = dyn_r4(lam, theta, eta)
    r21 = tn.swapped4(r)
    xx = np.kron(tn.SX, tn.SX)
    yy = np.kron(tn.SY, tn.SY)
    res = max(
        tn.rel_residual(r21, xx @ r @ xx),
        tn.rel_residual(r21, yy @ r @ yy),
        tn.rel_residual(r21, dyn_r4(lam, -theta, eta)),
    )
    return res


def crossed_l_unitarity_residual(lam, theta, eta) -> float:
    lhs = crossed_l4(-lam - eta, theta, eta, "Lhat") @ crossed_l4(lam - eta, theta, eta, "L")
    rhs = -sinh(lam - eta) * sinh(lam + eta) * np.eye(4)
    return tn.rel_residual(lhs, rhs)


def crossed_l_ice_residual(lam, theta, eta) -> float:
    l = crossed_l4(lam, theta, eta, "L")
    dz = np.kron(tn.SZ, tn.ID2) - np.kron(tn.ID2, tn.SZ)
    return tn.max_abs(l @ dz - dz @ l) / max(tn.max_abs(l), 1e-300)


def crossed_l_parity_residual(lam, theta, eta) -> float:
    l = crossed_l4(lam, theta, eta, "L")
    xx = np.kron(tn.SX, tn.SX)
    return max(
        tn.rel_residual(xx @ l @ xx, crossed_l4(lam, theta, eta, "Lhat")),
        tn.rel_residual(xx @ l @ xx, crossed_l4(lam, -theta, eta, "L")),
    )


def vertex_face_residual(l1, l2, theta, omega, eta, form: int = 1) -> float:
    """Vertex-face correspondence R S_1 S_2 = S_2 S_1 R(theta) on two legs.

    The inner gauge factor of each side carries theta + w eta sz of the
    outer one's leg, w = -1 in form 1 and +1 in form 2.
    """
    legs = _L_LEGS
    w = -1 if form == 1 else +1
    keys, gates = [], []
    for leg, other, x in (("c1", "c2", l1), ("c2", "c1", l2)):
        for weight in (0, w):
            keys.append((leg, weight))
            gates.append((x, (leg,), [(other, weight)]))
    s = dict(zip(keys, tn.dynamical_gates(lambda x, c, rep: gauge_s2(rep(x), theta + eta * c, omega), gates)))
    rv = (vx.r4(l1 - l2, eta), legs)
    rd = (dyn_r4(l1 - l2, theta, eta), legs)
    if form == 1:
        lhs = [rv, s["c1", 0], s["c2", w]]
        rhs = [s["c2", 0], s["c1", w], rd]
    else:
        lhs = [rv, s["c2", 0], s["c1", w]]
        rhs = [s["c1", 0], s["c2", w], rd]
    return tn.product_residual(legs, lhs, rhs)


def k_diag_residual(lam, p: ModelParams, side: str) -> float:
    """Gauge diagonalization of the vertex K: S^-1(x) K_-(lam) S(-x) at x = lam
    ("minus"), or S~^-1(x) K_+(lam)^t S~(-x) at x = lam + eta ("plus"), against
    ``k_diag``, with the side's theta and tau."""
    theta, (_, _, omega) = p.theta(side), p.boundary(side)
    if side == "minus":
        s, s_inv, k, x = gauge_s2, gauge_s2_inv, vx.k2(lam, side, p), lam
    else:
        s, s_inv, k, x = gauge_s_tilde2, gauge_s_tilde2_inv, vx.k2(lam, side, p).T, lam + p.eta
    lhs = s_inv(x, theta, omega, p.eps_pole) @ k @ s(-x, theta, omega, p.eps_pole)
    return tn.rel_residual(lhs, k_diag(lam, side, p))


def dyn_reflection_residual(l1, l2, p: ModelParams, side: str) -> float:
    """Reflection equation for the diagonal height-picture K_- ("minus") or K_+ ("plus")."""
    theta = p.theta(side)
    legs = _L_LEGS
    return vx.reflection_type_residual(
        lambda a, b: [(dyn_r4(x, theta, p.eta), legs) for x in (a, b)],
        lambda lam, leg: [(k_diag(lam, side, p), (leg,))],
        legs, side, l1, l2, p.eta,
    )


def reflection_equivalence_residual(l1, l2, p: ModelParams) -> float:
    """Vertex reflection-equation side against its gauge-conjugated height form."""
    legs = _L_LEGS
    eta = p.eta
    theta = p.theta("minus")
    om = p.tau
    # the inner gauge pair reads theta - eta sz_2
    inner = lambda build, x: tn.dynamical_gates(
        lambda y, c, rep: build(rep(y), theta + eta * c, om, p.eps_pole), [(x, ("c1",), (("c2", -1),))]
    )[0]

    lhs = [
        (vx.r4(l1 - l2, eta), legs),
        (vx.k2(l1, "minus", p), ("c1",)),
        (tn.swapped4(vx.r4(l1 + l2, eta)), legs),
        (vx.k2(l2, "minus", p), ("c2",)),
    ]
    rhs = [
        (gauge_s2(l2, theta, om, p.eps_pole), ("c2",)),
        inner(gauge_s2, l1),
        (dyn_r4(l1 - l2, theta, eta), legs),
        (k_diag(l1, "minus", p), ("c1",)),
        (tn.swapped4(dyn_r4(l1 + l2, theta, eta)), legs),
        (k_diag(l2, "minus", p), ("c2",)),
        inner(gauge_s2_inv, -l1),
        (gauge_s2_inv(-l2, theta, om, p.eps_pole), ("c2",)),
    ]
    return tn.product_residual(legs, lhs, rhs)


def zero_weight_residual(lam, theta, p: ModelParams, monodromy=None) -> float:
    """T(lam; theta) commutes with the total sigma^z q of the auxiliary leg
    and the sites: T (q X) against q (T X) on the probe block X."""
    legs = chain_legs(p.N)
    t = (monodromy or dyn_monodromy_gates)(lam, theta, "T", p)
    values, which = tn.charge_table((1,) * len(legs))
    q = values[which][:, None]
    x = tn.probe_block(len(legs))
    return tn.rel_residual(tn.product(legs, t, q * x), q * tn.product(legs, t, x))


def monodromy_inverse_residual(lam, theta, p: ModelParams, kind: str, monodromy=None) -> float:
    """Inversion relation That(lam) T(-lam) = gamma_hat(lam) ("That") or
    Vhat(lam) V(-lam - 2 eta) = gamma_tilde(lam) ("Vhat"): both monodromies
    as gate lists, the right side a scalar on the auxiliary leg."""
    if kind == "That":
        inverse, gamma = dyn_monodromy_gates(-lam, theta, "T", p), vx.gamma_hat(lam, p)
    elif kind == "Vhat":
        inverse, gamma = dyn_monodromy_gates(-lam - 2 * p.eta, theta, "V", p), vx.gamma_tilde(lam, p)
    else:
        raise ValueError(f"no inversion relation for kind {kind!r}")
    lhs = [*(monodromy or dyn_monodromy_gates)(lam, theta, kind, p), *inverse]
    return tn.product_residual(chain_legs(p.N), lhs, [(gamma * tn.ID2, (AUX,))])


def monodromy_gauge_residual(lam, theta, omega, p: ModelParams, side: str, monodromy=None) -> float:
    """Gauge relation between the dynamical monodromy T ("minus") or V ("plus") and the vertex one."""
    x, kind, s0 = (lam, "T", gauge_s2) if side == "minus" else (lam + p.eta, "V", gauge_s_tilde2)
    srow = gauge_row_gates(theta, omega, side, p)
    srow_aux = gauge_row_gates(theta, omega, side, p, extra_shift=((AUX, -1),))
    t0 = vx.monodromy_gates(lam, p)
    lhs = [*srow, gauge_aux_gate(x, theta, omega, side, p), *(monodromy or dyn_monodromy_gates)(lam, theta, kind, p)]
    s0_gate = (s0(x, theta, omega, p.eps_pole), (AUX,))
    rhs = [*(t0 if side == "minus" else vx.aux_transposed(t0)), s0_gate, *srow_aux]
    return tn.product_residual(chain_legs(p.N), lhs, rhs)


def sos_algebra_residual(l1, l2, p: ModelParams, side: str, monodromy=None) -> float:
    """Dynamical reflection algebra of the double-row matrices (minus or plus).

    The R-matrices carry theta - eta S^z ("minus") or theta + eta S^z
    ("plus") of the quantum sites.
    """
    theta, shift = p.theta(side), _chain_shift(side, p.N)
    build = lambda x, c, rep: dyn_r4(x, theta + p.eta * c, p.eta, repeat=rep)
    return vx.reflection_type_residual(
        lambda a, b: tn.dynamical_gates(build, [(x, ("x1", "x2"), shift) for x in (a, b)]),
        lambda lam, leg: tn.relabel(dyn_double_row_gates(lam, theta, side, p, monodromy=monodromy), {AUX: leg}),
        ("x1", "x2") + site_legs(p.N), side, l1, l2, p.eta,
    )


def vsos_state_residual(lam, p: ModelParams, side: str, monodromy=None) -> float:
    """Double-row vertex-face relation between the two pictures, minus or plus side."""
    theta, (_, _, om) = p.theta(side), p.boundary(side)
    x = lam if side == "minus" else lam + p.eta
    left, right = (gauge_aux_gate(y, theta, om, side, p) for y in (x, -x))
    srow = gauge_row_gates(theta, om, side, p)
    lhs = [*srow, left, *dyn_double_row_gates(lam, theta, side, p, monodromy=monodromy)]
    rhs = [*vx.double_row_gates(lam, side, p), *srow, right]
    legs = chain_legs(p.N)
    return tn.product_residual(legs, lhs, rhs)


def commutation_residual(l1, l2, p: ModelParams, monodromy=None) -> dict[str, float]:
    """Three-term exchange relations of A_- and D-tilde_- past B_- at theta =
    delta - zeta, from one evaluation: {"A": residual of the A_- relation,
    "D": that of the D-tilde_- one}.

    The double rows at l2 and l1 are built once each (``monodromy`` as in
    ``dyn_double_row_gates``).  Five block strings serve both relations:
    the A and D columns at l2 on the probe block x, the A and D columns at
    l1 on [x, B(l2) x], and B(l1) on [A(l2) x, D-tilde(l2) x].  Each
    relation has one string of its own, B(l2) on A(l1) x or on
    D-tilde(l1) x.  Every string acts on the columns it acted on when each
    relation was evaluated alone, so both residuals are those of a
    separate evaluation bit for bit.
    """
    eta = p.eta
    theta = p.theta("minus")

    def blocks(gates, lam, v):
        """A, B and D-tilde at (lam, theta) applied to v, from two block strings."""
        a, _ = apply_block_column(gates, "minus", "A", p.N, v, batch=False)
        d, b = apply_block_column(gates, "minus", "D", p.N, v, batch=False)
        return a, b, _d_tilde(lam, theta, p, {"A": a, "D": d})

    def b(gates, v):
        return apply_block_column(gates, "minus", "B", p.N, v, batch=False)[0]

    # every product of two blocks acts on the probe block x; each l1 block
    # string acts on two column groups at once
    x = tn.probe_block(p.N)
    u2 = dyn_double_row_gates(l2, theta, "minus", p, monodromy=monodromy)
    a2x, b2x, dt2x = blocks(u2, l2, x)
    u1 = dyn_double_row_gates(l1, theta, "minus", p, monodromy=monodromy)
    (a1x, a1b2x), _, (dt1x, dt1b2x) = (np.hsplit(m, 2) for m in blocks(u1, l1, np.hstack([x, b2x])))
    b1a2x, b1dt2x = np.hsplit(b(u1, np.hstack([a2x, dt2x])), 2)
    lb, lm = l1 + l2, l1 - l2
    c1 = _per_sz(p.N, lambda s: -sinh(eta) * sinh(theta - eta * s - 2 * eta - lb) / (sinh(theta - eta * s - eta) * sinh(lb + eta)))
    c2 = sinh(lb) * sinh(lm - eta) / (sinh(lm) * sinh(lb + eta))
    c3 = _per_sz(p.N, lambda s: -sinh(eta) * sinh(2 * l2) * sinh(lm - theta + eta * s + eta) / (sinh(theta - eta * s - eta) * sinh(lm) * sinh(2 * l2 + eta)))
    res_a = tn.rel_residual(a1b2x, c1 * b1dt2x + c2 * b(u2, a1x) + c3 * b1a2x)
    d1 = _per_sz(p.N, lambda s: sinh(lb + theta - eta * s)
        / sinh(theta - eta * s - eta)
        * sinh(eta) * sinh(2 * l2) * sinh(2 * l1 + 2 * eta)
        / (sinh(lb + eta) * sinh(2 * l1 + eta) * sinh(2 * l2 + eta)))
    d2 = sinh(lm + eta) * sinh(lb + 2 * eta) / (sinh(lm) * sinh(lb + eta))
    d3 = _per_sz(p.N, lambda s: -sinh(eta) * sinh(2 * (l1 + eta)) * sinh(lm + theta - eta * s - eta)
        / (sinh(lm) * sinh(2 * l1 + eta) * sinh(theta - eta * s - eta)))
    return {"A": res_a, "D": tn.rel_residual(dt1b2x, d1 * b1a2x + d2 * b(u2, dt1x) + d3 * b1dt2x)}


@dataclass(frozen=True)
class SosTrial:
    """One trial of the height-picture suite: three spectral points and a
    free dynamical parameter, with what its checks share.

    ``keep`` holds a value for the later checks of the trial, such as the
    exchange residuals that ``commutation_ab`` evaluates and
    ``commutation_dtb`` reads; ``monodromy`` is ``dyn_monodromy_gates``
    building each (lam, theta, kind, p) gate list once for the trial.
    The checks hand it only the lists that another check reads too, at
    the trial's own points: every trial's lists stay alive until the
    suite's last check, so a list read once is built for its reader alone.
    """

    lams: list[complex]
    theta: complex
    kept: dict = field(default_factory=dict, repr=False, compare=False)

    def keep(self, key, make: Callable[[], object]):
        """make(), evaluated on the first call with this key and kept for the later ones."""
        if key not in self.kept:
            self.kept[key] = make()
        return self.kept[key]

    def monodromy(self, lam: complex, theta: complex, kind: str, p: ModelParams) -> list:
        return self.keep((lam, theta, kind, p), lambda: dyn_monodromy_gates(lam, theta, kind, p))


def _commutation(t: SosTrial, p: ModelParams, left: str) -> float:
    l = t.lams
    return t.keep(("commutation", p), lambda: commutation_residual(l[0], l[1], p, t.monodromy))[left]


# name -> residual of one trial
SOS_RESIDUALS: dict[str, Callable[[SosTrial, ModelParams], float]] = {
    "dybe1": lambda t, p: dybe_residual(*t.lams, t.theta, p.eta, form=1),
    "dybe2": lambda t, p: dybe_residual(*t.lams, t.theta, p.eta, form=2),
    "ice": lambda t, p: dyn_ice_residual(t.lams[0], t.theta, p.eta),
    "unitarity": lambda t, p: dyn_unitarity_residual(t.lams[0], t.theta, p.eta),
    "crossing1": lambda t, p: dyn_crossing_residual(t.lams[0], t.theta, p.eta, form=1),
    "crossing2": lambda t, p: dyn_crossing_residual(t.lams[0], t.theta, p.eta, form=2),
    "parity": lambda t, p: dyn_parity_residual(t.lams[0], t.theta, p.eta),
    "l_unitarity": lambda t, p: crossed_l_unitarity_residual(t.lams[0], t.theta, p.eta),
    "l_ice": lambda t, p: crossed_l_ice_residual(t.lams[0], t.theta, p.eta),
    "l_parity": lambda t, p: crossed_l_parity_residual(t.lams[0], t.theta, p.eta),
    "vertex_face1": lambda t, p: vertex_face_residual(t.lams[0], t.lams[1], t.theta, p.tau, p.eta, form=1),
    "vertex_face2": lambda t, p: vertex_face_residual(t.lams[0], t.lams[1], t.theta, p.tau, p.eta, form=2),
    "k_minus_diag": lambda t, p: k_diag_residual(t.lams[0], p, "minus"),
    "k_plus_diag": lambda t, p: k_diag_residual(t.lams[0], p, "plus"),
    "dyn_reflection": lambda t, p: dyn_reflection_residual(t.lams[0], t.lams[1], p, "minus"),
    "dual_dyn_reflection": lambda t, p: dyn_reflection_residual(t.lams[0], t.lams[1], p, "plus"),
    "reflection_equivalence": lambda t, p: reflection_equivalence_residual(t.lams[0], t.lams[1], p),
    "zero_weight": lambda t, p: zero_weight_residual(t.lams[0], t.theta, p, t.monodromy),
    "that_inverse": lambda t, p: monodromy_inverse_residual(t.lams[0], t.theta, p, "That"),
    "vhat_inverse": lambda t, p: monodromy_inverse_residual(t.lams[0], t.theta, p, "Vhat", t.monodromy),
    "monodromy_gauge": lambda t, p: monodromy_gauge_residual(t.lams[0], t.theta, p.tau, p, "minus", t.monodromy),
    "dual_monodromy_gauge": lambda t, p: monodromy_gauge_residual(t.lams[0], t.theta, p.tau, p, "plus", t.monodromy),
    "sos_algebra": lambda t, p: sos_algebra_residual(t.lams[0], t.lams[1], p, "minus", t.monodromy),
    "dual_sos_algebra": lambda t, p: sos_algebra_residual(t.lams[0], t.lams[1], p, "plus", t.monodromy),
    "vsos_state": lambda t, p: vsos_state_residual(t.lams[0], p, "minus", t.monodromy),
    "dual_vsos_state": lambda t, p: vsos_state_residual(t.lams[0], p, "plus", t.monodromy),
    "gamma_parity": lambda t, p: gamma_parity_residual(t.lams[0], p, t.monodromy),
    "isomorphism": lambda t, p: isomorphism_residual(t.lams[0], t.theta, p, t.monodromy),
    "commutation_ab": lambda t, p: _commutation(t, p, "A"),
    "commutation_dtb": lambda t, p: _commutation(t, p, "D"),
}


def sos_draws(p: ModelParams, seed: int) -> TrialDraws:
    """The suite's seeded trials (``SosTrial``): each draws three spectral
    points, then a free dynamical parameter."""
    thetas = (p.theta("minus"), p.theta("plus"))

    def draw(rng):
        lams = sample_points(rng, p, 3, thetas=thetas)
        for _ in range(10_000):
            theta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if min_pole_gap(p, (), [theta]) > SAMPLE_MARGIN:
                return SosTrial(lams, theta)
        raise DegenerateParameter("could not sample a generic dynamical parameter")

    return TrialDraws(draw, seed)


def sos_identity_suite(
    check: str, p: ModelParams, seed: int = 0, trials: int = 20, draws: TrialDraws | None = None
) -> float:
    """Largest residual of one named height-picture identity over seeded random points.

    ``draws``, the ``sos_draws`` of p and seed, lets the checks of one run
    share their trials: each trial is drawn once, each of its monodromy
    gate lists built once, and the exchange relations evaluated once for
    both their checks.  Without it the suite draws its own.
    """
    if check not in SOS_RESIDUALS:
        raise ValueError(f"unknown height-picture check {check!r}")
    residual = SOS_RESIDUALS[check]
    draws = sos_draws(p, seed) if draws is None else draws
    # np.max keeps a NaN residual, which the caller's finite check then reports
    return float(np.max([residual(draws[t], p) for t in range(trials)], initial=0.0))
