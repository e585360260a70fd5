"""Bethe equations, root solver, eigenvalues, and eigenstate construction.

Four state families exist, built from the creation-type blocks of the two
double-row matrices acting on the all-up or all-down reference state:

    b1:  B_-(lam_1; th) ... B_-(lam_M; th) |0>       M = (N - s)/2
    b2:  C_-(lam_1; th) ... C_-(lam_M; th) |0bar>    M = (N + s)/2
    p1:  B_+(lam_1; tb) ... B_+(lam_M; tb) |0>       M = (N - s)/2
    p2:  C_+(lam_1; tb) ... C_+(lam_M; tb) |0bar>    M = (N + s)/2

with th = delta - zeta and tb = delta_bar - zeta_bar.  Under the height
condition of their sector they are SOS eigenstates; under the vertex
condition too, their vertex images (gauge row applied) are transfer-matrix
eigenstates, all four families giving the same states.
"""

from __future__ import annotations

from cmath import pi, sinh
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import sos
from . import tensor as tn
from . import vertex as vx
from .errors import BadSector, ConfigError, DegenerateParameter, NullState
from .params import ModelParams

ROOT_SEP = 1e-6  # smallest |sinh| of root differences, sums + eta, 2 lam + eta
BETHE_TOL = 1e-9  # largest per-root residual of an accepted solution
RE_MAX = 2.5  # largest |Re| of an accepted root
N_STARTS = 60  # multi-start points of the grid search
RUNAWAY_RISES = 8  # consecutive outward steps past RE_MAX that retire a Newton start
# the Newton step scales 1, 1/2, ..., 2^-19, in blocks of doubling length:
# one mismatch evaluation per block, and few starts reach the long ones
_STEP_SCALES = tuple(2.0 ** -np.arange(lo, hi) for lo, hi in ((0, 1), (1, 2), (2, 4), (4, 8), (8, 16), (16, 20)))
# how the starts of a search ended: every start in _newton_batch (converged,
# bad_y ... iteration_cap sum to starts), then every converged start in the
# filters of find_bethe_solutions (re_max ... accepted sum to converged)
LEDGER = (
    "starts", "converged", "bad_y", "bad_jacobian", "halvings_exhausted", "runaway", "iteration_cap",
    "re_max", "fixed_point", "separation", "duplicate", "residual", "accepted",
)


@dataclass(frozen=True)
class BoundaryConstraint:
    """Sector and branch integers of the boundary-parameter constraints."""

    s: int
    n: int = 0
    m: int = 0


@dataclass(frozen=True)
class BranchSpec:
    creator: str          # which block creates: "B" or "C"
    side: str             # "minus" or "plus" double-row matrix
    reference: str        # "up" or "down"
    sign: int             # +1 keeps M = (N - s)/2, -1 gives (N + s)/2
    y_order: str          # permutation of (d, z, db, zb) entering y_1
    eig_order: str        # permutation entering Lambda_1
    sos_kind: str         # transfer matrix the family diagonalizes


BRANCHES = {
    "b1": BranchSpec("B", "minus", "up", +1, "dzDZ", "dzDZ", "SOS1"),
    "b2": BranchSpec("C", "minus", "down", -1, "zdZD", "zdZD", "SOS1"),
    "p1": BranchSpec("B", "plus", "up", +1, "ZDzd", "dzDZ", "SOS2"),
    "p2": BranchSpec("C", "plus", "down", -1, "DZdz", "zdZD", "SOS2"),
}


@dataclass(frozen=True)
class BetheSolution:
    branch: str
    roots: tuple[complex, ...]
    M: int
    residuals: tuple[float, ...]
    sector: int


def family_sector(branch: str, M: int, N: int) -> int:
    """The S^z sector of ``branch``'s M-root states (1 <= M <= N): N - 2M for b1, p1, 2M - N for b2, p2."""
    if M < 1:
        raise ConfigError(f"M = {M} Bethe roots; a Bethe state needs at least one")
    if M > N:
        # more creation blocks than sites leave every sector: the state is exactly zero
        raise ConfigError(f"M = {M} Bethe roots; N = {N} sites take at most N")
    return BRANCHES[branch].sign * (N - 2 * M)


def height_condition(p: ModelParams, c: BoundaryConstraint) -> ModelParams:
    """Set delta_bar = zeta_bar + delta - zeta - eta s + i pi n + 2 i pi m: under
    this alone the sector-s Bethe states are SOS eigenstates, for any tau_bar."""
    return p.replace(delta_bar=p.zeta_bar + p.theta("minus") - p.eta * c.s + 1j * pi * c.n + 2j * pi * c.m)


def vertex_condition(p: ModelParams, c: BoundaryConstraint) -> ModelParams:
    """Set tau_bar = tau + eta + i pi n, which only the vertex picture needs on top of the height one."""
    return p.replace(tau_bar=p.tau + p.eta + 1j * pi * c.n)


def apply_constraints(p: ModelParams, c: BoundaryConstraint) -> ModelParams:
    """Impose the height and the vertex condition, solving both cosh conditions.

    The i pi n piece in delta_bar is required for odd n: without it the two
    cosh conditions pick up a (-1)^n mismatch.
    """
    if (p.N - c.s) % 2 != 0:
        raise BadSector(f"N - s = {p.N - c.s} must be even")
    if abs(c.s) >= p.N:
        raise BadSector(f"sector |s| = {abs(c.s)} must be < N = {p.N}")
    return vertex_condition(height_condition(p, c), c)


def _pars(p: ModelParams, order: str) -> tuple[complex, complex, complex, complex]:
    pool = {"d": p.delta, "z": p.zeta, "D": p.delta_bar, "Z": p.zeta_bar}
    return tuple(pool[ch] for ch in order)


def _y1(x: complex, roots: Sequence[complex], i: int | None, pars, xis, eta: complex) -> complex:
    d, z, db, zb = pars
    v = sinh(z + x) * sinh(d - x) * sinh(zb - x) * sinh(db + x)
    for k, rk in enumerate(roots):
        if i is not None and k == i:
            continue
        v *= sinh(x + rk) * sinh(x - rk - eta)
    for xj in xis:
        v *= sinh(x + xj + eta) * sinh(x - xj + eta)
    return v


def bethe_y(branch: str, x: complex, roots: Sequence[complex], i: int | None, p: ModelParams) -> complex:
    """The y-function whose reflection symmetry y(x) = y(-x-eta) is the
    Bethe equation of the given branch."""
    spec = BRANCHES[branch]
    return _y1(x, roots, i, _pars(p, spec.y_order), p.xi, p.eta)


def bethe_residual(branch: str, roots: Sequence[complex], p: ModelParams) -> list[float]:
    """Per-root residual |y(lam_i) - y(-lam_i - eta)| / max(|y|, 1e-30)."""
    out = []
    for i, lam in enumerate(roots):
        a = bethe_y(branch, lam, roots, i, p)
        b = bethe_y(branch, -lam - p.eta, roots, i, p)
        out.append(abs(a - b) / max(abs(a), abs(b), 1e-30))
    return out


def _consts(branch: str, p: ModelParams) -> np.ndarray:
    """The 4 + 2N constants c of the factors sinh(x + c) of y(x): z, db,
    xi + eta and -xi + eta, and -d, -zb from sinh(d - x) sinh(zb - x) =
    sinh(x - d) sinh(x - zb)."""
    d, z, db, zb = _pars(p, BRANCHES[branch].y_order)
    xis = np.asarray(p.xi, dtype=complex)
    return np.concatenate([[z, -d, -zb, db], xis + p.eta, -xis + p.eta])


@dataclass(frozen=True, eq=False)
class _Search:
    """What every mismatch and Jacobian of one search reads, built once per
    search (``_search``): the family and parameters, the constants c of y
    (``_consts``) and their exponentials, and the index arrays of y's self
    factors."""

    branch: str
    p: ModelParams
    consts: np.ndarray
    consts_re: np.ndarray
    e_c: np.ndarray  # e^c, which y and the Jacobian take
    e_c_inv: np.ndarray  # 1 / e^c, which y takes
    e_neg_c: np.ndarray  # e^-c, which the Jacobian takes
    e_eta: complex
    # x_j, j < 2M, is lam_i or -lam_i - eta with i = j mod M: its self
    # factors sit in columns i and i + M of y's factor array
    self_rows: np.ndarray
    self_cols: np.ndarray


def _search(branch: str, p: ModelParams, m: int) -> _Search:
    """The ``_Search`` record of a search for M = ``m`` roots of ``branch``."""
    consts = _consts(branch, p)
    e_c = np.exp(consts)
    j = np.arange(2 * m)
    return _Search(branch, p, consts, consts.real, e_c, 1 / e_c, np.exp(-consts), np.exp(p.eta), j, j % m)


def _y_pair(search: _Search, roots: np.ndarray) -> np.ndarray:
    """y(lam_i) and y(-lam_i-eta) for an (S, M) array of S starts, shape (2, S, M).

    Every factor of y is sinh(a + b), with a one of x = (lam, -lam - eta)
    and b one of the same 2M values of its start (the factors
    sinh(x + lam_k) and sinh(x - lam_k - eta)) or one of the constants.
    It is taken as (e^a e^b - e^-a e^-b) / 2 from one exponential per
    value of each start and the search's exponentials of the constants,
    not one sinh per factor.  That difference has relative error
    eps / |sinh(a + b)| near a zero, so every factor below 1/2 in modulus
    is recomputed with np.sinh of the explicit sum.  Each entry holds the other roots of its own start
    fixed, as bethe_y does with i given: the self factors k = i are
    masked out of the root product.
    """
    n, m = roots.shape
    w = 2 * m
    # b = [x, consts] per start, and e^b and e^-b from e^x and the stored e^c
    b = np.empty((n, w + len(search.consts)), dtype=complex)
    b[:, :m] = roots
    b[:, m:w] = -roots - search.p.eta
    b[:, w:] = search.consts
    x = b[:, :w]
    e = np.empty_like(b)
    np.exp(x, out=e[:, :w])
    e[:, w:] = search.e_c
    e_inv = np.empty_like(b)
    np.divide(1, e[:, :w], out=e_inv[:, :w])
    e_inv[:, w:] = search.e_c_inv
    # s[:, j, k] = sinh(x_j + b_k); halving the x factors is exact and
    # spares a pass over s
    s = (0.5 * e[:, :w, None]) * e[:, None, :] - (0.5 * e_inv[:, :w, None]) * e_inv[:, None, :]
    s[:, search.self_rows, search.self_cols] = 1
    s[:, search.self_rows, search.self_cols + m] = 1
    np.sinh(x[:, :, None] + b[:, None, :], out=s, where=np.abs(s) < 0.5)
    return s.prod(axis=-1).reshape(n, 2, m).swapaxes(0, 1)


def _log_mismatch(search: _Search, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log y(lam_i) - log y(-lam_i-eta) per start and root, imaginary part
    folded to (-pi, pi], and per start whether every y is nonzero and finite."""
    with np.errstate(all="ignore"):
        y = _y_pair(search, roots)
        ok = np.all((y != 0) & np.isfinite(np.abs(y)), axis=(0, 2))
        log_y = np.log(y)
        f = log_y[0] - log_y[1]
        f.imag = np.mod(f.imag + pi, 2 * pi) - pi
    return f, ok


def _coth(neg: np.ndarray, w: np.ndarray, w_inv: np.ndarray) -> np.ndarray:
    """coth u from w = e^u and w_inv = e^-u, where ``neg`` marks Re u <= 0.

    coth u = 1 + 2 / (w^2 - 1) = -1 - 2 / (w_inv^2 - 1): each entry squares
    the exponential inside the unit disc, so no square overflows, and coth
    reads -1 or +1 where that exponential underflows.
    """
    v = np.where(neg, w, w_inv)
    c = 2 / (v * v - 1)
    return np.where(neg, 1 + c, -1 - c)


def _jacobian(search: _Search, roots: np.ndarray) -> np.ndarray:
    """d mismatch_i / d lam_k for an (S, M) array of starts, shape (S, M, M).

    Every coth argument is a sum of two of x = (lam, -lam - eta) and the
    constants, so its exponential is a product of exponentials taken once
    per root and once per search for the constants: O(S M)
    transcendentals, not O(S M (M + N)).
    """
    diag = np.arange(roots.shape[1])
    # the log-derivative of each factor sinh(x + c) of y(x) is coth(x + c)
    x = np.stack([roots, -roots - search.p.eta])
    with np.errstate(all="ignore"):
        e = np.exp(x)
        e_inv = e[::-1] * search.e_eta  # e^-lam = e^(-lam-eta) e^eta, and back
        re = x.real
        # pair[a, b, s, i, k] = coth(x_a[s, i] + x_b[s, k]): b = 0 is the factor
        # sinh(x + lam_k) of y, b = 1 the factor sinh(x - lam_k - eta)
        pair = _coth(
            re[:, None, :, :, None] + re[None, :, :, None, :] <= 0,
            e[:, None, :, :, None] * e[None, :, :, None, :],
            e_inv[:, None, :, :, None] * e_inv[None, :, :, None, :],
        )
        pair[..., diag, diag] = 0
        plus, minus = pair[:, 0], pair[:, 1]
        fixed = _coth(
            re[..., None] + search.consts_re <= 0, e[..., None] * search.e_c, e_inv[..., None] * search.e_neg_c
        )
        # d/dx log y(x) at both arguments, holding the other roots fixed
        dlog = fixed.sum(axis=-1) + (plus + minus).sum(axis=-1)
    jac = (plus[0] - minus[0]) - (plus[1] - minus[1])
    jac[:, diag, diag] = dlog[0] + dlog[1]
    return jac


def canonical_root(lam: complex, eta: complex) -> complex:
    """Quotient the lam -> -lam-eta and lam -> lam + i pi symmetries."""
    cand = lam if lam.real >= (-lam - eta).real else -lam - eta
    im = cand.imag
    while im <= -pi / 2:
        im += pi
    while im > pi / 2:
        im -= pi
    return complex(cand.real, im)


def _near_fixed_point(lam: complex, eta: complex, eps: float) -> bool:
    # the reflection fixed points lam = -eta/2 + i pi k / 2 solve the
    # equation trivially; there sinh(2 lam + eta) = 0
    return abs(sinh(2 * lam + eta)) < eps


def _separation_ok(roots: Sequence[complex], eta: complex, eps: float) -> bool:
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(sinh(roots[i] - roots[j])) < eps or abs(sinh(roots[i] + roots[j] + eta)) < eps:
                return False
    return True


def _newton_step(search: _Search, roots: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps J^-1 f for every start, and per start whether its
    Jacobian was finite and nonsingular."""
    jac = _jacobian(search, roots)
    ok = np.isfinite(jac).all(axis=(1, 2))
    step = np.zeros_like(f)
    try:
        step[ok] = np.linalg.solve(jac[ok], f[ok][..., None])[..., 0]
    except np.linalg.LinAlgError:
        # a singular Jacobian drops only its own start
        for k in np.flatnonzero(ok):
            try:
                step[k] = np.linalg.solve(jac[k], f[k])
            except np.linalg.LinAlgError:
                ok[k] = False
    return step, ok


def _newton_batch(
    branch: str, starts: np.ndarray, p: ModelParams, max_iter: int, tol: float, ledger: dict | None = None
) -> list:
    """Damped Newton on an (S, M) array of starts at once.

    Returns, per start, its converged roots or None.  A start leaves the
    batch when its largest mismatch is below ``tol``; it is dropped when a
    y vanishes or is not finite, when its Jacobian is not finite or is
    singular, when 20 halvings of its step give no decrease, when its reach
    (the largest canonical Re of its roots) grew past RE_MAX on
    RUNAWAY_RISES steps running, or after ``max_iter`` steps.  A runaway
    chases a mismatch decaying like e^(-2 lam), about 1/2 further each step.

    The line search tries the step scales 1, 1/2, ..., 2^-19 in the blocks
    of ``_STEP_SCALES``, one mismatch evaluation per block for the starts
    still pending, and each start takes the first scale of the block that
    lowers its mismatch: the roots are those of trying one scale at a time.
    The constants of y and their exponentials are built once for the whole
    search (``_search``), and the per-start arrays are compressed only on
    a step that some start leaves.
    With a ``ledger``, each start is counted under how it ended (``LEDGER``).
    """
    ledger = Counter() if ledger is None else ledger
    ledger["starts"] += len(starts)
    found = [None] * len(starts)
    live = np.arange(len(starts))
    roots = starts.astype(complex)
    m = roots.shape[1]
    search = _search(branch, p, m)
    f, ok = _log_mismatch(search, roots)
    ledger["bad_y"] += int(np.count_nonzero(~ok))
    live, roots, f = live[ok], roots[ok], f[ok]
    reach = np.maximum(roots.real, -roots.real - p.eta.real).max(axis=1)
    rises = np.zeros(len(live), dtype=int)
    for _ in range(max_iter):
        if not len(live):
            break
        fn = np.abs(f).max(axis=1)
        done = fn < tol
        if done.any():
            ledger["converged"] += int(np.count_nonzero(done))
            for k, r in zip(live[done], roots[done]):
                found[k] = r
            live, roots, f, fn, reach, rises = (a[~done] for a in (live, roots, f, fn, reach, rises))
        step, ok = _newton_step(search, roots, f)
        if not ok.all():
            ledger["bad_jacobian"] += int(np.count_nonzero(~ok))
            live, roots, f, fn, step, reach, rises = (a[ok] for a in (live, roots, f, fn, step, reach, rises))
        # damped update: each start takes the first scale that lowers its mismatch
        pending = np.ones(len(live), dtype=bool)
        for scales in _STEP_SCALES:
            idx = np.flatnonzero(pending)
            if not len(idx):
                break
            cand = roots[idx, None] - scales[:, None] * step[idx, None]
            fc, ok = _log_mismatch(search, cand.reshape(-1, m))
            fc, ok = fc.reshape(cand.shape), ok.reshape(cand.shape[:2])
            better = ok & (np.abs(fc).max(axis=2) < fn[idx, None])
            hit = better.any(axis=1)
            first = better.argmax(axis=1)[hit]
            roots[idx[hit]] = cand[hit, first]
            f[idx[hit]] = fc[hit, first]
            pending[idx[hit]] = False
        grown = np.maximum(roots.real, -roots.real - p.eta.real).max(axis=1)
        rises = np.where((grown > RE_MAX) & (grown > reach), rises + 1, 0)
        runaway = rises >= RUNAWAY_RISES
        keep = ~pending & ~runaway
        reach = grown
        if not keep.all():
            ledger["halvings_exhausted"] += int(np.count_nonzero(pending))
            ledger["runaway"] += int(np.count_nonzero(runaway))
            live, roots, f, reach, rises = (a[keep] for a in (live, roots, f, reach, rises))
    ledger["iteration_cap"] += len(live)
    return found


def _start_grid(m: int, rng: np.random.Generator, eta: complex) -> np.ndarray:
    """Deterministic multi-start points over the fundamental strip: an (S, m)
    array, S = N_STARTS, or for m = 1 one row per grid point up to N_STARTS."""
    res = np.linspace(-1.0, 1.0, 7)
    ims = np.linspace(-pi / 2 + 0.12, pi / 2, 7)
    singles = [complex(r, i) for r in res for i in ims if abs(sinh(2 * complex(r, i) + eta)) > 1e-3]
    rng.shuffle(singles)
    if m == 1:
        return np.array(singles[:N_STARTS])[:, None]
    picks = [rng.choice(len(singles), size=m, replace=False) for _ in range(N_STARTS)]
    return np.array(singles)[np.array(picks)]


def find_bethe_solutions(
    branch: str,
    M: int,
    p: ModelParams,
    guesses: Sequence[Sequence[complex]] | None = None,
    seed: int = 0,
    ledger: dict | None = None,
) -> list[BetheSolution]:
    """Multi-start damped-Newton search; returns deduplicated verified solutions.

    All starts are solved together as one batch (``_newton_batch``, at most
    80 steps each, fewer for a runaway); each converged start is then
    filtered, deduplicated and verified by the scalar ``bethe_residual`` in
    start order.  With a ``ledger``, every start is counted under how it
    ended (``LEDGER``): in the batch, and then in these filters.

    Roots escaping beyond RE_MAX in real part are discarded: under the
    boundary constraints the equations become asymptotically satisfied as
    Re(lam) grows, producing spurious runaway pseudo-solutions.  This
    filter still decides acceptance; the batch only retires runaways sooner.
    """
    sector = family_sector(branch, M, p.N)
    ledger = Counter() if ledger is None else ledger
    rng = np.random.default_rng(seed)
    if guesses:
        starts = np.asarray(guesses, dtype=complex).reshape(len(guesses), M)
    else:
        starts = _start_grid(M, rng, p.eta)
    found: list[BetheSolution] = []
    seen: list[tuple] = []
    for roots in _newton_batch(branch, starts, p, 80, 1e-13, ledger):
        if roots is None:
            continue
        canon = tuple(sorted((canonical_root(z, p.eta) for z in roots), key=lambda z: (round(z.real, 9), round(z.imag, 9))))
        key = tuple((round(z.real, 8), round(z.imag, 8)) for z in canon)
        if any(abs(z.real) > RE_MAX for z in canon):
            outcome = "re_max"
        elif any(_near_fixed_point(z, p.eta, ROOT_SEP) for z in canon):
            outcome = "fixed_point"
        elif not _separation_ok(canon, p.eta, ROOT_SEP):
            outcome = "separation"
        elif key in seen:
            outcome = "duplicate"
        else:
            res = bethe_residual(branch, canon, p)
            outcome = "residual" if max(res) > BETHE_TOL else "accepted"
        ledger[outcome] += 1
        if outcome == "accepted":
            seen.append(key)
            found.append(BetheSolution(branch=branch, roots=canon, M=M, residuals=tuple(res), sector=sector))
    return found


def branch_eigenvalue(branch: str, mu: complex, roots: Sequence[complex], p: ModelParams) -> complex:
    """Eigenvalue of the family's transfer matrix on its Bethe state.

    Under the boundary constraints both double-row pictures share the
    vertex spectrum, so the plus families carry the same two eigenvalue
    formulas as the minus ones.
    """
    spec = BRANCHES[branch]
    return _lambda1(mu, roots, _pars(p, spec.eig_order), p.xi, p.eta)


def _lambda1(mu: complex, roots, pars, xis, eta: complex) -> complex:
    return sum(_sinh_product(t) for t in _lambda_terms(mu, roots, pars, xis, eta))


def _lambda_terms(mu: complex, roots, pars, xis, eta: complex) -> tuple[list, list]:
    """The two products of Lambda_1 as lists of sinh factors (argument, power +1 or -1)."""
    d, z, db, zb = pars
    t1 = [
        (zb - mu, 1), (db + mu, 1), (d - mu, 1), (2 * mu + 2 * eta, 1),
        (zb - mu - eta, -1), (db - mu - eta, -1), (d + mu, -1), (2 * mu + eta, -1),
    ]
    t2 = [
        (zb + mu + eta, 1), (d + mu + eta, 1), (z - mu - eta, 1), (2 * mu, 1),
        (zb - mu - eta, -1), (d + mu, -1), (z + mu, -1), (2 * mu + eta, -1),
    ]
    for li in roots:
        den = [(mu + li + eta, -1), (mu - li, -1)]
        t1 += [(mu + li, 1), (mu - li - eta, 1), *den]
        t2 += [(mu + li + 2 * eta, 1), (mu - li + eta, 1), *den]
    for xj in xis:
        t1 += [(mu + xj + eta, 1), (mu - xj + eta, 1)]
        t2 += [(mu + xj, 1), (mu - xj, 1)]
    return t1, t2


def _sinh_product(factors) -> complex:
    num = den = 1
    for arg, power in factors:
        if power > 0:
            num *= sinh(arg)
        else:
            den *= sinh(arg)
    if den == 0:
        raise DegenerateParameter("Lambda_1 evaluated at a pole")
    return num / den


def branch_theta(branch: str, p: ModelParams) -> complex:
    """delta - zeta for the minus families, delta_bar - zeta_bar for the plus ones."""
    return p.theta(BRANCHES[branch].side)


def bethe_state(branch: str, solutions: Sequence[BetheSolution], p: ModelParams) -> np.ndarray:
    """The family's creation blocks applied to its reference state
    (unnormalized) for each of ``solutions``, all of one M: a
    (C(N, M), len(solutions)) array packed on the family's sector
    (``family_sector``), one state per column.

    The solutions' roots are the rows of one ``sos.block_strings`` call,
    one gate build for all M root positions, and each state is bit for bit
    the one its solution gives alone (a single solution is a batch of
    one).  Each state keeps its own norm floor; when several fail, the
    NullState raised is that of the first in order.
    """
    spec = BRANCHES[branch]
    theta = branch_theta(branch, p)
    roots = np.array([sol.roots for sol in solutions], dtype=complex)
    # the reference state, packed on its one-state sector
    v, s = [np.ones(1, dtype=complex)] * len(roots), p.N if spec.reference == "up" else -p.N
    # growth of the whole double-row column on each input; a state has
    # collapsed when the creation rows keep almost none of it
    scale = np.ones(len(roots))
    failed = [None] * len(roots)
    for created, other, _ in sos.block_strings(roots, theta, spec.side, spec.creator, p, v, s):
        for i, f in enumerate(failed):
            if f is not None:
                continue
            if not np.any(created[i]):
                failed[i] = "is exactly zero"
            else:
                growth = np.hypot(np.linalg.norm(created[i]), np.linalg.norm(other[i])) / np.linalg.norm(v[i])
                scale[i] *= max(growth, 1e-300)
        v = created
    for i, f in enumerate(failed):
        if f is None and np.linalg.norm(v[i]) <= 1e-10 * scale[i]:
            failed[i] = "collapsed below the norm floor"
    reason = next((f for f in failed if f is not None), None)
    if reason is not None:
        raise NullState(f"{branch} state {reason}")
    return np.stack(v, axis=1)


def vertex_eigenstate(branch: str, psi: np.ndarray, s: int, p: ModelParams) -> np.ndarray:
    """Vertex-picture eigenstates: the gauge row applied, as a gate list, to
    the family's Bethe states ``psi`` (``bethe_state``), a (D,) vector or a
    (D, m) block of states as columns packed on the sector S^z = s: a
    (2^N,) or (2^N, m) array.  Here alone a packed state takes the 2^N
    rows of the sites, zero off its sector.

    The minus families use S_-({xi}; theta, tau); the plus families
    S_+({xi}; theta_bar, tau_bar).  Each column must keep a norm above
    1e-12 times its input norm and the row's scale (NullState otherwise).
    An entry of the row is a product of one entry per site gate, so the
    scale is the product over gates of the largest entry of the gate's
    stack, one block per charge it meets: a bound on the row's largest
    entry without the row.
    """
    side = BRANCHES[branch].side
    theta = branch_theta(branch, p)
    _, _, omega = p.boundary(side)
    gates = sos.gauge_row_gates(theta, omega, side, p)
    full = np.zeros((2**p.N,) + np.shape(psi)[1:], dtype=complex)
    full[tn.sector_states((1,) * p.N, s)] = psi
    v = tn.product(vx.site_legs(p.N), gates, full)
    scale = 1.0
    for stack, _, _ in gates:
        scale *= tn.max_abs(stack)
    if np.any(np.linalg.norm(v, axis=0) <= 1e-12 * np.linalg.norm(full, axis=0) * max(scale, 1.0)):
        raise NullState("vertex image collapsed below the norm floor")
    return v
