"""Bethe equations, root solver, eigenvalues, and eigenstate construction.

Four state families exist, built from the creation-type blocks of the two
double-row matrices acting on the all-up or all-down reference state:

    b1:  B_-(lam_1; th) ... B_-(lam_M; th) |0>       M = (N - s)/2
    b2:  C_-(lam_1; th) ... C_-(lam_M; th) |0bar>    M = (N + s)/2
    p1:  B_+(lam_1; tb) ... B_+(lam_M; tb) |0>       M = (N - s)/2
    p2:  C_+(lam_1; tb) ... C_+(lam_M; tb) |0bar>    M = (N + s)/2

with th = delta - zeta and tb = delta_bar - zeta_bar.  Under the boundary
constraints the vertex images (gauge row applied) are transfer-matrix
eigenstates, all four families giving the same states.
"""

from __future__ import annotations

from cmath import cosh, pi, sinh
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


def apply_constraints(p: ModelParams, c: BoundaryConstraint) -> ModelParams:
    """Impose the boundary constraints solving both cosh conditions.

    Sets tau_bar = tau + eta + i pi n and delta_bar = zeta_bar + delta -
    zeta - eta s + i pi n + 2 i pi m, keeping zeta_bar free.  The i pi n
    piece in delta_bar is required for odd n: without it the two cosh
    conditions pick up a (-1)^n mismatch.
    """
    if (p.N - c.s) % 2 != 0:
        raise BadSector(f"N - s = {p.N - c.s} must be even")
    if abs(c.s) >= p.N:
        raise BadSector(f"sector |s| = {abs(c.s)} must be < N = {p.N}")
    return p.replace(
        tau_bar=p.tau + p.eta + 1j * pi * c.n,
        delta_bar=p.zeta_bar + p.delta - p.zeta - p.eta * c.s + 1j * pi * c.n + 2j * pi * c.m,
    )


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


def _y_pair(branch: str, roots: np.ndarray, p: ModelParams) -> np.ndarray:
    """y(lam_i) and y(-lam_i-eta) for an (S, M) array of S starts, shape (2, S, M).

    Each entry holds the other roots of its own start fixed, as bethe_y does
    with i given: the self factor k = i is masked out of the root product.
    """
    d, z, db, zb = _pars(p, BRANCHES[branch].y_order)
    eta = p.eta
    x = np.stack([roots, -roots - eta])
    col = x[..., None]
    others = roots[None, :, None, :]
    xis = np.asarray(p.xi, dtype=complex)
    pairs = np.where(np.eye(roots.shape[1], dtype=bool), 1, np.sinh(col + others) * np.sinh(col - others - eta))
    v = np.sinh(z + x) * np.sinh(d - x) * np.sinh(zb - x) * np.sinh(db + x)
    v = v * np.prod(pairs, axis=-1)
    return v * np.prod(np.sinh(col + xis + eta) * np.sinh(col - xis + eta), axis=-1)


def _log_mismatch(branch: str, roots: np.ndarray, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """log y(lam_i) - log y(-lam_i-eta) per start and root, imaginary part
    folded to (-pi, pi], and per start whether every y is nonzero and finite."""
    with np.errstate(all="ignore"):
        a, b = _y_pair(branch, roots, p)
        ok = np.all((a != 0) & (b != 0) & np.isfinite(np.abs(a)) & np.isfinite(np.abs(b)), axis=1)
        f = np.log(a) - np.log(b)
        f.imag = np.mod(f.imag + pi, 2 * pi) - pi
    return f, ok


def _coth(x: np.ndarray) -> np.ndarray:
    return 1 / np.tanh(x)


def _jacobian(branch: str, roots: np.ndarray, p: ModelParams) -> np.ndarray:
    """d mismatch_i / d lam_k for an (S, M) array of starts, shape (S, M, M)."""
    d, z, db, zb = _pars(p, BRANCHES[branch].y_order)
    eta = p.eta
    diag = np.arange(roots.shape[1])
    x = np.stack([roots, -roots - eta])
    col = x[..., None]
    others = roots[None, :, None, :]
    xis = np.asarray(p.xi, dtype=complex)
    with np.errstate(all="ignore"):
        plus = _coth(col + others)
        minus = _coth(col - others - eta)
        plus[..., diag, diag] = 0
        minus[..., diag, diag] = 0
        # d/dx log y(x) at both arguments, holding the other roots fixed
        dlog = (
            _coth(z + x) - _coth(d - x) - _coth(zb - x) + _coth(db + x)
            + (plus + minus).sum(axis=-1)
            + (_coth(col + xis + eta) + _coth(col - xis + eta)).sum(axis=-1)
        )
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


def _newton_step(branch: str, roots: np.ndarray, f: np.ndarray, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps J^-1 f for every start, and per start whether its
    Jacobian was finite and nonsingular."""
    jac = _jacobian(branch, roots, p)
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


def _newton_batch(branch: str, starts: np.ndarray, p: ModelParams, max_iter: int, tol: float) -> list:
    """Damped Newton on an (S, M) array of starts at once.

    Returns, per start, its converged roots or None.  A start leaves the
    batch when its largest mismatch is below ``tol``; it is dropped when a
    y vanishes or is not finite, when its Jacobian is not finite or is
    singular, when 20 halvings of its step give no decrease, or after
    ``max_iter`` steps.
    """
    found = [None] * len(starts)
    live = np.arange(len(starts))
    roots = starts.astype(complex)
    f, ok = _log_mismatch(branch, roots, p)
    live, roots, f = live[ok], roots[ok], f[ok]
    for _ in range(max_iter):
        if not len(live):
            break
        fn = np.abs(f).max(axis=1)
        done = fn < tol
        for k, r in zip(live[done], roots[done]):
            found[k] = r
        live, roots, f, fn = (a[~done] for a in (live, roots, f, fn))
        step, ok = _newton_step(branch, roots, f, p)
        live, roots, f, fn, step = (a[ok] for a in (live, roots, f, fn, step))
        # damped update: each start halves its own step until its mismatch decreases
        pending = np.ones(len(live), dtype=bool)
        scale = 1.0
        for _ in range(20):
            idx = np.flatnonzero(pending)
            if not len(idx):
                break
            cand = roots[idx] - scale * step[idx]
            fc, ok = _log_mismatch(branch, cand, p)
            better = ok & (np.abs(fc).max(axis=1) < fn[idx])
            roots[idx[better]] = cand[better]
            f[idx[better]] = fc[better]
            pending[idx[better]] = False
            scale /= 2
        live, roots, f = live[~pending], roots[~pending], f[~pending]
    return found


def _start_grid(m: int, rng: np.random.Generator, n_starts: int, eta: complex) -> list[np.ndarray]:
    """Deterministic multi-start points over the fundamental strip."""
    res = np.linspace(-1.0, 1.0, 7)
    ims = np.linspace(-pi / 2 + 0.12, pi / 2, 7)
    singles = [complex(r, i) for r in res for i in ims if abs(sinh(2 * complex(r, i) + eta)) > 1e-3]
    rng.shuffle(singles)
    starts = []
    if m == 1:
        starts = [np.array([z]) for z in singles]
    else:
        for _ in range(n_starts * 4):
            pick = rng.choice(len(singles), size=m, replace=False)
            starts.append(np.array([singles[int(k)] for k in pick]))
    return starts[: max(n_starts, 1)]


def find_bethe_solutions(
    branch: str,
    M: int,
    p: ModelParams,
    guesses: Sequence[Sequence[complex]] | None = None,
    n_starts: int = 60,
    seed: int = 0,
) -> list[BetheSolution]:
    """Multi-start damped-Newton search; returns deduplicated verified solutions.

    All starts are solved together as one batch (``_newton_batch``, at most
    80 steps each); each converged start is then filtered, deduplicated and
    verified by the scalar ``bethe_residual`` in start order.

    Roots escaping beyond RE_MAX in real part are discarded: under the
    boundary constraints the equations become asymptotically satisfied as
    Re(lam) grows, producing spurious runaway pseudo-solutions.
    """
    if M < 1:
        raise ConfigError(f"M = {M} Bethe roots; a Bethe state needs at least one")
    spec = BRANCHES[branch]
    sector = p.N - 2 * M if spec.sign > 0 else -p.N + 2 * M
    rng = np.random.default_rng(seed)
    starts = list(guesses) if guesses else _start_grid(M, rng, n_starts, p.eta)
    starts = np.asarray(starts, dtype=complex).reshape(len(starts), M)
    found: list[BetheSolution] = []
    seen: list[tuple] = []
    for roots in _newton_batch(branch, starts, p, 80, 1e-13):
        if roots is None:
            continue
        canon = tuple(sorted((canonical_root(z, p.eta) for z in roots), key=lambda z: (round(z.real, 9), round(z.imag, 9))))
        if any(abs(z.real) > RE_MAX for z in canon):
            continue
        if any(_near_fixed_point(z, p.eta, ROOT_SEP) for z in canon):
            continue
        if not _separation_ok(canon, p.eta, ROOT_SEP):
            continue
        key = tuple((round(z.real, 8), round(z.imag, 8)) for z in canon)
        if key in seen:
            continue
        res = bethe_residual(branch, canon, p)
        if max(res) > BETHE_TOL:
            continue
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
    """The two products of Lambda_1 as lists of sinh factors
    (argument, d argument / d mu, power +1 or -1)."""
    d, z, db, zb = pars
    t1 = [
        (zb - mu, -1, 1), (db + mu, 1, 1), (d - mu, -1, 1), (2 * mu + 2 * eta, 2, 1),
        (zb - mu - eta, -1, -1), (db - mu - eta, -1, -1), (d + mu, 1, -1), (2 * mu + eta, 2, -1),
    ]
    t2 = [
        (zb + mu + eta, 1, 1), (d + mu + eta, 1, 1), (z - mu - eta, -1, 1), (2 * mu, 2, 1),
        (zb - mu - eta, -1, -1), (d + mu, 1, -1), (z + mu, 1, -1), (2 * mu + eta, 2, -1),
    ]
    for li in roots:
        den = [(mu + li + eta, 1, -1), (mu - li, 1, -1)]
        t1 += [(mu + li, 1, 1), (mu - li - eta, 1, 1), *den]
        t2 += [(mu + li + 2 * eta, 1, 1), (mu - li + eta, 1, 1), *den]
    for xj in xis:
        t1 += [(mu + xj + eta, 1, 1), (mu - xj + eta, 1, 1)]
        t2 += [(mu + xj, 1, 1), (mu - xj, 1, 1)]
    return t1, t2


def _sinh_product(factors) -> complex:
    num = den = 1
    for arg, _, power in factors:
        if power > 0:
            num *= sinh(arg)
        else:
            den *= sinh(arg)
    if den == 0:
        raise DegenerateParameter("Lambda_1 evaluated at a pole")
    return num / den


def _sinh_product_derivative(factors) -> complex:
    """d/dmu of a sinh product: the product times the coth sum
    sum power * slope * coth(argument), or, where a numerator factor
    vanishes, that factor's derivative times the rest."""
    zeros = [k for k, (arg, _, power) in enumerate(factors) if power > 0 and sinh(arg) == 0]
    if len(zeros) > 1:
        return 0j
    if zeros:
        arg, slope, _ = factors[zeros[0]]
        return slope * cosh(arg) * _sinh_product(factors[: zeros[0]] + factors[zeros[0] + 1 :])
    return _sinh_product(factors) * sum(power * slope * cosh(arg) / sinh(arg) for arg, slope, power in factors)


def branch_theta(branch: str, p: ModelParams) -> complex:
    """delta - zeta for the minus families, delta_bar - zeta_bar for the plus ones."""
    return p.delta - p.zeta if BRANCHES[branch].side == "minus" else p.delta_bar - p.zeta_bar


def bethe_state(branch: str, solution: BetheSolution, p: ModelParams) -> np.ndarray:
    """Apply the family's creation blocks to its reference state (unnormalized)."""
    spec = BRANCHES[branch]
    theta = branch_theta(branch, p)
    v = tn.all_up(p.N) if spec.reference == "up" else tn.all_down(p.N)
    # growth of the whole double-row column on each input; the state has
    # collapsed when the creation rows keep almost none of it
    scale = 1.0
    for lam in reversed(solution.roots):
        created, other = sos.block_column(lam, theta, spec.side, spec.creator, p, v)
        if not np.any(created):
            raise NullState(f"{branch} state is exactly zero")
        scale *= max(np.hypot(np.linalg.norm(created), np.linalg.norm(other)) / np.linalg.norm(v), 1e-300)
        v = created
    if np.linalg.norm(v) <= 1e-10 * max(scale, 1.0):
        raise NullState(f"{branch} state collapsed below the norm floor")
    return v


def vertex_eigenstate(branch: str, solution: BetheSolution, p: ModelParams) -> np.ndarray:
    """Vertex-picture eigenstate: the gauge row applied to the Bethe state.

    The minus families use S_-({xi}; theta, tau); the plus families
    S_+({xi}; theta_bar, tau_bar).
    """
    side = BRANCHES[branch].side
    psi = bethe_state(branch, solution, p)
    theta = branch_theta(branch, p)
    omega = p.tau if side == "minus" else p.tau_bar
    row = sos.gauge_row(theta, omega, side, p)
    v = row @ psi
    if np.linalg.norm(v) <= 1e-12 * np.linalg.norm(psi) * max(tn.max_abs(row), 1.0):
        raise NullState("vertex image collapsed below the norm floor")
    return v


def energy(solution: BetheSolution, p: ModelParams) -> complex:
    """Conventional energy formula: per-root terms plus an extensive constant.

    E = sum_j c1 sinh(eta) / (sinh(lam_j + eta) sinh(lam_j)) + c1 N coth(eta).
    This formula carries its own normalization; hamiltonian_energy gives
    the eigenvalue of the Hamiltonian as built here.
    """
    c1v = vx.c1(p)
    e = c1v * p.N * cosh(p.eta) / sinh(p.eta)
    for lam in solution.roots:
        if abs(sinh(lam)) <= p.eps_pole or abs(sinh(lam + p.eta)) <= p.eps_pole:
            raise DegenerateParameter("energy summand at a pole")
        e += c1v * sinh(p.eta) / (sinh(lam + p.eta) * sinh(lam))
    return e


def hamiltonian_energy(branch: str, solution: BetheSolution, p: ModelParams, kappa: complex) -> complex:
    """Hamiltonian eigenvalue sinh(eta) Lambda'(0)/Lambda(0) - kappa.

    Lambda' is the analytic derivative of the two products of Lambda
    (``_lambda_terms``); kappa is the identity shift measured by the
    transfer-matrix reconstruction.
    """
    lam = branch_eigenvalue(branch, 0.0, solution.roots, p)
    terms = _lambda_terms(0.0, solution.roots, _pars(p, BRANCHES[branch].eig_order), p.xi, p.eta)
    dlam = sum(_sinh_product_derivative(t) for t in terms)
    return sinh(p.eta) * dlam / lam - kappa
