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

from cmath import cosh, log, pi, sinh
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import sos
from . import tensor as tn
from . import vertex as vx
from .errors import BadSector, CollapsedRoots, DegenerateParameter, NoConvergence, NullState
from .params import ModelParams

ROOT_SEP_DEFAULT = 1e-6
BETHE_TOL_DEFAULT = 1e-9


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


def bethe_residual(branch: str, roots: Sequence[complex], p: ModelParams, floor: float = 1e-30) -> list[float]:
    """Per-root residual |y(lam_i) - y(-lam_i - eta)| / max(|y|, floor)."""
    out = []
    for i, lam in enumerate(roots):
        a = bethe_y(branch, lam, roots, i, p)
        b = bethe_y(branch, -lam - p.eta, roots, i, p)
        out.append(abs(a - b) / max(abs(a), abs(b), floor))
    return out


def _log_mismatch(branch: str, roots: np.ndarray, p: ModelParams) -> np.ndarray:
    """log y(lam_i) - log y(-lam_i-eta), imaginary part folded to (-pi, pi]."""
    out = np.empty(len(roots), dtype=complex)
    for i, lam in enumerate(roots):
        a = bethe_y(branch, lam, roots, i, p)
        b = bethe_y(branch, -lam - p.eta, roots, i, p)
        if a == 0 or b == 0 or not np.isfinite(abs(a)) or not np.isfinite(abs(b)):
            raise ZeroDivisionError("y vanished during solve")
        z = log(a) - log(b)
        out[i] = complex(z.real, (z.imag + pi) % (2 * pi) - pi)
    return out


def _dlog_y(branch: str, x: complex, roots: Sequence[complex], i: int, p: ModelParams) -> complex:
    """d/dx log y(x) holding the other roots fixed."""
    d, z, db, zb = _pars(p, BRANCHES[branch].y_order)
    eta = p.eta
    v = _coth(z + x) - _coth(d - x) - _coth(zb - x) + _coth(db + x)
    for k, rk in enumerate(roots):
        if k == i:
            continue
        v += _coth(x + rk) + _coth(x - rk - eta)
    for xj in p.xi:
        v += _coth(x + xj + eta) + _coth(x - xj + eta)
    return v


def _coth(x: complex) -> complex:
    return cosh(x) / sinh(x)


def _jacobian(branch: str, roots: np.ndarray, p: ModelParams) -> np.ndarray:
    eta = p.eta
    m = len(roots)
    jac = np.zeros((m, m), dtype=complex)
    for i, lam in enumerate(roots):
        jac[i, i] = _dlog_y(branch, lam, roots, i, p) + _dlog_y(branch, -lam - eta, roots, i, p)
        for k in range(m):
            if k == i:
                continue
            rk = roots[k]
            jac[i, k] = (_coth(lam + rk) - _coth(lam - rk - eta)) - (
                _coth(-lam - eta + rk) - _coth(-lam - eta - rk - eta)
            )
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


def _newton_solve(branch: str, start: np.ndarray, p: ModelParams, max_iter: int, tol: float):
    roots = start.astype(complex).copy()
    for _ in range(max_iter):
        try:
            f = _log_mismatch(branch, roots, p)
        except (ZeroDivisionError, ValueError, OverflowError):
            return None
        fn = np.max(np.abs(f))
        if fn < tol:
            return roots
        try:
            jac = _jacobian(branch, roots, p)
            step = np.linalg.solve(jac, f)
        except (np.linalg.LinAlgError, ZeroDivisionError, ValueError, OverflowError):
            return None
        # damped update: halve until the mismatch does not grow
        scale = 1.0
        for _ in range(20):
            cand = roots - scale * step
            try:
                fc = np.max(np.abs(_log_mismatch(branch, cand, p)))
            except (ZeroDivisionError, ValueError, OverflowError):
                scale /= 2
                continue
            if fc < fn or scale < 1e-6:
                roots = cand
                break
            scale /= 2
        else:
            return None
    return None


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
    max_iter: int = 80,
    tol: float = BETHE_TOL_DEFAULT,
    n_starts: int = 60,
    seed: int = 0,
    sep_eps: float = ROOT_SEP_DEFAULT,
    re_max: float = 2.5,
) -> list[BetheSolution]:
    """Multi-start damped-Newton search; returns deduplicated verified solutions.

    Roots escaping beyond ``re_max`` in real part are discarded: under the
    boundary constraints the equations become asymptotically satisfied as
    Re(lam) grows, producing spurious runaway pseudo-solutions.
    """
    spec = BRANCHES[branch]
    sector = p.N - 2 * M if spec.sign > 0 else -p.N + 2 * M
    rng = np.random.default_rng(seed)
    starts = [np.asarray(g, dtype=complex) for g in guesses] if guesses else _start_grid(M, rng, n_starts, p.eta)
    found: list[BetheSolution] = []
    seen: list[tuple] = []
    for start in starts:
        roots = _newton_solve(branch, start, p, max_iter, 1e-13)
        if roots is None:
            continue
        canon = tuple(sorted((canonical_root(z, p.eta) for z in roots), key=lambda z: (round(z.real, 9), round(z.imag, 9))))
        if any(abs(z.real) > re_max for z in canon):
            continue
        if any(_near_fixed_point(z, p.eta, sep_eps) for z in canon):
            continue
        if not _separation_ok(canon, p.eta, sep_eps):
            continue
        key = tuple((round(z.real, 8), round(z.imag, 8)) for z in canon)
        if key in seen:
            continue
        res = bethe_residual(branch, canon, p)
        if max(res) > tol:
            continue
        seen.append(key)
        found.append(BetheSolution(branch=branch, roots=canon, M=M, residuals=tuple(res), sector=sector))
    return found


def solve_bethe(
    branch: str,
    M: int,
    p: ModelParams,
    guesses: Sequence[Sequence[complex]] | None = None,
    max_iter: int = 80,
    tol: float = BETHE_TOL_DEFAULT,
    seed: int = 0,
) -> BetheSolution:
    """First verified solution from the multi-start search."""
    sols = find_bethe_solutions(branch, M, p, guesses=guesses, max_iter=max_iter, tol=tol, seed=seed)
    if not sols:
        raise NoConvergence(f"no verified {branch} solution with M = {M}")
    sol = sols[0]
    if not _separation_ok(sol.roots, p.eta, ROOT_SEP_DEFAULT):
        raise CollapsedRoots("roots violate the separation requirement")
    return sol


def eigenvalue_lambda(which: str, mu: complex, roots: Sequence[complex], p: ModelParams) -> complex:
    """Transfer-matrix eigenvalue Lambda_1 (or the swapped Lambda_2)."""
    order = {"L1": "dzDZ", "L2": "zdZD"}[which]
    return _lambda1(mu, roots, _pars(p, order), p.xi, p.eta)


def branch_eigenvalue(branch: str, mu: complex, roots: Sequence[complex], p: ModelParams) -> complex:
    """Eigenvalue of the family's transfer matrix on its Bethe state.

    Under the boundary constraints both double-row pictures share the
    vertex spectrum, so the plus families carry the same two eigenvalue
    formulas as the minus ones.
    """
    spec = BRANCHES[branch]
    return _lambda1(mu, roots, _pars(p, spec.eig_order), p.xi, p.eta)


def _lambda1(mu: complex, roots, pars, xis, eta: complex) -> complex:
    d, z, db, zb = pars
    den = sinh(zb - mu - eta) * sinh(db - mu - eta) * sinh(d + mu) * sinh(2 * mu + eta)
    if abs(den) == 0:
        raise DegenerateParameter("Lambda_1 evaluated at a pole")
    t1 = sinh(zb - mu) * sinh(db + mu) * sinh(d - mu) * sinh(2 * mu + 2 * eta) / den
    for li in roots:
        t1 *= sinh(mu + li) * sinh(mu - li - eta) / (sinh(mu + li + eta) * sinh(mu - li))
    for xj in xis:
        t1 *= sinh(mu + xj + eta) * sinh(mu - xj + eta)
    den2 = sinh(zb - mu - eta) * sinh(d + mu) * sinh(z + mu) * sinh(2 * mu + eta)
    t2 = sinh(zb + mu + eta) * sinh(d + mu + eta) * sinh(z - mu - eta) * sinh(2 * mu) / den2
    for li in roots:
        t2 *= sinh(mu + li + 2 * eta) * sinh(mu - li + eta) / (sinh(mu + li + eta) * sinh(mu - li))
    for xj in xis:
        t2 *= sinh(mu + xj) * sinh(mu - xj)
    return t1 + t2


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


def vertex_eigenstate(
    branch: str,
    solution: BetheSolution,
    p: ModelParams,
    gauge_theta: complex | None = None,
) -> np.ndarray:
    """Vertex-picture eigenstate: the gauge row applied to the Bethe state.

    The minus families use S_-({xi}; theta, tau); the plus families
    S_+({xi}; theta_bar, tau_bar).  ``gauge_theta`` overrides the
    dynamical argument to probe alternative bindings.
    """
    side = BRANCHES[branch].side
    psi = bethe_state(branch, solution, p)
    theta = branch_theta(branch, p) if gauge_theta is None else gauge_theta
    omega = p.tau if side == "minus" else p.tau_bar
    row = sos.gauge_row(theta, omega, side, p)
    v = row.data @ psi
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

    The derivative is taken with a five-point stencil; kappa is the
    identity shift measured by the transfer-matrix reconstruction.
    """
    h = 1e-4

    def lam_at(mu):
        return branch_eigenvalue(branch, mu, solution.roots, p)

    lp = (-lam_at(2 * h) + 8 * lam_at(h) - 8 * lam_at(-h) + lam_at(-2 * h)) / (12 * h)
    return sinh(p.eta) * lp / lam_at(0.0) - kappa
