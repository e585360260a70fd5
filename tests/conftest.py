from cmath import cosh, sinh

import numpy as np
import pytest

from sosxxz import bethe as bt
from sosxxz import sos
from sosxxz import tensor as tn
from sosxxz import vertex as vx
from sosxxz.errors import DegenerateParameter
from sosxxz.params import generic_params


@pytest.fixture(scope="session")
def p1():
    return generic_params(1)


@pytest.fixture(scope="session")
def p2():
    return generic_params(2)


@pytest.fixture(scope="session")
def p3():
    return generic_params(3)


@pytest.fixture(scope="session")
def constrained2():
    """N = 2 parameters satisfying the boundary constraints at s = 0."""
    return bt.apply_constraints(generic_params(2), bt.BoundaryConstraint(s=0))


@pytest.fixture(scope="session")
def constrained3():
    """N = 3 parameters satisfying the boundary constraints at s = 1."""
    return bt.apply_constraints(generic_params(3), bt.BoundaryConstraint(s=1))


def _string_and_reversal(pauli, n_sites, n_legs=None):
    """Dense oracle of the chain symmetries on n_legs legs (default n_sites),
    the last n_sites of them sites: the np.kron string of ``pauli`` over the
    sites, and the permutation that reverses the site order (leading legs
    stay in place), built column by column from the basis bits."""
    n_legs = n_sites if n_legs is None else n_legs
    fixed = n_legs - n_sites
    string = np.eye(2**fixed, dtype=complex)
    for _ in range(n_sites):
        string = np.kron(string, pauli)
    d = 2**n_legs
    perm = np.zeros((d, d), dtype=complex)
    for col in range(d):
        bits = [(col >> (n_legs - 1 - j)) & 1 for j in range(n_legs)]
        row = 0
        for b in bits[:fixed] + bits[fixed:][::-1]:
            row = (row << 1) | b
        perm[row, col] = 1.0
    return string, perm


@pytest.fixture(scope="session")
def dense_symmetry():
    """``(pauli, n_sites, n_legs=None) -> (string, reversal)``: the dense
    reference for the gate-list Pauli strings and site relabellings."""
    return _string_and_reversal


def _closed_form_n1(lam, xi, delta, zeta, eta):
    """The N = 1 partition function for the bminus kind in closed form."""
    th = delta - zeta
    return (
        sinh(eta)
        * sinh(th - eta)
        / sinh(th) ** 2
        * (
            sinh(delta - lam) / sinh(delta + lam) * sinh(lam - xi) * sinh(th + lam + xi)
            + sinh(zeta - lam) / sinh(zeta + lam) * sinh(lam + xi) * sinh(th - lam + xi)
        )
    )


@pytest.fixture(scope="session")
def closed_form_n1():
    """``(lam, xi, delta, zeta, eta) -> Z``: the N = 1 oracle of both partition methods."""
    return _closed_form_n1


def _sector_indices(n_sites):
    """Computational-basis indices of the sites per total-sigma^z eigenvalue."""
    sz = np.zeros(2**n_sites, dtype=int)
    for i in range(n_sites):
        sz += 1 - 2 * ((np.arange(2**n_sites) >> i) & 1)
    return {int(s): np.nonzero(sz == s)[0] for s in np.unique(sz)}


@pytest.fixture(scope="session")
def sector_indices():
    """``n_sites -> {S^z: basis indices}``."""
    return _sector_indices


def _chain_identity(p):
    """The identity on p's N sites: the x for which a transfer matrix
    applied to x (``vx.transfer_xxz``, ``_sos_transfer``) is the dense matrix."""
    return np.eye(2**p.N, dtype=complex)


@pytest.fixture(scope="session")
def chain_identity():
    return _chain_identity


def _column_trace(legs, gates, x):
    """tr_0(g_1 ... g_m) @ x[b] for a batch x on the legs after the first:
    row block 0 of auxiliary column 0 plus row block 1 of column 1
    (``tn.column_product``), summed in that order."""
    return tn.column_product(legs, gates, x, 0)[:, 0] + tn.column_product(legs, gates, x, 1)[:, 1]


@pytest.fixture(scope="session")
def column_trace():
    return _column_trace


def _sos_transfer(mu, theta, which, p):
    """The dense 2^N-square height-picture transfer matrix ``which`` at mu:
    the gates of ``sos._transfer_gates``, the dressed K~ first, traced over
    the auxiliary leg by ``_column_trace`` on the explicit identity.  The
    dense oracle of the packed ``sos.sector_transfer``, whose A and D
    blocks it never splits."""
    gates, _ = sos._transfer_gates(np.array([mu], dtype=complex), theta, which, p)
    return _column_trace(vx.chain_legs(p.N), gates, _chain_identity(p)[None])[0]


@pytest.fixture(scope="session")
def sos_transfer():
    """``(mu, theta, which, p) -> T``, dense on the 2^N states of the sites."""
    return _sos_transfer


def _block_column(lam, theta, side, name, p, v, xi=None):
    """Block ``name`` = U[r, c] of the double row U(lam; theta) applied to
    v, and the other block U[1 - r, c] of its column, from its own gate
    build: both auxiliary rows of U(e_c (x) v), applied densely to the
    2^(N+1)-entry vector.  The dense oracle of the packed
    ``sos.block_strings``; v is a (2^N,) vector or a (2^N, m) matrix, so the
    identity gives the blocks themselves.

    An array of B values of lam (and optionally a (B, N) ``xi``, as in
    ``sos.dyn_monodromy_gates``) applies B blocks in one batched product, v
    then (B, 2^N) or (B, 2^N, m), one input per block.
    """
    gates = sos.dyn_double_row_gates(lam, theta, side, p, xi)
    lead = np.shape(v)[:1] if np.ndim(lam) else ()
    shape = np.shape(v)[len(lead) :]
    r, c = sos._BLOCK_INDEX[side][name]
    x = np.zeros(lead + (2,) + shape, dtype=complex)
    x[(slice(None),) * len(lead) + (c,)] = v
    y = tn.product(vx.chain_legs(p.N), gates, x.reshape(lead + (-1,) + shape[1:]), batch=bool(lead)).reshape(x.shape)
    at = (slice(None),) * len(lead)
    return y[at + (r,)], y[at + (1 - r,)]


@pytest.fixture(scope="session")
def block_column():
    """``(lam, theta, side, name, p, v, xi=None) -> (applied, other)``."""
    return _block_column


def _sector_column(lam, theta, side, name, p, v, s, xi=None):
    """Block ``name`` of the double row U(lam; theta) applied to the vector
    v packed on the sites' sector S^z = s, and the other block of its
    column, both packed, from its own gate build as a batch of one: the
    single-block oracle of ``sos.block_strings`` bit for bit, whose values
    ``_block_column`` checks to rounding."""
    gates = sos.dyn_double_row_gates(np.array([lam], dtype=complex), theta, side, p, None if xi is None else [xi])
    applied, other = sos.sector_block_column(gates, side, name, p.N, np.asarray(v)[None], s)
    return applied[0], other[0]


@pytest.fixture(scope="session")
def sector_column():
    """``(lam, theta, side, name, p, v, s, xi=None) -> (applied, other)``, packed."""
    return _sector_column


def _unpack(n, s, v):
    """The 2^n-entry vector (or 2^n-row array) of v packed on the sites' sector S^z = s."""
    full = np.zeros((2**n,) + np.shape(v)[1:], dtype=complex)
    full[tn.sector_states((1,) * n, s)] = v
    return full


@pytest.fixture(scope="session")
def unpack():
    """``(n, s, v) -> the full vector of v packed on sector s``."""
    return _unpack


def _double_row_blocks(lam, theta, side, p):
    """The four 2^N-square blocks A, B, C, D of one dynamical double row,
    each the block applied to the identity (``_block_column``)."""
    eye = np.eye(2**p.N, dtype=complex)
    return {name: _block_column(lam, theta, side, name, p, eye)[0] for name in "ABCD"}


@pytest.fixture(scope="session")
def double_row_blocks():
    """``(lam, theta, side, p) -> {"A": ..., "B": ..., "C": ..., "D": ...}``."""
    return _double_row_blocks


def _commutation_alone(l1, l2, p, left):
    """One exchange relation evaluated on its own, A_- ("A") or D-tilde_-
    ("D") past B_- at theta = delta - zeta: six block strings, each built
    from its own double row (``_block_column``), none shared with the
    other relation."""
    eta = p.eta
    theta = p.theta("minus")

    def blocks(lam, v):
        a, _ = _block_column(lam, theta, "minus", "A", p, v)
        d, b = _block_column(lam, theta, "minus", "D", p, v)
        return a, b, sos._d_tilde(lam, theta, p, {"A": a, "D": d})

    def b2(v):
        return _block_column(l2, theta, "minus", "B", p, v)[0]

    per_sz = lambda fn: sos._per_sz(p.N, fn)
    x = tn.probe_block(p.N)
    a2x, b2x, dt2x = blocks(l2, x)
    (a1x, a1b2x), _, (dt1x, dt1b2x) = (np.hsplit(m, 2) for m in blocks(l1, np.hstack([x, b2x])))
    b1a2x, b1dt2x = np.hsplit(_block_column(l1, theta, "minus", "B", p, np.hstack([a2x, dt2x]))[0], 2)
    lb, lm = l1 + l2, l1 - l2
    if left == "A":
        c1 = per_sz(lambda s: -sinh(eta) * sinh(theta - eta * s - 2 * eta - lb) / (sinh(theta - eta * s - eta) * sinh(lb + eta)))
        c2 = sinh(lb) * sinh(lm - eta) / (sinh(lm) * sinh(lb + eta))
        c3 = per_sz(lambda s: -sinh(eta) * sinh(2 * l2) * sinh(lm - theta + eta * s + eta) / (sinh(theta - eta * s - eta) * sinh(lm) * sinh(2 * l2 + eta)))
        return tn.rel_residual(a1b2x, c1 * b1dt2x + c2 * b2(a1x) + c3 * b1a2x)
    d1 = per_sz(lambda s: sinh(lb + theta - eta * s)
        / sinh(theta - eta * s - eta)
        * sinh(eta) * sinh(2 * l2) * sinh(2 * l1 + 2 * eta)
        / (sinh(lb + eta) * sinh(2 * l1 + eta) * sinh(2 * l2 + eta)))
    d2 = sinh(lm + eta) * sinh(lb + 2 * eta) / (sinh(lm) * sinh(lb + eta))
    d3 = per_sz(lambda s: -sinh(eta) * sinh(2 * (l1 + eta)) * sinh(lm + theta - eta * s - eta)
        / (sinh(lm) * sinh(2 * l1 + eta) * sinh(theta - eta * s - eta)))
    return tn.rel_residual(dt1b2x, d1 * b1a2x + d2 * b2(dt1x) + d3 * b1dt2x)


@pytest.fixture(scope="session")
def commutation_alone():
    """``(l1, l2, p, left) -> residual`` of one exchange relation on its own."""
    return _commutation_alone


def _gauge_row(theta, omega, side, p):
    """The dense gauge row S_-({xi}; theta) or S_+({xi}; theta) on the sites,
    entry by entry: entry (out, in) is the product over sites k of
    S(xi_k; theta + eta c_k)[out_k, in_k], with c_k = -sum_{i>k} sz_i
    ("minus") or +sum_{i<k} sz_i ("plus") of the input configuration, which
    every factor reads before the factors that act on those sites."""
    n, d = p.N, 2**p.N
    bits = (np.arange(d)[:, None] >> (n - 1 - np.arange(n))) & 1
    sz = 1 - 2 * bits
    row = np.ones((d, d), dtype=complex)
    for k in range(n):
        charge = -sz[:, k + 1 :].sum(axis=1) if side == "minus" else sz[:, :k].sum(axis=1)
        for col in range(d):
            s = sos.gauge_s2(p.xi[k], theta + p.eta * int(charge[col]), omega, p.eps_pole)
            row[:, col] *= s[bits[:, k], bits[col, k]]
    return row


@pytest.fixture(scope="session")
def gauge_row():
    """``(theta, omega, side, p) -> S``: the dense oracle of ``sos.gauge_row_gates``."""
    return _gauge_row


def _aux_trace(m):
    """np.trace of a dense 2d-square matrix over its first (auxiliary) leg."""
    d = len(m) // 2
    return np.trace(np.asarray(m).reshape(2, d, 2, d), axis1=0, axis2=2)


@pytest.fixture(scope="session")
def aux_trace():
    """``m -> tr_0 m``: the dense oracle of ``column_trace``."""
    return _aux_trace


def _within_10x(a: float, b: float) -> bool:
    """Two residuals agree within 10x either way, both floored at the
    double-precision epsilon, below which a residual is rounding alone."""
    eps = np.finfo(float).eps
    a, b = max(a, eps), max(b, eps)
    return a <= 10 * b and b <= 10 * a


@pytest.fixture(scope="session")
def within_10x():
    return _within_10x


@pytest.fixture
def whole_identity(monkeypatch):
    """``run -> (probe, whole)``: ``run()`` on the seeded probe block, and
    ``run()`` again with the identity in its place, which gives the residual
    of the whole operators (the dense oracle of every probe residual).  It
    fails unless the two agree within 10x (``within_10x``)."""
    probe_block = tn.probe_block

    def both(run):
        used = []

        def identity(nlegs):
            used.append(nlegs)
            return np.eye(2**nlegs, dtype=complex)

        probe = run()
        monkeypatch.setattr(tn, "probe_block", identity)
        try:
            whole = run()
        finally:
            monkeypatch.setattr(tn, "probe_block", probe_block)
        assert used, "the residual never read the probe block"
        assert _within_10x(probe, whole), (probe, whole)
        return probe, whole

    return both


@pytest.fixture
def perturb_first_product(monkeypatch):
    """``(eps, at=0, kernel="product") -> None``: afterwards the first
    ``tn.product`` call (or call number ``at``, counted from 0) perturbs the
    leftmost gate of its list by eps times its largest entry times fixed
    complex Gaussian noise (each block of a dynamical gate's stack by its
    own largest entry).  The first product of a residual is one side of its
    identity, so only that side moves.  With kernel "sector_product" the
    packed kernel's calls are counted instead, and only the entries the
    block holds move: a charge-breaking one is refused."""

    def install(eps, at=0, kernel="product"):
        calls = []
        product = getattr(tn, kernel)

        def perturbed(legs, gates, *args, **kw):
            if len(calls) == at:
                block, on, *rest = gates[0]
                rng = np.random.default_rng(0)
                size = (2 ** len(on),) * 2
                noise = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                if kernel == "sector_product":
                    noise = noise * (block != 0)
                scale = np.max(np.abs(block), axis=(-2, -1), keepdims=True)
                gates = [(block + eps * scale * noise, on, *rest), *gates[1:]]
            calls.append(True)
            return product(legs, gates, *args, **kw)

        monkeypatch.setattr(tn, kernel, perturbed)

    return install



@pytest.fixture(scope="session")
def d_dz():
    """``(f, z0, r, k) -> f'(z0)`` by the trapezoid rule on the circle
    |z - z0| = r with k nodes: sum_j f(z0 + r w^j) w^(-j) / (k r),
    w = e^(2 pi i / k).  For f analytic within radius R of z0 the error
    falls like (r / R)^k; ``f`` may return a scalar or an array."""

    def derivative(f, z0, r, k):
        w = np.exp(2j * np.pi * np.arange(k) / k)
        return sum(f(z0 + r * wj) / wj for wj in w) / (k * r)

    return derivative


@pytest.fixture(scope="session")
def hamiltonian_direct():
    """``p -> H``: the open XXZ Hamiltonian with general non-diagonal
    boundary fields, built term by term.

    This is the conserved charge produced by the transfer-matrix
    derivative for the K-matrices used here: site 1 couples to the barred
    (K_+) parameters with +cosh(zeta_bar) cosh(delta_bar) sigma^z +
    sinh(tau_bar) sigma^x - i cosh(tau_bar) sigma^y, site N to the unbarred
    (K_-) ones with the opposite signs on all three terms; that derivative
    fixes the sign pattern.  Raises DegenerateParameter if sinh(zeta)
    sinh(delta) or its barred partner is within eps_pole of zero, or if an
    entry is not finite.
    """

    def build(p):
        N, eta = p.N, p.eta
        legs = vx.site_legs(N)
        bond = np.kron(tn.SX, tn.SX) + np.kron(tn.SY, tn.SY) + cosh(eta) * np.kron(tn.SZ, tn.SZ)
        h = sum(tn.product(legs, [(bond, (f"s{i}", f"s{i + 1}"))], _chain_identity(p)) for i in range(1, N))

        def boundary_term(delta, zeta, tau, leg, z_sign, xy_sign):
            sz, sd = sinh(zeta), sinh(delta)
            if abs(sz) <= p.eps_pole or abs(sd) <= p.eps_pole:
                raise DegenerateParameter(f"boundary field on {leg}: sinh(zeta) sinh(delta) vanishes")
            pref = sinh(eta) / (sz * sd)
            m = z_sign * cosh(zeta) * cosh(delta) * tn.SZ + xy_sign * (
                sinh(tau) * tn.SX - 1j * cosh(tau) * tn.SY
            )
            return tn.product(legs, [(pref * m, (leg,))], _chain_identity(p))

        h = h + boundary_term(*p.boundary("plus"), "s1", +1, +1)
        h = h + boundary_term(*p.boundary("minus"), f"s{N}", -1, -1)
        return tn.require_finite(h)

    return build


@pytest.fixture(scope="session")
def hamiltonian(d_dz, hamiltonian_direct):
    """``p -> (H_candidate, kappa)`` for a homogeneous chain (every xi_m = 0):
    the Hamiltonian reconstructed from the transfer matrix at the origin,
    with its identity shift.

    H_candidate = sinh(eta) T'(0) / T(0), with T the transfer matrix
    ``vertex.transfer_xxz`` (both trace forms), T' its contour derivative
    (r = 0.1, 32 nodes) and T(0) = sinh(eta)^(2N) tr K_+(0), a multiple of
    the identity.  kappa is the mean diagonal entry of H_candidate -
    H_direct; the caller checks that the difference is kappa times the
    identity.
    """

    def reconstruct(p):
        t0 = sinh(p.eta) ** (2 * p.N) * complex(np.trace(vx.k2(0, "plus", p)))
        h_cand = tn.require_finite(sinh(p.eta) / t0 * d_dz(lambda z: vx.transfer_xxz(z, p, _chain_identity(p)), 0, 0.1, 32))
        diff = h_cand - hamiltonian_direct(p)
        return h_cand, complex(np.trace(diff) / diff.shape[0])

    return reconstruct


@pytest.fixture(scope="session")
def hamiltonian_energy(d_dz):
    """``(branch, solution, p, kappa) -> E``: the Hamiltonian eigenvalue
    sinh(eta) Lambda'(0) / Lambda(0) - kappa of a Bethe solution, with
    Lambda = ``bethe.branch_eigenvalue`` and Lambda' its contour derivative
    (r = 0.05, 32 nodes); kappa is the identity shift of ``hamiltonian``."""

    def eigenvalue(branch, solution, p, kappa):
        def lam(mu):
            return bt.branch_eigenvalue(branch, mu, solution.roots, p)

        return sinh(p.eta) * d_dz(lam, 0, 0.05, 32) / lam(0) - kappa

    return eigenvalue


def _c1(p):
    return -8 * sinh(p.delta) * sinh(p.delta_bar - p.eta) * sinh(p.zeta) * sinh(p.zeta_bar - p.eta)


@pytest.fixture(scope="session")
def c1():
    """``p -> c1``: the normalization of the conventional energy formula."""
    return _c1


@pytest.fixture(scope="session")
def energy():
    """``(solution, p) -> E``: the conventional energy formula, per-root terms
    plus an extensive constant,

    E = sum_j c1 sinh(eta) / (sinh(lam_j + eta) sinh(lam_j)) + c1 N coth(eta).

    This formula carries its own normalization; ``hamiltonian_energy``
    gives the eigenvalue of the Hamiltonian as built here.
    """

    def formula(solution, p):
        c1v = _c1(p)
        e = c1v * p.N * cosh(p.eta) / sinh(p.eta)
        for lam in solution.roots:
            if abs(sinh(lam)) <= p.eps_pole or abs(sinh(lam + p.eta)) <= p.eps_pole:
                raise DegenerateParameter("energy summand at a pole")
            e += c1v * sinh(p.eta) / (sinh(lam + p.eta) * sinh(lam))
        return e

    return formula
