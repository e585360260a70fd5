from cmath import sinh

import numpy as np
import pytest

from sosxxz import bethe as bt
from sosxxz import sos
from sosxxz import tensor as tn
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


def _double_row_blocks(lam, theta, side, p):
    """The four 2^N-square blocks A, B, C, D of one dynamical double row,
    each the block string applied to the identity (``sos.block_column``)."""
    eye = np.eye(2**p.N, dtype=complex)
    return {name: sos.block_column(lam, theta, side, name, p, eye)[0] for name in "ABCD"}


@pytest.fixture(scope="session")
def double_row_blocks():
    """``(lam, theta, side, p) -> {"A": ..., "B": ..., "C": ..., "D": ...}``."""
    return _double_row_blocks


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
    """``m -> tr_0 m``: the dense oracle of ``tn.traced_product``."""
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
    """``eps -> None``: afterwards the first ``tn.product`` call perturbs the
    leftmost gate of its list by eps times its largest entry times fixed
    complex Gaussian noise (each block of a dynamical gate's stack by its
    own largest entry).  The first product of a residual is one side of its
    identity, so only that side moves."""
    product = tn.product

    def install(eps):
        calls = []

        def perturbed(legs, gates, x=None):
            if not calls:
                block, on, *rest = gates[0]
                rng = np.random.default_rng(0)
                size = (2 ** len(on),) * 2
                noise = rng.standard_normal(size) + 1j * rng.standard_normal(size)

                scale = np.max(np.abs(block), axis=(-2, -1), keepdims=True)
                gates = [(block + eps * scale * noise, on, *rest), *gates[1:]]
            calls.append(True)
            return product(legs, gates, x)

        monkeypatch.setattr(tn, "product", perturbed)

    return install
