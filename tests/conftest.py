import numpy as np
import pytest

from sosxxz import bethe as bt
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
