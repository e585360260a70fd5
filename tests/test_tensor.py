import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosxxz import tensor as tn
from sosxxz.errors import UnknownLeg


def finite_complex(mag=3.0):
    part = st.floats(-mag, mag, allow_nan=False, allow_infinity=False)
    return st.builds(complex, part, part)


def mat2(mag=3.0):
    return st.lists(finite_complex(mag), min_size=4, max_size=4).map(
        lambda v: np.array(v, dtype=complex).reshape(2, 2)
    )


def test_tensor_product_identities():
    i2 = tn.identity(("a",))
    i4 = tn.tensor_product(i2, tn.identity(("b",)))
    assert np.allclose(i4.data, np.eye(4))
    zi = tn.tensor_product(tn.on(tn.SZ, ("a",)), tn.identity(("b",)))
    assert zi.data[0, 0] == 1
    assert zi.data[2, 2] == -1


@settings(max_examples=30, deadline=None)
@given(mat2(), mat2(), mat2(), mat2())
def test_mixed_product_property(a, b, c, d):
    lhs = tn.tensor_product(tn.on(a, ("x",)), tn.on(b, ("y",))) @ tn.tensor_product(
        tn.on(c, ("x",)), tn.on(d, ("y",))
    )
    rhs = tn.tensor_product(tn.on(a @ c, ("x",)), tn.on(b @ d, ("y",)))
    bound = 1e-13 * max(tn.max_abs(a), 1) * max(tn.max_abs(b), 1) * max(tn.max_abs(c), 1) * max(tn.max_abs(d), 1)
    assert tn.max_abs(lhs.data - rhs.data) < max(bound, 1e-13)


def test_embed_single_site():
    full = ("s1", "s2")
    e = tn.embed(tn.on(tn.SX, ("s1",)), full)
    assert np.allclose(e.data, np.kron(tn.SX, np.eye(2)))


def test_embed_disjoint_supports_commute():
    rng = np.random.default_rng(0)
    full = ("s1", "s2", "s3")
    x = tn.embed(tn.on(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), ("s1",)), full)
    y = tn.embed(tn.on(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), ("s3",)), full)
    assert tn.max_abs((x @ y - y @ x).data) < 1e-13


def test_embed_middle_leg_permutation_oracle():
    # embedding on (first, last) of three legs must equal conjugating the
    # direct kron (R x Id) by the permutation swapping legs 2 and 3
    rng = np.random.default_rng(1)
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = ("a", "s1", "s2")
    emb = tn.embed(tn.on(r, ("a", "s2")), full)
    perm = np.eye(8)[[0, 2, 1, 3, 4, 6, 5, 7]]  # swap the two site legs
    direct = perm @ np.kron(r.reshape(2, 2, 2, 2).transpose(0, 1, 2, 3).reshape(4, 4), np.eye(2))
    # (R on legs 1,3) = P23 (R on legs 1,2 (x) Id) P23
    direct = perm @ np.kron(r, np.eye(2)) @ perm
    assert np.allclose(emb.data, direct)


def test_embed_unknown_leg():
    with pytest.raises(UnknownLeg):
        tn.embed(tn.on(tn.SX, ("q",)), ("s1", "s2"))


@pytest.mark.parametrize("n", [2, 3])
def test_embed_preserves_spectrum(n):
    rng = np.random.default_rng(2)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    full = tuple(f"s{i}" for i in range(n))
    emb = tn.embed(tn.on(m, ("s0",)), full)
    small = np.sort_complex(np.linalg.eigvals(m))
    big = np.sort_complex(np.linalg.eigvals(emb.data))
    expect = np.sort_complex(np.repeat(small, 2 ** (n - 1)))
    assert np.max(np.abs(big - expect)) < 1e-10


def test_partial_transpose_involution():
    rng = np.random.default_rng(3)
    op = tn.on(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), ("a", "b", "c"))
    twice = tn.partial_transpose(tn.partial_transpose(op, "b"), "b")
    assert np.array_equal(twice.data, op.data)


def test_partial_trace_identity_and_product():
    i4 = tn.identity(("a", "b"))
    tr = tn.partial_trace(i4, "a")
    assert np.allclose(tr.data, 2 * np.eye(2))
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    prod = tn.tensor_product(tn.on(a, ("a",)), tn.on(b, ("b",)))
    tr = tn.partial_trace(prod, "a")
    assert tn.max_abs(tr.data - np.trace(a) * b) < 1e-13


def test_partial_trace_transpose_invariant():
    rng = np.random.default_rng(5)
    op = tn.on(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), ("a", "b", "c"))
    direct = tn.partial_trace(op, "b")
    via = tn.partial_trace(tn.partial_transpose(op, "b"), "b")
    assert tn.max_abs(direct.data - via.data) < 1e-14


def test_partial_ops_unknown_leg():
    op = tn.identity(("a", "b"))
    with pytest.raises(UnknownLeg):
        tn.partial_transpose(op, "q")
    with pytest.raises(UnknownLeg):
        tn.partial_trace(op, "q")


def test_charge_resolved_matches_column_diag():
    full = ("a", "s1", "s2")
    vals = tn.sz_sum(full, ("s1", "s2"))
    built = tn.charge_resolved(full, [("s1", 1), ("s2", 1)], ("s2",), lambda c: np.eye(2) * complex(c))
    assert np.allclose(built.data, np.diag(vals.astype(complex)))


def test_operator_rejects_nonfinite():
    with pytest.raises(ValueError):
        tn.on(np.array([[np.nan, 0], [0, 1]]), ("a",))
