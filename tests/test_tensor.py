import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosxxz import tensor as tn
from sosxxz.errors import DegenerateParameter, UnknownLeg


def finite_complex(mag=3.0):
    part = st.floats(-mag, mag, allow_nan=False, allow_infinity=False)
    return st.builds(complex, part, part)


def mat2(mag=3.0):
    return st.lists(finite_complex(mag), min_size=4, max_size=4).map(
        lambda v: np.array(v, dtype=complex).reshape(2, 2)
    )


def embed_oracle(block, legs, on, charge=()):
    """The full matrix of a gate from np.kron and an explicit bit permutation.

    For a callable block, column j takes block(c) at the charge c of basis
    state j (the dynamical argument acts first).
    """
    legs, on = tuple(legs), tuple(on)
    n, k = len(legs), len(on)
    rest = tuple(l for l in legs if l not in on)
    order = on + rest
    # perm[i] = index in leg order of the basis state with index i in (on + rest) order
    perm = np.zeros(2**n, dtype=int)
    for i in range(2**n):
        bits = {l: (i >> (n - 1 - j)) & 1 for j, l in enumerate(order)}
        perm[i] = sum(bits[l] << (n - 1 - j) for j, l in enumerate(legs))
    p = np.zeros((2**n, 2**n))
    p[perm, np.arange(2**n)] = 1.0

    def full(mat):
        return p @ np.kron(mat, np.eye(2 ** (n - k))) @ p.T

    if not callable(block):
        return full(block)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(2**n):
        c = sum(w * (1 - 2 * ((j >> (n - 1 - legs.index(l))) & 1)) for l, w in charge)
        out[:, j] = full(block(c))[:, j]
    return out


@st.composite
def gate_cases(draw):
    n = draw(st.integers(2, 5))
    legs = tuple(f"l{i}" for i in range(n))
    on = tuple(draw(st.permutations(legs))[: draw(st.integers(1, min(3, n)))])
    rest = [l for l in legs if l not in on]
    charge = tuple((l, draw(st.integers(-2, 2))) for l in rest if draw(st.booleans()))
    seed = draw(st.integers(0, 2**32 - 1))
    cols = draw(st.sampled_from([None, 1, 3]))
    return legs, on, charge, seed, cols


@settings(max_examples=60, deadline=None)
@given(gate_cases())
def test_apply_gate_matches_kron_permutation_oracle(case):
    legs, on, charge, seed, cols = case
    rng = np.random.default_rng(seed)
    d, dk = 2 ** len(legs), 2 ** len(on)
    blocks = {c: rng.normal(size=(dk, dk)) + 1j * rng.normal(size=(dk, dk)) for c in range(-12, 13)}
    block = (lambda c: blocks[c]) if charge else blocks[0]
    shape = (d,) if cols is None else (d, cols)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = tn.apply_gate(x, legs, block, on, charge)
    assert got.shape == x.shape
    expect = embed_oracle(block, legs, on, charge) @ x
    assert np.max(np.abs(got - expect)) < 1e-12 * max(np.max(np.abs(expect)), 1.0)


@st.composite
def gate_lists(draw):
    n = draw(st.integers(2, 5))
    legs = tuple(draw(st.permutations([f"l{i}" for i in range(n)])))
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        on = tuple(draw(st.permutations(legs))[: draw(st.integers(1, min(3, n)))])
        rest = [l for l in legs if l not in on]
        charge = tuple((l, draw(st.integers(-2, 2))) for l in rest if draw(st.booleans()))
        gates.append((on, charge, draw(st.booleans())))
    seed = draw(st.integers(0, 2**32 - 1))
    cols = draw(st.sampled_from([None, 1, 2, 5]))
    return legs, gates, seed, cols


@settings(max_examples=60, deadline=None)
@given(gate_lists())
def test_product_matches_one_gate_oracle(case):
    # static and dynamical gates in one product, over a shuffled leg order;
    # a static block ignores its charge legs
    legs, drawn, seed, cols = case
    rng = np.random.default_rng(seed)
    gates = []
    for on, charge, dynamical in drawn:
        dk = 2 ** len(on)
        blocks = {c: rng.normal(size=(dk, dk)) + 1j * rng.normal(size=(dk, dk)) for c in range(-12, 13)}
        gates.append(((lambda c, b=blocks: b[c]) if dynamical else blocks[0], on, charge))
    d = 2 ** len(legs)
    shape = (d,) if cols is None else (d, cols)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = tn.product(legs, gates, x)
    assert got.shape == x.shape
    expect = x
    for block, on, charge in reversed(gates):
        expect = embed_oracle(block, legs, on, charge) @ expect
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_apply_gate_rejects_charge_on_gate_leg():
    with pytest.raises(ValueError):
        tn.apply_gate(np.eye(4), ("a", "b"), lambda c: np.eye(2), ("a",), [("a", 1)])


def test_tensor_product_identities():
    legs = ("a", "b")
    i4 = tn.apply_gate(np.eye(4), legs, tn.ID2, ("a",))
    assert np.allclose(i4, np.eye(4))
    zi = tn.apply_gate(np.eye(4), legs, tn.SZ, ("a",))
    assert zi[0, 0] == 1
    assert zi[2, 2] == -1


@settings(max_examples=30, deadline=None)
@given(mat2(), mat2(), mat2(), mat2())
def test_mixed_product_property(a, b, c, d):
    legs = ("x", "y")
    lhs = tn.product(legs, [(a, ("x",)), (b, ("y",)), (c, ("x",)), (d, ("y",))])
    rhs = tn.product(legs, [(a @ c, ("x",)), (b @ d, ("y",))])
    bound = 1e-13 * max(tn.max_abs(a), 1) * max(tn.max_abs(b), 1) * max(tn.max_abs(c), 1) * max(tn.max_abs(d), 1)
    assert tn.max_abs(lhs - rhs) < max(bound, 1e-13)


def test_embed_single_site():
    full = ("s1", "s2")
    e = tn.apply_gate(np.eye(4), full, tn.SX, ("s1",))
    assert np.allclose(e, np.kron(tn.SX, np.eye(2)))
    assert np.allclose(e, embed_oracle(tn.SX, full, ("s1",)))


def test_embed_disjoint_supports_commute():
    rng = np.random.default_rng(0)
    full = ("s1", "s2", "s3")
    gx = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), ("s1",))
    gy = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), ("s3",))
    assert tn.max_abs(tn.product(full, [gx, gy]) - tn.product(full, [gy, gx])) < 1e-13


def test_embed_middle_leg_permutation_oracle():
    # a gate on (first, last) of three legs must equal conjugating the
    # direct kron (R x Id) by the permutation swapping legs 2 and 3
    rng = np.random.default_rng(1)
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = ("a", "s1", "s2")
    emb = tn.apply_gate(np.eye(8), full, r, ("a", "s2"))
    perm = np.eye(8)[[0, 2, 1, 3, 4, 6, 5, 7]]  # swap the two site legs
    assert np.allclose(emb, perm @ np.kron(r, np.eye(2)) @ perm)
    assert np.allclose(emb, embed_oracle(r, full, ("a", "s2")))


def test_embed_unknown_leg():
    with pytest.raises(UnknownLeg):
        tn.apply_gate(np.eye(4), ("s1", "s2"), tn.SX, ("q",))
    with pytest.raises(UnknownLeg):
        tn.apply_gate(np.eye(4), ("s1", "s2"), lambda c: tn.SX, ("s1",), [("q", 1)])


@pytest.mark.parametrize("n", [2, 3])
def test_embed_preserves_spectrum(n):
    rng = np.random.default_rng(2)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    full = tuple(f"s{i}" for i in range(n))
    emb = tn.apply_gate(np.eye(2**n), full, m, ("s0",))
    small = np.sort_complex(np.linalg.eigvals(m))
    big = np.sort_complex(np.linalg.eigvals(emb))
    expect = np.sort_complex(np.repeat(small, 2 ** (n - 1)))
    assert np.max(np.abs(big - expect)) < 1e-10


def test_partial_transpose_involution():
    rng = np.random.default_rng(3)
    legs = ("a", "b", "c")
    op = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    twice = tn.partial_transpose(tn.partial_transpose(op, legs, "b"), legs, "b")
    assert np.array_equal(twice, op)


def test_partial_trace_identity_and_product():
    i4 = np.eye(4, dtype=complex)
    tr = tn.partial_trace(i4, ("a", "b"), "a")
    assert np.allclose(tr, 2 * np.eye(2))
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    prod = np.kron(a, b)
    tr = tn.partial_trace(prod, ("a", "b"), "a")
    assert tn.max_abs(tr - np.trace(a) * b) < 1e-13


def test_partial_trace_transpose_invariant():
    rng = np.random.default_rng(5)
    legs = ("a", "b", "c")
    op = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    direct = tn.partial_trace(op, legs, "b")
    via = tn.partial_trace(tn.partial_transpose(op, legs, "b"), legs, "b")
    assert tn.max_abs(direct - via) < 1e-14


def test_partial_ops_unknown_leg():
    op = np.eye(4, dtype=complex)
    with pytest.raises(UnknownLeg):
        tn.partial_transpose(op, ("a", "b"), "q")
    with pytest.raises(UnknownLeg):
        tn.partial_trace(op, ("a", "b"), "q")


def test_charge_resolved_matches_column_diag():
    # a gate scaling by its charge is the diagonal of sz_1 + sz_2
    full = ("a", "s1", "s2")
    vals = tn.sz_sum(full, ("s1", "s2"))
    charge = [("s1", 1), ("s2", 1)]
    built = tn.apply_gate(np.eye(8), full, lambda c: np.eye(2) * complex(c), ("a",), charge)
    assert np.allclose(built, np.diag(vals.astype(complex)))
    block = lambda c: np.array([[1.0, c], [0.5 * c, 2.0]], dtype=complex)
    built = tn.apply_gate(np.eye(8), full, block, ("a",), charge)
    assert np.allclose(built, embed_oracle(block, full, ("a",), charge))


def test_rel_residual_scales_by_larger_side():
    assert tn.rel_residual(0.0, 1.0) == 1.0
    assert tn.rel_residual(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == 0.5


@pytest.mark.parametrize(
    "bad",
    [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0), complex(0, -np.inf)],
    ids=["nan_re", "nan_im", "inf_re", "inf_im"],
)
def test_require_finite(bad):
    ok = np.array([[1.0, 0.5j], [0.0, 1.0]])
    assert tn.require_finite(ok) is ok
    a = ok.astype(complex)
    a[0, 1] = bad
    with pytest.raises(DegenerateParameter):
        tn.require_finite(a)


def test_rel_residual_rejects_nonfinite_side():
    good = np.eye(2, dtype=complex)
    bad = np.array([[1.0, np.inf], [0.0, 1.0]], dtype=complex)
    with pytest.raises(DegenerateParameter):
        tn.rel_residual(bad, good)
    with pytest.raises(DegenerateParameter):
        tn.rel_residual(good, np.full((2, 2), np.nan))


@pytest.mark.parametrize("width", [4, 8, 12, 16])
def test_product_residual_blocks_match_whole_matrix(width):
    # 12 does not divide the 16 columns: blocks of 12 and 4
    rng = np.random.default_rng(6)
    legs = ("a", "b", "c", "d")
    dyn = {c: rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for c in (-3, -1, 1, 3)}
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = [(r, ("a", "c")), (lambda c: dyn[c], ("b", "a"), [("c", 1), ("d", 2)])]
    rhs = [(lambda c: dyn[c], ("b", "a"), [("c", 1), ("d", 2)]), (r, ("a", "c"))]
    whole = tn.rel_residual(tn.product(legs, lhs), tn.product(legs, rhs))
    assert whole > 0
    assert tn.product_residual(legs, lhs, rhs, width) == whole


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("col", [0, 11, 12, 15])
def test_product_residual_nonfinite_block_raises(side, col):
    # the squared diagonal overflows in one identity column only, so one of
    # the blocks of width 12 (columns 0-11 and 12-15) is not finite
    legs = ("a", "b", "c", "d")
    diag = np.ones(16, dtype=complex)
    diag[col] = 1e300
    big = [(np.diag(diag), legs), (np.diag(diag), legs)]
    plain = [(np.eye(16), legs)]
    lhs, rhs = (big, plain) if side == "lhs" else (plain, big)
    assert tn.product_residual(legs, plain, plain, 12) == 0.0
    with pytest.raises(DegenerateParameter):
        tn.product_residual(legs, lhs, rhs, 12)
