import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosxxz import tensor as tn
from sosxxz.errors import DegenerateParameter, UnknownLeg


def leg_identity(legs):
    """The identity on ``legs``: the x for which ``tn.product`` reads the dense operator."""
    return np.eye(2 ** len(legs), dtype=complex)


def finite_complex(mag=3.0):
    part = st.floats(-mag, mag, allow_nan=False, allow_infinity=False)
    return st.builds(complex, part, part)


def mat2(mag=3.0):
    return st.lists(finite_complex(mag), min_size=4, max_size=4).map(
        lambda v: np.array(v, dtype=complex).reshape(2, 2)
    )


def oracle_charge_values(charge):
    """The distinct charges of a charge list, ascending, by enumerating
    every configuration of its legs."""
    legs = sorted({l for l, _ in charge})
    values = set()
    for spins in itertools.product((1, -1), repeat=len(legs)):
        sz = dict(zip(legs, spins))
        values.add(sum(w * sz[l] for l, w in charge))
    return sorted(values)


def random_stack(rng, charge, dk):
    """A random stack of dk-square blocks, one per charge of the list."""
    size = (len(oracle_charge_values(charge)), dk, dk)
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def embed_oracle(block, legs, on, charge=None):
    """The full matrix of a gate from np.kron and an explicit bit permutation.

    For a dynamical gate (a charge list given), column j takes the block of
    the stack at the charge c of basis state j (the dynamical argument acts
    first), found among ``oracle_charge_values``.
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

    if charge is None:
        return full(block)
    values = oracle_charge_values(charge)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(2**n):
        c = sum(w * (1 - 2 * ((j >> (n - 1 - legs.index(l))) & 1)) for l, w in charge)
        out[:, j] = full(block[values.index(c)])[:, j]
    return out


@st.composite
def gate_cases(draw):
    n = draw(st.integers(2, 5))
    legs = tuple(f"l{i}" for i in range(n))
    on = tuple(draw(st.permutations(legs))[: draw(st.integers(1, min(3, n)))])
    rest = [l for l in legs if l not in on]
    charge = tuple((l, draw(st.integers(-2, 2))) for l in rest if draw(st.booleans()))
    # a static gate carries no charge list; a dynamical one may carry an empty one
    charge = charge if draw(st.booleans()) else None
    seed = draw(st.integers(0, 2**32 - 1))
    cols = draw(st.sampled_from([None, 1, 3]))
    return legs, on, charge, seed, cols


@settings(max_examples=60, deadline=None)
@given(gate_cases())
def test_one_gate_product_matches_kron_permutation_oracle(case):
    legs, on, charge, seed, cols = case
    rng = np.random.default_rng(seed)
    d, dk = 2 ** len(legs), 2 ** len(on)
    if charge is None:
        block = rng.normal(size=(dk, dk)) + 1j * rng.normal(size=(dk, dk))
        gate = (block, on)
    else:
        block = random_stack(rng, charge, dk)
        gate = (block, on, charge)
    shape = (d,) if cols is None else (d, cols)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = tn.product(legs, [gate], x)
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


def random_gates(rng, drawn):
    """Gates of random blocks on the drawn legs; a dynamical one draws a
    stack, a block per charge, and a static one drops its charge list."""
    gates = []
    for on, charge, dynamical in drawn:
        dk = 2 ** len(on)
        if dynamical:
            gates.append((random_stack(rng, charge, dk), on, charge))
        else:
            gates.append((rng.normal(size=(dk, dk)) + 1j * rng.normal(size=(dk, dk)), on))
    return gates


def batched_gates(rng, drawn, b, own):
    """b random gate lists of the drawn layout, and the one batched list
    whose gate j stacks them (own[j]) or shares the first list's block."""
    per_input = [random_gates(rng, drawn) for _ in range(b)]
    gates = [
        (np.stack([g[j][0] for g in per_input]) if own[j] else per_input[0][j][0], *per_input[0][j][1:])
        for j in range(len(drawn))
    ]
    return per_input, gates


def single_gates(per_input, gates, own, k):
    """Input k's own gate list out of ``batched_gates``."""
    return [(per_input[k][j][0] if own[j] else gates[j][0], *gates[j][1:]) for j in range(len(gates))]


@settings(max_examples=60, deadline=None)
@given(gate_lists())
def test_product_matches_one_gate_oracle(case):
    # static and dynamical gates in one product, over a shuffled leg order
    legs, drawn, seed, cols = case
    rng = np.random.default_rng(seed)
    gates = random_gates(rng, drawn)
    d = 2 ** len(legs)
    shape = (d,) if cols is None else (d, cols)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = tn.product(legs, gates, x)
    assert got.shape == x.shape
    expect = x
    for block, on, *charge in reversed(gates):
        expect = embed_oracle(block, legs, on, *charge) @ expect
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@settings(max_examples=80, deadline=None)
@given(gate_lists(), st.integers(1, 4), st.lists(st.booleans(), min_size=6, max_size=6))
def test_batched_product_equals_single_products_bit_for_bit(case, b, own):
    # each gate's block or stack either acts on every input (no batch axis)
    # or gives each input its own (a leading axis of b); x is b vectors or b
    # column blocks
    legs, drawn, seed, cols = case
    rng = np.random.default_rng(seed)
    per_input, gates = batched_gates(rng, drawn, b, own)
    d = 2 ** len(legs)
    shape = (b, d) if cols is None else (b, d, cols)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = tn.product(legs, gates, x, batch=True)
    assert got.shape == x.shape
    for k in range(b):
        assert np.array_equal(got[k], tn.product(legs, single_gates(per_input, gates, own, k), x[k]))


def test_one_plan_serves_every_batch_size():
    legs = ("a", "b", "c")
    charge = [("c", 1)]
    rng = np.random.default_rng(5)
    stack = random_stack(rng, charge, 4)
    gates = [(stack, ("a", "b"), charge), (rng.normal(size=(2, 2)) + 0j, ("c",))]
    # a single column, a block of columns, and a batch of each: one layout,
    # so one plan, whatever the batch size
    inputs = [((8,), False), ((8, 3), False), ((5, 8), True), ((1, 8, 3), True), ((3, 8), True)]
    tn._plan.cache_clear()
    for shape, batch in inputs:
        tn.product(legs, gates, rng.normal(size=shape) + 0j, batch=batch)
    info = tn._plan.cache_info()
    assert (info.misses, info.hits) == (1, len(inputs) - 1)


def test_product_rejects_charge_on_gate_leg():
    # the plan cache stores no exception: a repeated call raises again
    for _ in range(2):
        with pytest.raises(ValueError, match="overlap"):
            tn.product(("a", "b"), [(np.stack([np.eye(2)] * 2), ("a",), [("a", 1)])], leg_identity(("a", "b")))


@pytest.mark.parametrize("size", [1, 2, 4])
def test_product_rejects_a_stack_of_the_wrong_length(size):
    # the charge of b and c (weights 1, 1) takes three values; a static
    # block or a stack of another length is refused, not misread, on every
    # call, though the second replays the plan of the first
    block = np.stack([np.eye(2)] * size) if size > 1 else np.eye(2)
    for _ in range(2):
        with pytest.raises(ValueError, match="stack"):
            tn.product(("a", "b", "c"), [(block, ("a",), [("b", 1), ("c", 1)])], leg_identity(("a", "b", "c")))


def test_one_plan_replays_other_blocks():
    # two gate lists of one layout, with other blocks: one plan, two results,
    # each the product of its one-gate oracles
    legs = ("a", "b", "c")
    charge = [("c", 1), ("a", -1)]
    x = np.random.default_rng(3).normal(size=(8, 3)) + 0j
    tn._plan.cache_clear()
    results = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        gates = [(random_stack(rng, charge, 2), ("b",), charge), (rng.normal(size=(4, 4)) + 0j, ("c", "a"))]
        got = tn.product(legs, gates, x)
        expect = x
        for block, on, *c in reversed(gates):
            expect = embed_oracle(block, legs, on, *c) @ expect
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
        results.append(got)
    info = tn._plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert not np.allclose(results[0], results[1])


def test_a_charge_list_and_tuple_share_a_plan():
    rng = np.random.default_rng(4)
    legs = ("a", "b", "c", "d")
    stack = random_stack(rng, [("b", 1), ("d", 2)], 4)
    block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    as_list = [(stack, ("a", "c"), [("b", 1), ("d", 2)]), (block, ("b",))]
    as_tuple = [(stack, ("a", "c"), (("b", 1), ("d", 2))), (block, ("b",))]
    eye = leg_identity(legs)
    tn._plan.cache_clear()
    assert np.array_equal(tn.product(legs, as_list, eye), tn.product(legs, as_tuple, eye))
    assert tn._plan.cache_info().misses == 1
    # renamed legs are another layout, so another plan
    renamed = tn.relabel(as_list, {"b": "d", "d": "b"})
    assert np.array_equal(tn.product(("a", "d", "c", "b"), renamed, eye), tn.product(legs, as_list, eye))
    assert tn._plan.cache_info().misses == 2


def test_tensor_product_identities():
    legs = ("a", "b")
    i4 = tn.product(legs, [(tn.ID2, ("a",))], leg_identity(legs))
    assert np.allclose(i4, np.eye(4))
    zi = tn.product(legs, [(tn.SZ, ("a",))], leg_identity(legs))
    assert zi[0, 0] == 1
    assert zi[2, 2] == -1


@settings(max_examples=30, deadline=None)
@given(mat2(), mat2(), mat2(), mat2())
def test_mixed_product_property(a, b, c, d):
    legs = ("x", "y")
    lhs = tn.product(legs, [(a, ("x",)), (b, ("y",)), (c, ("x",)), (d, ("y",))], leg_identity(legs))
    rhs = tn.product(legs, [(a @ c, ("x",)), (b @ d, ("y",))], leg_identity(legs))
    bound = 1e-13 * max(tn.max_abs(a), 1) * max(tn.max_abs(b), 1) * max(tn.max_abs(c), 1) * max(tn.max_abs(d), 1)
    assert tn.max_abs(lhs - rhs) < max(bound, 1e-13)


def test_embed_single_site():
    full = ("s1", "s2")
    e = tn.product(full, [(tn.SX, ("s1",))], leg_identity(full))
    assert np.allclose(e, np.kron(tn.SX, np.eye(2)))
    assert np.allclose(e, embed_oracle(tn.SX, full, ("s1",)))


def test_embed_disjoint_supports_commute():
    rng = np.random.default_rng(0)
    full = ("s1", "s2", "s3")
    gx = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), ("s1",))
    gy = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), ("s3",))
    eye = leg_identity(full)
    assert tn.max_abs(tn.product(full, [gx, gy], eye) - tn.product(full, [gy, gx], eye)) < 1e-13


def test_embed_middle_leg_permutation_oracle():
    # a gate on (first, last) of three legs must equal conjugating the
    # direct kron (R x Id) by the permutation swapping legs 2 and 3
    rng = np.random.default_rng(1)
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = ("a", "s1", "s2")
    emb = tn.product(full, [(r, ("a", "s2"))], leg_identity(full))
    perm = np.eye(8)[[0, 2, 1, 3, 4, 6, 5, 7]]  # swap the two site legs
    assert np.allclose(emb, perm @ np.kron(r, np.eye(2)) @ perm)
    assert np.allclose(emb, embed_oracle(r, full, ("a", "s2")))


def test_embed_unknown_leg():
    for _ in range(2):
        with pytest.raises(UnknownLeg):
            tn.product(("s1", "s2"), [(tn.SX, ("q",))], leg_identity(("s1", "s2")))
        with pytest.raises(UnknownLeg):
            tn.product(("s1", "s2"), [(np.stack([tn.SX] * 2), ("s1",), [("q", 1)])], leg_identity(("s1", "s2")))


@pytest.mark.parametrize("n", [2, 3])
def test_embed_preserves_spectrum(n):
    rng = np.random.default_rng(2)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    full = tuple(f"s{i}" for i in range(n))
    emb = tn.product(full, [(m, ("s0",))], leg_identity(full))
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


def test_traced_product_identity_and_kron(column_trace):
    legs = ("a", "b")
    eye = np.eye(2, dtype=complex)[None]
    assert np.array_equal(column_trace(legs, [], eye), 2 * eye)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    tr = column_trace(legs, [(np.kron(a, b), legs)], eye)[0]
    assert tn.max_abs(tr - np.trace(a) * b) < 1e-13


@settings(max_examples=40, deadline=None)
@given(gate_lists())
def test_traced_product_matches_trace_of_whole_product(aux_trace, column_trace, case):
    # the identity gives the oracle bit for bit when the oracle applies the
    # product to the identity one auxiliary column group at a time, and to
    # rounding when it applies it at once; a vector or a block of columns
    # gives the oracle times it, each a batch of one
    legs, drawn, seed, cols = case
    rng = np.random.default_rng(seed)
    gates = random_gates(rng, drawn)
    d = 2 ** (len(legs) - 1)
    eye = leg_identity(legs)
    whole = aux_trace(np.hstack([tn.product(legs, gates, eye[:, :d]), tn.product(legs, gates, eye[:, d:])]))
    assert np.array_equal(column_trace(legs, gates, np.eye(d, dtype=complex)[None])[0], whole)
    assert tn.max_abs(aux_trace(tn.product(legs, gates, eye)) - whole) <= 1e-13 * tn.max_abs(whole)
    shape = (d,) if cols is None else (d, cols)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = column_trace(legs, gates, x[None])[0]
    expect = whole @ x
    assert got.shape == x.shape
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@settings(max_examples=60, deadline=None)
@given(gate_lists(), st.integers(1, 4), st.lists(st.booleans(), min_size=6, max_size=6))
def test_batched_traced_product_equals_single_calls_bit_for_bit(column_trace, case, b, own):
    # as for product: each gate's block or stack is shared or one per input,
    # and x is b vectors or b column blocks on the legs after the first
    legs, drawn, seed, cols = case
    rng = np.random.default_rng(seed)
    per_input, gates = batched_gates(rng, drawn, b, own)
    d = 2 ** (len(legs) - 1)
    shape = (b, d) if cols is None else (b, d, cols)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = column_trace(legs, gates, x)
    assert got.shape == x.shape
    for k in range(b):
        assert np.array_equal(got[k], column_trace(legs, single_gates(per_input, gates, own, k), x[k : k + 1])[0])


def test_traced_product_transpose_invariant(column_trace):
    rng = np.random.default_rng(5)
    legs = ("a", "b", "c")
    op = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    eye = np.eye(4, dtype=complex)[None]
    direct = column_trace(legs, [(op, legs)], eye)
    via = column_trace(legs, [(tn.partial_transpose(op, legs, "a"), legs)], eye)
    assert tn.max_abs(direct - via) < 1e-14


@settings(max_examples=60, deadline=None)
@given(gate_lists(), st.integers(1, 3), st.lists(st.booleans(), min_size=6, max_size=6))
def test_column_product_is_a_column_of_the_dense_product(case, b, own):
    # static and dynamical gates, shared or one per input: row block r of
    # column c is block (r, c) of the kron-oracle product over the first
    # leg, applied to x[k]; a batch equals its singles bit for bit
    legs, drawn, seed, cols = case
    rng = np.random.default_rng(seed)
    per_input, gates = batched_gates(rng, drawn, b, own)
    d = 2 ** (len(legs) - 1)
    shape = (b, d) if cols is None else (b, d, cols)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for c in (0, 1):
        got = tn.column_product(legs, gates, x, c)
        assert got.shape == (b, 2) + shape[1:]
        for k in range(b):
            single = single_gates(per_input, gates, own, k)
            dense = leg_identity(legs)
            for block, on, *charge in single:
                dense = dense @ embed_oracle(block, legs, on, *charge)
            expect = (dense[:, c * d : (c + 1) * d] @ x[k]).reshape(got.shape[1:])
            assert np.max(np.abs(got[k] - expect)) <= 1e-13 * np.max(np.abs(expect))
            assert np.array_equal(got[k], tn.column_product(legs, single, x[k : k + 1], c)[0])


def test_partial_ops_unknown_leg():
    op = np.eye(4, dtype=complex)
    with pytest.raises(UnknownLeg):
        tn.partial_transpose(op, ("a", "b"), "q")


def test_charge_resolved_matches_column_diag():
    # a gate scaling by its charge is the diagonal of sz_1 + sz_2
    full = ("a", "s1", "s2")
    vals = tn.leg_sz(full, "s1") + tn.leg_sz(full, "s2")
    charge = [("s1", 1), ("s2", 1)]
    values = oracle_charge_values(charge)
    assert values == [-2, 0, 2] and list(tn.charge_values(charge)) == values
    scalars = np.stack([np.eye(2) * complex(c) for c in values])
    built = tn.product(full, [(scalars, ("a",), charge)], leg_identity(full))
    assert np.allclose(built, np.diag(vals.astype(complex)))
    stack = np.array([[[1.0, c], [0.5 * c, 2.0]] for c in values], dtype=complex)
    built = tn.product(full, [(stack, ("a",), charge)], leg_identity(full))
    assert np.allclose(built, embed_oracle(stack, full, ("a",), charge))


def _unique_charges(charge):
    """A gate's (values, which) the per-gate way: one leg_sz per listed leg, then np.unique."""
    charge_legs = tuple(dict.fromkeys(l for l, _ in charge))
    charges = np.zeros(2 ** len(charge_legs), dtype=int)
    for l, w in charge:
        charges = charges + w * tn.leg_sz(charge_legs, l)
    return np.unique(charges, return_inverse=True)


@pytest.mark.parametrize("length", range(9))
def test_charge_table_matches_per_gate_construction(length):
    rng = np.random.default_rng(length)
    legs = [f"s{j}" for j in range(length)]
    for _ in range(20):
        weights = tuple(int(w) for w in rng.integers(-2, 3, size=length))
        values, which = tn.charge_table(weights)
        expect_values, expect_which = _unique_charges(list(zip(legs, weights)))
        assert values.shape == expect_values.shape and (values == expect_values).all()
        assert which.shape == expect_which.shape and (which == expect_which).all()


def test_charge_table_of_a_gate_listing_one_leg_twice():
    charge = [("s1", 1), ("s2", -2), ("s1", 1)]
    values, which = tn.charge_table((2, -2))
    expect_values, expect_which = _unique_charges(charge)
    assert (values == expect_values).all() and (which == expect_which).all()
    full = ("a", "s1", "s2")
    values = oracle_charge_values(charge)
    assert list(tn.charge_values(charge)) == values
    stack = np.array([[[1.0, c], [0.5 * c, 2.0]] for c in values], dtype=complex)
    built = tn.product(full, [(stack, ("a",), charge)], leg_identity(full))
    assert np.allclose(built, embed_oracle(stack, full, ("a",), charge))


def test_dynamical_gates_build_every_stack_in_one_call():
    calls = []

    def build(x, c, repeat):
        calls.append((x.copy(), c.copy()))
        return (repeat(x) + c)[:, None, None] * np.eye(2)

    gates = [(0.5, ("a",), [("b", 1), ("c", 1)]), (2j, ("b",), []), (-1.0, ("c",), [("a", -1), ("b", 2)])]
    built = tn.dynamical_gates(build, gates)
    # each gate's value once, and one charge value per block
    assert len(calls) == 1 and list(calls[0][0]) == [0.5, 2j, -1.0] and len(calls[0][1]) == 3 + 1 + 4
    for (stack, on, charge), (x, on0, charge0) in zip(built, gates):
        assert on == on0 and charge is charge0
        expect = np.array([(x + c) * np.eye(2) for c in oracle_charge_values(charge)])
        assert np.array_equal(stack, expect)


def test_four_leg_maps_act_on_each_block_of_a_stack():
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    swap = np.eye(4)[[0, 2, 1, 3]]
    for got_s, got_t, m in zip(tn.swapped4(stack), tn.transpose_first4(stack), stack):
        assert np.array_equal(got_s, tn.swapped4(m)) and np.array_equal(got_s, swap @ m @ swap)
        assert np.array_equal(got_t, tn.transpose_first4(m))
        assert np.array_equal(got_t, tn.partial_transpose(m, ("a", "b"), "a"))


def test_charge_table_is_read_only():
    values, which = tn.charge_table((1, -1, 1))
    with pytest.raises(ValueError):
        which[0] = 3
    with pytest.raises(ValueError):
        values[0] = 3


def test_relabel_renames_gate_and_charge_legs():
    rng = np.random.default_rng(9)
    dyn = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    gates = [(r, ("a", "b")), (dyn, ("b", "c"), [("a", 1), ("d", 2)])]
    swap = {"a": "d", "d": "a"}
    renamed = tn.relabel(gates, swap)
    assert [g[1:] for g in renamed] == [(("d", "b"),), (("b", "c"), [("d", 1), ("a", 2)])]
    assert renamed[0][0] is r and renamed[1][0] is gates[1][0]
    # the renamed list on legs (a, b, c, d) is the original on (d, b, c, a)
    eye = np.eye(16, dtype=complex)
    assert (tn.product(("a", "b", "c", "d"), renamed, eye) == tn.product(("d", "b", "c", "a"), gates, eye)).all()


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


def test_probe_block_is_fixed_per_leg_count():
    x = tn.probe_block(5)
    assert x.shape == (32, tn.PROBES) and x.dtype == complex
    assert not x.flags.writeable
    assert tn.probe_block(5) is x
    # a fixed seed: a fresh draw gives the same columns
    tn.probe_block.cache_clear()
    assert np.array_equal(tn.probe_block(5), x)


@pytest.mark.parametrize("seed", range(6))
def test_product_residual_matches_whole_matrix(seed, whole_identity):
    # a gate and a dynamical gate that do not commute: the probe residual
    # reads the whole-matrix residual of the two orders within 10x
    rng = np.random.default_rng(seed)
    legs = ("a", "b", "c", "d")
    # the charge c + 2 d takes the four values -3, -1, 1, 3
    dyn = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = [(r, ("a", "c")), (dyn, ("b", "a"), [("c", 1), ("d", 2)])]
    rhs = [(dyn, ("b", "a"), [("c", 1), ("d", 2)]), (r, ("a", "c"))]
    _, whole = whole_identity(lambda: tn.product_residual(legs, lhs, rhs))
    assert whole > 0.1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("col", [0, 11, 12, 15])
def test_product_residual_nonfinite_block_raises(side, col):
    # the squared diagonal overflows in one row only, so one row of one
    # side's product with the probe block is not finite
    legs = ("a", "b", "c", "d")
    diag = np.ones(16, dtype=complex)
    diag[col] = 1e300
    big = [(np.diag(diag), legs), (np.diag(diag), legs)]
    plain = [(np.eye(16), legs)]
    lhs, rhs = (big, plain) if side == "lhs" else (plain, big)
    assert tn.product_residual(legs, plain, plain) == 0.0
    with pytest.raises(DegenerateParameter):
        tn.product_residual(legs, lhs, rhs)


def charge_keeping(rng, legs, weights, on, charge=None):
    """A random gate on ``on`` (a stack for a charge list) whose entries
    that break the charge of ``weights`` are exactly 0."""
    _, local = tn.charge_table(tuple(weights[legs.index(l)] for l in on))
    d = 2 ** len(on)
    size = (d, d) if charge is None else (len(oracle_charge_values(charge)), d, d)
    block = (rng.normal(size=size) + 1j * rng.normal(size=size)) * (local[:, None] == local)
    return (block, on) if charge is None else (block, on, charge)


@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (-1, 1, 1, 1), (1, -1, 1, -1)])
def test_sector_product_is_the_sector_block_of_the_dense_product(weights):
    # one- and two-leg gates, static and dynamical, on every sector: the
    # packed product against the dense one to rounding, nothing leaving the
    # sector, and a batch of per-input stacks against its inputs bit for bit
    legs = ("a", "b", "c", "d")
    rng = np.random.default_rng(sum(weights) + 7)
    layout = [(("a", "b"), [("c", 1), ("d", -1)]), (("a",), None), (("c", "a"), [("b", 1)]), (("a", "d"), None), (("d",), [("a", 1)])]
    gates = [charge_keeping(rng, legs, weights, on, charge) for on, charge in layout]
    full = tn.product(legs, gates, leg_identity(legs))
    for q in tn.charge_table(weights)[0]:
        states = tn.sector_states(weights, int(q))
        x = rng.normal(size=(1, len(states), 3)) + 1j * rng.normal(size=(1, len(states), 3))
        got = tn.sector_product(legs, gates, x, weights, int(q))
        assert tn.rel_residual(got[0], full[np.ix_(states, states)] @ x[0]) < 1e-14
        assert not np.any(np.delete(full[:, states], states, axis=0))
        own = [charge_keeping(rng, legs, weights, on, charge) for on, charge in layout for _ in range(2)]
        stacked = [(np.stack([a[0], b[0]]), *a[1:]) for a, b in zip(own[::2], own[1::2])]
        pair = tn.sector_product(legs, stacked, np.concatenate([x, 2 * x]), weights, int(q))
        for k in range(2):
            alone = tn.sector_product(legs, [(g[0][k], *g[1:]) for g in stacked], (k + 1) * x, weights, int(q))
            assert np.array_equal(pair[k], alone[0])


def test_cached_and_rebuilt_sector_plans_agree(monkeypatch):
    # above the cache's size a plan is rebuilt on every call, to the same indices
    legs = ("a", "b", "c")
    weights = (1, 1, 1)
    rng = np.random.default_rng(3)
    gates = [charge_keeping(rng, legs, weights, ("a", "b"), [("c", 1)]), charge_keeping(rng, legs, weights, ("b", "c"))]
    x = rng.normal(size=(2, 3)) + 0j
    cached = tn.sector_product(legs, gates, x, weights, 1)
    monkeypatch.setattr(tn, "SECTOR_PLAN_CACHED", 0)
    assert np.array_equal(tn.sector_product(legs, gates, x, weights, 1), cached)


def test_sector_product_refuses_bad_gates():
    legs = ("a", "b", "c")
    rng = np.random.default_rng(4)
    x = np.ones((1, 3), dtype=complex)
    gate = charge_keeping(rng, legs, (1, 1, 1), ("a", "b"))
    with pytest.raises(ValueError, match="breaks the charge"):
        tn.sector_product(legs, [(gate[0] + 1e-9 * (gate[0] == 0), ("a", "b"))], x, (1, 1, 1), 1)
    with pytest.raises(ValueError, match="of shape"):
        tn.sector_product(legs, [(gate[0][:2], ("a", "b"))], x, (1, 1, 1), 1)
    # three configurations of (a, b, c) share each charge of the weights
    with pytest.raises(ValueError, match="more than two"):
        tn.sector_product(legs, [(np.eye(8, dtype=complex), legs)], x, (1, 1, 1), 1)
    with pytest.raises(UnknownLeg):
        tn.sector_product(legs, [(gate[0], ("a", "q"))], x, (1, 1, 1), 1)
