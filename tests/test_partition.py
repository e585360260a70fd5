import json
from cmath import exp, pi, sinh

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosxxz import cli
from sosxxz import params
from sosxxz import partition as pt
from sosxxz import sos
from sosxxz import tensor as tn
from sosxxz.errors import DegenerateParameter
from sosxxz.params import generic_params, sample_points


def test_n1_closed_form(p1, closed_form_n1):
    lam = 0.21 + 0.12j
    cf = closed_form_n1(lam, p1.xi[0], p1.delta, p1.zeta, p1.eta)
    assert abs(pt.z_determinant(p1, (lam,), "bminus") - cf) < 1e-12 * abs(cf)
    assert abs(pt.z_contraction(p1, (lam,), "bminus") - cf) < 1e-12 * abs(cf)


def _z_determinant_reference(p, lambdas, kind):
    """Tsuchiya's determinant at 60 digits, as written before divided differences: the sinh kernel
    entry, the theta-ratio loop, the lambda x xi product and both pair divisions, reached from
    ``kind`` by the same inter-kind map as ``z_determinant``."""
    q, lams = pt._kind_params(p, lambdas, kind)
    side, _ = pt.KINDS[kind]
    n, d, z, xis = q.N, q.delta, q.zeta, q.xi
    if kind in ("cminus", "bplus"):
        d, z = z, d
    sign = 1
    if side == "plus":
        lams, xis, sign = [q.k_point(l, side) for l in lams], [-x for x in xis], (-1) ** n
    with mpmath.workdps(60):
        d, z, eta = mpmath.mpc(d), mpmath.mpc(z), mpmath.mpc(q.eta)
        lams, xis = [mpmath.mpc(l) for l in lams], [mpmath.mpc(x) for x in xis]
        sh = mpmath.sinh
        # sinh(lam_i - xi_j + eta) sinh(lam_i + xi_j + eta) sinh(lam_i - xi_j) sinh(lam_i + xi_j)
        den = [[sh(l - x + eta) * sh(l + x + eta) * sh(l - x) * sh(l + x) for x in xis] for l in lams]
        row = [sh(2 * l) * sh(eta) / (sh(d + l) * sh(z + l)) for l in lams]
        col = [sh(d + x) * sh(z - x) for x in xis]
        m = mpmath.matrix([[row[i] * col[j] / den[i][j] for j in range(n)] for i in range(n)])
        value = sign * (-1) ** (n * (n - 1) // 2) * mpmath.det(m)
        for i in range(1, n + 1):
            value *= sh(d - z + eta * (n - 2 * i)) / sh(d - z + eta * (n - i))
        for den_row in den:
            value *= mpmath.fprod(den_row)
        for i in range(n):
            for j in range(i + 1, n):
                value /= sh(xis[j] + xis[i]) * sh(xis[j] - xis[i]) * sh(lams[j] - lams[i]) * sh(lams[j] + lams[i] + eta)
        return complex(value)


def test_determinant_reference_formula_at_n1(p1, closed_form_n1):
    lam = 0.21 + 0.12j
    cf = closed_form_n1(lam, p1.xi[0], p1.delta, p1.zeta, p1.eta)
    assert abs(_z_determinant_reference(p1, (lam,), "bminus") - cf) < 1e-14 * abs(cf)


@pytest.mark.parametrize("n", range(5, 11))
def test_determinant_matches_extended_precision_reference(n):
    # the default xi pool clusters x_j = cosh 2 xi_j, so the undivided sinh kernel has
    # cond 9e8 at N = 6 and 9e12 at N = 8: a float evaluation of it cannot pass here
    p = generic_params(n)
    worst = 0.0
    for seed in range(3):
        lams = sample_points(np.random.default_rng(seed), p, n)
        for kind in pt.KINDS:
            rel = pt.rel_disagreement(pt.z_determinant(p, lams, kind), _z_determinant_reference(p, lams, kind))
            worst = max(worst, rel)
    assert worst < 1e-12, (n, worst)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", pt.KINDS)
def test_determinant_vs_contraction(n, kind):
    p = generic_params(n)
    rng = np.random.default_rng(17 + n)
    lams = sample_points(rng, p, n)
    rel = pt.rel_disagreement(pt.z_determinant(p, lams, kind), pt.z_contraction(p, lams, kind))
    assert rel < 1e-10, (n, kind, rel)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_minus_pair_swap_relation(n):
    p = generic_params(n)
    rng = np.random.default_rng(23 + n)
    lams = sample_points(rng, p, n)
    zc = pt.z_contraction(p, lams, "cminus")
    zb = pt.z_contraction(p.replace(delta=p.zeta, zeta=p.delta), lams, "bminus")
    assert abs(zc - zb) < 1e-10 * abs(zb)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plus_pair_swap_relation(n):
    p = generic_params(n)
    rng = np.random.default_rng(29 + n)
    lams = sample_points(rng, p, n)
    zc = pt.z_contraction(p, lams, "cplus")
    zb = pt.z_contraction(p.replace(delta_bar=p.zeta_bar, zeta_bar=p.delta_bar), lams, "bplus")
    assert abs(zc - zb) < 1e-10 * abs(zb)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plus_minus_reflection_relation(n):
    """The reflecting-end side swap: plus functions are the minus ones at
    -lam - eta with negated inhomogeneities and an overall (-1)^N."""
    p = generic_params(n)
    rng = np.random.default_rng(31 + n)
    lams = sample_points(rng, p, n)
    z_cp = pt.z_contraction(p, lams, "cplus")
    mapped = p.replace(delta=p.delta_bar, zeta=p.zeta_bar, xi=tuple(-x for x in p.xi))
    reflected = [-l - p.eta for l in lams]
    z_bm = pt.z_contraction(mapped, reflected, "bminus")
    assert abs(z_cp - (-1) ** n * z_bm) < 1e-10 * abs(z_bm)
    z_bp = pt.z_contraction(p, lams, "bplus")
    z_cm = pt.z_contraction(mapped, reflected, "cminus")
    assert abs(z_bp - (-1) ** n * z_cm) < 1e-10 * abs(z_cm)


@pytest.mark.parametrize("n", [2, 3])
def test_property_suite(n):
    p = generic_params(n)
    rng = np.random.default_rng(37 + n)
    lams = sample_points(rng, p, n)
    residuals, _ = pt.z_property_suite(p, lams, "bminus", seed=5)
    for name, res in residuals.items():
        tol = 1e-8 if name.startswith("degree") else 1e-9
        assert res < tol, (name, res)


@pytest.fixture(scope="module")
def full_contraction(block_column):
    """``(p, lams, kind="bminus") -> Z``: ``kind``'s Z with every block
    applied in turn to its reference state, last block first, each block
    from its own gate build."""

    def contract(p, lams, kind="bminus"):
        q, lams = pt._kind_params(p, lams, kind)
        side, creator = pt.KINDS[kind]
        params.assert_generic(q, lams, [q.theta(side)])
        up, down = tn.all_up(q.N), tn.all_down(q.N)
        v, bra = (up, down) if creator == "B" else (down, up)
        for lam in reversed(lams):
            v = block_column(lam, q.theta(side), side, creator, q, v)[0]
        return complex(bra @ v)

    return contract


def degree_residual(q, lams, guard, rng):
    """The suite's contracted degree test: nodes drawn against ``guard``, then
    contracted as rows that share the tail of Z's string."""
    nodes = pt._degree_nodes(q, guard, rng)
    return pt._degree_fit(q, nodes, pt._contract(q, "bminus", [(lam,) + lams[1:] for lam in nodes]))


def degree_residual_oracle(p, lams, seed, full_contraction):
    """The degree test in lam_1, with the nodes redrawn from default_rng(seed)
    and each evaluated by full_contraction."""
    rng = np.random.default_rng(seed)
    n_pts = 2 * p.N + 4
    nodes, vals = [], []
    tries = 0
    while len(nodes) < n_pts and tries < 200:
        tries += 1
        phase = pi * (len(nodes) + 0.37 + 0.08 * rng.uniform(-1, 1)) / n_pts
        lam = complex(0.05 + 0.02 * rng.uniform(-1, 1), phase)
        weight = exp((2 * p.N + 2) * lam) * sinh(p.delta + lam) * sinh(p.zeta + lam)
        try:
            vals.append(weight * full_contraction(p, (lam,) + lams[1:]))
            nodes.append(lam)
        except DegenerateParameter:
            continue
    x = np.array([exp(2 * l) for l in nodes])
    coeffs = np.linalg.solve(np.vander(x, N=n_pts, increasing=True), np.array(vals))
    return float(abs(coeffs[-1]) / max(np.max(np.abs(vals)), 1e-300))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shared_tail_is_bit_identical_to_full_contractions(n, full_contraction):
    p = generic_params(n)
    lams = tuple(sample_points(np.random.default_rng(53 + n), p, n))
    q, _ = pt._kind_params(p, lams, "bminus")
    rel = degree_residual(q, lams, pt._contract_guard(q, lams), np.random.default_rng(7))
    assert rel == degree_residual_oracle(p, lams, 7, full_contraction)
    # one batch of points on one tail, each its own full contraction
    points = [lams[0], -lams[0] - p.eta, p.xi[0]]
    rows = [(lam,) + lams[1:] for lam in points]
    assert pt._contract(q, "bminus", rows) == [full_contraction(p, row) for row in rows]

    res, _ = pt.z_property_suite(p, lams, "bminus", seed=11, methods=("contract",))
    assert res["degree_contract"] == degree_residual_oracle(p, lams, 11, full_contraction)
    z0 = full_contraction(p, lams)
    assert pt.z_contraction(p, lams, "bminus") == z0
    pred = pt.crossing_factor(lams[0], p.delta, p.zeta, p.eta) * z0
    crossed = full_contraction(p, (-lams[0] - p.eta,) + lams[1:])
    assert res["crossing_contract"] == abs(crossed - pred) / max(abs(pred), 1e-300)
    at1 = (p.xi[0],) + lams[1:]
    lhs = full_contraction(p, at1)
    coeff, sub, rest = pt._recursion(q, at1, "lam1=xi1")
    rhs = coeff * full_contraction(sub, rest)
    assert res["recursion_lam1_contract"] == abs(lhs - rhs) / max(abs(lhs), 1e-300)


@pytest.mark.parametrize("n", [3, 4])
def test_rejected_degree_nodes_keep_bit_identity(n, full_contraction):
    # delta ~ i pi - lam at the second node's phase, so sinh(delta + lam) sits
    # within eps_pole of zero there and the contraction's guard rejects draws
    d = complex(-0.05, pi - 1.37 * pi / (2 * n + 4))
    p = generic_params(n, eps_pole=0.02).replace(delta=d)
    lams = tuple(sample_points(np.random.default_rng(53 + n), p, n))
    q, _ = pt._kind_params(p, lams, "bminus")
    guard = pt._contract_guard(q, lams)
    rejected = []

    def counted(lam):
        try:
            guard(lam)
        except DegenerateParameter:
            rejected.append(lam)
            raise

    rel = degree_residual(q, lams, counted, np.random.default_rng(7))
    assert len(rejected) == 2
    assert rel == degree_residual_oracle(p, lams, 7, full_contraction)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from(list(pt.KINDS)))
def test_batched_determinant_equals_single_rows_bit_for_bit(n, b, seed, kind):
    # b rows of points, each with its own order of the inhomogeneities, in one
    # det call against one call per row
    rng = np.random.default_rng(seed)
    q, _ = pt._kind_params(generic_params(n), [0.0] * n, kind)
    rows = [tuple(sample_points(rng, q, n)) for _ in range(b)]
    xis = [tuple(rng.permutation(np.array(q.xi))) for _ in range(b)]
    got = pt._z_determinant_bminus(q, rows, xis)
    assert got == [pt._z_determinant_bminus(q.replace(xi=x), [row])[0] for row, x in zip(rows, xis)]
    assert got[0] == pt.z_determinant(q.replace(xi=xis[0]), rows[0], "bminus")


def determinant_rows_oracle(q, lams, xi=None):
    """``_z_determinant_bminus`` as it took its scales and products row by
    row, unguarded: every product of a row on its own 1-D arrays and numpy
    scalars."""
    n, eta, d, z = q.N, q.eta, q.delta, q.zeta
    lam = np.array(lams, dtype=complex).reshape(-1, n)
    xi = np.broadcast_to(np.array(q.xi if xi is None else xi, dtype=complex), lam.shape)
    u, v, _, ux, vx, lam_xi, pair = pt._kernel(q, lam, xi)
    k = 1 / np.cumprod(ux, axis=-1) - 1 / np.cumprod(vx, axis=-1)
    rows = np.max(np.abs(k), axis=-1)
    cols = np.max(np.abs(k / rows[..., None]), axis=-2)
    r = 4 * np.sinh(2 * lam) * np.sinh(eta) / ((v - u) * np.sinh(d + lam) * np.sinh(z + lam))
    c = np.sinh(d + xi) * np.sinh(z - xi)
    i = np.arange(n)
    theta_ratio = np.sinh(q.theta("minus") + eta * (n - 2 - 2 * i)) / np.sinh(q.theta("minus") + eta * (n - 1 - i))
    sign = (-2) ** (n * (n - 1) // 2)
    dets = np.linalg.det(k / rows[..., None] / cols[..., None, :])
    terms = zip(dets, rows, cols, r, c, lam_xi, pair)
    return [
        complex(dt * (sign * np.prod(rw * cl * rr * cc * theta_ratio)) * np.prod(lx) / np.prod(pr))
        for dt, rw, cl, rr, cc, lx, pr in terms
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_batched_determinant_equals_the_row_by_row_products(n):
    # batches of 1 to 40 rows, each with its own xi order: the scales and
    # lam/xi products taken over the batch round as each row's own did (a
    # theta ratio broadcast over a single row at N = 1 rounds apart in about
    # 1 of 75 rows, so single rows come many times)
    rng = np.random.default_rng(500 + n)
    q, _ = pt._kind_params(generic_params(n), [0.0] * n, "bminus")
    for b in (1,) * 300 + (2, 3, 7, 40):
        rows = [tuple(sample_points(rng, q, n)) for _ in range(b)]
        xis = [tuple(rng.permutation(np.array(q.xi))) for _ in range(b)]
        assert pt._z_determinant_bminus(q, rows) == determinant_rows_oracle(q, rows)
        assert pt._z_determinant_bminus(q, rows, xis) == determinant_rows_oracle(q, rows, xis)


@pytest.mark.parametrize("cap", [None, 2, 1])
@pytest.mark.parametrize("n", range(1, 7))
def test_cminus_row_of_the_suite_is_its_own_contraction(n, cap, monkeypatch, full_contraction):
    # cminus's own string rides the suite's first pass, with its C blocks and
    # swapped reference states, in batches of any size
    if cap is not None:
        monkeypatch.setattr(pt, "_batch_cap", lambda _: cap)
    p = generic_params(n)
    lams = tuple(sample_points(np.random.default_rng(131 + n), p, n))
    _, values = pt.z_property_suite(p, lams, "cminus", seed=2, methods=("contract",))
    assert values["contract"] == full_contraction(p, lams, "cminus")
    _, values = pt.z_property_suite(p, lams, "cminus", seed=2)
    assert values == {"det": pt.z_determinant(p, lams, "cminus"), "contract": full_contraction(p, lams, "cminus")}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", pt.KINDS)
def test_partition_command_reports_each_kinds_own_value(n, kind):
    # run_partition reads every value from the suite; each is the kind's own Z
    cfg = cli.RunConfig(params=generic_params(n), seed=n)
    lams = sample_points(np.random.default_rng(n), cfg.params, n)
    evaluate = {"det": pt.z_determinant, "contract": pt.z_contraction}
    for method in ("det", "contract", "both"):
        _, extra = cli.run_partition(cfg, kind, method)
        methods = ("det", "contract") if method == "both" else (method,)
        assert {k: v for k, v in extra.items() if k.startswith("value_")} == {
            f"value_{m}": cli._c2pair(evaluate[m](cfg.params, lams, kind)) for m in methods
        }


def test_stuck_degree_windows_move_off_the_det_guards_zero(tmp_path):
    # at pole tolerance 0.02 the det guard rejects every phase within about
    # one window of 0 and pi (lam_1 near 0 or i pi, so near every small xi_j):
    # the first and last windows move inward, and the nodes stay distinct
    p = generic_params(4, eps_pole=0.02)
    lams = tuple(sample_points(np.random.default_rng(0), p, 4))
    q, _ = pt._kind_params(p, lams, "bminus")
    nodes = pt._degree_nodes(q, pt._det_guard(q, lams), np.random.default_rng(0))
    units = [lam.imag * 12 / pi for lam in nodes]
    assert all(0 < a < b < 12 for a, b in zip(units, units[1:]))
    assert units[0] > 0.45 and units[-1] < 11.29
    for lam in nodes:
        pt._det_guard(q, lams)(lam)
    config = tmp_path / "pole.json"
    config.write_text(json.dumps({"tolerances": {"pole": 0.02}}))
    for method in ("det", "both"):
        args = ["partition", "--kind", "bminus", "--method", method, "--n", "4", "--config", str(config)]
        assert cli.main(args + ["--out", str(tmp_path / "z.jsonl")]) == 0


def test_degree_windows_without_rejections_draw_fixed_phases(p3):
    # a guard that accepts every draw sees the phases of fixed windows
    n_pts, rng = 2 * p3.N + 4, np.random.default_rng(19)
    want = []
    for k in range(n_pts):
        phase = pi * (k + 0.37 + 0.08 * rng.uniform(-1, 1)) / n_pts
        want.append(complex(0.05 + 0.02 * rng.uniform(-1, 1), phase))
    assert pt._degree_nodes(p3, lambda lam: None, np.random.default_rng(19)) == want


@pytest.mark.parametrize("n", [1, 2, 6])
def test_contract_suite_guards_each_point_once(n, monkeypatch):
    # the degree nodes pass the contraction guard as they are drawn; the
    # contracted rows then guard only lam_1, its crossed point and x1
    p = generic_params(n)
    lams = tuple(sample_points(np.random.default_rng(n), p, n))
    asked = []
    contract_guard = pt._contract_guard

    def recording(q, points):
        guard = contract_guard(q, points)
        return lambda lam: asked.append(lam) or guard(lam)

    monkeypatch.setattr(pt, "_contract_guard", recording)
    pt.z_property_suite(p, lams, "bminus", seed=0, methods=("contract",))
    q, _ = pt._kind_params(p, lams, "bminus")
    nodes = pt._degree_nodes(q, contract_guard(q, lams), np.random.default_rng(0))
    tail = [lams[0], -lams[0] - q.eta] + ([q.xi[0]] if n >= 2 else [])
    assert asked[len(asked) - len(tail) :] == tail
    assert [lam for lam in asked[: len(asked) - len(tail)] if lam in nodes] == nodes


def test_batched_determinant_guards_every_row(p3):
    good = tuple(sample_points(np.random.default_rng(61), p3, 3))
    with pytest.raises(DegenerateParameter):
        pt._z_determinant_bminus(p3, [good, (good[0], good[0], good[2])])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["bminus", "cplus", "bplus"])
def test_split_batches_keep_the_suite_bit_identical(n, kind, monkeypatch, full_contraction):
    # with a cap of 1 or 2 every batch of the suite splits, down to one
    # element per block application, each batch still building its gates in
    # one call; the kind's own Z is its string of single blocks
    p = generic_params(n)
    lams = tuple(sample_points(np.random.default_rng(71 + n), p, n))
    runs = []
    for cap in (None, 2, 1):
        if cap is not None:
            monkeypatch.setattr(pt, "_batch_cap", lambda _, cap=cap: cap)
        runs.append(pt.z_property_suite(p, lams, kind, seed=3))
        assert pt.z_contraction(p, lams, kind) == full_contraction(p, lams, kind)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("kind", pt.KINDS)
def test_det_only_suite_at_n1_fans_out_no_point(kind, p1):
    # with the det method alone at N = 1, no contracted row shares Z's
    # string, and there are no recursions to contract
    lams = sample_points(np.random.default_rng(73), p1, 1)
    res, _ = pt.z_property_suite(p1, lams, kind, methods=("det",))
    assert sorted(res) == ["crossing_det", "degree_det"]


@pytest.mark.parametrize("cap", [None, 2, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_empty_fan_drops_only_zs_row(n, cap, monkeypatch, full_contraction):
    # four rows with no tail in common, each its own whole string: without
    # the last row, Z's, every other row keeps its value
    if cap is not None:
        monkeypatch.setattr(pt, "_batch_cap", lambda _: cap)
    p = generic_params(n)
    rng = np.random.default_rng(101 + n)
    q, _ = pt._kind_params(p, [0.0] * n, "bminus")
    rows = [tuple(sample_points(rng, q, n)) for _ in range(4)]
    whole = pt._contract(q, "bminus", rows)
    assert pt._contract(q, "bminus", rows[:-1]) == whole[:-1]
    assert whole == [full_contraction(q, row) for row in rows]


@pytest.mark.parametrize("cap", [None, 2, 1])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rows_share_their_tails_by_content(n, cap, monkeypatch, full_contraction):
    # shuffled rows: three lam_1 variants of one string, its lambda swap, its
    # xi swap, its cminus string and a variant whose tail differs only in the
    # sign of a zero; the lam_1 variants share one tail, and the passes over
    # blocks N-1 .. 1 carry each distinct tail once, then every row its block 0
    if cap is not None:
        monkeypatch.setattr(pt, "_batch_cap", lambda _: cap)
    p = generic_params(n)
    rng = np.random.default_rng(151 + n)
    lams = tuple(sample_points(rng, p, n))
    lams = lams[:-1] + (complex(lams[-1].real, 0.0),)
    signed = lams[:-1] + (complex(lams[-1].real, -0.0),)
    q, _ = pt._kind_params(p, lams, "bminus")
    swapped_xi = (q.xi[1], q.xi[0]) + q.xi[2:]
    cases = [((lam,) + lams[1:], q.xi, "bminus") for lam in (lams[0], -lams[0] - q.eta, q.xi[0])]
    cases += [((lams[1], lams[0]) + lams[2:], q.xi, "bminus"), (lams, swapped_xi, "bminus"), (lams, q.xi, "cminus")]
    cases += [((q.xi[0],) + signed[1:], q.xi, "bminus")]
    cases = [cases[i] for i in rng.permutation(len(cases))]
    sizes = []
    apply = sos.apply_block_column
    monkeypatch.setattr(sos, "apply_block_column", lambda *a, **k: sizes.append(len(a[4])) or apply(*a, **k))
    rows, xis, kinds = zip(*cases)
    got = pt._contract(q, list(kinds), rows, xis)
    # Z's tail, shared by the three variants, and the four others' own
    tails = 5
    step = cap or pt._batch_cap(n)
    chunks = lambda count: [min(step, count - s) for s in range(0, count, step)]
    assert sizes == [b for b in chunks(tails) for _ in range(n - 1)] + chunks(len(cases))
    assert got == [full_contraction(p.replace(xi=x), row, kind) for row, x, kind in cases]


def test_batch_cap_keeps_the_largest_array_of_one_element_at_n12():
    for n in range(1, 22):
        cap = pt._batch_cap(n)
        # a batch gathers cap stacks of 2^(n-1) 4 x 4 blocks
        assert cap * 2 ** (n - 1) <= max(2**11, 2 ** (n - 1))
        assert cap >= 1 and (cap == 1) == (n >= 12)


def test_degree_test_leaves_the_pole_guard_to_z_at(monkeypatch, p3):
    calls, asked = [], []
    monkeypatch.setattr(params, "assert_generic", lambda *a: calls.append(a))
    nodes = pt._degree_nodes(p3, asked.append, np.random.default_rng(3))
    rel = pt._degree_fit(p3, nodes, [exp(-2 * lam) for lam in nodes])
    assert calls == []
    # one guard question per draw, and every draw accepted
    assert len(asked) == 2 * p3.N + 4
    assert rel < 1e-8


def test_recursion_against_n1_closed_form(p2, closed_form_n1):
    rng = np.random.default_rng(41)
    lams = sample_points(rng, p2, 2)
    at1 = (p2.xi[0], lams[1])
    lhs = pt.z_contraction(p2, at1, "bminus")
    coeff, sub, rest = pt._recursion(*pt._kind_params(p2, at1, "bminus"), "lam1=xi1")
    rhs = coeff * pt.z_determinant(sub, rest, "bminus")
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)
    sub = closed_form_n1(lams[1], p2.xi[1], p2.delta, p2.zeta, p2.eta)
    direct = pt.z_determinant(p2.replace(N=1, xi=(p2.xi[1],)), (lams[1],), "bminus")
    assert abs(sub - direct) < 1e-12 * abs(sub)


def _pole_sets(q, lams):
    """The recursions' left sides of q's points lams, each with the row of its
    point at the kernel's removable pole: lam_1 = xi_1 and lam_N = -xi_1."""
    x1, n = q.xi[0], q.N
    return [((x1,) + lams[1:], 0, "lam1=xi1"), (lams[:-1] + (-x1,), n - 1, "lamN=-xi1")]


# the divided-difference node orders of a left side's kernel: xi_1, at the
# pole, first, or last as the suite takes it (its limit row is then e_N)
NODE_ORDERS = {"xi1_first": lambda xi: xi, "xi1_last": lambda xi: xi[1:] + xi[:1]}


@pytest.mark.parametrize("order", NODE_ORDERS)
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize(
    "coincide",
    [lambda x: x, lambda x: (x[0],) * len(x), lambda x: (x[0], x[0]) + x[2:], lambda x: (x[0], -x[0]) + x[2:]],
    ids=["inhomogeneous", "homogeneous", "xi2=xi1", "xi2=-xi1"],
)
def test_limit_rows_match_the_contraction_at_the_pole(coincide, n, order):
    # the division-free limit row at u_i = x_1 is regular where x_1 - x_m vanishes
    q, _ = pt._kind_params(generic_params(n), [0.0] * n, "bminus")
    q = q.replace(xi=coincide(q.xi)[:n])
    for trial in range(3):
        lams = tuple(sample_points(np.random.default_rng(100 * n + trial), q, n))
        sets, poles, _ = zip(*_pole_sets(q, lams))
        got = pt._z_determinant_bminus(q, sets, [NODE_ORDERS[order](q.xi)] * 2, pole=poles)
        for det, contracted in zip(got, pt._contract(q, "bminus", sets)):
            assert pt.rel_disagreement(det, contracted) < 1e-12, (n, trial, det, contracted)


def test_left_sides_with_xi1_last_keep_the_conditioning_of_z_n_minus_1():
    # at N = 14, CLI seed 25, the left sides with xi_1 as the first node have a
    # kernel 1e3 times worse conditioned than Z's and miss their recursion by
    # 1.2e-9 and 2.0e-9; with xi_1 last, as the suite takes them, by ~1e-11
    n = 14
    p = generic_params(n)
    lams = tuple(sample_points(np.random.default_rng(25), p, n))
    res, _ = pt.z_property_suite(p, lams, "bminus", seed=25, methods=("det",))
    assert max(res["recursion_lam1_det"], res["recursion_lamN_det"]) < 1e-10, res
    q, _ = pt._kind_params(p, lams, "bminus")
    first = []
    for left, i, which in _pole_sets(q, lams):
        coeff, sub, rest = pt._recursion(q, left, which)
        right = coeff * pt._z_determinant_bminus(sub, [rest])[0]
        first.append(pt.rel_disagreement(right, pt._z_determinant_bminus(q, [left], pole=[i])[0]))
    assert min(first) > 1e-10, first


def test_determinant_approaches_the_limit_row_as_o_of_epsilon():
    # the plain kernel at lam_1 = xi_1 + eps tends to the limit form linearly in eps
    q = generic_params(4)
    lams = tuple(sample_points(np.random.default_rng(401), q, 4))
    at1 = (q.xi[0],) + lams[1:]
    limit = pt._z_determinant_bminus(q, [at1], pole=[0])[0]
    eps = [1e-3, 1e-4, 1e-5, 1e-6]
    near = pt._z_determinant_bminus(q, [(q.xi[0] + e,) + lams[1:] for e in eps])
    slopes = [pt.rel_disagreement(z, limit) / e for z, e in zip(near, eps)]
    assert all(0 < s < 1e3 for s in slopes), slopes
    assert max(slopes) / min(slopes) < 1.1, slopes


def limit_determinant_oracle(q, lams, i, node, drop=None, keep_pole_factor=False):
    """q's bminus Z at points lams whose point i sits at the kernel's
    removable pole, u_i = x_node, unscaled and element by element: row i is
    prod_{m>j}(u_i - x_m) and keeps the lam/xi factors (v_i - x_m)/4.  A
    mutant row leaves out its factor m = ``drop``, or keeps the vanishing
    (u_i - x_node)(v_i - x_node)/4 in place of (v_i - x_node)/4."""
    n, eta, d, z = q.N, q.eta, q.delta, q.zeta
    lam, xi = np.array(lams, dtype=complex), np.array(q.xi, dtype=complex)
    u, v, _, ux, vx, lam_xi, pair = pt._kernel(q, lam, xi)
    k = np.empty((n, n), dtype=complex)
    for r in range(n):
        for j in range(n):
            if r == i:
                k[r, j] = np.prod([ux[r, m] for m in range(j + 1, n) if m != drop])
            else:
                k[r, j] = 1 / np.prod(ux[r, : j + 1]) - 1 / np.prod(vx[r, : j + 1])
    lam_xi[i] = vx[i] / 4
    if keep_pole_factor:
        lam_xi[i, node] = ux[i, node] * vx[i, node] / 4
    row = 4 * np.sinh(2 * lam) * np.sinh(eta) / ((v - u) * np.sinh(d + lam) * np.sinh(z + lam))
    col = np.sinh(d + xi) * np.sinh(z - xi)
    theta = q.theta("minus")
    ratio = [sinh(theta + eta * (n - 2 - 2 * a)) / sinh(theta + eta * (n - 1 - a)) for a in range(n)]
    scale = np.prod(row * col * np.array(ratio)) * np.prod(lam_xi) / np.prod(pair)
    return complex((-2) ** (n * (n - 1) // 2) * np.linalg.det(k) * scale)


@pytest.mark.parametrize("order", NODE_ORDERS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mutated_limit_rows_fail_the_recursion_row(n, order):
    # the recursion row (c Z_{N-1} against the left side) passes the limit
    # row and fails it with a tail factor dropped (x_N's with xi_1 first, the
    # vanishing x_1's with xi_1 last) or the pole factor kept
    q, _ = pt._kind_params(generic_params(n), [0.0] * n, "bminus")
    lams = tuple(sample_points(np.random.default_rng(409 + n), q, n))
    ordered = q.replace(xi=NODE_ORDERS[order](q.xi))
    node = ordered.xi.index(q.xi[0])
    for left, i, which in _pole_sets(q, lams):
        coeff, sub, rest = pt._recursion(q, left, which)
        right = coeff * pt._z_determinant_bminus(sub, [rest])[0]
        assert pt.rel_disagreement(right, pt._z_determinant_bminus(ordered, [left], pole=[i])[0]) < 1e-12
        assert pt.rel_disagreement(right, limit_determinant_oracle(ordered, left, i, node)) < 1e-12
        for mutant in ({"drop": n - 1}, {"keep_pole_factor": True}):
            assert pt.rel_disagreement(right, limit_determinant_oracle(ordered, left, i, node, **mutant)) > 1e-3, mutant


def test_coincident_parameters_raise(p2):
    lams = (0.21 + 0.12j, 0.21 + 0.12j)
    with pytest.raises(DegenerateParameter):
        pt.z_determinant(p2, lams, "bminus")


@pytest.mark.parametrize(
    "coincide",
    [lambda x: (x[0], x[1], x[0], x[3]), lambda x: (x[0], x[1], -x[0], -x[1])],
    ids=["xi3=xi1", "xi3=-xi1,xi4=-xi2"],
)
@pytest.mark.parametrize("kind", pt.KINDS)
def test_coincident_inhomogeneities_are_regular(coincide, kind):
    # the xi-pair factor sinh(xi_j + xi_i) sinh(xi_j - xi_i) vanishes here; the
    # divided differences cancel it, and the contraction never had it
    p = generic_params(4)
    p = p.replace(xi=coincide(p.xi))
    lams = sample_points(np.random.default_rng(0), p, 4)
    rel = pt.rel_disagreement(pt.z_determinant(p, lams, kind), pt.z_contraction(p, lams, kind))
    assert rel < 1e-12, rel


def test_pole_hitting_raises(p2):
    with pytest.raises(DegenerateParameter):
        pt.z_contraction(p2, (-p2.delta, 0.11 - 0.31j), "bminus")


def test_theta_lattice_degeneracy_raises(p2):
    # theta = 2 eta puts theta - 2 eta on the sinh lattice of poles
    bad = p2.replace(delta=0.5 + 0.3j + 2 * p2.eta, zeta=0.5 + 0.3j)
    with pytest.raises(DegenerateParameter):
        pt.z_contraction(bad, (0.2 + 0.1j, -0.3 + 0.2j), "bminus")


# the boundary couplings each kind must not read; no kind reads tau or tau_bar
UNREAD = {
    "bminus": ("delta_bar", "zeta_bar"),
    "cminus": ("delta_bar", "zeta_bar"),
    "bplus": ("delta", "zeta"),
    "cplus": ("delta", "zeta"),
}


@pytest.mark.parametrize("kind", pt.KINDS)
def test_kind_reads_only_its_pair(kind, p3):
    lams = sample_points(np.random.default_rng(43), p3, 3)
    d, z = UNREAD[kind]
    # the unread delta sits on a pole, which the kind's guard must not see
    other = p3.replace(**{d: -lams[0], z: -0.44 + 0.18j}, tau=-0.29 + 0.31j, tau_bar=0.12 - 0.41j)
    assert pt.z_contraction(other, lams, kind) == pt.z_contraction(p3, lams, kind)
    assert pt.z_determinant(other, lams, kind) == pt.z_determinant(p3, lams, kind)


@pytest.mark.parametrize("kind, count", [("aminus", 2), ("bminus", 1), ("bminus", 3)])
def test_bad_kind_or_point_count_raises(kind, count, p2):
    with pytest.raises(ValueError):
        pt.z_contraction(p2, [0.2 + 0.1j * k for k in range(count)], kind)


def det_guard_oracle(q, lams):
    """The determinant's pole guard of one set of N points as a single call:
    the generic check of the points and theta, then the kernel's lam/xi
    products and lambda pairs over the whole N x N kernel."""
    params.assert_generic(q, tuple(lams), [q.theta("minus")])
    *_, lam_xi, pair = pt._kernel(q, np.array(lams), np.array(q.xi))
    if np.min(np.abs(lam_xi)) <= q.eps_pole:
        raise DegenerateParameter("coincident lambda/xi in the determinant kernel")
    if np.any(np.abs(pair) <= q.eps_pole):
        raise DegenerateParameter("coincident spectral parameters")


def raised(f, *args):
    """The message f(*args) raises DegenerateParameter with, or None."""
    try:
        f(*args)
    except DegenerateParameter as exc:
        return str(exc)
    return None


def _pole_points(q, lams):
    """A generic point, then lam_1 at each pole kind of the determinant's guard."""
    return {
        "generic": 0.05 + 0.7j,
        "-delta": -q.delta,
        "+xi_2": q.xi[1],
        "-xi_1": -q.xi[0],
        "lam_2": lams[1],
        "-lam_3-eta": -lams[2] - q.eta,
        "2lam+eta": -q.eta / 2,
    }


@pytest.mark.parametrize("case", ["generic", "theta", "fixed_xi"])
def test_point_determinant_guard_raises_where_the_oracle_raises(case, p3):
    lams = tuple(sample_points(np.random.default_rng(79), p3, 3))
    q = p3
    if case == "theta":
        # theta = 2 eta puts theta - 2 eta on the sinh lattice: every lam raises
        q = p3.replace(delta=0.5 + 0.3j + 2 * p3.eta, zeta=0.5 + 0.3j)
    elif case == "fixed_xi":
        # a fixed point on xi_3: a pole of the kernel that no lam removes
        lams = lams[:2] + (p3.xi[2],)
    points = _pole_points(q, lams)
    if case != "generic":
        # the fixed part fails: the guard raises as it is built, with the
        # message the oracle gives where lam itself is generic
        want = raised(det_guard_oracle, q, (points["generic"],) + lams[1:])
        assert want is not None and raised(pt._det_guard, q, lams) == want
        return
    guard = pt._det_guard(q, lams)
    for name, lam in points.items():
        want = raised(det_guard_oracle, q, (lam,) + lams[1:])
        assert (name, raised(guard, lam)) == (name, want)
        assert (want is None) == (name == "generic")


@pytest.mark.parametrize("bad", ["-delta", "+xi_2", "lam_2", "2lam+eta"])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_batched_determinant_raises_the_first_bad_rows_message(bad, at, p3):
    rng = np.random.default_rng(83)
    rows = [tuple(sample_points(rng, p3, 3)) for _ in range(5)]
    rows[at] = (_pole_points(p3, rows[at])[bad],) + rows[at][1:]
    # a second bad row of another kind after it
    last = (rows[-1][0], rows[-1][0], rows[-1][2])
    rows = rows + [last]
    want = raised(det_guard_oracle, p3, rows[at])
    assert want is not None
    assert raised(pt._z_determinant_bminus, p3, rows) == want
    assert raised(pt._z_determinant_bminus, p3, rows[:at] + rows[at + 1 : -1]) is None


@pytest.mark.parametrize("scale", [1.0, 1 - 1e-15, 1 + 1e-15, 1 - 2e-9])
def test_batched_determinant_guard_at_eps_pole(scale, p3):
    # eps_pole on (or one rounding from) the smallest gap, |sinh(delta + lam)|
    # of row 1: where numpy's sinh and cmath's may decide apart, the batch
    # decides as the oracle does
    rows = [tuple(sample_points(np.random.default_rng(91 + k), p3, 3)) for k in range(3)]
    lam = -p3.delta + 1e-4 * (1 + 1j)
    rows[1] = (lam,) + rows[1][1:]
    q = p3.replace(eps_pole=abs(sinh(p3.delta + lam)) * scale)
    want = [raised(det_guard_oracle, q, row) for row in rows]
    assert want == [None, want[1], None] and (want[1] is None) == (scale < 1)
    assert raised(pt._z_determinant_bminus, q, rows) == want[1]


@pytest.mark.parametrize("kind, gates, products", [("bminus", 6, 11), ("cminus", 6, 11), ("bplus", 8, 17), ("cplus", 8, 17)])
def test_partition_command_builds_each_string_once(kind, gates, products, monkeypatch, tmp_path):
    # one dyn_double_row_gates call, two monodromy builds, per block string:
    # the suite's tail and block-0 passes and its recursion string, and the plus
    # kinds' own Z; cminus's own Z is a row of the suite's first pass
    counts = {"gates": 0, "products": 0}

    def counted(fn, key):
        return lambda *a, **k: counts.__setitem__(key, counts[key] + 1) or fn(*a, **k)

    monkeypatch.setattr(sos, "dyn_monodromy_gates", counted(sos.dyn_monodromy_gates, "gates"))
    monkeypatch.setattr(tn, "product", counted(tn.product, "products"))
    args = ["partition", "--kind", kind, "--method", "both", "--n", "6", "--out", str(tmp_path / "z.jsonl")]
    assert cli.main(args) == 0
    assert counts == {"gates": gates, "products": products}


@pytest.mark.parametrize("kind", pt.KINDS)
def test_det_only_partition_command_never_contracts(kind, monkeypatch, tmp_path):
    # every det-only value, the recursions' left sides included, is a determinant
    counts = {"contract": 0, "gates": 0}

    def counted(fn, key):
        return lambda *a, **k: counts.__setitem__(key, counts[key] + 1) or fn(*a, **k)

    monkeypatch.setattr(pt, "_contract", counted(pt._contract, "contract"))
    monkeypatch.setattr(sos, "dyn_double_row_gates", counted(sos.dyn_double_row_gates, "gates"))
    args = ["partition", "--kind", kind, "--method", "det", "--n", "6", "--out", str(tmp_path / "z.jsonl")]
    assert cli.main(args) == 0
    assert counts == {"contract": 0, "gates": 0}
    # the same counters see the contraction under --method both
    assert cli.main(args[:4] + ["both"] + args[5:]) == 0
    assert counts["contract"] > 0 and counts["gates"] > 0


def test_det_only_partition_command_refuses_n_above_its_certified_range(tmp_path, capsys):
    args = ["partition", "--kind", "bminus", "--method", "det", "--out", str(tmp_path / "z.jsonl")]
    assert cli.main(args + ["--n", str(cli.DET_ONLY_MAX_N + 1)]) == 2
    assert "certified up to N = 16" in capsys.readouterr().err
    assert cli.main(args + ["--n", "3"]) == 0


def test_failing_fixed_part_of_a_degree_guard_raises_its_own_message(tmp_path, capsys):
    # at pole 0.02 and seed 1 the other N-1 points fail the det guard's kernel
    # check: building the guard says so, where every draw used to be rejected
    config = tmp_path / "pole.json"
    config.write_text(json.dumps({"tolerances": {"pole": 0.02}}))
    args = ["partition", "--kind", "bminus", "--n", "4", "--seed", "1", "--config", str(config)]
    for method in ("det", "both"):
        assert cli.main(args + ["--method", method, "--out", str(tmp_path / "z.jsonl")]) == 3
        err = capsys.readouterr().err
        assert err == "degenerate parameters: coincident lambda/xi in the determinant kernel\n"


def test_perturbed_first_product_reaches_the_partition_gates(p3, perturb_first_product):
    lams = tuple(sample_points(np.random.default_rng(97), p3, 3))
    z = pt.z_contraction(p3, lams, "bminus")
    perturb_first_product(1e-6)
    moved = pt.rel_disagreement(pt.z_contraction(p3, lams, "bminus"), z)
    assert 1e-9 < moved < 1e-4, moved
