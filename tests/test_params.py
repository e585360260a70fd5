from cmath import sinh

import numpy as np
import pytest

from sosxxz import sos
from sosxxz import vertex as vx
from sosxxz.errors import DegenerateParameter
from sosxxz.params import SAMPLE_MARGIN, assert_generic, generic_params, identity_suite, min_pole_gap, sample_points


def labelled_gaps(p, lams=(), thetas=()):
    """(label, |sinh|) of every denominator, labels formed one by one."""
    gaps = []
    for lam in lams:
        for name, base in (("delta", p.delta), ("zeta", p.zeta), ("delta_bar", p.delta_bar), ("zeta_bar", p.zeta_bar)):
            gaps.append((f"{name}+lam", abs(sinh(base + lam))))
            gaps.append((f"{name}-lam", abs(sinh(base - lam))))
        gaps.append(("2lam+eta", abs(sinh(2 * lam + p.eta))))
    for th in thetas:
        for k in range(-(p.N + 2), p.N + 3):
            gaps.append((f"theta{k:+d}eta", abs(sinh(th + k * p.eta))))
    return gaps


@pytest.mark.parametrize("n", [1, 3, 6])
def test_min_pole_gap_matches_labelled_gaps(n):
    p = generic_params(n)
    rng = np.random.default_rng(n)
    for _ in range(10):
        lams = list(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
        thetas = list(rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        assert min_pole_gap(p, lams, thetas) == min(g for _, g in labelled_gaps(p, lams, thetas))
    assert min_pole_gap(p) == np.inf


def _poles(p):
    """(lams, thetas) with one denominator at zero, for each kind of label."""
    lam = 0.31 + 0.17j
    return [
        ([lam, -p.delta], []),
        ([p.zeta_bar], [0.4]),
        ([lam, -p.eta / 2], [0.4]),
        ([lam], [0.4, 3 * p.eta]),
        ([], [-(p.N + 2) * p.eta]),
        ([], [(p.N + 2) * p.eta]),
    ]


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("n", [2, 5])
def test_assert_generic_names_the_first_failing_gap(n, case):
    p = generic_params(n)
    lams, thetas = _poles(p)[case]
    label, gap = next((l, g) for l, g in labelled_gaps(p, lams, thetas) if g <= p.eps_pole)
    with pytest.raises(DegenerateParameter) as err:
        assert_generic(p, lams, thetas)
    assert str(err.value) == f"|sinh({label})| = {gap:.3e} <= {p.eps_pole:.1e}"


@pytest.mark.parametrize("n", [1, 4])
def test_boundary_theta_and_k_point_of_each_side(n):
    p = generic_params(n)
    lam = 0.21 + 0.12j
    assert p.boundary("minus") == (p.delta, p.zeta, p.tau)
    assert p.boundary("plus") == (p.delta_bar, p.zeta_bar, p.tau_bar)
    assert p.theta("minus") == p.delta - p.zeta
    assert p.theta("plus") == p.delta_bar - p.zeta_bar
    assert p.k_point(lam, "minus") == lam
    assert p.k_point(lam, "plus") == -lam - p.eta


@pytest.mark.parametrize(
    "call",
    [
        lambda p: p.boundary("left"),
        lambda p: p.theta("left"),
        lambda p: p.k_point(0.2, "left"),
        lambda p: vx.k2(0.2, "left", p),
        lambda p: sos.k_diag(0.2, "left", p),
        lambda p: sos.dyn_double_row_gates(0.2, p.theta("minus"), "left", p),
    ],
    ids=["boundary", "theta", "k_point", "k2", "k_diag", "dyn_double_row_gates"],
)
def test_unknown_side_is_rejected(call):
    with pytest.raises(ValueError, match="unknown side 'left'"):
        call(generic_params(2))


def test_k_diag_plus_is_k_minus_at_the_crossed_point_of_the_barred_pair():
    p = generic_params(3)
    for lam in (0.21 + 0.12j, -0.4 + 0.33j):
        plus = sos.k2_minus_diag(-lam - p.eta, p.delta_bar, p.zeta_bar, p.eps_pole)
        minus = sos.k2_minus_diag(lam, p.delta, p.zeta, p.eps_pole)
        assert np.array_equal(sos.k_diag(lam, "plus", p), plus)
        assert np.array_equal(sos.k_diag(lam, "minus", p), minus)


@pytest.mark.parametrize("n, seed", [(2, 0), (5, 3), (7, 11)])
def test_sample_points_match_the_per_point_rejection_loop(n, seed):
    # the reference tests every theta gap again for each candidate point;
    # taking them once must keep the draws and the points
    p = generic_params(n)
    thetas = [p.theta("minus"), 0.3 - 0.2j]
    expect, rng = [], np.random.default_rng(seed)
    while len(expect) < 3:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if min_pole_gap(p, [z], thetas) > SAMPLE_MARGIN:
            expect.append(z)
    got_rng = np.random.default_rng(seed)
    assert sample_points(got_rng, p, 3, thetas=thetas) == expect
    assert got_rng.uniform() == rng.uniform()


@pytest.mark.parametrize("n", [1, 4])
def test_sample_points_raise_before_drawing_when_theta_gaps_fail(n):
    # delta = zeta + 2 eta puts theta = delta - zeta on the pole theta - 2 eta:
    # no point can pass, so no draw is made (the rejection loop once spun
    # through all 10,000)
    p = generic_params(n)
    p = p.replace(delta=p.zeta + 2 * p.eta)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DegenerateParameter, match="^could not sample generic spectral points$"):
        sample_points(rng, p, 3, thetas=[p.theta("minus")])
    assert rng.bit_generator.state == state
    # a request for no point still gets none, as before
    assert sample_points(rng, p, 0, thetas=[p.theta("minus")]) == []


@pytest.mark.parametrize(
    "values, expect",
    [
        ([np.nan, 1e-12, 3e-13], np.nan),
        ([1e-12, np.nan, 3e-13], np.nan),
        ([3e-13, 1e-12], 1e-12),
        ([0.0, 0.0], 0.0),
    ],
    ids=["nan-first", "nan-later", "finite", "zeros"],
)
def test_identity_suite_keeps_the_largest_residual_and_a_nan(values, expect):
    # the stub's t-th trial carries t; its residual reads values[t]
    draws = iter(range(len(values)))
    worst = identity_suite({"c": lambda t, p: values[t]}, lambda rng, p: next(draws), generic_params(1), 0, len(values))
    assert list(worst) == ["c"] and type(worst["c"]) is float
    assert np.isnan(worst["c"]) if np.isnan(expect) else worst["c"] == expect


def test_identity_suite_draws_each_trial_once_for_every_check_in_turn():
    # trial t is drawn once, read by every check in registry order, and only
    # then is trial t + 1 drawn; the draws come from one generator of the seed
    p, trials, log = generic_params(2), 5, []

    def draw(rng, q):
        assert q is p
        trial = [rng.uniform()]
        log.append(("draw", trial))
        return trial

    def check(name):
        return lambda t, q: log.append((name, t)) or t[0]

    worst = identity_suite({"a": check("a"), "b": check("b")}, draw, p, 3, trials)
    drawn = [entry[1] for entry in log if entry[0] == "draw"]
    assert len(drawn) == trials
    expect = [e for t in drawn for e in (("draw", t), ("a", t), ("b", t))]
    assert len(log) == len(expect) and all(x[0] == y[0] and x[1] is y[1] for x, y in zip(log, expect))
    rng = np.random.default_rng(3)
    assert [t[0] for t in drawn] == [rng.uniform() for _ in range(trials)]
    assert worst == {"a": max(t[0] for t in drawn), "b": max(t[0] for t in drawn)}
