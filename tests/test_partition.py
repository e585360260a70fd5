import numpy as np
import pytest

from sosxxz import partition as pt
from sosxxz.errors import DegenerateParameter, SingularPrefactor
from sosxxz.params import generic_params, sample_points


def test_n1_closed_form(p1):
    lam = 0.21 + 0.12j
    cf = pt.closed_form_n1(lam, p1.xi[0], p1.delta, p1.zeta, p1.eta)
    assert abs(pt.z_determinant(p1, (lam,), "bminus") - cf) < 1e-12 * abs(cf)
    assert abs(pt.z_contraction(p1, (lam,), "bminus") - cf) < 1e-12 * abs(cf)


def test_m_entry_formula(p2):
    from cmath import sinh

    lam = 0.21 + 0.12j
    got = pt.m_entry(0, 1, p2, (lam, -0.33 + 0.27j))
    xi = p2.xi[1]
    expect = (
        sinh(p2.delta + xi) / sinh(p2.delta + lam)
        * sinh(p2.zeta - xi) / sinh(p2.zeta + lam)
        * sinh(2 * lam) * sinh(p2.eta)
        / (sinh(lam - xi + p2.eta) * sinh(lam + xi + p2.eta) * sinh(lam - xi) * sinh(lam + xi))
    )
    assert abs(got - expect) < 1e-14 * abs(expect)


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
    residuals = pt.z_property_suite(p, lams, "bminus", seed=5)
    for name, res in residuals.items():
        tol = 1e-8 if name.startswith("degree") else 1e-9
        assert res < tol, (name, res)


def test_recursion_against_n1_closed_form(p2):
    rng = np.random.default_rng(41)
    lams = sample_points(rng, p2, 2)
    at1 = (p2.xi[0], lams[1])
    lhs = pt.z_contraction(p2, at1, "bminus")
    rhs = pt.recursion_value(p2, at1, "lam1=xi1", method="det")
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)
    sub = pt.closed_form_n1(lams[1], p2.xi[1], p2.delta, p2.zeta, p2.eta)
    direct = pt.z_determinant(p2.replace(N=1, xi=(p2.xi[1],)), (lams[1],), "bminus")
    assert abs(sub - direct) < 1e-12 * abs(sub)


def test_coincident_parameters_raise(p2):
    lams = (0.21 + 0.12j, 0.21 + 0.12j)
    with pytest.raises(SingularPrefactor):
        pt.z_determinant(p2, lams, "bminus")


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
