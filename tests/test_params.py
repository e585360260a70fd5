from cmath import sinh

import numpy as np
import pytest

from sosxxz.errors import DegenerateParameter
from sosxxz.params import assert_generic, generic_params, min_pole_gap


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
