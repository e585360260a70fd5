"""Domain-wall partition functions of the SOS model with one reflecting end.

Four boundary configurations exist (reflecting end left or right, heights
rising or falling along the top row).  Each is a matrix element of a string
of creation-type double-row blocks between the two reference states, and
each reduces to a single N x N determinant, free of poles at coincident xi_j.
The contraction and the determinant are two constructions, each checked on
its own values against the property list that characterises Z (symmetry,
crossing, both recursions, degree); ``det_vs_contract`` ties the two.

The property suite evaluates its spectral-point sets in batches: block
strings of one gate layout run together, each with its own creation block
and reference states (so cminus's own string joins bminus's), one batched
block application per step, with the gates of all the steps of a batch
built in one call (``_contract`` on ``sos.block_strings``, the engine of
the Bethe states too); strings that differ only in their first block
share the rest of the string, found by content, and the determinant takes
many point sets in one ``np.linalg.det`` call (``_z_determinant_bminus``),
guarded in one vectorised pass, its scales and products formed over the
batch.  Each value keeps the arithmetic of its own evaluation, so
batching changes no bit.  Its degree nodes in lam_1 are drawn against
plain pole guards (``_contract_guard``, ``_det_guard``) that take only
the drawn point's own terms per draw.
"""

from __future__ import annotations

from cmath import exp, pi, sinh
from typing import Callable, Sequence

import numpy as np

from . import params
from . import sos
from . import tensor as tn
from .errors import DegenerateParameter
from .params import ModelParams

# kind -> (side, creator): the boundary its block string reflects on and its creation block
KINDS = {"bminus": ("minus", "B"), "cminus": ("minus", "C"), "bplus": ("plus", "B"), "cplus": ("plus", "C")}


def _kind_params(p: ModelParams, lambdas: Sequence[complex], kind: str) -> tuple[ModelParams, tuple[complex, ...]]:
    """The parameters ``kind`` reads, and its N spectral points.

    The minus kinds reflect on (delta, zeta), the plus kinds on
    (delta_bar, zeta_bar).  Both boundary slots carry that pair, so either
    side of the construction and the pole guard see it; tau never enters
    the height-picture blocks.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown partition kind {kind!r}")
    side, _ = KINDS[kind]
    lams = tuple(complex(x) for x in lambdas)
    if len(lams) != p.N:
        raise ValueError("need exactly N spectral parameters")
    d, z, _ = p.boundary(side)
    return p.replace(delta=d, zeta=z, tau=0.0, delta_bar=d, zeta_bar=z, tau_bar=0.0), lams


def _batch_cap(n: int) -> int:
    """Elements per batched block application at chain length n.

    A batch's largest array is the gathered stack of its dynamical gates,
    2^(n-1) 4 x 4 blocks per element, four times the element's vector.  A
    batch is split so that this array holds no more than one element's does
    at n = 12: from n = 12 on, every element runs alone, at the memory of
    the unbatched contraction.
    """
    return max(1, 2 ** (12 - n))


def _contract(q: ModelParams, kind, rows, xi=None) -> list[complex]:
    """``kind``'s function of q (already mapped by ``_kind_params``) at each
    row of N points of ``rows``, with the matching row of ``xi`` (default
    q.xi) as its inhomogeneities.  ``kind`` may instead name one kind per
    row, all of one side: each row then takes its own creation block and
    reference states.  The caller guards the points.

    Each row is its own block string, applied to its reference state last
    block first (``sos.block_strings``), in batches of ``_batch_cap`` rows.
    Rows share a tail when their blocks N-1 .. 1 agree, the same creation
    block at the same points with the same xi row, compared byte for byte:
    each distinct tail runs once, then every row applies its own block 0.
    With no tail shared, the whole strings run in one pass.  Each value is
    that of its own string bit for bit.
    """
    n = q.N
    lam = np.array(rows, dtype=complex).reshape(-1, n)
    xi = np.broadcast_to(np.array(q.xi if xi is None else xi, dtype=complex), lam.shape)
    kinds = [kind] * len(lam) if isinstance(kind, str) else list(kind)
    (side,) = {KINDS[k][0] for k in kinds}
    creators = [KINDS[k][1] for k in kinds]
    up, down = tn.all_up(n), tn.all_down(n)
    # creator -> (ket, bra): B raises the all-up state to all-down, C the reverse
    refs = {"B": (up, down), "C": (down, up)}
    theta, cap = q.theta(side), _batch_cap(n)

    def strings(at: list[int], kets: list[np.ndarray], blocks: slice):
        """Each row j of ``at``, with the blocks ``blocks`` of its string
        applied to its ket, in batches of cap rows, each dropped once read."""
        for s in range(0, len(at), cap):
            b = at[s : s + cap]
            v = np.stack(kets[s : s + cap])
            for v, _ in sos.block_strings(lam[b, blocks], theta, side, [creators[j] for j in b], q, v, xi[b]):
                pass
            yield from zip(b, v)

    # a row's tail, blocks N-1 .. 1, by its creator, points and xi, byte for byte
    keys = [(c, row[1:].tobytes(), x.tobytes()) for c, row, x in zip(creators, lam, xi)]
    tails = list(dict.fromkeys(keys))
    everyone = list(range(len(lam)))
    if len(tails) == len(lam):
        ends = strings(everyone, [refs[c][0] for c in creators], slice(None))
    else:
        first = [keys.index(k) for k in tails]
        # copied out of the batch's product, which also holds the other blocks
        shared = {keys[j]: v.copy() for j, v in strings(first, [refs[creators[j]][0] for j in first], slice(1, None))}
        ends = strings(everyone, [shared[k] for k in keys], slice(0, 1))
    return [complex(refs[creators[j]][1] @ v) for j, v in ends]


def _guard_rows(q: ModelParams, kind: str, rows) -> None:
    """The contraction's pole guard of each row of N points in turn.

    The 2N+5 theta gaps do not depend on the row, so they are taken once,
    after the first row's own gaps, where the first row's check took them:
    every decision and message is that of checking each row with theta.
    """
    theta = q.theta(KINDS[kind][0])
    for j, row in enumerate(rows):
        params.assert_generic(q, tuple(row), [theta] if j == 0 else [])


def _contract_guard(q: ModelParams, lams: tuple[complex, ...]) -> Callable[[complex], None]:
    """The bminus contraction's pole guard of q's N points lams with lam in
    place of lams[0], as a function of lam.  The other points and theta are
    checked here, once, so a failing fixed part raises its own message; each
    call checks lam alone."""
    params.assert_generic(q, lams[1:], [q.theta("minus")])
    return lambda lam: params.assert_generic(q, (complex(lam),))


def z_contraction(p: ModelParams, lambdas: Sequence[complex], kind: str) -> complex:
    """Matrix element of the defining block string between reference states."""
    q, lams = _kind_params(p, lambdas, kind)
    _guard_rows(q, kind, [lams])
    return _contract(q, kind, [lams])[0]


def _kernel(q: ModelParams, lam: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, ...]:
    """u = cosh 2lam, v = cosh(2lam + 2eta) and w = cosh(2lam + eta) of the
    points lam (..., K), the differences u_i - x_j and v_i - x_j (..., K, N)
    from x = cosh 2xi (xi (..., N)), their product lam_xi / 4 and the pair
    factors of the points among themselves (..., K(K-1)/2), each array taken
    over the last axes."""
    eta = q.eta
    u, v, w, x = np.cosh(2 * lam), np.cosh(2 * lam + 2 * eta), np.cosh(2 * lam + eta), np.cosh(2 * xi)
    ux, vx = u[..., None] - x[..., None, :], v[..., None] - x[..., None, :]
    lam_xi = ux * vx / 4  # sinh(lam_i +- xi_j) sinh(lam_i + eta +- xi_j)
    i = np.arange(lam.shape[-1])
    # sinh(lam_j - lam_i) sinh(lam_j + lam_i + eta), i < j
    pair = (w[..., None, :] - w[..., :, None])[..., i[:, None] < i] / 2
    return u, v, w, ux, vx, lam_xi, pair


def _kernel_check(q: ModelParams, lam_xi: np.ndarray, pair: np.ndarray) -> None:
    """The check of the kernel's lam/xi products and lambda pairs (``_kernel``)."""
    if np.any(np.abs(lam_xi) <= q.eps_pole):
        raise DegenerateParameter("coincident lambda/xi in the determinant kernel")
    if np.any(np.abs(pair) <= q.eps_pole):
        raise DegenerateParameter("coincident spectral parameters")


def _det_check_rows(q: ModelParams, lam: np.ndarray, lam_xi: np.ndarray, pair: np.ndarray) -> None:
    """The determinant's pole guard of each row of points lam (R, N) with
    its kernel rows: the generic check of the points and theta, then
    ``_kernel_check``, as one vectorised pass over every gap they read.

    numpy's sinh may round apart from the guard's ``cmath`` sinh, so when a
    gap is not finite or lies within a relative 1e-9 of eps_pole, the rows
    run through the two checks one by one: every decision and message is
    that of checking each row alone, first bad row first.
    """
    bases = np.array([q.delta, q.zeta, q.delta_bar, q.zeta_bar])
    k = np.arange(-(q.N + 2), q.N + 3)
    with np.errstate(all="ignore"):
        sinhs = (np.sinh(bases + lam[..., None]), np.sinh(bases - lam[..., None]), np.sinh(2 * lam + q.eta))
        theta = np.sinh(q.theta("minus") + k * q.eta)
        gaps = np.concatenate([np.abs(a).ravel() for a in (*sinhs, theta, lam_xi, pair)])
    if not np.all((gaps > q.eps_pole * (1 + 1e-9)) & (gaps < np.inf)):
        for row, row_xi, row_pair in zip(lam, lam_xi, pair):
            params.assert_generic(q, tuple(row), [q.theta("minus")])
            _kernel_check(q, row_xi, row_pair)


def _z_determinant_bminus(q: ModelParams, lams, xi=None, pole=None) -> list[complex]:
    """Tsuchiya's determinant in u = cosh 2lam, v = cosh(2lam + 2eta), w = cosh(2lam + eta), x = cosh 2xi,
    at each row of N points of ``lams``, with the matching row of ``xi`` (default q.xi).

    Kernel entry (i, j) is r_i c_j [1/(u_i - x_j) - 1/(v_i - x_j)].  Divided differences over x_1..x_j
    make column j 1/prod_{m<=j}(u_i - x_m) - 1/prod_{m<=j}(v_i - x_m); their Jacobian cancels the xi-pair
    prefactor prod (x_j - x_i)/2.  Rows, then columns, are scaled to unit max (Higham, ch. 9).  Each row
    is guarded as it would be alone (``_det_check_rows``); one ``np.linalg.det`` call takes
    the kernels of all rows, the scales and products run over the batch save the steps that round apart
    batched, and each value is that of its row alone, bit for bit.

    ``pole`` gives, per row of points, the index i of a point at lam_i = +-xi_1 (u_i = x_1, x_1 at any node
    of the row's xi), or None.  That kernel row, times prod_m (u_i - x_m), is taken at its removable pole
    (Korepin's recursion): entry j is prod_{m>j}(u_i - x_m), zero before x_1's node, the v term vanishes,
    and its lam/xi factors are (v_i - x_m)/4.  Nothing divides by u_i - x_1, nor by x_1 - x_m (zero at coincident xi).
    """
    n, eta, d, z = q.N, q.eta, q.delta, q.zeta
    lam = np.array(lams, dtype=complex).reshape(-1, n)
    xi = np.broadcast_to(np.array(q.xi if xi is None else xi, dtype=complex), lam.shape)
    at = tuple(np.array([(s, i) for s, i in enumerate(pole or ()) if i is not None], dtype=int).reshape(-1, 2).T)
    u, v, _, ux, vx, lam_xi, pair = _kernel(q, lam, xi)
    lam_xi[at] = vx[at] / 4
    _det_check_rows(q, lam, lam_xi, pair)
    # prod_{m>j}(u_i - x_m): the reversed running product of columns N-1 .. 1, after an empty product
    tail = np.cumprod(np.concatenate([np.ones((len(at[0]), 1)), ux[at][:, :0:-1]], axis=-1), axis=-1)[:, ::-1]
    ux[at] = 1
    k = 1 / np.cumprod(ux, axis=-1) - 1 / np.cumprod(vx, axis=-1)
    k[at] = tail
    rows = np.max(np.abs(k), axis=-1)
    cols = np.max(np.abs(k / rows[..., None]), axis=-2)
    r = 4 * np.sinh(2 * lam) * np.sinh(eta) / ((v - u) * np.sinh(d + lam) * np.sinh(z + lam))
    c = np.sinh(d + xi) * np.sinh(z - xi)
    i = np.arange(n)
    theta_ratio = np.sinh(q.theta("minus") + eta * (n - 2 - 2 * i)) / np.sinh(q.theta("minus") + eta * (n - 1 - i))
    # (-2)^(N(N-1)/2): the 2 per pair left by the xi-pair cancellation, and the reversal sign
    # (-1)^(N(N-1)/2), fixed by the contraction oracle and the N = 1 closed form
    sign = (-2) ** (n * (n - 1) // 2)
    dets = np.linalg.det(k / rows[..., None] / cols[..., None, :])
    # the scales and lam/xi products are taken over the batch, on operands of one shape (theta_ratio tiled
    # to it), as a row alone takes them; the pair product and the final combination are taken row by row,
    # on 1-D rows and in numpy scalars, as for one row: there a reduction over the batch or a broadcast
    # operand takes another loop, and numpy's complex product rounds by loop
    scale = np.prod(rows * cols * r * c * np.tile(theta_ratio, (len(lam), 1)), axis=-1)
    lam_xi = np.prod(lam_xi.reshape(len(lam), -1), axis=-1)
    return [complex(dt * (sign * sc) * lx / np.prod(pr)) for dt, sc, lx, pr in zip(dets, scale, lam_xi, pair)]


def z_determinant(p: ModelParams, lambdas: Sequence[complex], kind: str) -> complex:
    """Determinant evaluation for any kind, via the inter-kind relations.

    cminus and bplus swap the boundary pair; the plus kinds map onto the
    minus ones with all spectral parameters sent to -lam - eta, the
    inhomogeneities negated, and an overall (-1)^N.
    """
    q, lams = _kind_params(p, lambdas, kind)
    side, _ = KINDS[kind]
    if kind in ("cminus", "bplus"):
        q = q.replace(delta=q.zeta, zeta=q.delta, delta_bar=q.zeta, zeta_bar=q.delta)
    if side == "minus":
        return _z_determinant_bminus(q, [lams])[0]
    reflected = q.replace(xi=tuple(-x for x in q.xi))
    return (-1) ** q.N * _z_determinant_bminus(reflected, [tuple(q.k_point(l, side) for l in lams)])[0]


def crossing_factor(lam: complex, delta: complex, zeta: complex, eta: complex) -> complex:
    """Prefactor relating Z at lam_i -> -lam_i - eta to Z at lam_i."""
    return (
        -sinh(2 * (lam + eta))
        * sinh(lam + zeta)
        / (sinh(2 * lam) * sinh(lam - zeta + eta))
        * sinh(lam + delta)
        / sinh(lam - delta + eta)
    )


def _recursion(q: ModelParams, lams: tuple[complex, ...], which: str) -> tuple[complex, ModelParams, tuple]:
    """The coefficient of recursion ``which`` of q's bminus function, and the
    parameters and N-1 points of the Z_{N-1} it multiplies."""
    n, eta, xis = q.N, q.eta, q.xi
    th = q.theta("minus")
    # lam is the substituted point, member its boundary coupling, x0 = +-xi_1
    # the value lam takes there, and rest the points Z_{N-1} keeps
    if which == "lam1=xi1":
        lam, member, x0, rest = lams[0], q.zeta, xis[0], lams[1:]
    elif which == "lamN=-xi1":
        lam, member, x0, rest = lams[-1], q.delta, -xis[0], lams[:-1]
    else:
        raise ValueError(f"unknown recursion {which!r}")
    coeff = sinh(eta) * sinh(member - lam) / sinh(member + lam)
    for i in range(1, n + 1):
        coeff *= sinh(lams[i - 1] + x0)
        coeff *= sinh(th + (n - 2 * i) * eta) / sinh(th + (n - 2 * i + 1) * eta)
    for xi, other in zip(xis[1:], rest):
        coeff *= sinh(lam - xi + eta) * sinh(lam + xi + eta)
        coeff *= sinh(other - x0 + eta)
    return coeff, q.replace(N=n - 1, xi=xis[1:]), rest


# rejections running after which a degree node's phase window moves by its width
WINDOW_STAY = 16


def _degree_nodes(p: ModelParams, guard: Callable[[complex], None], rng: np.random.Generator) -> list[complex]:
    """The 2N+4 interpolation nodes of the degree test, drawn near the
    imaginary axis in phase windows spread by the count accepted so far; a
    draw at which ``guard`` raises ``DegenerateParameter`` is skipped.

    Node k's window is (k + 0.37 +- 0.08) pi / (2N+4).  A window that
    rejects ``WINDOW_STAY`` draws running is taken to lie on a zero of the
    guard, and moves by its width, 0.16, per ``WINDOW_STAY`` rejections,
    away from the nearer end of the phase range (0, pi), where lam_1 nears
    0 and i pi and so every small xi_j; a window never starts within one
    width of the node before it.  So the nodes' phases rise strictly, each
    exp(2 lam) has its own argument, and a run whose windows reject fewer
    draws running draws the phases of fixed windows.
    """
    n_pts = 2 * p.N + 4
    nodes: list[complex] = []
    tries = rejected = 0
    last = -1.0
    while len(nodes) < n_pts and tries < 200:
        tries += 1
        k = len(nodes)
        away = 1 if 2 * k < n_pts else -1
        centre = max(k + 0.37 + away * 0.16 * (rejected // WINDOW_STAY), last + 0.24)
        phase = pi * (centre + 0.08 * rng.uniform(-1, 1)) / n_pts
        lam = complex(0.05 + 0.02 * rng.uniform(-1, 1), phase)
        try:
            guard(lam)
        except DegenerateParameter:
            rejected += 1
            continue
        nodes.append(lam)
        rejected, last = 0, phase * n_pts / pi
    if len(nodes) < n_pts:
        raise DegenerateParameter("could not sample generic interpolation nodes")
    return nodes


def _degree_fit(p: ModelParams, nodes: Sequence[complex], z: Sequence[complex]) -> float:
    """The degree test from the values z of Z with lam_1 at each node: the
    top coefficient of the degree-(2N+3) interpolant to exp((2N+2) lam_1)
    sinh(delta + lam_1) sinh(zeta + lam_1) Z in exp(2 lam_1), relative to
    the largest value.  A degree-(2N+2) polynomial leaves it at rounding level.
    """
    vals = [exp((2 * p.N + 2) * lam) * sinh(p.delta + lam) * sinh(p.zeta + lam) * zl for lam, zl in zip(nodes, z)]
    x = np.array([exp(2 * l) for l in nodes])
    vand = np.vander(x, N=len(nodes), increasing=True)
    coeffs = np.linalg.solve(vand, np.array(vals))
    return float(abs(coeffs[-1]) / max(np.max(np.abs(vals)), 1e-300))


def _det_guard(q: ModelParams, lams: tuple[complex, ...]) -> Callable[[complex], None]:
    """The determinant's pole guard of q's N points lams with lam in place
    of lams[0], as a function of lam: ``_contract_guard``, then the kernel
    check (``_kernel_check``).  The part lam does not enter (the other
    points, theta and their kernel products and pairs) is checked here,
    once, so a failing fixed part raises its own message, and x = cosh 2xi
    is taken once; each call takes only lam's own terms of ``_kernel``, u,
    v and w, and checks lam's gaps, its N lam/xi products and its N-1
    pairs with the other points.
    """
    xi, eta = np.array(q.xi), q.eta
    x = np.cosh(2 * xi)
    _, _, w_rest, _, _, lam_xi, pair = _kernel(q, np.array(lams[1:], dtype=complex), xi)
    generic = _contract_guard(q, lams)
    _kernel_check(q, lam_xi, pair)

    def guard(lam: complex) -> None:
        generic(lam)
        at = 2 * np.array([complex(lam)])
        u, v, w = np.cosh(at), np.cosh(at + 2 * eta), np.cosh(at + eta)
        # lam's row of _kernel: (u - x_j)(v - x_j) / 4, and its pairs w_j - w_lam over 2
        _kernel_check(q, (u - x) * (v - x) / 4, (w_rest - w) / 2)

    return guard


def z_property_suite(
    p: ModelParams,
    lambdas: Sequence[complex],
    kind: str,
    seed: int = 0,
    methods: tuple[str, ...] = ("det", "contract"),
) -> tuple[dict[str, float], dict[str, complex]]:
    """Symmetry, crossing, recursion, and degree checks on the given evaluation
    paths, for the bminus function of the pair that ``kind`` reflects on.

    The 2N+4 degree nodes of each requested method are drawn first, from
    default_rng(seed), each draw asking that method's pole guard
    (``_det_guard``, ``_contract_guard``) and skipped where it raises.  Then
    each method evaluates its own values, both recursions' left sides
    included, in a few passes (``_z_determinant_bminus``, ``_contract``):
    - the determinant takes its N point sets in one call, the left sides
      in their limit form at the kernel's removable pole (xi_1 last), and
      the recursions' N-1 point sets in another; it never contracts;
    - the contraction takes the same point sets as rows of one call, in
      the same order, and cminus's own string after them (for kind
      cminus: its string has this gate layout, with C blocks and swapped
      reference states); Z's tail B(lam_2) ... B(lam_N) |ref> is shared
      by the rows that vary only lam_1 (Z itself, the crossed point, the
      degree nodes and lam_1 = xi_1), and by nothing else; the
      recursions' N-1 point strings are a second call.
    Each value is that of its own evaluation bit for bit.  Returns the
    residuals, and ``kind``'s own value at ``lambdas`` by method, so a
    caller need not evaluate it again: for bminus the suite's Z, for
    cminus's contraction its row of the pass; the plus kinds' strings (the
    other gate layout) and cminus's determinant (the swapped pair) are
    evaluated after the checks, one call per method.
    """
    q, lams = _kind_params(p, lambdas, kind)
    for method in methods:
        if method not in ("det", "contract"):
            raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    n, x1 = q.N, q.xi[0]
    guard = {m: {"det": _det_guard, "contract": _contract_guard}[m](q, lams) for m in methods}
    nodes = {m: _degree_nodes(q, guard[m], rng) for m in methods}
    firsts = {m: [lams[0], -lams[0] - q.eta, *nodes[m]] for m in methods}
    # the N point sets beside lam_1, each with its xi: the lambda swap, the xi swap
    others = []
    if n >= 2:
        others = [((lams[1], lams[0]) + lams[2:], q.xi), (lams, (q.xi[1], q.xi[0]) + q.xi[2:])]
        at1, atn = (x1,) + lams[1:], lams[:-1] + (-x1,)
        (c1, sub, rest1), (cn, _, restn) = _recursion(q, at1, "lam1=xi1"), _recursion(q, atn, "lamN=-xi1")
    # method -> the values at firsts, at1, others and atn, then at the recursions' N-1 point sets
    z: dict[str, list[complex]] = {}
    own: dict[str, complex] = {}
    if "det" in methods:
        sets = [((lam,) + lams[1:], q.xi, None) for lam in firsts["det"]]
        if n >= 2:
            # each left side's point sits at the pole (row 0 of at1, row N-1 of atn), with xi_1 the last
            # divided-difference node (Z is symmetric in xi): its limit row is e_N, and the kernel keeps
            # Z_{N-1}'s conditioning; with xi_1 first, cond grew 1e3-fold (N = 14, CLI seed 25), losing 1e-9
            last = q.xi[1:] + q.xi[:1]
            sets += [(at1, last, 0)] + [(*s, None) for s in others] + [(atn, last, n - 1)]
        z["det"] = _z_determinant_bminus(q, *zip(*sets))
        if n >= 2:
            z["det"] += _z_determinant_bminus(sub, [rest1, restn])
    if "contract" in methods:
        # the rows in the determinant's order: lam_1, its crossed point, the
        # degree nodes and x1 in place of lams[0] (these share Z's tail),
        # then the two swaps and atn; then cminus's own row, which has this
        # gate layout and its own block and reference states
        points = firsts["contract"] + ([x1] if n >= 2 else [])
        rows = [((lam,) + lams[1:], q.xi) for lam in points] + others + ([(atn, q.xi)] if n >= 2 else [])
        # the degree nodes passed this guard as they were drawn
        for lam in firsts["contract"][:2] + points[len(firsts["contract"]) :]:
            guard["contract"](lam)
        _guard_rows(q, "bminus", [row for row, _ in rows[len(points) :]])
        # cminus's points are Z's, whose gaps the guard of the lam_1 points has taken
        mine = [(lams, q.xi)] if kind == "cminus" else []
        kinds = ["bminus"] * len(rows) + ["cminus"] * len(mine)
        z["contract"] = _contract(q, kinds, *zip(*rows, *mine))
        if mine:
            own["contract"] = z["contract"].pop()
        if n >= 2:
            _guard_rows(sub, "bminus", [rest1, restn])
            z["contract"] += _contract(sub, "bminus", [rest1, restn])
    res: dict[str, float] = {}
    for method in methods:
        k = len(firsts[method])
        z0, crossed, *at_nodes = z[method][:k]
        pred = crossing_factor(lams[0], q.delta, q.zeta, q.eta) * z0
        res[f"crossing_{method}"] = rel_disagreement(crossed, pred)
        if n >= 2:
            left1, lambda_swapped, xi_swapped, leftn, right1, rightn = z[method][k:]
            res[f"lambda_swap_{method}"] = rel_disagreement(lambda_swapped, z0)
            res[f"xi_swap_{method}"] = rel_disagreement(xi_swapped, z0)
            res[f"recursion_lam1_{method}"] = rel_disagreement(c1 * right1, left1)
            res[f"recursion_lamN_{method}"] = rel_disagreement(cn * rightn, leftn)
        res[f"degree_{method}"] = _degree_fit(q, nodes[method], at_nodes)
        if kind == "bminus":
            own[method] = z0
    # the plus kinds' strings have the other gate layout, and cminus's determinant the swapped pair
    evaluate = {"det": z_determinant, "contract": z_contraction}
    return res, {m: own[m] if m in own else evaluate[m](p, lambdas, kind) for m in methods}


def rel_disagreement(a: complex, b: complex) -> float:
    """|a - b| relative to |b|: a value against its reference, such as
    Z_det against Z_contract."""
    return abs(a - b) / max(abs(b), 1e-300)
