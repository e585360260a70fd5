"""Batch front-end: verification suites, Bethe solves, spectra, partitions.

A run reads one JSON config (complex numbers as [re, im] pairs), executes
the requested command, and emits a stream of check rows followed by a
summary object.  Identical config and seed produce byte-identical output
except for the summary's wall_time field.

Exit codes: 0 success, 2 config error (an unwritable ``--out`` included),
3 degenerate parameters, 4 tolerance failure, 5 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import bethe as bt
from . import params
from . import partition as pt
from . import sos
from . import tensor as tn
from . import vertex as vx
from .errors import BadSector, ConfigError, DegenerateParameter, NoConvergence, SosXxzError
from .params import COUPLINGS, ModelParams, generic_params, min_pole_gap, sample_points

DEFAULT_TOLERANCES = {"pole": 1e-8, "identity": 1e-10, "bethe": 1e-9, "partition": 1e-9}
# bytes of the largest single dense complex array that verify, bethe,
# spectrum or partition may build; a gate product holds its input, a
# transposed copy and its output at once, so the peak memory is a few times this
DENSE_BUDGET = 2**28
# command -> entry count of the largest dense complex array it builds at
# chain length N, or a bound above that count
DENSE_ENTRIES = {
    # the reflection-algebra checks apply their gate lists to a (2^(N+2), 8)
    # probe block over two auxiliary legs and the sites; no dynamical gate's
    # stack (at most 2^N 4 x 4 blocks) or two-group block string is larger
    "verify": lambda n: 2 ** (n + 5),
    # bethe applies the gauge row and both transfer matrices to its stacked
    # states as gate lists, the transfer matrices at its three points in one
    # batch, and builds no square matrix: 3 x 2^(N+2) entries per state, at
    # most N_STARTS = 60 states, under this bound from N = 8 on.  It keeps
    # the bound of spectrum, so the two refuse the same N
    "bethe": lambda n: 4 ** (n + 1),
    # spectrum applies the transfer matrix to the C(N, M) <= 2^N basis columns
    # of its sector, 2^(N+1) entries each: at most half this bound.  The bound
    # refuses N >= 12, where the vertex images' norm floor rejects good states
    "spectrum": lambda n: 4 ** (n + 1),
    # the block string acts on a vector over the auxiliary leg and the sites;
    # each two-leg dynamical gate on it is a stack of 2^(N-1) 4 x 4 blocks
    "partition": lambda n: 2 ** (n + 3),
}
# the largest N of a det-only partition run, which nothing contracts: past it
# the LU of the ill-conditioned kernel (cond 2.8e5 at N = 16, 1.3e9 at
# N = 20) loses more than the 1e-9 tolerance against a 60-digit reference,
# which the property rows need not see; --method both ties det to the contraction
DET_ONLY_MAX_N = 16


@dataclass
class RunConfig:
    params: ModelParams
    sector_s: int = 0
    constraint_n: int = 0
    constraint_m: int = 0
    seed: int = 0
    trials: int = 20
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def digest(self) -> str:
        blob = json.dumps(config_to_json(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _c2pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _pair2c(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"expected number or [re, im] pair, got {v!r}")


def config_to_json(cfg: RunConfig) -> dict:
    p = cfg.params
    return {
        "N": p.N,
        "xi": [_c2pair(x) for x in p.xi],
        **{k: _c2pair(getattr(p, k)) for k in COUPLINGS},
        "sector_s": cfg.sector_s,
        "constraint_n": cfg.constraint_n,
        "constraint_m": cfg.constraint_m,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "tolerances": {k: cfg.tolerances[k] for k in sorted(cfg.tolerances)},
    }


def load_config(path: str | None, overrides: argparse.Namespace) -> RunConfig:
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
    # a flag that is given wins over the config, the config over the default;
    # the config value is checked either way
    def pick(flag: str | None, key: str, default: int | None) -> int | None:
        value = data.get(key, default)
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if key in data and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        override = getattr(overrides, flag, None) if flag else None
        return value if override is None else override

    n = pick("n", "N", 2)
    if n < 1:
        raise ConfigError(f"chain length N = {n} must be at least 1")
    tol = dict(DEFAULT_TOLERANCES)
    given = data.get("tolerances", {})
    if not isinstance(given, dict):
        raise ConfigError(f"config key 'tolerances' must be an object, got {given!r}")
    unknown = sorted(set(given) - set(DEFAULT_TOLERANCES))
    if unknown:
        raise ConfigError(f"unknown tolerance keys {unknown}; the keys are {sorted(DEFAULT_TOLERANCES)}")
    tol.update(given)
    for k, v in tol.items():
        try:
            ok = not isinstance(v, bool) and math.isfinite(v) and (v >= 0 if k == "pole" else v > 0)
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            sign = "non-negative" if k == "pole" else "positive"
            raise ConfigError(f"tolerance {k!r} must be a finite {sign} number, got {v!r}")
    if not isinstance(data.get("xi", []), list):
        raise ConfigError(f"config key 'xi' must be a list, got {data['xi']!r}")
    # before any parameter is built: their cost grows with N
    command = getattr(overrides, "command", None)
    if command in DENSE_ENTRIES:
        require_dense_budget(DENSE_ENTRIES[command](n))
    base = generic_params(n)
    try:
        xi = tuple(_pair2c(v) for v in data["xi"]) if "xi" in data else base.xi
        couplings = {k: _pair2c(data[k]) if k in data else getattr(base, k) for k in COUPLINGS}
        model = ModelParams(N=n, xi=xi, **couplings, eps_pole=float(tol["pole"]))
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
    scale = getattr(overrides, "tol_scale", None)
    scale = 1.0 if scale is None else scale
    if not (np.isfinite(scale) and scale > 0):
        raise ConfigError(f"tolerance scale {scale} must be positive and finite")
    for k in ("identity", "bethe", "partition"):
        tol[k] = tol[k] * scale
    trials = pick("trials", "trials", 20)
    if trials < 1:
        raise ConfigError(f"trials = {trials} must be at least 1")
    # numpy's generators take no negative seed
    seed = pick("seed", "seed", 0)
    if seed < 0:
        raise ConfigError(f"seed = {seed} must be non-negative")
    sector = pick("sector", "sector_s", None)
    if sector is None:
        # an unconstrained bethe run takes its family's sector; a constrained
        # one, like every other run, reads sector 0
        free_bethe = command == "bethe" and not overrides.constrained
        sector = bt.family_sector(overrides.branch, overrides.m, n) if free_bethe else 0
    return RunConfig(
        params=model,
        sector_s=sector,
        constraint_n=pick(None, "constraint_n", 0),
        constraint_m=pick(None, "constraint_m", 0),
        seed=seed,
        trials=trials,
        tolerances=tol,
    )


def require_dense_budget(entries: int) -> None:
    """Refuse a run whose largest complex array, of this many entries, exceeds DENSE_BUDGET."""
    if 16 * entries > DENSE_BUDGET:
        # the size as a power of two: a huge entry count has no float or decimal form
        raise ConfigError(
            f"a dense array of at least 2^{entries.bit_length() - 1} complex entries is over "
            f"the {DENSE_BUDGET / 1e9:.3g} GB budget"
        )


def _row(check: str, residual: float, tolerance: float) -> dict:
    """One report row, without its params digest; a non-finite residual raises DegenerateParameter."""
    return {
        "check": check,
        "residual": float(tn.require_finite(residual)),
        "tolerance": float(tolerance),
        "pass": bool(residual < tolerance),
    }


def _eigen_tolerance(cfg: RunConfig) -> float:
    """The tolerance of an eigenpair residual or an eigenvalue match."""
    return max(cfg.tolerances["bethe"] * 10, 1e-8)


def _eigen_residual(tx: np.ndarray, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """||t x - lam x|| / (||x|| max(|lam|, 1e-300)) of each column x, its image tx and its eigenvalue lam."""
    return np.linalg.norm(tx - x * lam, axis=0) / (np.linalg.norm(x, axis=0) * np.maximum(np.abs(lam), 1e-300))


def run_verify(cfg: RunConfig, suite: str) -> tuple[list[dict], dict]:
    # suite -> (its check registry, its trial draw).  Each suite draws its
    # trials afresh for this call, one at a time, for all its checks; the
    # runner is looked up at call time, so a wrapped one is the one that runs
    suites = {"vertex": (vx.VERTEX_RESIDUALS, vx.vertex_trial), "sos": (sos.SOS_RESIDUALS, sos.sos_trial)}
    rows = []
    for name, (checks, draw) in suites.items():
        if suite in (name, "all"):
            worst = params.identity_suite(checks, draw, cfg.params, cfg.seed, cfg.trials)
            rows += [_row(f"{name}.{chk}", r, cfg.tolerances["identity"]) for chk, r in worst.items()]
    return rows, {"suite": suite}


def run_bethe(cfg: RunConfig, branch: str, m: int, constrained: bool) -> tuple[list[dict], dict]:
    # the SOS rows need the height condition at the family's sector; only the
    # vertex rows, checked with --constrained, need the vertex condition too
    sector = bt.family_sector(branch, m, cfg.params.N)
    if cfg.sector_s != sector:
        raise BadSector(f"sector s = {cfg.sector_s}, but M = {m} {branch} roots on N = {cfg.params.N} sites "
                        f"make sector {sector}")
    c = bt.BoundaryConstraint(sector, cfg.constraint_n, cfg.constraint_m)
    p = bt.apply_constraints(cfg.params, c) if constrained else bt.height_condition(cfg.params, c)
    ledger = dict.fromkeys(bt.LEDGER, 0)
    sols = bt.find_bethe_solutions(branch, m, p, seed=cfg.seed, ledger=ledger)
    if not sols:
        counts = ", ".join(f"{k} {v}" for k, v in ledger.items())
        raise NoConvergence(f"no verified {branch} solutions with M = {m} (Newton ledger: {counts})")
    mus = sample_points(np.random.default_rng(cfg.seed + 1), p, 3)
    spec = bt.BRANCHES[branch]
    theta = bt.branch_theta(branch, p)
    # all states come from one batched string of creation blocks, stacked as
    # columns; the gauge row acts on them at once, and each picture's
    # transfer matrix at all three mu is one batched traced product per
    # trace form, each mu's image checked against its own eigenvalues
    psi = bt.bethe_state(branch, sols, p)
    lams = [[bt.branch_eigenvalue(branch, mu, sol.roots, p) for mu in mus] for sol in sols]
    pictures = {"sos_eigenstate": (psi, sos.sos_transfer(np.array(mus), theta, spec.sos_kind, p, psi))}
    if constrained:
        v = bt.vertex_eigenstate(branch, psi, p)
        pictures["vertex_eigenstate"] = (v, vx.transfer_xxz(np.array(mus), p, v))
    lam = np.array(lams)
    worst = {}
    for name, (x, images) in pictures.items():
        worst[name] = np.zeros(len(sols))
        for j, tx in enumerate(images):
            worst[name] = np.maximum(worst[name], _eigen_residual(tx, x, lam[:, j]))
    rows, results = [], []
    for i, sol in enumerate(sols):
        rows.append(_row(f"bethe.{branch}.{i}.equation", max(sol.residuals), cfg.tolerances["bethe"]))
        rows += [_row(f"bethe.{branch}.{i}.{name}", res[i], _eigen_tolerance(cfg)) for name, res in worst.items()]
        results.append(
            {
                "roots": [_c2pair(z) for z in sol.roots],
                "equation_residuals": list(sol.residuals),
                "sector": sol.sector,
                "eigenvalues": [{"mu": _c2pair(mu), "lambda": _c2pair(lam)} for mu, lam in zip(mus, lams[i])],
            }
        )
    return rows, {"branch": branch, "M": m, "newton": ledger, "solutions": results}


def run_spectrum(cfg: RunConfig, constrained: bool) -> tuple[list[dict], dict]:
    if not constrained:
        raise ConfigError("spectrum needs --constrained: it diagonalizes the S^z sector block under the constraints")
    p = bt.apply_constraints(cfg.params, bt.BoundaryConstraint(cfg.sector_s, cfg.constraint_n, cfg.constraint_m))
    tol = _eigen_tolerance(cfg)
    mu = sample_points(np.random.default_rng(cfg.seed + 2), p, 1)[0]
    m = (p.N - cfg.sector_s) // 2
    # the height-picture transfer matrix keeps S^z: diagonalize its block of
    # the sector, and check each eigenpair's gauge image in the vertex picture
    idx, cols = sos.sector_transfer(mu, bt.branch_theta("b1", p), "SOS1", p, cfg.sector_s)
    leakage = tn.max_abs(np.delete(cols, idx, axis=0)) / max(tn.max_abs(cols), 1e-300)
    rows = [_row("spectrum.sector_leakage", leakage, tol)]
    t_eigs, vecs = np.linalg.eig(cols[idx])
    psi = np.zeros_like(cols)
    psi[idx] = vecs
    v = bt.vertex_eigenstate("b1", psi, p)
    res = _eigen_residual(vx.transfer_xxz(mu, p, v), v, t_eigs)
    rows.append(_row("spectrum.sector_in_vertex", np.max(res), tol))
    ledger = dict.fromkeys(bt.LEDGER, 0)
    sols = bt.find_bethe_solutions("b1", m, p, seed=cfg.seed, ledger=ledger)
    details = []
    for sol in sols:
        lam = bt.branch_eigenvalue("b1", mu, sol.roots, p)
        dist = float(np.min(np.abs(t_eigs - lam)) / max(abs(lam), 1e-300))
        details.append({"roots": [_c2pair(z) for z in sol.roots], "lambda": _c2pair(lam), "match_residual": dist})
    matched = sum(d["match_residual"] < tol for d in details)
    extra = {
        "mu": _c2pair(mu),
        "transfer_dimension": 2**p.N,
        "sector_dimension": len(t_eigs),
        "min_pole_gap": min_pole_gap(p, [mu]),
        "newton": ledger,
        "solutions_found": len(sols),
        "matched": matched,
        "unmatched_spectrum": len(t_eigs) - matched,
        "solutions": details,
    }
    return rows, extra


def run_partition(cfg: RunConfig, kind: str, method: str) -> tuple[list[dict], dict]:
    p = cfg.params
    if method == "det" and p.N > DET_ONLY_MAX_N:
        raise ConfigError(
            f"--method det is certified up to N = {DET_ONLY_MAX_N}: past it the determinant kernel's "
            "conditioning costs more than the tolerance; use --method both"
        )
    tol = cfg.tolerances["partition"]
    rng = np.random.default_rng(cfg.seed)
    lams = sample_points(rng, p, p.N)
    methods = ("det", "contract") if method == "both" else (method,)
    # the suite checks the bminus function of the kind's pair, and returns the kind's own Z
    residuals, values = pt.z_property_suite(p, lams, kind, seed=cfg.seed, methods=methods)
    if method == "both":
        residuals["det_vs_contract"] = pt.rel_disagreement(values["det"], values["contract"])
    rows = [_row(f"partition.{kind}.{name}", res, tol) for name, res in residuals.items()]
    extra = {"kind": kind, "method": method, "lambdas": [_c2pair(z) for z in lams]}
    extra.update({f"value_{m}": _c2pair(z) for m, z in values.items()})
    return rows, extra


def render(rows: list[dict], summary: dict, fmt: str) -> str:
    if fmt == "json":
        lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in rows]
        lines.append(json.dumps(summary, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["check", "params_digest", "residual", "tolerance", "pass"])
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
        return buf.getvalue()
    if fmt == "text":
        lines = []
        for r in rows:
            status = "PASS" if r["pass"] else "FAIL"
            lines.append(f"{r['check']:48s} {r['residual']:.3e}  (tol {r['tolerance']:.1e})  {status}")
        ok = all(r["pass"] for r in rows)
        lines.append(f"-- {'all checks passed' if ok else 'FAILURES PRESENT'} "
                     f"({sum(r['pass'] for r in rows)}/{len(rows)})")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON run configuration")
    common.add_argument("--format", default="json", choices=("json", "csv", "text"))
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--tol-scale", type=float, dest="tol_scale", help="multiply all tolerances")
    common.add_argument("--n", type=int, help="chain length override")
    common.add_argument("--seed", type=int, help="seed override")
    common.add_argument("--trials", type=int, help="trials per identity check")
    common.add_argument("--sector", type=int, help="total-spin sector; bethe needs the one its M roots reach")

    ap = argparse.ArgumentParser(prog="sosxxz", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common], help="run the identity suites")
    v.add_argument("--suite", default="all", choices=("vertex", "sos", "all"))

    b = sub.add_parser("bethe", parents=[common], help="solve Bethe equations and verify eigenstates")
    b.add_argument("--branch", default="b1", choices=tuple(bt.BRANCHES))
    b.add_argument("--m", type=int, required=True, help="number of Bethe roots")
    b.add_argument("--constrained", action="store_true", help="also impose the vertex condition; adds vertex rows")

    s = sub.add_parser("spectrum", parents=[common], help="transfer-matrix eigenvalues vs Bethe eigenvalues")
    s.add_argument("--constrained", action="store_true", help="impose the boundary constraints (required)")

    q = sub.add_parser("partition", parents=[common], help="domain-wall partition functions")
    q.add_argument("--kind", default="bminus", choices=pt.KINDS)
    q.add_argument("--method", default="both", choices=("det", "contract", "both"))
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.monotonic()
    try:
        # numpy overflow, division by zero and invalid operations raise, so stderr
        # holds one message line, not warnings; underflow stays silent
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cfg = load_config(args.config, args)
            # built here, so a run function wrapped after import is the one that runs
            run = {
                "verify": lambda: run_verify(cfg, args.suite),
                "bethe": lambda: run_bethe(cfg, args.branch, args.m, args.constrained),
                "spectrum": lambda: run_spectrum(cfg, args.constrained),
                "partition": lambda: run_partition(cfg, args.kind, args.method),
            }[args.command]
            rows, extra = run()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateParameter, OverflowError, FloatingPointError) as exc:
        # an overflowing sinh or product is a parameter too far from the generic range
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return 3
    except NoConvergence as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 5
    except SosXxzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    digest = cfg.digest()
    rows = sorted(({**r, "params_digest": digest} for r in rows), key=lambda r: r["check"])
    all_pass = all(r["pass"] for r in rows)
    summary = {
        "command": args.command,
        "config": config_to_json(cfg),
        "all_pass": all_pass,
        "checks": len(rows),
        "extra": extra,
        "wall_time": round(time.monotonic() - t0, 6),
    }
    text = render(rows, summary, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all_pass else 4


if __name__ == "__main__":
    sys.exit(main())
