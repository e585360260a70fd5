"""Batch front-end: verification suites, Bethe solves, spectra, partitions.

A run reads one JSON config (complex numbers as [re, im] pairs), executes
the requested command, and emits a stream of check rows followed by a
summary object.  Identical config and seed produce byte-identical output
except for the summary's wall_time field.

Exit codes: 0 success, 2 config error, 3 degenerate parameters,
4 tolerance failure, 5 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import bethe as bt
from . import partition as pt
from . import sos
from . import tensor as tn
from . import vertex as vx
from .errors import ConfigError, DegenerateParameter, NoConvergence, SosXxzError
from .params import ModelParams, generic_params, sample_points

DEFAULT_TOLERANCES = {"pole": 1e-8, "identity": 1e-10, "bethe": 1e-9, "partition": 1e-9}
# bytes of the largest single dense complex array that verify, bethe,
# spectrum or partition may build; a gate product holds its input, a
# transposed copy and its output at once, so the peak memory is a few times this
DENSE_BUDGET = 2**28
# command -> entry count of the largest dense complex array it builds at chain length N
DENSE_ENTRIES = {
    # the reflection-algebra checks act on two auxiliary legs and the sites
    "verify": lambda n: 4 ** (n + 2),
    "bethe": lambda n: 4 ** (n + 1),
    "spectrum": lambda n: 4 ** (n + 1),
    # the block string acts on a vector over the auxiliary leg and the sites;
    # each two-leg dynamical gate on it is a stack of 2^(N-1) 4 x 4 blocks
    "partition": lambda n: 2 ** (n + 3),
}


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
        "eta": _c2pair(p.eta),
        "xi": [_c2pair(x) for x in p.xi],
        "delta": _c2pair(p.delta),
        "zeta": _c2pair(p.zeta),
        "tau": _c2pair(p.tau),
        "delta_bar": _c2pair(p.delta_bar),
        "zeta_bar": _c2pair(p.zeta_bar),
        "tau_bar": _c2pair(p.tau_bar),
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
    def pick(flag: str | None, key: str, default: int) -> int:
        value = data.get(key, default)
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
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
        params = ModelParams(
            N=n,
            eta=_pair2c(data.get("eta", _c2pair(base.eta))),
            xi=xi,
            delta=_pair2c(data.get("delta", _c2pair(base.delta))),
            zeta=_pair2c(data.get("zeta", _c2pair(base.zeta))),
            tau=_pair2c(data.get("tau", _c2pair(base.tau))),
            delta_bar=_pair2c(data.get("delta_bar", _c2pair(base.delta_bar))),
            zeta_bar=_pair2c(data.get("zeta_bar", _c2pair(base.zeta_bar))),
            tau_bar=_pair2c(data.get("tau_bar", _c2pair(base.tau_bar))),
            eps_pole=float(tol["pole"]),
        )
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
    return RunConfig(
        params=params,
        sector_s=pick("sector", "sector_s", 0),
        constraint_n=pick(None, "constraint_n", 0),
        constraint_m=pick(None, "constraint_m", 0),
        seed=pick("seed", "seed", 0),
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


def _row(check: str, digest: str, residual: float, tolerance: float) -> dict:
    """One report row; a non-finite residual raises DegenerateParameter."""
    return {
        "check": check,
        "params_digest": digest,
        "residual": float(tn.require_finite(residual)),
        "tolerance": float(tolerance),
        "pass": bool(residual < tolerance),
    }


# suite -> (its check registry, the function evaluating one check)
SUITES = {
    "vertex": (vx.VERTEX_RESIDUALS, vx.vertex_identity_suite),
    "sos": (sos.SOS_RESIDUALS, sos.sos_identity_suite),
}


def run_verify(cfg: RunConfig, suite: str) -> tuple[list[dict], dict]:
    if suite not in SUITES and suite != "all":
        raise ConfigError(f"unknown suite {suite!r}")
    digest = cfg.digest()
    tol = cfg.tolerances["identity"]
    rows = []
    for name, (checks, run_suite) in SUITES.items():
        if suite in (name, "all"):
            for chk in checks:
                worst = run_suite(chk, cfg.params, seed=cfg.seed, trials=cfg.trials)
                rows.append(_row(f"{name}.{chk}", digest, worst, tol))
    rows.sort(key=lambda r: r["check"])
    return rows, {"suite": suite}


def run_bethe(cfg: RunConfig, branch: str, m: int, constrained: bool) -> tuple[list[dict], dict]:
    digest = cfg.digest()
    p = cfg.params
    if constrained:
        p = bt.apply_constraints(p, bt.BoundaryConstraint(cfg.sector_s, cfg.constraint_n, cfg.constraint_m))
    tol_b = cfg.tolerances["bethe"]
    tol_eig = max(cfg.tolerances["bethe"] * 10, 1e-8)
    sols = bt.find_bethe_solutions(branch, m, p, seed=cfg.seed)
    if not sols:
        raise NoConvergence(f"no verified {branch} solutions with M = {m}")
    rng = np.random.default_rng(cfg.seed + 1)
    mus = sample_points(rng, p, 3)
    spec = bt.BRANCHES[branch]
    theta = bt.branch_theta(branch, p)
    states = []
    for sol in sols:
        psi = bt.bethe_state(branch, sol, p)
        v = bt.vertex_eigenstate(branch, sol, p) if constrained else None
        states.append((psi, v, [bt.branch_eigenvalue(branch, mu, sol.roots, p) for mu in mus]))
    worst_sos = [0.0] * len(sols)
    worst_vertex = [0.0] * len(sols)
    # each transfer matrix depends on mu alone: build it once for all solutions
    for j, mu in enumerate(mus):
        t_sos = sos.sos_transfer(mu, theta, spec.sos_kind, p)
        t_v = vx.transfer_xxz(mu, p) if constrained else None
        for i, (psi, v, lams) in enumerate(states):
            lam = lams[j]
            r_s = float(np.linalg.norm(t_sos @ psi - lam * psi) / (np.linalg.norm(psi) * abs(lam)))
            worst_sos[i] = max(worst_sos[i], r_s)
            if constrained:
                r_v = float(np.linalg.norm(t_v @ v - lam * v) / (np.linalg.norm(v) * abs(lam)))
                worst_vertex[i] = max(worst_vertex[i], r_v)
    rows = []
    results = []
    for i, (sol, (_, _, lams)) in enumerate(zip(sols, states)):
        rows.append(_row(f"bethe.{branch}.{i}.equation", digest, max(sol.residuals), tol_b))
        rows.append(_row(f"bethe.{branch}.{i}.sos_eigenstate", digest, worst_sos[i], tol_eig))
        if constrained:
            rows.append(_row(f"bethe.{branch}.{i}.vertex_eigenstate", digest, worst_vertex[i], tol_eig))
        results.append(
            {
                "roots": [_c2pair(z) for z in sol.roots],
                "equation_residuals": list(sol.residuals),
                "sector": sol.sector,
                "eigenvalues": [{"mu": _c2pair(mu), "lambda": _c2pair(lam)} for mu, lam in zip(mus, lams)],
            }
        )
    rows.sort(key=lambda r: r["check"])
    return rows, {"branch": branch, "M": m, "solutions": results}


def run_spectrum(cfg: RunConfig, constrained: bool) -> tuple[list[dict], dict]:
    digest = cfg.digest()
    p = cfg.params
    if constrained:
        p = bt.apply_constraints(p, bt.BoundaryConstraint(cfg.sector_s, cfg.constraint_n, cfg.constraint_m))
    tol = max(cfg.tolerances["bethe"] * 10, 1e-8)
    rng = np.random.default_rng(cfg.seed + 2)
    mu = sample_points(rng, p, 1)[0]
    m = (p.N - cfg.sector_s) // 2
    t_eigs = np.linalg.eigvals(vx.transfer_xxz(mu, p))
    # built for its finite check; only its dimension is reported
    h_dim = len(vx.hamiltonian_direct(p))
    sols = bt.find_bethe_solutions("b1", m, p, seed=cfg.seed)
    rows = []
    matched = 0
    details = []
    for i, sol in enumerate(sols):
        lam = bt.branch_eigenvalue("b1", mu, sol.roots, p)
        dist = float(np.min(np.abs(t_eigs - lam)) / max(abs(lam), 1e-300))
        rows.append(_row(f"spectrum.match.{i}", digest, dist, tol))
        if dist < tol:
            matched += 1
        details.append({"roots": [_c2pair(z) for z in sol.roots], "lambda": _c2pair(lam), "match_residual": dist})
    rows.sort(key=lambda r: r["check"])
    extra = {
        "mu": _c2pair(mu),
        "transfer_dimension": len(t_eigs),
        "hamiltonian_dimension": h_dim,
        "solutions_found": len(sols),
        "matched": matched,
        "unmatched_spectrum": len(t_eigs) - matched,
        "note": "incomplete Bethe coverage is expected in the doubly-constrained case",
        "solutions": details,
    }
    return rows, extra


def run_partition(cfg: RunConfig, kind: str, method: str) -> tuple[list[dict], dict]:
    digest = cfg.digest()
    p = cfg.params
    tol = cfg.tolerances["partition"]
    rng = np.random.default_rng(cfg.seed)
    lams = sample_points(rng, p, p.N)
    methods = ("det", "contract") if method == "both" else (method,)
    values = {m: pt.z_value(p, lams, kind, m) for m in methods}
    residuals = pt.z_property_suite(p, lams, kind, seed=cfg.seed, methods=methods)
    if method == "both":
        residuals["det_vs_contract"] = pt.rel_disagreement(values["det"], values["contract"])
    rows = sorted((_row(f"partition.{kind}.{name}", digest, res, tol) for name, res in residuals.items()),
                  key=lambda r: r["check"])
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON run configuration")
    common.add_argument("--format", default="json", choices=("json", "csv", "text"))
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--tol-scale", type=float, dest="tol_scale", help="multiply all tolerances")
    common.add_argument("--n", type=int, help="chain length override")
    common.add_argument("--seed", type=int, help="seed override")
    common.add_argument("--trials", type=int, help="trials per identity check")
    common.add_argument("--sector", type=int, help="total-spin sector for constrained runs")

    ap = argparse.ArgumentParser(prog="sosxxz", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common], help="run the identity suites")
    v.add_argument("--suite", default="all", choices=("vertex", "sos", "all"))

    b = sub.add_parser("bethe", parents=[common], help="solve Bethe equations and verify eigenstates")
    b.add_argument("--branch", default="b1", choices=tuple(bt.BRANCHES))
    b.add_argument("--m", type=int, required=True, help="number of Bethe roots")
    b.add_argument("--constrained", action="store_true", help="impose the boundary constraints")

    s = sub.add_parser("spectrum", parents=[common], help="dense diagonalization vs Bethe eigenvalues")
    s.add_argument("--constrained", action="store_true")

    q = sub.add_parser("partition", parents=[common], help="domain-wall partition functions")
    q.add_argument("--kind", default="bminus", choices=pt.KINDS)
    q.add_argument("--method", default="both", choices=("det", "contract", "both"))
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.monotonic()
    try:
        cfg = load_config(args.config, args)
        if args.command == "verify":
            rows, extra = run_verify(cfg, args.suite)
        elif args.command == "bethe":
            rows, extra = run_bethe(cfg, args.branch, args.m, args.constrained)
        elif args.command == "spectrum":
            rows, extra = run_spectrum(cfg, args.constrained)
        elif args.command == "partition":
            rows, extra = run_partition(cfg, args.kind, args.method)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateParameter, OverflowError) as exc:
        # an overflowing sinh is a parameter too far from the generic range
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return 3
    except NoConvergence as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 5
    except SosXxzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

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
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    # spectrum incompleteness is reported, never failed on
    if args.command == "spectrum":
        return 0
    return 0 if all_pass else 4


if __name__ == "__main__":
    sys.exit(main())
