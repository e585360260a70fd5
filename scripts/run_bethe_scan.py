#!/usr/bin/env python3
"""Solve the Bethe equations for all four state families and verify each
solution against the transfer matrices and the Hamiltonian."""

import argparse

import numpy as np

from sosxxz import bethe as bt, sos, vertex as vx
from sosxxz.params import generic_params, sample_points


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--sector", type=int, default=0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    p = bt.apply_constraints(generic_params(args.n), bt.BoundaryConstraint(s=args.sector))
    rng = np.random.default_rng(args.seed)
    mus = sample_points(rng, p, 3)

    for branch, spec in bt.BRANCHES.items():
        m = (p.N - args.sector) // 2 if spec.sign > 0 else (p.N + args.sector) // 2
        sols = bt.find_bethe_solutions(branch, m, p, seed=args.seed)
        print(f"\n== family {branch} (M = {m}, sector {args.sector}) : {len(sols)} solutions ==")
        theta = bt.branch_theta(branch, p)
        for sol in sols:
            psi = bt.bethe_state(branch, sol, p)
            v = bt.vertex_eigenstate(branch, sol, p)
            worst_s = worst_v = 0.0
            for mu in mus:
                lam = bt.branch_eigenvalue(branch, mu, sol.roots, p)
                ts = sos.sos_transfer(mu, theta, spec.sos_kind, p)
                worst_s = max(worst_s, np.linalg.norm(ts @ psi - lam * psi)
                              / (np.linalg.norm(psi) * abs(lam)))
                tv = vx.transfer_xxz(mu, p)
                worst_v = max(worst_v, np.linalg.norm(tv @ v - lam * v)
                              / (np.linalg.norm(v) * abs(lam)))
            roots = ", ".join(f"{z:.6f}" for z in sol.roots)
            print(f"  roots [{roots}]")
            print(f"    equation {max(sol.residuals):.2e}  "
                  f"{spec.sos_kind} eigenstate {worst_s:.2e}  vertex eigenstate {worst_v:.2e}")

    ph = p.replace(xi=(0,) * p.N)
    _, kappa = vx.hamiltonian(ph)
    print(f"\nhomogeneous chain: measured identity shift kappa = {kappa:.8f}")
    for sol in bt.find_bethe_solutions("b1", (p.N - args.sector) // 2, ph, seed=args.seed):
        e = bt.hamiltonian_energy("b1", sol, ph, kappa)
        print(f"  roots {[f'{z:.5f}' for z in sol.roots]} -> H eigenvalue {e:.8f}")


if __name__ == "__main__":
    main()
