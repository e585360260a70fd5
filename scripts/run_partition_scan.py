#!/usr/bin/env python3
"""Evaluate the four domain-wall partition functions by determinant and by
direct contraction, then run the defining-property suite."""

import argparse

import numpy as np

from sosxxz import partition as pt
from sosxxz.params import generic_params, sample_points


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    for n in range(1, args.nmax + 1):
        p = generic_params(n)
        rng = np.random.default_rng(args.seed + n)
        lams = tuple(sample_points(rng, p, n))
        print(f"\n== N = {n} ==")
        for kind in pt.KINDS:
            pair = (p.delta, p.zeta) if kind.endswith("minus") else (p.delta_bar, p.zeta_bar)
            inp = pt.PartitionInput(N=n, lambdas=lams, xis=p.xi, delta=pair[0], zeta=pair[1],
                                    eta=p.eta, kind=kind)
            rep = pt.partition_report(inp)
            print(f"  {kind:7s} det={rep.value_det:+.8f}  "
                  f"contract={rep.value_contract:+.8f}  rel={rep.rel_disagreement:.2e}")
        if n >= 2:
            inp = pt.PartitionInput(N=n, lambdas=lams, xis=p.xi, delta=p.delta, zeta=p.zeta,
                                    eta=p.eta, kind="bminus")
            print("  property suite (bminus):")
            for name, res in pt.z_property_suite(inp, seed=args.seed).items():
                print(f"    {name:26s} {res:.2e}")


if __name__ == "__main__":
    main()
