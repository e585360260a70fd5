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
        lams = sample_points(rng, p, n)
        print(f"\n== N = {n} ==")
        for kind in pt.KINDS:
            zd = pt.z_determinant(p, lams, kind)
            zc = pt.z_contraction(p, lams, kind)
            print(f"  {kind:7s} det={zd:+.8f}  contract={zc:+.8f}  rel={pt.rel_disagreement(zd, zc):.2e}")
        if n >= 2:
            print("  property suite (bminus):")
            for name, res in pt.z_property_suite(p, lams, "bminus", seed=args.seed).items():
                print(f"    {name:26s} {res:.2e}")


if __name__ == "__main__":
    main()
