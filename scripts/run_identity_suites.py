#!/usr/bin/env python3
"""Run every identity suite at N = 2 and N = 3 and print a residual table."""

import argparse
import time

from sosxxz.cli import SUITES
from sosxxz.params import generic_params


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    for n in (2, 3):
        p = generic_params(n)
        print(f"\n== chain length N = {n} ==")
        for suite, (checks, run_suite) in SUITES.items():
            for chk in checks:
                rep = run_suite(chk, p, seed=args.seed, trials=args.trials)
                print(f"  {suite + '.' + chk:35s} {rep.max_residual:.3e}")
    print(f"\ntotal {time.monotonic() - t0:.1f}s")


if __name__ == "__main__":
    main()
