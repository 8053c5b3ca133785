#!/usr/bin/env python3
"""Coupled-path convergence tables: Strat vs Ito schemes, and collectivization.

Reproduces the two strong-convergence studies behind the acceptance gates:
the same Brownian path drives both sides of each comparison, so the decay of
the gap with the step size measures scheme agreement, not noise.
"""

import argparse
import sys

from coadjoint.diagnostics import empirical_order
from coadjoint.validation import (
    casimir_drift_errors,
    collectivization_errors,
    collectivization_seeds,
    coupled_scheme_errors,
)


def table(title, hs, errs):
    print(f"\n{title}")
    print(f"{'h':>12}  {'error':>12}")
    for h, e in zip(hs, errs):
        print(f"{h:>12.6f}  {e:>12.3e}")
    print(f"empirical order: {empirical_order(hs, errs):.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=8)
    args = parser.parse_args()

    try:
        hs, errs = coupled_scheme_errors(args.seeds)
    except ValueError as exc:  # a --seeds count below 1
        sys.exit(f"error: {exc}")
    table(f"Heun (Strat) vs corrected Euler (Ito), {args.seeds}-seed average", hs, errs)

    hs, errs = casimir_drift_errors(args.seeds)
    table(f"pathwise Casimir drift under Heun, {args.seeds}-seed average", hs, errs)

    hs, errs = collectivization_errors(collectivization_seeds(args.seeds))
    table("phase space through momentum map vs collective dynamics", hs, errs)


if __name__ == "__main__":
    main()
