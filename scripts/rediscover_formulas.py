#!/usr/bin/env python3
"""Refit every printed simplified formula from oracle data alone and
check the recovered coefficients against the printed ones."""

import argparse
import sys

from binomial_moments.conjecture import HOLDOUT, rediscover_all


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--holdout", type=int, default=HOLDOUT)
    args = ap.parse_args()

    report = rediscover_all(holdout=args.holdout)
    for e in report.entries:
        flag = "ok " if e.ok else "FAIL"
        note = f"  [{e.printed.region_note}]" if e.printed.region_note else ""
        print(f"{flag} {e.printed.label:4s} status={e.candidate.status:10s}{note}")
        if not e.ok:
            print(f"     fitted:   {[str(c) for c in e.candidate.coefficients]}")
            print(f"     expected: {[str(c) for c in e.printed.expected]}")
    print(f"\nall coefficients match printed formulas: {report.all_ok}")
    return 0 if report.all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
