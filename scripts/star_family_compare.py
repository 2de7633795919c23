#!/usr/bin/env python3
"""Sweep the star family and tabulate classical bound vs inverse gap.

Reproduces the speedup/slowdown crossover: at branch length 2 the inverse
gap grows like the square root of the landscape ratio, while longer
branches steepen the trend.  Writes one CSV per branch length plus a
combined table.
"""
import argparse
import csv
import math
import os

import numpy as np

from flatscape.graphs import generate_star
from flatscape.landscape import classical_bound, independence_polynomial
from flatscape.star_models import star_gap_scan

DEFAULT_RANGES = {2: range(2, 13), 4: range(2, 8), 6: range(2, 6),
                  8: range(2, 4)}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.environ.get("FLATSCAPE_OUT", "out"))
    parser.add_argument("--lambda", dest="lam", type=float, default=0.0)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for ell, nbs in DEFAULT_RANGES.items():
        series = []
        for n_b in nbs:
            profile = independence_polynomial(generate_star(n_b, ell))
            report = star_gap_scan(n_b, ell, lam=args.lam,
                                   span=(0.35, 1.6))
            row = {
                "ell": ell, "n_b": n_b, "n": n_b * ell + 1,
                "ratio": float(profile.max_suffix_ratio),
                "sa_bound": classical_bound(profile, "sa", k=1, eps=0.25),
                "gap": report.gap, "inv_gap": 1.0 / report.gap,
                "delta_star": report.delta_star,
            }
            series.append(row)
            rows.append(row)
            print(f"ell={ell} n_b={n_b:2d} ratio={row['ratio']:10.1f} "
                  f"gap={row['gap']:.4e}")
        xs = [math.log(r["ratio"]) for r in series]
        ys = [math.log(r["inv_gap"]) for r in series]
        slope = float(np.polyfit(xs, ys, 1)[0])
        print(f"ell={ell}: slope of log 1/gap vs log ratio = {slope:.3f}")
    path = os.path.join(args.out, "star_family.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print("wrote", path)


if __name__ == "__main__":
    main()
