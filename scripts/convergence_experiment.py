#!/usr/bin/env python3
"""Moment convergence of the rescaled coined-walk distribution.

Evolves the Hadamard-type walk from delta_0 x e_1 over a geometric time
ladder and tabulates rescaled moments against the limit-measure moments.
Writes runs/convergence/moments.csv and prints the table.
"""

import argparse
from pathlib import Path

from zqwalk import (
    StateVector,
    coined_walk,
    compare_moments,
    evolve,
    limit_measure,
    track_bands,
)
from zqwalk import io as zio


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--times", default="100,200,400,800,1600")
    parser.add_argument("--mmax", type=int, default=4)
    parser.add_argument("--grid", type=int, default=1024)
    args = parser.parse_args()

    walk = coined_walk()
    xi = StateVector.delta(0, 1, 2)
    system = track_bands(walk, args.grid)
    times = [int(t) for t in args.times.split(",")]
    measure = limit_measure(walk, xi, system)
    rows = compare_moments(measure, ((t, evolve(walk, xi, t)) for t in times), args.mmax)

    out = Path("runs/convergence")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "moments.csv", "w") as fh:
        zio.write_comparison_csv(rows, fh)

    print(f"{'t':>6} {'m':>2} {'empirical':>12} {'limit':>12} {'deviation':>10}")
    for row in rows:
        print(
            f"{row.t:6d} {row.m:2d} {row.empirical:12.6f} "
            f"{row.limit:12.6f} {row.deviation:10.2e}"
        )
    print(f"wrote {out / 'moments.csv'}")


if __name__ == "__main__":
    main()
