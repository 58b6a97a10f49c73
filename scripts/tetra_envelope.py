#!/usr/bin/env python3
"""Tabulate the tetrahedron type count N(alpha) against its envelopes c1, c2.

Every non-excluded type is resolved by its targeted crossing sequence, so N
is exact for each grid angle; the table flags any point where the strict
envelope c1 < N < c2 fails.  It fails on two known bands, where N exceeds c2:
alpha in about (0.35340pi, 0.35509pi), where N = 6 (for example at 0.354pi
and 0.3545pi), and alpha in about (0.39183pi, 0.4pi), where N = 3 (for
example at 0.395pi and 0.398pi).  The default 29-point grid misses both.

For the same table as CSV over a grid alpha + k*step, run
`python -m sphgeo sweep --solid tetra --alpha A --alpha-stop B --alpha-step S`.
"""

import argparse
import math

from sphgeo import count_tetra


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=29)
    args = ap.parse_args()

    print(f"{'alpha/pi':>9} {'N':>3} {'c1':>9} {'c2':>9}  types")
    for k in range(1, args.points + 1):
        alpha = math.pi / 3 + k * (math.pi / 3) / (args.points + 1)
        rep = count_tetra(alpha)
        flag = "" if rep.c1 < rep.n < rep.c2 else "  <-- envelope violated"
        types = " ".join(f"{p},{q}" for p, q in rep.realizable)
        print(f"{alpha / math.pi:9.4f} {rep.n:3d} {rep.c1:9.4f} {rep.c2:9.4f}  "
              f"{types}{flag}")


if __name__ == "__main__":
    main()
