#!/usr/bin/env python3
"""Tabulate the tetrahedron type count N(alpha) against its envelopes c1, c2.

Every non-excluded type is resolved by its targeted crossing sequence, so N
is exact for each grid angle; the table flags any point where the strict
envelope c1 < N < c2 fails.  It fails on two known bands, where N exceeds c2:
alpha in about (0.35340pi, 0.35509pi), where N = 6 (for example at 0.354pi
and 0.3545pi), and alpha in about (0.39183pi, 0.4pi), where N = 3 (for
example at 0.395pi and 0.398pi).  The default 29-point grid misses both.
"""

import argparse
import math

from sphgeo import count_tetra


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=29)
    ap.add_argument("--csv", default=None, help="also write rows to this path")
    args = ap.parse_args()

    rows = []
    print(f"{'alpha/pi':>9} {'N':>3} {'c1':>9} {'c2':>9}  types")
    for k in range(1, args.points + 1):
        alpha = math.pi / 3 + k * (math.pi / 3) / (args.points + 1)
        rep = count_tetra(alpha)
        flag = "" if rep.c1 < rep.n < rep.c2 else "  <-- envelope violated"
        types = " ".join(f"{p},{q}" for p, q in rep.realizable)
        print(f"{alpha / math.pi:9.4f} {rep.n:3d} {rep.c1:9.4f} {rep.c2:9.4f}  "
              f"{types}{flag}")
        rows.append((alpha, rep))

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("alpha_radians,N,c1,c2,types_found,types_excluded\n")
            for alpha, rep in rows:
                found = ";".join(f"{p}:{q}" for p, q in rep.realizable)
                missed = ";".join(
                    f"{v.p}:{v.q}" for v in rep.verdicts if not v.found
                )
                fh.write(f"{alpha!r},{rep.n},{rep.c1!r},{rep.c2!r},{found},{missed}\n")
        print(f"\nwrote {args.csv}")


if __name__ == "__main__":
    main()
