#!/usr/bin/env python3
"""Enumerate every geodesic class on the three solids over a small angle grid.

Reproduces the headline classification: two classes on octahedra, three on
cubes, and on tetrahedra the (p,q) ladder plus the vertex-circling class that
appears once the edge length passes pi/2.
"""

import argparse
import math
import time

from sphgeo import enumerate_classes, build_solid
from sphgeo.solids import ADMISSIBLE, SolidKind


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=12)
    ap.add_argument("--points", type=int, default=5, help="grid points per solid")
    args = ap.parse_args()

    for kind in SolidKind:
        lo, hi = ADMISSIBLE[kind]
        print(f"\n=== {kind.value} (alpha in ({lo / math.pi:.4f}pi, {hi / math.pi:.4f}pi)) ===")
        for k in range(1, args.points + 1):
            alpha = lo + (hi - lo) * k / (args.points + 1)
            spec = build_solid(kind, alpha)
            t0 = time.time()
            classes = enumerate_classes(spec, args.depth)
            dt = time.time() - t0
            summary = ", ".join(
                f"{c.tag}[{len(c.path.seq)}x, orbit {c.orbit_size}, "
                f"len {c.path.total_length:.4f}]"
                for c in classes
            )
            print(f"alpha = {alpha / math.pi:.4f}pi: {len(classes)} classes "
                  f"({dt:.2f}s)\n    {summary}")


if __name__ == "__main__":
    main()
