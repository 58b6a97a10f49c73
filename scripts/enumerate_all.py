#!/usr/bin/env python3
"""Enumerate every geodesic class on the three solids over a small angle grid.

Reproduces the headline classification: two classes on octahedra, three on
cubes, and on tetrahedra the (p,q) ladder plus the vertex-circling class that
appears once the edge length passes pi/2.  Exits 1, after printing every
angle, if any angle breaks it: octahedra must give tags {type1, type2} with
orbits 4 and 6, cubes {type1, type2, type3} with orbits 3, 4 and 12, and
tetrahedra the types `count_tetra(alpha, depth)` finds, plus `vertex-loop`
exactly when alpha > pi/2.
"""

import argparse
import math
import sys
import time

from sphgeo import build_solid, count_tetra, enumerate_classes
from sphgeo.solids import ADMISSIBLE, SolidKind

# the (tag, orbit size) of every class, sorted
_HEADLINE = {
    SolidKind.OCTAHEDRON: [("type1", 4), ("type2", 6)],
    SolidKind.CUBE: [("type1", 3), ("type2", 4), ("type3", 12)],
}


def tags_of(kind: SolidKind, classes) -> list:
    """The sorted tags of the classes, with their orbit sizes off the
    tetrahedron."""
    if kind is SolidKind.TETRAHEDRON:
        return sorted(c.tag for c in classes)
    return sorted((c.tag, c.orbit_size) for c in classes)


def expected(kind: SolidKind, alpha: float, depth: int) -> list:
    """`tags_of` the classes the headline gives at this angle."""
    if kind is SolidKind.TETRAHEDRON:
        tags = [f"{p},{q}" for p, q in count_tetra(alpha, depth).realizable]
        return sorted(tags + ["vertex-loop"] * (alpha > math.pi / 2))
    return _HEADLINE[kind]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=12)
    ap.add_argument("--points", type=int, default=5, help="grid points per solid")
    args = ap.parse_args()

    failures = 0
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
            got, want = tags_of(kind, classes), expected(kind, alpha, args.depth)
            if got != want:
                failures += 1
                print(f"MISMATCH at {kind.value} alpha={alpha!r}: got {got}, "
                      f"expected {want}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
