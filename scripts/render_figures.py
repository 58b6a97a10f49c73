#!/usr/bin/env python3
"""Render SVG developments for every geodesic class of each solid."""

import argparse
import math
import pathlib

from sphgeo import build_solid, enumerate_classes
from sphgeo.cli import class_to_doc, render_svg
from sphgeo.solids import SolidKind

DEFAULT_ALPHAS = {
    SolidKind.TETRAHEDRON: 0.60 * math.pi,
    SolidKind.OCTAHEDRON: 0.42 * math.pi,
    SolidKind.CUBE: 0.60 * math.pi,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="figures")
    ap.add_argument("--depth", type=int, default=12)
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for kind, alpha in DEFAULT_ALPHAS.items():
        spec = build_solid(kind, alpha)
        for cls in enumerate_classes(spec, args.depth):
            name = f"{kind.value}_{cls.tag.replace(',', '_')}.svg"
            path = out / name
            path.write_text(render_svg(spec, class_to_doc(cls)))
            print(f"wrote {path} ({len(cls.path.seq)} crossings, "
                  f"orbit {cls.orbit_size})")


if __name__ == "__main__":
    main()
