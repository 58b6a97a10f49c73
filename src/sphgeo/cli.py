"""Command-line interface: solve, enumerate, sweep, export.

Outputs are deterministic byte-for-byte for identical configurations: floats
are serialized with repr (shortest round-trip form), JSON keys are sorted,
and no timestamps or environment data are embedded.

Exit codes: 0 success, 2 configuration/domain error, 3 requested type not
realizable, 4 result-document validation failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

from . import counts, finder, solids, sphtrig, unfold
from .solids import SolidKind, SolidSpec
from .sphtrig import PI, DomainError, Vec3

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_REALIZABLE = 3
EXIT_VALIDATION = 4

SWEEP_MAX_POINTS = 10_000  # each point solves every tetrahedron type once


def parse_alpha(text: str) -> float:
    """Accept decimal radians or a '<k>pi' literal such as '0.45pi'."""
    t = text.strip().lower()
    if t.endswith("pi"):
        head = t[:-2]
        factor = 1.0 if head in ("", "+") else float(head)
        return factor * PI
    return float(t)


def _parse_type(text: str) -> Tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"type must be 'p,q', got {text!r}")
    return int(parts[0]), int(parts[1])


# ---------------------------------------------------------------------------
# result documents


def class_to_doc(cls: finder.GeodesicClass) -> Dict:
    return {
        "canonical_sequence": list(cls.path.seq.edges),
        "kind_tag": cls.tag,
        "total_length": cls.path.total_length,
        "closure_residual": cls.path.closure_residual,
        "crossings": [
            {"edge": c.edge, "t": c.t, "incidence_angle": c.incidence}
            for c in cls.path.crossings
        ],
        "orbit_size": cls.orbit_size,
    }


def bounds_to_doc(report: counts.CountReport) -> Dict:
    return {
        "c1": report.c1,
        "c2": report.c2,
        "N": report.n,
        "psi1": report.psi1,
        "psi2": report.psi2,
        "verdicts": [
            {"type": f"{v.p},{v.q}", "verdict": v.verdict, "found": v.found}
            for v in report.verdicts
        ],
    }


def result_document(
    spec: SolidSpec,
    classes: Sequence[finder.GeodesicClass],
    bounds: Optional[counts.CountReport],
) -> Dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "solid": spec.kind.value,
        "alpha": spec.alpha,
        "classes": [class_to_doc(c) for c in classes],
        "bounds": bounds_to_doc(bounds) if bounds is not None else None,
    }


def dump_json(doc: Dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"


def _write_out(text: str, out: Optional[str]) -> int:
    """Write `text` to the path `out` (stdout when None); the exit code."""
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write output {out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


# ---------------------------------------------------------------------------
# svg rendering (azimuthal equidistant projection about the geodesic's pole)


_SVG_SCALE = 120.0  # px per radian
_SVG_SAMPLES = 24  # points per face edge; the geodesic gets ten times as many


def _svg_path(points: Sequence[Vec3], pole: Vec3, frame: Tuple[Vec3, Vec3],
              half: float) -> str:
    """One `<path>` line through the azimuthal equidistant projection of
    `points` about `pole`, whose equator frame (e1, e2) is `frame`.

    A point p lands at distance r = angle_between(pole, p) from the centre,
    at the azimuth atan2(p.e2, p.e1) that sphtrig.pole_edge_crossing uses;
    both are written out with the float operations of those helpers, in
    their order, so the bytes are theirs.
    """
    q0, q1, q2 = pole
    (f0, f1, f2), (g0, g1, g2) = frame
    sin, cos, atan2, sqrt = math.sin, math.cos, math.atan2, math.sqrt
    xy: List[float] = []
    for x, y, z in points:
        c0, c1, c2 = q1 * z - q2 * y, q2 * x - q0 * z, q0 * y - q1 * x
        r = atan2(sqrt(c0 * c0 + c1 * c1 + c2 * c2), q0 * x + q1 * y + q2 * z)
        az = atan2(x * g0 + y * g1 + z * g2, x * f0 + y * f1 + z * f2)
        xy.append(half + _SVG_SCALE * (r * cos(az)))
        xy.append(half + _SVG_SCALE * (-r * sin(az)))
    fmt = "M %.6f %.6f" + " L %.6f %.6f" * (len(points) - 1)
    return f'  <path d="{fmt % tuple(xy)}"/>'


def _check_crossings(stored: Sequence[Dict], path: finder.GeodesicPath,
                     tol: float) -> None:
    """Raise DomainError unless the document's crossings are the path's,
    edge for edge, with `t` and incidence angle within `tol`."""
    if len(stored) != len(path.crossings):
        raise DomainError("stored crossings do not match the re-solved path")
    for i, (doc_c, c) in enumerate(zip(stored, path.crossings)):
        if type(doc_c["edge"]) is not int:
            raise DomainError(f"stored crossing {i} has an edge that is not an integer")
        if not (
            doc_c["edge"] == c.edge
            and abs(_json_number(doc_c, "t") - c.t) <= tol
            and abs(_json_number(doc_c, "incidence_angle") - c.incidence) <= tol
        ):
            raise DomainError(f"stored crossing {i} does not match the re-solved path")


def render_svg(
    spec: SolidSpec,
    cls_doc: Dict,
    tol_closure: float = finder.SOLVE_TOL,
    tol_vertex: float = finder.SOLVE_TOL,
) -> str:
    """Render the development of one class: face outlines plus the geodesic
    equator arc, projected so the geodesic shows as (part of) a circle.

    The class is re-solved from its sequence with the given tolerances.
    Its edge ids, in the sequence and the stored crossings, must be ints
    (not bools). Its stored crossings and total length must be numbers,
    not bools, that match the solution within `tol_closure`, and its kind
    tag must be the solution's;
    otherwise DomainError is raised and nothing is drawn.
    """
    finder.check_tolerances(tol_closure, tol_vertex)
    dev = unfold.develop(spec, unfold.CrossingSequence(cls_doc["canonical_sequence"]))
    path = finder._solve_development(spec, dev, tol_closure, tol_vertex)
    if path is None:
        raise DomainError("document sequence does not solve at this angle")
    _check_crossings(cls_doc["crossings"], path, tol_closure)
    if cls_doc["kind_tag"] != finder.class_tag(spec, path):
        raise DomainError("stored kind_tag does not match the re-solved path")
    if not abs(_json_number(cls_doc, "total_length") - path.total_length) <= tol_closure:
        raise DomainError("stored total_length does not match the re-solved path")
    pole = path.pole
    frame = (f0, f1, f2), (g0, g1, g2) = sphtrig.pole_frame(pole)
    sin, cos, atan2, sqrt = math.sin, math.cos, math.atan2, math.sqrt
    n = spec.face_size
    half = _SVG_SCALE * PI + 20.0
    size = 2.0 * half
    fracs = [k / _SVG_SAMPLES for k in range(_SVG_SAMPLES)]

    # each face outline samples sphtrig.slerp along each edge, written out
    # with its float operations in their order, as this loop runs hot; its
    # guards never fire, as a face edge is longer than 0 and shorter than pi
    face_paths = []
    for placement in dev.placements[:-1]:
        corners = [sphtrig.mat_apply(placement, v) for v in spec.chart]
        pts: List[Vec3] = []
        for j in range(n):
            a0, a1, a2 = corners[j]
            b0, b1, b2 = corners[(j + 1) % n]
            c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
            ang = atan2(sqrt(c0 * c0 + c1 * c1 + c2 * c2), a0 * b0 + a1 * b1 + a2 * b2)
            for t in fracs:
                sa = sin((1.0 - t) * ang)
                sb = sin(t * ang)
                x, y, z = a0 * sa + b0 * sb, a1 * sa + b1 * sb, a2 * sa + b2 * sb
                r = sqrt(x * x + y * y + z * z)
                pts.append((x / r, y / r, z / r))
        pts.append(pts[0])
        face_paths.append(_svg_path(pts, pole, frame, half))

    az0 = sphtrig.pole_edge_crossing(pole, *dev.arcs[0]).azimuth
    theta = path.total_length
    steps = 10 * _SVG_SAMPLES
    geo_pts = []
    for k in range(steps + 1):
        az = az0 + theta * k / steps
        x = cos(az)
        y = sin(az)
        geo_pts.append((x * f0 + y * g0, x * f1 + y * g1, x * f2 + y * g2))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        '<g id="faces" fill="none" stroke="#334d80" stroke-width="1.2">',
        *face_paths,
        "</g>",
        '<g id="geodesic" fill="none" stroke="#c03030" stroke-width="2">',
        _svg_path(geo_pts, pole, frame, half),
        "</g>",
        "</svg>",
        "",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def cmd_solve(kind: SolidKind, alpha: float, ptype: Optional[Tuple[int, int]],
              tol_closure: float, tol_vertex: float, out: Optional[str]) -> int:
    if kind is not SolidKind.TETRAHEDRON:
        print("solve drives the typed tetrahedron search; use enumerate for "
              "octa/cube", file=sys.stderr)
        return EXIT_CONFIG
    if ptype is None:
        print("solve requires --type p,q", file=sys.stderr)
        return EXIT_CONFIG
    spec = solids.build_solid(kind, alpha)
    p, q = ptype
    if counts.necessary_excluded(p, q, alpha):
        print(f"type ({p},{q}) is excluded at alpha={alpha!r} "
              f"(s={counts.s_form(p, q)} >= g={counts.g_alpha(alpha)!r})",
              file=sys.stderr)
        return EXIT_NOT_REALIZABLE
    path = finder.solve_tetra_type(spec, p, q, tol_closure, tol_vertex)
    if path is None:
        print(f"type ({p},{q}) is not realizable at alpha={alpha!r}",
              file=sys.stderr)
        return EXIT_NOT_REALIZABLE
    cls = finder.solve_class(spec, path.seq.edges, tol_closure, tol_vertex)
    report = counts.count_tetra(alpha, tol_closure=tol_closure, tol_vertex=tol_vertex)
    return _write_out(dump_json(result_document(spec, [cls], report)), out)


def cmd_enumerate(kind: SolidKind, alpha: float, max_crossings: int,
                  tol_closure: float, tol_vertex: float, out: Optional[str]) -> int:
    spec = solids.build_solid(kind, alpha)
    classes = finder.enumerate_classes(spec, max_crossings, tol_closure, tol_vertex)
    bounds = None
    if kind is SolidKind.TETRAHEDRON:
        bounds = counts.count_tetra(alpha, max_crossings, tol_closure, tol_vertex)
    return _write_out(dump_json(result_document(spec, classes, bounds)), out)


def cmd_sweep(kind: SolidKind, alpha: float, alpha_stop: float, alpha_step: float,
              tol_closure: float, tol_vertex: float, out: Optional[str]) -> int:
    if kind is not SolidKind.TETRAHEDRON:
        print("sweep tabulates the tetrahedron type count", file=sys.stderr)
        return EXIT_CONFIG
    if not (math.isfinite(alpha_step) and alpha_step > 0.0):
        print("sweep step must be positive and finite", file=sys.stderr)
        return EXIT_CONFIG
    lo, hi = solids.ADMISSIBLE[SolidKind.TETRAHEDRON]
    if not lo < alpha_stop < hi:
        print(f"sweep stop {alpha_stop!r} outside ({lo!r}, {hi!r})", file=sys.stderr)
        return EXIT_CONFIG
    # count the grid alpha + k*step <= stop before building it; the points
    # grow with k, so the count is the first k past the stop (or past the cap)
    stop = alpha_stop + 1e-12
    count = 0
    while count <= SWEEP_MAX_POINTS and alpha + count * alpha_step <= stop:
        count += 1
    if count > SWEEP_MAX_POINTS:
        print(f"sweep grid has more than {SWEEP_MAX_POINTS} points", file=sys.stderr)
        return EXIT_CONFIG
    if count == 0:
        print("empty sweep range", file=sys.stderr)
        return EXIT_CONFIG
    rows = ["alpha_radians,N,c1,c2,types_found,types_excluded"]
    for k in range(count):
        a = alpha + k * alpha_step
        rep = counts.count_tetra(a, tol_closure=tol_closure, tol_vertex=tol_vertex)
        found = ";".join(f"{p}:{q}" for p, q in rep.realizable)
        missed = ";".join(
            f"{v.p}:{v.q}" for v in rep.verdicts if not v.found
        )
        rows.append(f"{a!r},{rep.n},{rep.c1!r},{rep.c2!r},{found},{missed}")
    return _write_out("\n".join(rows) + "\n", out)


def _json_number(doc: Dict, key: str) -> float:
    """doc[key], which must be a JSON number: an int or a float, not a bool
    (and not a string, which float() would parse)."""
    value = doc[key]
    if type(value) not in (int, float):
        raise DomainError(f"{key} is not a JSON number")
    return value


def cmd_export(in_path: str, class_index: int, tol_closure: float,
               tol_vertex: float, out: Optional[str]) -> int:
    try:
        with open(in_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON, bad UTF-8 or an integer past the digit limit;
        # RecursionError: nesting deeper than the decoder's recursion limit
        print(f"cannot read result document: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(doc, dict):
        print("invalid result document: not a JSON object", file=sys.stderr)
        return EXIT_VALIDATION
    if doc.get("schema_version") != SCHEMA_VERSION:
        print("unsupported schema_version", file=sys.stderr)
        return EXIT_VALIDATION
    classes = doc.get("classes")
    if not isinstance(classes, list):
        print("invalid result document: classes is not a list", file=sys.stderr)
        return EXIT_VALIDATION
    if not classes:
        print("result document has no classes to draw", file=sys.stderr)
        return EXIT_CONFIG
    if not 0 <= class_index < len(classes):
        print(f"class index {class_index} out of range", file=sys.stderr)
        return EXIT_CONFIG
    cls_doc = classes[class_index]
    try:
        residual = _json_number(cls_doc, "closure_residual")
        if not residual <= tol_closure:
            print(
                f"document closure residual {residual!r} exceeds "
                f"tolerance {tol_closure!r}; refusing to draw",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
        if residual < 0.0:
            raise DomainError(f"negative closure residual {residual!r}")
        kind = SolidKind(doc["solid"])
        spec = solids.build_solid(kind, float(_json_number(doc, "alpha")))
        svg = render_svg(spec, cls_doc, tol_closure, tol_vertex)
    except (KeyError, IndexError, TypeError, DomainError, ValueError,
            OverflowError) as exc:
        # a field that is missing, of the wrong type or out of range
        print(f"invalid result document: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return _write_out(svg, out)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An argument parser, and so each of its subparsers, that reports an
    error in one stderr line: argparse's own last line, without the usage
    block before it."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process, built by the first main call
def _make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="sphgeo",
        description="Simple closed geodesics on regular spherical tetrahedra, "
        "octahedra and cubes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def solid(p: argparse.ArgumentParser) -> None:
        p.add_argument("--solid", required=True,
                       choices=sorted(k.value for k in SolidKind))
        p.add_argument("--alpha", required=True,
                       help="facet angle: radians or '<k>pi' (e.g. 0.45pi)")

    def output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol-closure", type=float, default=finder.SOLVE_TOL)
        p.add_argument("--tol-vertex", type=float, default=finder.SOLVE_TOL)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_solve = sub.add_parser("solve", help="solve one tetrahedron type (p,q)")
    solid(p_solve)
    output(p_solve)
    p_solve.add_argument("--type", default=None, help="tetrahedron type 'p,q'")

    p_enum = sub.add_parser("enumerate", help="find all geodesic classes")
    solid(p_enum)
    p_enum.add_argument("--depth", type=int, default=12,
                        help="max crossings searched (default 12)")
    output(p_enum)

    p_sweep = sub.add_parser("sweep", help="tabulate N, c1, c2 over an alpha range")
    solid(p_sweep)
    output(p_sweep)
    p_sweep.add_argument("--alpha-stop", required=True,
                         help="inclusive end of the alpha range")
    p_sweep.add_argument("--alpha-step", required=True,
                         help="grid step (radians or '<k>pi')")

    p_exp = sub.add_parser("export", help="render a result document to SVG")
    output(p_exp)
    p_exp.add_argument("--in", dest="in_path", required=True,
                       help="result JSON produced by solve/enumerate")
    p_exp.add_argument("--class-index", type=int, default=0)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    tols = (args.tol_closure, args.tol_vertex)
    # an --out that is empty, a directory or in a missing one fails before any
    # work; the check creates nothing, so a command that fails later leaves no file
    out, out_dir = args.out, os.path.dirname(args.out or "") or "."
    if out is not None and (not out or os.path.isdir(out) or not os.path.isdir(out_dir)):
        code = errno.EISDIR if os.path.isdir(out) else errno.ENOENT
        print(f"cannot write output {out}: {os.strerror(code)}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        finder.check_tolerances(*tols)
        if args.command == "export":
            return cmd_export(args.in_path, args.class_index, *tols, args.out)
        kind = SolidKind(args.solid)
        alpha = parse_alpha(args.alpha)
        ptype = _parse_type(args.type) if args.command == "solve" and args.type else None
        if args.command == "solve":
            return cmd_solve(kind, alpha, ptype, *tols, args.out)
        if args.command == "enumerate":
            return cmd_enumerate(kind, alpha, args.depth, *tols, args.out)
        return cmd_sweep(kind, alpha, parse_alpha(args.alpha_stop),
                         parse_alpha(args.alpha_step), *tols, args.out)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
