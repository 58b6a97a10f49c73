"""Geodesic solver and exhaustive search.

Closure of a candidate crossing sequence is solved algebraically: the closing
rotation of the development fixes exactly one great circle (the equator of
its axis), so a sequence either carries the unique geodesic with those
crossings or none at all.  No shooting, no root-finding.  Negating the
axis negates every dot, so only the sign that passes the first edge's side
test is solved: every edge is side-tested by two dots, and then, with the
pole's frame built once, one loop computes each crossing and checks its
clearance of the vertices and its chord against its azimuth gap.  That
closure stage decides; the path stage, which measures each incidence on
the edge as the exited face copy develops it, runs only where a path is
kept, not in a count or in the search's closure test.

Simplicity is decided combinatorially.  A face is convex and each segment of
a solved candidate is a minor chord between two points of its boundary; the
gnomonic chart about the face centre maps the face to a convex Euclidean
polygon and the chords to straight segments.  Two chords of a convex polygon
meet only if their endpoints interleave around the boundary or coincide, so
sorting each face's chord endpoints by boundary position and checking that
they nest like parentheses decides simplicity in O(k log k) for k crossings.

The search over sequences is a depth-first walk over faces, run as one loop
over a stack of immutable walk nodes.  It is pruned by a pole-feasibility
test (does any great circle cross all developed edges the right way?) and
by a running lower bound on length against the 2*pi cap: the best sum of
bounds on disjoint pieces of the walk, each piece a straight turn across a
square (one edge length), a run of r equal turns that are not straight,
which winds r*alpha about one vertex (pi*floor(r*alpha/pi)), or two
crossings (the distance between their developed edges, a closed form in
the two turns between them; see `enumerate_classes`).
The cap closes every branch, so with no crossing bound the search ends on
its own.
The feasible poles form a convex polygon in the gnomonic chart about the first
edge's entry vertex; each crossing clips it by its two half-planes
(Sutherland-Hodgman), and a branch survives while the polygon keeps 3
vertices.  That test is necessary only, and the closure stage tests its one
pole strictly.  The symmetry group is transitive on (face, edge)
incidences, so the walk starts from one directed crossing only.  A walk
from there is fixed by its exit turns, and the walks that trace one class
read the rotations, reversals and mirrors (t -> n - t) of one cyclic turn
word, so the search walks only the least of them: it cuts a prefix as soon
as some such image is smaller at a turn the prefix fixes, and solves a
closed word of m turns only if that test, run on through its first m - 1
turns, passes it (see `enumerate_classes`).  Of the forward images still
tied with a prefix, a node keeps two shifts, the least plain one and the
least mirrored one: a later tie of either kind cuts only where the least
one does, as the FKM necklace algorithm keeps only a prenecklace's least
period (Cattell et al., J. Algorithms 37, 2000).  This is orderly
generation by canonical augmentation (McKay, J. Algorithms 26, 1998) with
the incremental prefix test of bracelet generators (Sawada, SIAM J.
Comput. 31, 2001).

The search lays out every node on one `unfold.Walker`, a crossing stack
that each node cuts back to its parent's crossings and crosses once.  A
closed word that is not a proper power (a geodesic traversed twice is not
simple) and is least is solved on the walker's own layout, which is
`develop`'s (`test_search_lays_out_closures_as_develop`).  A typed
tetrahedron sequence is the walk of its turn word too, and `count_tetra`
walks all its candidate types on one walker, in the lexicographic order of
their turn words, each cut back to the prefix it shares with the word
before (see `_type_walks`).  Every solve reads its walker's crossing
stack in place: the arcs, the local edge each crossing leaves and the face
and local edge it enters, with each arc's length, sine and cosine kept on
the walker, so nothing copies a layout or looks up a gluing per crossing.

A hand-fused copy of a `sphtrig` helper, its float operations written out
in the helper's order, is kept only in a loop that a workload runs hot:
the closure stage's passes over the arcs and the crossings
(`sphtrig.pole_edge_crossing`'s floats among them), `_clip`,
`unfold.Walker.cross` (its placement product too) and `cli.render_svg`'s
sample and projection loops.  Elsewhere, the path stage, the pole box and
the SVG's first crossing included, the helpers are called.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .sphtrig import (
    CONTACT_TOL,
    CROSSING_FLOOR,
    PI,
    DomainError,
    Vec3,
    add,
    angle_between,
    axis_angle,
    cos_side,
    cross,
    dot,
    mat_apply,
    neg,
    normalize,
    pole_frame,
    scale,
)
from .solids import SolidKind, SolidSpec, symmetry_group
from .unfold import CrossingSequence, Walker, develop

TWO_PI = 2.0 * PI

# default tol_closure and tol_vertex of every solve, and of the CLI
SOLVE_TOL = 1e-9

FEAS_MARGIN = 1e-12  # poles closer than this to a chart's horizon are ignored

# the largest explicit crossing bound `enumerate_classes` accepts; None
# searches until the length cap closes every branch
MAX_SEARCH_DEPTH = 200


def check_tolerances(tol_closure: float, tol_vertex: float) -> None:
    """Raise DomainError unless both solve tolerances are positive and
    finite and tol_vertex is below 0.5.  A NaN tolerance would switch a
    check off or fail every candidate, and past 0.5 no crossing fraction t
    satisfies tol_vertex < t < 1 - tol_vertex.  A bool, which would count
    as 0 or 1, is refused."""
    if not all(not isinstance(t, bool) and math.isfinite(t) and t > 0
               for t in (tol_closure, tol_vertex)):
        raise DomainError(f"tolerances must be positive and finite, got "
                          f"tol_closure={tol_closure!r}, tol_vertex={tol_vertex!r}")
    if not tol_vertex < 0.5:
        raise DomainError(f"tol_vertex={tol_vertex!r} must be below 0.5: each crossing "
                          "keeps that fraction of its edge clear of both ends")


def check_depth(max_crossings: Optional[int]) -> None:
    """Raise DomainError unless a crossing bound is None or an int (not a
    bool) of at least 3, the fewest crossings of a closed walk."""
    # a float bound would never equal a walk's depth and NaN passes every
    # range check, so either would be no bound; True would bound at 1
    if max_crossings is not None:
        if not is_int(max_crossings):
            raise DomainError(f"max_crossings={max_crossings!r} is not an integer")
        if max_crossings < 3:
            raise DomainError("max_crossings must be at least 3")


def is_int(x: object) -> bool:
    """Whether x is an int and not a bool, which would count as 0 or 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_type(p: int, q: int) -> None:
    """Raise DomainError unless (p, q) is a tetrahedron type."""
    if not (is_int(p) and is_int(q) and 0 <= p <= q and math.gcd(p, q) == 1):
        raise DomainError(f"({p!r}, {q!r}) is not a valid coprime type: p and q must be "
                          "integers with 0 <= p <= q and gcd(p, q) = 1")


class ClassificationError(ValueError):
    """A path's crossing counts do not fit the opposite-edge-pair pattern."""


@dataclass(frozen=True)
class Crossing:
    """One solved crossing: position and angle on the surface edge.

    t is the arc-length fraction measured from the smaller-id vertex;
    incidence is the angle between the oriented geodesic and the edge
    oriented the same way, in (0, pi).
    """

    edge: int
    t: float
    incidence: float


@dataclass(frozen=True)
class GeodesicPath:
    seq: CrossingSequence
    crossings: Tuple[Crossing, ...]
    arc_lengths: Tuple[float, ...]
    total_length: float
    pole: Vec3
    closure_residual: float


@dataclass(frozen=True)
class GeodesicClass:
    """Canonical representative of one geodesic up to solid symmetry."""

    path: GeodesicPath   # solved on the lexicographic minimum over the full orbit
    orbit_size: int
    tag: str


# ---------------------------------------------------------------------------
# pole feasibility: does a unit u exist with u.c > 0 for all constraints?
#
# Poles are kept in the gnomonic chart about a unit vector q0 that is itself a
# constraint: u = q0 + x e1 + y e2.  Great circles are straight lines there, so
# each constraint u.c > 0 is a half-plane and the feasible set is a convex
# polygon, narrowed by Sutherland-Hodgman clipping.  Vertices are stored as
# the 3-vectors q0 + x e1 + y e2, so a constraint is evaluated by one dot.

def _pole_box(q0: Vec3) -> List[Vec3]:
    """The square |x|, |y| <= 1/FEAS_MARGIN in the chart about unit q0.

    A pole outside it has margin below FEAS_MARGIN on q0, so bounding the
    chart this way drops no pole with margin >= FEAS_MARGIN.
    """
    e1, e2 = pole_frame(q0)
    b = 1.0 / FEAS_MARGIN
    return [add(add(q0, scale(e1, sx)), scale(e2, sy))
            for sx, sy in ((b, b), (-b, b), (-b, -b), (b, -b))]


def _clip(poly: List[Vec3], c: Vec3) -> List[Vec3]:
    """The part of a convex chart polygon where u.c >= 0."""
    out: List[Vec3] = []
    s = poly[-1]
    ds = s[0] * c[0] + s[1] * c[1] + s[2] * c[2]
    for e in poly:
        de = e[0] * c[0] + e[1] * c[1] + e[2] * c[2]
        if (ds >= 0.0) != (de >= 0.0):
            # weighted form: stays accurate when one end is ~1/FEAS_MARGIN away
            w = ds - de
            out.append(((ds * e[0] - de * s[0]) / w,
                        (ds * e[1] - de * s[1]) / w,
                        (ds * e[2] - de * s[2]) / w))
        if de >= 0.0:
            out.append(e)
        s, ds = e, de
    return out


def _narrow(poly: List[Vec3], arc: Tuple[Vec3, Vec3]) -> Optional[List[Vec3]]:
    """Clip a chart polygon of poles by one developed edge arc (p, q),
    which asks u.q > 0 > u.p of a pole u: the part where u.q >= 0 and
    u.(-p) >= 0, or None once fewer than 3 vertices are left.

    The poles that meet every arc so far strictly form an open set inside
    the polygon, so where there is one the polygon has area and keeps 3
    vertices or more: the test is a necessary condition and cuts no walk
    that a geodesic traces.  A polygon that rounding leaves with 3 vertices
    and no area passes; the closure stage tests its one pole strictly.
    """
    p, q = arc
    for c in (q, neg(p)):
        poly = _clip(poly, c)
        if len(poly) < 3:
            return None
    return poly


# ---------------------------------------------------------------------------
# per-sequence solver


def solve_sequence(
    spec: SolidSpec,
    seq: CrossingSequence,
    tol_closure: float = SOLVE_TOL,
    tol_vertex: float = SOLVE_TOL,
) -> Optional[GeodesicPath]:
    """The unique geodesic realizing `seq`, or None.

    The closing rotation's axis is the only possible pole of the unfolded
    geodesic; the candidate equator must cross every developed edge in the
    traversal direction, with strictly increasing azimuths spanning exactly
    the rotation angle, stay clear of vertices, and be simple on the surface.
    """
    check_tolerances(tol_closure, tol_vertex)
    return _solve_development(spec, develop(spec, seq), tol_closure, tol_vertex)


def _solve_development(
    spec: SolidSpec, dev: Walker, tol_closure: float, tol_vertex: float
) -> Optional[GeodesicPath]:
    """`solve_sequence` on a walker that has laid out the sequence."""
    closure = _closure(spec, dev, tol_closure, tol_vertex)
    return None if closure is None else _build_path(spec, dev, closure)


# what the closure stage hands the path stage: the pole, the crossings, the
# in-face arc lengths, their sum and its residual against the closing angle
_Closure = Tuple[Vec3, List[Tuple[float, float, Vec3]], List[float], float, float]


def _closure(
    spec: SolidSpec, dev: Walker, tol_closure: float, tol_vertex: float
) -> Optional[_Closure]:
    """The closure stage of `_solve_development`: whether `dev`'s crossing
    stack closes, decided on the one pole that can, without building its
    path."""
    axis, ang, near_identity = axis_angle(dev.placements[-1])
    if near_identity:
        return None
    # negation flips every dot bit for bit, so of the axis and its negation
    # only one can pass the side test on arc 0
    if not dot(axis, dev.arcs[0][1]) > 0.0:
        axis, ang = neg(axis), TWO_PI - ang
    return _closure_for_pole(spec, dev, axis, ang, tol_closure, tol_vertex)


def _closure_for_pole(
    spec: SolidSpec,
    dev: Walker,
    pole: Vec3,
    theta: float,
    tol_closure: float,
    tol_vertex: float,
) -> Optional[_Closure]:
    # The side test, the arc lengths, then one pass over the crossings,
    # with the floats of the sphtrig helpers they write out (dot,
    # pole_edge_crossing with its angle_between and slerp, and
    # angle_between and mat_apply for the chords) in their order; the pole
    # frame is built once, not per crossing.  The equator must cross from
    # the exited copy's side to the entered one; most poles fail this
    # somewhere, so test every arc before any crossing
    x, y, z = pole
    dps, dqs = [], []
    for (p0, p1, p2), (q0, q1, q2) in dev.arcs:
        dp = x * p0 + y * p1 + z * p2
        dq = x * q0 + y * q1 + z * q2
        if not dq > 0.0 > dp:
            return None
        dps.append(dp)
        dqs.append(dq)
    # An arc's length, with its sine and cosine, depends on the arc alone:
    # the walker keeps them in `dev.trig` across decisions, so walks that
    # share a prefix compute them once
    trig = dev.trig
    for (a0, a1, a2), (b0, b1, b2) in dev.arcs[len(trig):]:
        c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        length = math.atan2(math.sqrt(c0 * c0 + c1 * c1 + c2 * c2), a0 * b0 + a1 * b1 + a2 * b2)
        trig.append((length, math.sin(length), math.cos(length)))

    # One loop computes each crossing and checks it.  Each keeps tol_vertex
    # clear of the edge's ends, and each in-face chord, from the crossing
    # before to this one, must equal its azimuth gap; acos gives the
    # minor-arc length, so agreement also certifies the segment is the
    # minor arc, which face convexity then keeps inside the face copy.
    # Each crossing also files its boundary position in the two faces it
    # joins (see `_chords_nest`): (j, t) in face f, which it leaves over
    # local edge j, and (j2, 1 - t) in face g, which it enters over j2,
    # the glued edge, which runs the other way.
    (f0, f1, f2), (g0, g1, g2) = pole_frame(pole)
    m = len(dps)
    hits = []
    arc_lengths = []
    ends: List[List[Tuple[int, float, int]]] = [[] for _ in spec.faces]
    entered = dev.entered
    for i, (((a0, a1, a2), (b0, b1, b2)), (length, sin_len, cos_len), da, db, (f, _), j,
            (g, j2)) in enumerate(zip(dev.arcs, trig, dps, dqs, entered, dev.exits, entered[1:])):
        if da * db >= -CROSSING_FLOOR:
            return None
        s_len = math.atan2(da * sin_len, da * cos_len - db)
        if s_len <= 0.0:
            s_len += PI
        t = s_len / length
        sa = math.sin((1.0 - t) * length)
        sb = math.sin(t * length)
        u0, u1, u2 = a0 * sa + b0 * sb, a1 * sa + b1 * sb, a2 * sa + b2 * sb
        r = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
        if r < 1e-15:
            raise DomainError("cannot normalize a (near-)zero vector")
        p0, p1, p2 = u0 / r, u1 / r, u2 / r
        azimuth = math.atan2(p0 * g0 + p1 * g1 + p2 * g2, p0 * f0 + p1 * f1 + p2 * f2)
        if not tol_vertex < t < 1.0 - tol_vertex:
            return None
        if i:
            gap = (azimuth - prev_azimuth) % TWO_PI
            if gap <= 0.0:
                return None
            c0, c1, c2 = o1 * p2 - o2 * p1, o2 * p0 - o0 * p2, o0 * p1 - o1 * p0
            seg = math.atan2(math.sqrt(c0 * c0 + c1 * c1 + c2 * c2),
                             o0 * p0 + o1 * p1 + o2 * p2)
            if abs(seg - gap) > tol_closure:
                return None
            arc_lengths.append(seg)
        hits.append((t, azimuth, (p0, p1, p2)))
        o0, o1, o2, prev_azimuth = p0, p1, p2, azimuth
        # segment i runs from crossing i to crossing i + 1 in face g
        ends[f].append((j, t, (i - 1) % m))
        ends[g].append((j2, 1.0 - t, i))

    # the closing segment runs from the last crossing to the closing
    # rotation's image of the first
    _, azimuth, point = hits[0]
    gap = (azimuth + theta - prev_azimuth) % TWO_PI
    if gap <= 0.0:
        return None
    p0, p1, p2 = mat_apply(dev.placements[-1], point)
    c0, c1, c2 = o1 * p2 - o2 * p1, o2 * p0 - o0 * p2, o0 * p1 - o1 * p0
    seg = math.atan2(math.sqrt(c0 * c0 + c1 * c1 + c2 * c2), o0 * p0 + o1 * p1 + o2 * p2)
    if abs(seg - gap) > tol_closure:
        return None
    arc_lengths.append(seg)

    total = math.fsum(arc_lengths)
    residual = abs(total - theta)
    if residual > tol_closure or not total < TWO_PI:
        return None
    # endpoints closer than CONTACT_TOL of arc on one edge count as contact
    if not _chords_nest(ends, CONTACT_TOL / spec.edge_length):
        return None
    return pole, hits, arc_lengths, total, residual


def _build_path(spec: SolidSpec, dev: Walker, closure: _Closure) -> GeodesicPath:
    """The path stage of `_solve_development`: each crossing of a closure,
    with its incidence measured on the edge as the exited copy develops it."""
    pole, hits, arc_lengths, total, residual = closure
    n = spec.face_size
    crossings = []
    for (f, _), j, e, (t, _, point), (p, q) in zip(
            dev.entered, dev.exits, dev.seq.edges, hits, dev.arcs):
        # the geodesic's tangent at the crossing runs along the pole's equator
        inc = _edge_angle(normalize(cross(pole, point)), point, p, q)
        face = spec.faces[f]
        if face[j] < face[(j + 1) % n]:
            crossings.append(Crossing(e, t, inc))
        else:
            crossings.append(Crossing(e, 1.0 - t, PI - inc))
    return GeodesicPath(
        seq=dev.seq,
        crossings=tuple(crossings),
        arc_lengths=tuple(arc_lengths),
        total_length=total,
        pole=pole,
        closure_residual=residual,
    )


def _edge_angle(direction: Vec3, point: Vec3, p: Vec3, q: Vec3) -> float:
    """Angle between `direction` and the tangent at `point` of the edge arc
    (p, q), oriented p -> q."""
    return angle_between(direction, normalize(cross(normalize(cross(p, q)), point)))


def _chords_nest(ends: Iterable[List[Tuple[int, float, int]]], tol: float) -> bool:
    """Whether the in-face segments whose endpoints `ends` files are
    pairwise disjoint.

    `ends` lists, face by face, the (local edge j, fraction t, segment)
    boundary positions of the segments' endpoints in it.  Each segment is a
    minor chord between two boundary points of one convex face, so two
    segments in one face meet exactly when their endpoints interleave
    around its boundary or lie within `tol` on one edge.  Endpoints on
    different edges never touch: every t keeps tol_vertex clear of a vertex.
    """
    for face_ends in ends:
        face_ends.sort()
        prev_j, prev_t = -1, 0.0
        open_chords: List[int] = []
        for j, t, seg in face_ends:
            if j == prev_j and t - prev_t < tol:
                return False
            prev_j, prev_t = j, t
            if open_chords and open_chords[-1] == seg:
                open_chords.pop()
            else:
                open_chords.append(seg)
        # disjoint chords nest like parentheses; a crossing pair never closes
        if open_chords:
            return False
    return True


# ---------------------------------------------------------------------------
# canonical forms under cyclic shift x reversal x symmetry


# per kind, for each edge e, the bytes.translate tables of the |G|/|E| = 4
# symmetries that send e to edge 0
_TO_EDGE0: Dict[SolidKind, Tuple[List[bytes], ...]] = {}


def _to_edge0(spec: SolidSpec) -> Tuple[List[bytes], ...]:
    tables = _TO_EDGE0.get(spec.kind)
    if tables is None:
        ids = bytes(range(len(spec.edges)))
        tables = tuple([] for _ in ids)
        for g in symmetry_group(spec):
            tables[g.edge_perm.index(0)].append(bytes.maketrans(ids, bytes(g.edge_perm)))
        _TO_EDGE0[spec.kind] = tables
    return tables


def _orbit(spec: SolidSpec, word: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """The least word of `word`'s class under shift, reversal and symmetry,
    and the number of distinct geodesics (words up to shift and reversal)
    in its symmetry orbit.

    Words are byte strings, so the 2m shifts and reversals of a word w of m
    edges are the substrings of length m of w + w and of w's reversal
    doubled.  The group G is transitive on edges, so the least word starts
    at edge 0, and each of those 2m words is carried onto edge 0 by the
    |G|/|E| = 4 symmetries that send its first edge there (`_to_edge0`):
    the least word is the least of these 8m translated slices.  They hold
    every pair of a symmetry and a shift or reversal that sends w to the
    least word, so the c slices equal to it are s for each symmetry that
    sends w's geodesic (w up to shift and reversal) to the least word's,
    where s counts the shifts and reversals that fix w; those symmetries
    are as many as the ones that fix w's geodesic, so by orbit-stabilizer
    the orbit holds |G| s / c geodesics.  That is O(m^2) bytes translated,
    and no image of the whole word.
    """
    w = bytes(word)
    m = len(w)
    tables = _to_edge0(spec)
    rotations = [d[i:i + m] for d in (w + w, w[::-1] * 2) for i in range(m)]
    slices = [r.translate(tab) for r in rotations for tab in tables[r[0]]]
    least = min(slices)
    return tuple(least), len(symmetry_group(spec)) * rotations.count(w) // slices.count(least)


def canonical_word(spec: SolidSpec, word: Sequence[int]) -> Tuple[int, ...]:
    """The lexicographic minimum of `word`'s orbit; raises DomainError
    unless `word` is the edge word of a closed face walk."""
    return _orbit(spec, CrossingSequence.from_edges(spec, word).edges)[0]


def orbit_size(spec: SolidSpec, seq: CrossingSequence) -> int:
    """Number of distinct geodesics (sequences up to shift and reversal) in
    the symmetry orbit; raises DomainError unless `seq` is a closed face
    walk."""
    seq.validate(spec)
    return _orbit(spec, seq.edges)[1]


# ---------------------------------------------------------------------------
# classification tags


_TETRA_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def classify_tetra_type(spec: SolidSpec, path: GeodesicPath) -> Tuple[int, int]:
    """Crossing counts on the three opposite-edge pairs, as a coprime (p, q)."""
    if spec.kind is not SolidKind.TETRAHEDRON:
        raise DomainError("type classification applies to the tetrahedron")
    per_edge = [0] * len(spec.edges)
    for c in path.crossings:
        per_edge[c.edge] += 1
    pair_counts = []
    for ea, eb in _TETRA_PAIRS:
        ca = per_edge[spec.edge_index[ea]]
        cb = per_edge[spec.edge_index[eb]]
        if ca != cb:
            raise ClassificationError(
                f"opposite edges {ea}/{eb} crossed {ca}/{cb} times"
            )
        pair_counts.append(ca)
    pair_counts.sort()
    p, q, r = pair_counts
    if r != p + q or math.gcd(p, q) != 1:
        raise ClassificationError(f"pair counts {pair_counts} are not (p, q, p+q)")
    return p, q


def _component_tag(spec: SolidSpec, word: Tuple[int, ...]) -> str:
    """Tag octa/cube classes by the shape of the uncrossed-edge subgraph."""
    crossed = set(word)
    adj: Dict[int, List[int]] = {}
    for e, (a, b) in enumerate(spec.edges):
        if e not in crossed:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    if not adj:
        return "other"
    start = min(adj)
    comp = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w not in comp:
                comp.add(w)
                stack.append(w)
    n_vert = len(comp)
    n_edge = sum(len(adj.get(v, ())) for v in comp) // 2
    degrees = sorted(len(adj.get(v, ())) for v in comp)
    if spec.kind is SolidKind.OCTAHEDRON:
        if n_vert == 3 and n_edge == 3:
            return "type1"  # bounds a facet
        if n_vert == 3 and n_edge == 2:
            return "type2"  # two adjacent edges
    if spec.kind is SolidKind.CUBE:
        if n_vert == 4 and n_edge == 4:
            return "type1"  # bounds a facet
        if n_vert == 4 and n_edge == 3 and degrees[-1] == 3:
            return "type2"  # three edges sharing a vertex
        if n_vert == 4 and n_edge == 3 and degrees[-1] == 2:
            return "type3"  # broken line of three edges
    return "other"


def class_tag(spec: SolidSpec, path: GeodesicPath) -> str:
    if spec.kind is SolidKind.TETRAHEDRON:
        try:
            p, q = classify_tetra_type(spec, path)
        except ClassificationError:
            # circular geodesic around one vertex: exists once the edge
            # length exceeds pi/2, crossing the three incident edges at
            # right angles; it carries no (p, q) type
            word = path.seq.edges
            shared = set(spec.edges[word[0]])
            for e in word[1:]:
                shared &= set(spec.edges[e])
            if len(word) == 3 and len(shared) == 1:
                return "vertex-loop"
            return "other"
        return f"{p},{q}"
    return _component_tag(spec, path.seq.edges)


# ---------------------------------------------------------------------------
# exhaustive enumeration


# the bytes.translate table of the mirror t -> n - t on the turns of an
# n-gon, n = 3 or 4
_MIRRORS = {n: bytes.maketrans(bytes(range(n + 1)), bytes(range(n, -1, -1))) for n in (3, 4)}


# the prefix test's state (see `_extend_least`): the least shift of a tied
# plain and of a tied mirrored forward image; the root's has neither
_Ties = Tuple[Optional[int], Optional[int]]
_UNTIED: _Ties = (None, None)


def _extend_least(turns: bytes, start: int, tied: _Ties, n: int) -> Optional[_Ties]:
    """The search's prefix test (see `enumerate_classes`) on turns[start:].

    Each turn t_k is tested against t_0..t_{k-1}.  The forward image at
    shift s, plain or mirrored, is tied while its turns so far equal the
    prefix's first ones: t_s..t_{k-1} (each read as n - t if mirrored)
    equal t_0..t_{k-1-s}.  `tied` is (p, q), the least shift of a tied
    plain image and of a tied mirrored one, or None where none is tied.
    Returns (p, q) after the last turn, or None as soon as some image is
    strictly smaller at a position the turns fix.  t_k starts a plain image
    (k >= 1) and a mirrored one, each where the turn equals t_0, and two
    backward reads, t_k, t_{k-1}, ..., t_0 and its mirror n - t_k, ...,
    n - t_0: each has k + 1 turns, all fixed, so one byte comparison with
    t_0..t_k decides it.

    The least tie of each kind decides.  Let P = t_0..t_{L-1}, which has
    passed the test, hold ties of one kind at shifts s1 < s2, and let t_L
    be the new turn.  Both images read P[:L - s2] alike, so P[s1:L], and
    with it P[:L - s1] (which it equals, or mirrors), has period
    d = s2 - s1.  If s1 >= 1, the plain image at shift d was then tied
    through position L - s1 - 1 and tested at L - s1, so
    t_{L-s1} >= t_{L-s2}.  If s1 = 0 (a mirrored image), t_{L-s1} is the
    new turn, and that order is its own plain test at shift d: where it
    fails, the least plain tie, at most d, cuts.  Both images compare the
    same turn, t_L or n - t_L, with t_{L-s1} and t_{L-s2}, so the image at
    s2 is smaller only where the one at s1 is, and larger wherever that
    one is: a tie never cuts alone or outlives the least one of its kind.
    This is the least period of the FKM algorithm, which keeps one shift
    per prenecklace (K. Cattell, F. Ruskey, J. Sawada, M. Serra and C. R.
    Miers, "Fast algorithms to generate necklaces, unlabeled necklaces and
    irreducible polynomials over GF(2)", J. Algorithms 37, 2000), derived
    here for the mirrored images too.
    """
    mirror = _MIRRORS[n]
    p, q = tied
    for k in range(start, len(turns)):
        t = turns[k]
        if p is not None and t != turns[k - p]:
            if t < turns[k - p]:
                return None
            p = None
        if q is not None and n - t != turns[k - q]:
            if n - t < turns[k - q]:
                return None
            q = None
        if p is None and k and t == turns[0]:
            p = k
        if q is None and n - t == turns[0]:
            q = k
        back, prefix = turns[k::-1], turns[:k + 1]
        if back < prefix or back.translate(mirror) < prefix:
            return None
    return p, q


def _length_bound(
    spec: SolidSpec, window: Dict[bytes, float], turns: bytes, best: Sequence[float]
) -> float:
    """best[k], the search's length bound (see `enumerate_classes`) on the
    walk of the k `turns` from crossing 0 to crossing k, given best[:k].
    A trailing run of r equal turns that are not straight earns
    pi * floor(r * alpha / pi * (1 - 1e-9)): the slack keeps rounding from
    crediting a winding just below k*pi, as for r = 2 at the float
    alpha = 0.5 * PI, which lies below the true pi/2."""
    k, t = len(turns), turns[-1]
    if 2 * t == spec.face_size:
        lb = best[k - 1] + spec.edge_length
    else:
        r = k - len(turns.rstrip(turns[-1:]))
        wind = spec.alpha / PI * (1.0 - 1e-9)
        lb = max(best[k - 1], best[k - r] + PI * math.floor(r * wind))
    if k >= 2:
        lb = max(lb, best[k - 2] + window[turns[-2:]])
    return lb


def _window_table(spec: SolidSpec) -> Dict[bytes, float]:
    """D[bytes((s, t))], less 1e-9 and floored at 0, for the exit turns
    s, t = 1, ..., n - 1: the distance between the developed edge arcs two
    crossings apart, across turns s and t (see `enumerate_classes`).

    Equal turns that are not straight cross two edges with a common vertex.
    On triangles the others are opposite sides of a two-triangle rhombus:
    the altitude asin(sin a sin alpha) while alpha <= pi/2, whose foot lies
    inside the far side, else two corners an edge length a apart.  On the
    square the two straight turns cross the far sides of a domino, nearest
    at two corners across its long side's middle vertex, where the outer
    angle is 2*pi - 2*alpha; the others are a apart."""
    a, alpha, n = spec.edge_length, spec.alpha, spec.face_size
    d = math.asin(math.sin(a) * math.sin(alpha)) if n == 3 and alpha <= PI / 2 else a
    far = cos_side(a, a, TWO_PI - 2.0 * alpha) if n == 4 else 0.0
    return {bytes((s, t)): max(0.0, (d if s != t else far if 2 * t == n else 0.0) - 1e-9)
            for s in range(1, n) for t in range(1, n)}


def _start_crossing(spec: SolidSpec) -> Tuple[int, int]:
    """The search's start crossing: face edge_faces[0][0] and the local
    index on it of edge 0, which the walk crosses first."""
    face = spec.edge_faces[0][0]
    return face, spec.face_edge_local[(face, 0)]


def enumerate_classes(
    spec: SolidSpec,
    max_crossings: Optional[int],
    tol_closure: float = SOLVE_TOL,
    tol_vertex: float = SOLVE_TOL,
) -> List[GeodesicClass]:
    """All simple closed geodesics with at most `max_crossings` crossings,
    or all of them when it is None, one canonical representative per
    symmetry class, in canonical order.

    Exhaustive up to the crossing bound: every class whose representative
    crosses <= max_crossings edges is found.  With None the search runs
    until the length bound below closes every branch.  The symmetry group is
    transitive on (face, edge) incidences, so every class has a word that
    starts by crossing edge 0 out of face A = edge_faces[0][0], and the
    search walks only from there.

    Least turn words.  Leaving a face entered over local edge `entry`
    through local edge k is the exit turn t = (k - entry) mod n, and a walk
    from the start crossing is fixed by its turns.  A closed walk of m
    crossings has the cyclic turn word T = (t_0, ..., t_{m-1}), where t_i
    is the turn in the face that crossing i enters and t_{m-1} the closing
    turn back onto the start crossing.  Its geodesic passes every crossing
    i in both directions, and the group holds, for each, exactly two
    symmetries onto the start crossing: one keeps the orientation of every
    face and so every turn, the other reverses it and sends local edge k to
    (r - k - 1) mod n for some r, so each turn t to n - t.  Walked forward
    from crossing i, the images read the rotation t_i, t_{i+1}, ... or its
    mirror n - t_i, n - t_{i+1}, ...; walked backward, entering the face
    that crossing i leaves, they read n - t_{i-1}, n - t_{i-2}, ... or its
    mirror t_{i-1}, t_{i-2}, ....  So the walks from the start crossing
    that trace one class are exactly the walks of these 4m images of T, and
    the search walks only the least of them: a class has one least word,
    hence one walk and one closure.  Feasibility and the length cap are
    invariant under the images: each prefix of an image's walk traces a
    piece of the same geodesic, carried by a symmetry and perhaps reversed,
    so some pole crosses all its edges the right way and its segments sum
    below 2*pi.  (In floats a prefix and its image can differ only where
    the pole region has zero area, as on the repeats of a closed word.)
    The prefix test (`_extend_least`) cuts t_0..t_k as soon as some image
    is strictly smaller at a position t_0..t_k fixes, which every
    completion of the prefix shares; no image is smaller than the least
    one, so it is never cut.  Of the forward images still tied with the
    prefix, a node keeps only the least shift of a plain one and of a
    mirrored one.  If two images of one kind are tied with t_0..t_{k-1} at
    shifts s1 < s2, then t_0..t_{k-1-s1} has period d = s2 - s1, and the
    plain test at shift d, which the prefix passed at position k - s1,
    gives t_{k-s1} >= t_{k-s2} (if s1 = 0, t_k meets that test itself, and
    the least plain tie cuts where it fails).  Both images compare one
    turn, t_k or n - t_k, with these two, so at t_k the image at s2 is
    smaller only where the one at s1 is, and its tie breaks whenever that
    one's does (the proof is in `_extend_least`).  This is the least period
    that the FKM algorithm keeps for a prenecklace (K. Cattell, F. Ruskey,
    J. Sawada, M. Serra and C. R. Miers, J. Algorithms 37, 2000), carried
    over to the mirrored images.  A closed word of m turns is solved, on
    the walker's layout of it, only if the prefix test run on through the
    word's first m - 1 turns passes it: that copy decides every forward
    image through the wrap by its least ties and reads every backward image
    in full, so it passes exactly the least of the 4m images.  This is
    isomorph-free generation by canonical augmentation (B. D. McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998), with
    the incremental prefix test of bracelet generators (J. Sawada,
    "Generating bracelets in constant amortized time", SIAM J. Comput. 31,
    2001), whose comparisons `_extend_least` states.

    Length bound.  Three pieces of the geodesic have bounds of their own.
    Its segment in a face copy joins the entry and exit edges, so it is at
    least their distance, which depends on the exit turn alone: every copy
    is a rotated copy of one regular chart.  Edges with a common vertex are
    at distance 0; the opposite sides of a square (the straight turn, 2t =
    n) are one edge length a apart: the nearest points of two disjoint arcs
    are the feet of a common perpendicular (here the midline, longer than a
    side, since a spherical Saccheri quadrilateral's summit is shorter than
    its base), a corner and its foot (none lands inside the far side, as
    alpha > pi/2) or two corners (a diagonal, opposite an obtuse corner, is
    longer than a side).  A run of r equal turns that are not straight makes
    r + 1 crossings on edges that share one vertex v, in face copies that
    fan around one copy of v, so the geodesic's azimuth about v moves by
    r*alpha.  A great circle that misses +-v moves its azimuth about v
    monotonically, by exactly pi per length pi, and a convex face copy that
    holds v never holds -v, so that piece is at least pi*floor(r*alpha/pi).
    The piece from crossing i - 2 to crossing i, unfolded, is one
    great-circle arc between developed edge arcs i - 2 and i, so it is at
    least their distance, which two disjoint minor arcs take at an endpoint
    of one (interior feet of a common perpendicular are no local minimum),
    a closed form in t_{i-2} and t_{i-1} (`_window_table`).  Each node keeps
    best[i], a bound on the piece from crossing 0 to crossing i, for each i
    up to its k turns (`_length_bound`): best[0] = 0, and best[k] is the
    largest of best[k - 1] + a if t_{k-1} is straight, else best[k - 1] and
    best[k - r] plus the winding of the trailing run of r turns equal to
    t_{k-1}, and best[k - 2] plus the window.  By induction on k it is
    sound, as each term adds a piece's bound to a bound of the disjoint
    piece before it, and it is at least the sum of the walk's straight
    turns and maximal runs.  On the tetrahedron's alternating repeats, such
    as (1, 2)^k, the runs earn nothing but every window earns a rhombus
    width.  A child is cut when it is pushed, once its bound reaches 2*pi.
    """
    check_depth(max_crossings)
    if max_crossings is not None and max_crossings > MAX_SEARCH_DEPTH:
        raise DomainError(f"max_crossings must be at most {MAX_SEARCH_DEPTH}")
    check_tolerances(tol_closure, tol_vertex)
    n = spec.face_size
    window = _window_table(spec)
    start_face, start_j = _start_crossing(spec)
    found: List[bytes] = []
    # A node is the walk of the start crossing and its `turns`, with the
    # pole polygon of its parent's crossings (the root's is the chart square
    # about its entry vertex, `_pole_box`), best[i] for each i up to
    # len(turns) (see `_length_bound`), and the least shifts of a plain and
    # of a mirrored forward image still tied with `turns` (`_extend_least`).
    # Nodes are popped in preorder, so the walker always holds the parent's
    # crossings, perhaps followed by those of an earlier sibling's subtree:
    # the root is the walker's first crossing, and any other node costs one
    # cut and one crossing.
    walker = Walker(spec, start_face, start_j)
    stack = [(b"", _pole_box(walker.arcs[0][1]), (0.0,), _UNTIED)]
    while stack:
        turns, region, best, tied = stack.pop()
        if turns:
            walker.cut(len(turns))
            walker.cross(turns[-1])
        region = _narrow(region, walker.arcs[-1])
        if region is None:
            continue
        face, entry = walker.entered[-1]
        m = len(walker.edges)
        closing = (start_j - entry) % n
        if m >= 3 and face == start_face and closing:
            # a closed word is solved unless it is a proper power, which
            # retraces a shorter closed geodesic and so is never simple, or
            # not least.  A word is a proper power iff it occurs in its own
            # square away from both ends (Lothaire, Combinatorics on Words,
            # 1983, ch. 1)
            word = bytes(walker.edges)
            wrapped = turns + bytes((closing,)) + turns
            if (word not in (word + word)[1:-1]
                    and _extend_least(wrapped, m - 1, tied, n) is not None
                    and _closure(spec, walker, tol_closure, tol_vertex) is not None):
                found.append(word)
        if m == max_crossings:
            continue
        # pushed last turn first, so the walk visits turns in increasing order
        for t in range(n - 1, 0, -1):
            grown = turns + bytes((t,))
            lb = _length_bound(spec, window, grown, best)
            if lb < TWO_PI - 1e-12:
                still = _extend_least(grown, len(turns), tied, n)
                if still is not None:
                    stack.append((grown, region, best + (lb,), still))

    classes = [solve_class(spec, word, tol_closure, tol_vertex) for word in found]
    classes.sort(key=lambda c: c.path.seq.edges)
    return classes


def solve_class(
    spec: SolidSpec,
    word: Sequence[int],
    tol_closure: float = SOLVE_TOL,
    tol_vertex: float = SOLVE_TOL,
) -> GeodesicClass:
    """The class of `word`, any edge word of a sequence that solved: its
    path is solved on the class's canonical word (see `canonical_word`)."""
    check_tolerances(tol_closure, tol_vertex)
    own = CrossingSequence.from_edges(spec, word)
    least, size = _orbit(spec, own.edges)
    seq = CrossingSequence(least)
    path = solve_sequence(spec, seq, tol_closure, tol_vertex)
    if path is None:
        if solve_sequence(spec, own, tol_closure, tol_vertex) is None:
            raise DomainError(f"edge word {list(own.edges)} does not solve at "
                              f"alpha={spec.alpha!r}")
        # `word` solves on its own floats; its canonical image differs from
        # it by rounding only
        raise DomainError(f"tol_closure={tol_closure!r} is too tight for the canonical "
                          "image of a solved sequence to re-solve")
    return GeodesicClass(path=path, orbit_size=size, tag=class_tag(spec, path))


# ---------------------------------------------------------------------------
# targeted tetrahedron sequences by type


def _turn_word(p: int, q: int) -> bytes:
    """The turn word of type (p, q) (see `tetra_type_sequence`), one byte
    per turn: bytes keep a count's thousands of words small to sort."""
    turns = bytearray()
    for i in range(2 * (p + q)):
        upper = (i + 1) * p // (p + q) > i * p // (p + q)
        turns += b"\x01\x02" if upper else b"\x02\x01"
    return bytes(turns)


def _type_walks(
    spec: SolidSpec, types: Sequence[Tuple[int, int]]
) -> Iterator[Tuple[int, Walker]]:
    """(i, the walker holding the walk of types[i]) for every type, in the
    lexicographic order of their turn words; it holds it until the next
    step.

    One `unfold.Walker` lays them all out: each word cuts it back to the
    crossings fixed by the turns it shares with the word before it, and
    crosses on from there.  Christoffel words of
    nearby slopes share long prefixes (Berstel et al., see
    `tetra_type_sequence`): near the flat limit only about 3 in 5 of the
    crossings of all candidate types are distinct prefixes.
    """
    if spec.kind is not SolidKind.TETRAHEDRON:
        raise DomainError("typed sequences apply to the tetrahedron")
    for p, q in types:
        check_type(p, q)
    # the closing turn of a word lays nothing out
    words = [_turn_word(p, q)[:-1] for p, q in types]
    walker = Walker(spec, *_start_crossing(spec))
    held = b""  # the turns between the crossings the walker holds
    for i in sorted(range(len(types)), key=words.__getitem__):
        k = len(os.path.commonprefix((held, words[i])))
        walker.cut(k + 1)
        for t in words[i][k:]:
            walker.cross(t)
        held = words[i]
        yield i, walker


def tetra_type_sequence(spec: SolidSpec, p: int, q: int) -> CrossingSequence:
    """The crossing sequence of the type-(p, q) tetrahedron geodesic.

    The walk starts from the search's start crossing, edge 0 out of face
    edge_faces[0][0], and is fixed by its exit turns (see `unfold.Walker`).
    Its turn word is the doubled lower Christoffel word of slope p/q
    (J. Berstel, A. Lauve, C. Reutenauer, F. Saliola, "Combinatorics on
    Words: Christoffel Words and Repetitions in Words", AMS 2008): letter
    i, for i < 2(p + q), is upper iff floor((i + 1) p / (p + q)) >
    floor(i p / (p + q)), and each lower letter turns 2 then 1, each upper
    letter 1 then 2.  The walk closes on the start crossing after exactly
    4(p + q) crossings (`test_tetra_type_sequence_structure` checks this and
    the pair counts for every type a count can list, and the class against
    a line traced across the triangular lattice for q <= 30).
    """
    ((_, walker),) = _type_walks(spec, ((p, q),))
    return walker.seq


def solve_tetra_type(
    spec: SolidSpec,
    p: int,
    q: int,
    tol_closure: float = SOLVE_TOL,
    tol_vertex: float = SOLVE_TOL,
) -> Optional[GeodesicPath]:
    """Solve the targeted type-(p, q) sequence on the walker of its walk;
    None when no such geodesic exists at this facet angle."""
    check_tolerances(tol_closure, tol_vertex)
    ((_, walker),) = _type_walks(spec, ((p, q),))
    return _solve_development(spec, walker, tol_closure, tol_vertex)


def _types_found(
    spec: SolidSpec, types: Sequence[Tuple[int, int]], tol_closure: float,
    tol_vertex: float,
) -> List[bool]:
    """Whether `solve_tetra_type` finds each of `types`, in their order.

    The types are walked along one shared-prefix walk (`_type_walks`), and
    each is decided by the closure stage alone: no path is built."""
    found = [False] * len(types)
    for i, walker in _type_walks(spec, types):
        found[i] = _closure(spec, walker, tol_closure, tol_vertex) is not None
    return found
