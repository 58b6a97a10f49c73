"""Shared helpers for the test suite: random instances and slow oracles."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from sphgeo import finder, sphtrig, unfold
from sphgeo.solids import SolidKind, SolidSpec, symmetry_group
from sphgeo.sphtrig import PI, DomainError
from sphgeo.unfold import CrossingSequence


# ---------------------------------------------------------------------------
# small geometry helpers that only the tests use


def arc_midpoint(a, b):
    """Midpoint of the minor arc between two non-antipodal unit vectors."""
    return sphtrig.normalize(sphtrig.add(a, b))


def azimuth_about(pole, point) -> float:
    """Azimuth of `point` in the equator frame of `pole`, in (-pi, pi]."""
    e1, e2 = sphtrig.pole_frame(pole)
    return math.atan2(sphtrig.dot(point, e2), sphtrig.dot(point, e1))


def mat_transpose(m):
    """The inverse of a rotation."""
    return (
        (m[0][0], m[1][0], m[2][0]),
        (m[0][1], m[1][1], m[2][1]),
        (m[0][2], m[1][2], m[2][2]),
    )


def mat_det(m) -> float:
    return sphtrig.dot(m[0], sphtrig.cross(m[1], m[2]))


def orthonormality_residual(m) -> float:
    """Largest deviation of m^T m from the identity, plus |det - 1|."""
    g = sphtrig.mat_compose(mat_transpose(m), m)
    res = 0.0
    for i in range(3):
        for j in range(3):
            res = max(res, abs(g[i][j] - (1.0 if i == j else 0.0)))
    return max(res, abs(mat_det(m) - 1.0))


def step_rotation(spec: SolidSpec, placement, from_face: int, edge: int, to_face: int):
    """Placement of the neighbouring face copy after one edge crossing."""
    j = spec.face_edge_local.get((from_face, edge))
    if j is None:
        raise DomainError(
            f"edge {edge} is not an edge of face {from_face}"
        )
    gi = spec.gluing[(from_face, j)][0]
    if gi != to_face:
        raise DomainError("crossing does not match the gluing map")
    return sphtrig.mat_compose(placement, spec.steps[(from_face, j)])


def reference_face_walk(spec: SolidSpec, edges: Sequence[int]) -> Tuple[int, ...]:
    """Slow oracle for `CrossingSequence.validate`, in two passes: first the
    common face of each pair of consecutive edges, then the gluing chain
    those faces must form.  Returns the face each crossing leaves, or raises
    DomainError."""
    m = len(edges)
    if m < 3:
        raise DomainError("a crossing sequence needs at least 3 crossings")
    for e in edges:
        if type(e) is not int or not 0 <= e < len(spec.edges):
            raise DomainError(f"edge id {e!r} is not an integer in range({len(spec.edges)})")
    # the face between crossings i - 1 and i, which crossing i leaves
    faces = []
    for i in range(m):
        e1, e2 = edges[i - 1], edges[i]
        if e1 == e2:
            raise DomainError("consecutive crossings reuse one edge")
        f = spec.common_face(e1, e2)
        if f is None:
            raise DomainError(f"edges {e1} and {e2} do not bound a common face")
        faces.append(f)
    for i, e in enumerate(edges):
        f, g = faces[i], faces[(i + 1) % m]
        if spec.gluing[(f, spec.face_edge_local[(f, e)])][0] != g:
            raise DomainError(f"crossing {i} over edge {e} does not lead "
                              f"from face {f} into face {g}")
    return tuple(faces)


@dataclass(frozen=True)
class Layout:
    """A laid-out crossing stack, frozen: what an `unfold.Walker` held at one
    moment (`snapshot`), or what `reference_develop` lays out.  Two layouts
    compare field by field, and the closure stage reads one as it reads a
    walker."""

    seq: CrossingSequence
    placements: Tuple
    arcs: Tuple
    entered: Tuple
    exits: Tuple

    @property
    def faces(self) -> Tuple[int, ...]:
        """The face each crossing leaves."""
        return tuple(f for f, _ in self.entered[:-1])

    @property
    def trig(self) -> list:
        """A fresh list for the closure stage's (length, sine, cosine) of
        each arc: a layout keeps none."""
        return []


def snapshot(dev) -> Layout:
    """The crossing stack a walker holds now, as a layout that outlives the
    walker's next cut; a layout is returned as it is."""
    if isinstance(dev, Layout):
        return dev
    return Layout(dev.seq, tuple(dev.placements), tuple(dev.arcs), tuple(dev.entered),
                  tuple(dev.exits))


def reference_develop(spec: SolidSpec, seq: CrossingSequence) -> Layout:
    """Slow oracle for `unfold.develop` on a valid sequence: it takes the
    faces from `reference_face_walk` and looks up each crossing's local edge
    from its face and edge id, where `develop` walks its turns on the
    crossing stack `unfold.Walker`."""
    n = spec.face_size
    faces = reference_face_walk(spec, seq.edges)
    placements = [sphtrig.IDENTITY]
    arcs = []
    exits = []
    entered = []
    r = sphtrig.IDENTITY
    for f, e in zip(faces, seq.edges):
        j = spec.face_edge_local[(f, e)]
        p = sphtrig.mat_apply(r, spec.chart[j])
        q = sphtrig.mat_apply(r, spec.chart[(j + 1) % n])
        arcs.append((p, q))
        exits.append(j)
        entered.append(spec.gluing[(f, j)])
        r = sphtrig.mat_compose(r, spec.steps[(f, j)])
        placements.append(r)
    # the start copy enters faces[0] over the edge of crossing 0 itself
    entered.insert(0, (faces[0], exits[0]))
    return Layout(seq=seq, placements=tuple(placements), arcs=tuple(arcs),
                  entered=tuple(entered), exits=tuple(exits))


def edge_copies_coincide(spec: SolidSpec, dev, tol: float) -> bool:
    """Whether the two face copies of a development's every crossing place
    the shared edge on one arc, endpoints swapped, within `tol` per
    coordinate: the exited copy from its placement, the entered copy from
    its own."""
    n = spec.face_size
    for i, (f, e) in enumerate(zip(dev.faces, dev.seq.edges)):
        j = spec.face_edge_local[(f, e)]
        j2 = spec.gluing[(f, j)][1]
        p = sphtrig.mat_apply(dev.placements[i], spec.chart[j])
        q = sphtrig.mat_apply(dev.placements[i], spec.chart[(j + 1) % n])
        p2 = sphtrig.mat_apply(dev.placements[i + 1], spec.chart[j2])
        q2 = sphtrig.mat_apply(dev.placements[i + 1], spec.chart[(j2 + 1) % n])
        if max(abs(a - b) for a, b in zip(p + q, q2 + p2)) >= tol:
            return False
    return True


def point_arc_distance(x, p, q) -> float:
    """Spherical distance from unit x to the minor arc p -> q.  Every
    distance is an atan2 of a cross and a dot: acos and asin lose about
    1e-8 where their argument is near 1."""
    def dist(u, v):
        return math.atan2(sphtrig.norm(sphtrig.cross(u, v)), sphtrig.dot(u, v))

    n = sphtrig.normalize(sphtrig.cross(p, q))
    h = sphtrig.dot(x, n)
    foot = sphtrig.add(x, sphtrig.scale(n, -h))
    r = sphtrig.norm(foot)
    # the great circle's nearest point to x lies inside the arc
    if (r > 1e-12 and sphtrig.dot(sphtrig.cross(p, foot), n) >= 0.0
            and sphtrig.dot(sphtrig.cross(foot, q), n) >= 0.0):
        return math.atan2(abs(h), r)
    return min(dist(x, p), dist(x, q))


def window_distance(spec: SolidSpec, s: int, t: int) -> float:
    """Slow oracle for `finder._window_table`: on a walker from the
    search's start crossing that turns s and then t, the least distance
    from an end of one of developed arcs 0 and 2 to the other arc."""
    walker = unfold.Walker(spec, *finder._start_crossing(spec))
    walker.cross(s)
    walker.cross(t)
    (a, b), (c, d) = walker.arcs[0], walker.arcs[2]
    return min(point_arc_distance(a, c, d), point_arc_distance(b, c, d),
               point_arc_distance(c, a, b), point_arc_distance(d, a, b))


def reference_length_bound(spec: SolidSpec, turns: Sequence[int]) -> List[float]:
    """The search's earlier length bound after each turn of `turns`: the
    largest of a fold of straight-turn and winding-run credits (the
    credits of the walk's straight turns and closed runs, plus that of its
    open run), the parent's bound, and from the second turn on the
    grandparent's bound plus the window table's entry for the last two
    turns."""
    window = finder._window_table(spec)
    wind = spec.alpha / PI * (1.0 - 1e-9)
    closed, run, last, before, bound = 0.0, 0, 0, 0.0, 0.0
    out = []
    for t in turns:
        straight = 2 * t == spec.face_size
        if straight or t != last:
            closed += PI * math.floor(run * wind)
            run = 0
        if straight:
            closed += spec.edge_length
        else:
            run += 1
        lb = max(closed + PI * math.floor(run * wind), bound)
        if last:
            lb = max(lb, before + window[bytes((last, t))])
        before, bound, last = bound, lb, t
        out.append(lb)
    return out


def holonomy(spec: SolidSpec, seq: CrossingSequence):
    """Closing rotation of the development of `seq`."""
    return unfold.develop(spec, seq).placements[-1]


# ---------------------------------------------------------------------------
# library conveniences with no caller in the package


def feasible_pole_exists(arcs: Iterable) -> bool:
    """Whether a unit pole u satisfies u.a > 0 > u.b for every arc (a, b).

    Decided by clipping the chart square about the first `a` (see
    `finder._pole_box`) by every constraint, as the search does one crossing
    at a time; True only with a pole that meets all of them strictly, the
    normalized vertex centroid of the polygon that is left.
    """
    # the search's arcs (p, q) ask u.q > 0 > u.p
    dev_arcs = [(b, a) for a, b in arcs]
    if not dev_arcs:
        return True
    poly = finder._pole_box(sphtrig.normalize(dev_arcs[0][1]))
    for arc in dev_arcs:
        poly = finder._narrow(poly, arc)
        if poly is None:
            return False
    return strict_pole(poly, dev_arcs)


def strict_pole(poly, dev_arcs) -> bool:
    """Whether the normalized vertex centroid of a chart polygon of poles
    meets every developed arc (p, q) strictly: u.q > 0 > u.p."""
    u = sphtrig.normalize(tuple(sum(v[i] for v in poly) for i in range(3)))
    return all(sphtrig.dot(u, q) > 0.0 > sphtrig.dot(u, p) for p, q in dev_arcs)


def is_simple(spec: SolidSpec, path) -> bool:
    """Whether the path's in-face segments are pairwise disjoint on the surface
    (consecutive segments touch only at their shared edge crossing)."""
    dev = unfold.develop(spec, path.seq)
    hits = [sphtrig.pole_edge_crossing(path.pole, a, b) for a, b in dev.arcs]
    if None in hits:
        return False
    return dev_is_simple(spec, dev, hits)


def dev_is_simple(spec: SolidSpec, dev, hits) -> bool:
    """Whether the in-face segments through `hits` are pairwise disjoint,
    decided by `finder._chords_nest` on their endpoints filed as
    `finder._closure_for_pole` files them.

    A crossing at fraction t of face-local edge j sits at boundary
    position (j, t) in the face it exits and (j2, 1 - t) in the face it
    enters, where the glued edge j2 runs the other way.  Segment i runs from
    crossing i to crossing i + 1 in the face crossing i enters.
    """
    m = len(hits)
    ends = {}
    for i, (f, e) in enumerate(zip(dev.faces, dev.seq.edges)):
        t = hits[i].t
        j = spec.face_edge_local[(f, e)]
        g, j2 = spec.gluing[(f, j)]
        ends.setdefault(f, []).append((j, t, (i - 1) % m))
        ends.setdefault(g, []).append((j2, 1.0 - t, i))
    return finder._chords_nest(ends.values(), sphtrig.CONTACT_TOL / spec.edge_length)


def canonicalize(spec: SolidSpec, seq: CrossingSequence) -> CrossingSequence:
    """Lexicographic minimum of the sequence over cyclic shifts, reversal and
    the full symmetry group; idempotent."""
    return CrossingSequence.from_edges(spec, finder.canonical_word(spec, seq.edges))


def reference_orbit(spec: SolidSpec, word: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    """The least word of `word`'s class and its orbit size, the slow way:
    the set of every symmetry image's least shift (of the image or of its
    reversal), each found by trying every shift."""
    def cyclic_min(w: Tuple[int, ...]) -> Tuple[int, ...]:
        return min(v[r:] + v[:r] for v in (w, w[::-1]) for r in range(len(v)))

    orbit = {cyclic_min(tuple(g.edge_perm[e] for e in word))
             for g in symmetry_group(spec)}
    return min(orbit), len(orbit)


def midpoint_class_length(spec: SolidSpec, tag: str) -> Optional[float]:
    """The closed-form length of the octahedron or cube class `tag` whose
    crossings are all edge midpoints, or None for any other class.

    The cube's 4-crossing class (type1) is four face midlines end to end.
    The octahedron's 6-crossing class (type1) and the cube's 6-crossing
    class of orbit 4 (type2) cut a corner of each face they cross: each
    segment joins the midpoints of two edges that meet at angle alpha, so
    it is the side d opposite alpha of a triangle with two sides a/2,
    cos d = cos^2(a/2) + sin^2(a/2) cos(alpha), for the edge length a of
    the face's closed form."""
    alpha = spec.alpha
    if spec.kind is SolidKind.CUBE and tag == "type1":
        return 4 * sphtrig.square_midline(alpha)
    if (spec.kind, tag) in ((SolidKind.OCTAHEDRON, "type1"), (SolidKind.CUBE, "type2")):
        a = sphtrig.tetra_edge(alpha) if spec.kind is SolidKind.OCTAHEDRON else \
            sphtrig.cube_edge(alpha)
        cos_d = math.cos(a / 2) ** 2 + math.sin(a / 2) ** 2 * math.cos(alpha)
        return 6 * math.acos(cos_d)
    return None


def random_unit(rng: random.Random) -> Tuple[float, float, float]:
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-6:
            return (v[0] / n, v[1] / n, v[2] / n)


def random_rotation(rng: random.Random) -> sphtrig.Mat3:
    r1 = sphtrig.rot_about(random_unit(rng), rng.uniform(0, math.pi))
    r2 = sphtrig.rot_about(random_unit(rng), rng.uniform(0, 2 * math.pi))
    return sphtrig.mat_compose(r1, r2)


def random_closed_word(
    spec: SolidSpec, rng: random.Random, max_len: int = 12
) -> Tuple[int, ...]:
    """A random structurally valid cyclic edge word (not necessarily a
    geodesic): a face walk that returns to its start face."""
    n = spec.face_size
    while True:
        e0 = rng.randrange(len(spec.edges))
        f0 = spec.edge_faces[e0][rng.randrange(2)]
        j = spec.face_edge_local[(f0, e0)]
        cur, entry = spec.gluing[(f0, j)]
        word = [e0]
        for _ in range(max_len - 1):
            choices = [k for k in range(n) if k != entry]
            k = rng.choice(choices)
            word.append(spec.face_edges[cur][k])
            cur, entry = spec.gluing[(cur, k)]
            if len(word) >= 3 and cur == f0 and word[-1] != word[0]:
                return tuple(word)
        # walk failed to close in time; retry


def random_sequence(
    spec: SolidSpec, rng: random.Random, max_len: int = 12
) -> CrossingSequence:
    return CrossingSequence.from_edges(spec, random_closed_word(spec, rng, max_len))


def sampled_segments(
    spec: SolidSpec, seq: CrossingSequence, pole, n_samples: int = 160
) -> Optional[List[Tuple[int, List]]]:
    """Face-local sample points of every in-face segment of the path with
    the given pole, or None when the pole misses an edge."""
    dev = unfold.develop(spec, seq)
    hits = [sphtrig.pole_edge_crossing(pole, a, b) for a, b in dev.arcs]
    if None in hits:
        return None
    pts = [h.point for h in hits]
    closing = sphtrig.mat_apply(dev.placements[-1], pts[0])
    out = []
    m = len(pts)
    for i in range(m):
        inv = mat_transpose(dev.placements[i + 1])
        a = sphtrig.mat_apply(inv, pts[i])
        b = sphtrig.mat_apply(inv, pts[i + 1] if i < m - 1 else closing)
        samples = [sphtrig.slerp(a, b, k / n_samples) for k in range(n_samples + 1)]
        out.append((dev.faces[(i + 1) % m], samples))
    return out


def trace_geodesic(spec: SolidSpec, path) -> Tuple[Tuple[int, ...], float, float]:
    """Shooting oracle: re-trace a solved path on the surface, face by face.

    Starts from the first crossing's surface data alone (edge, t, incidence),
    propagates the great-circle arc through each face in local coordinates,
    and crosses into the neighbour at every exit.  Independent of the
    holonomy/closure machinery.  Returns (edges crossed, closure position
    error, closure direction error).
    """
    n = spec.face_size
    m = len(path.crossings)
    face = path.seq.validate(spec)[1]
    j = spec.face_edge_local[(face, path.seq.edges[0])]
    a, b = spec.chart[j], spec.chart[(j + 1) % n]
    va = spec.faces[face][j]
    vb = spec.faces[face][(j + 1) % n]
    c0 = path.crossings[0]
    t_local = c0.t if va < vb else 1.0 - c0.t
    x = sphtrig.slerp(a, b, t_local)
    edge_pole = sphtrig.normalize(sphtrig.cross(a, b))  # interior side
    tau = sphtrig.cross(edge_pole, x)                   # along a -> b
    if va > vb:
        tau = sphtrig.neg(tau)                          # smaller-id vertex first
    chi = c0.incidence
    d = tuple(
        math.cos(chi) * tau[i] + math.sin(chi) * edge_pole[i] for i in range(3)
    )
    x0, d0 = x, d
    entry = j
    edges = []
    for _ in range(m):
        w = sphtrig.normalize(sphtrig.cross(x, d))
        az_x = azimuth_about(w, x)
        best = None
        for j2 in range(n):
            if j2 == entry:
                continue
            hit = sphtrig.pole_edge_crossing(
                w, spec.chart[j2], spec.chart[(j2 + 1) % n]
            )
            if hit is None:
                continue
            gap = (hit.azimuth - az_x) % (2 * math.pi)
            if 1e-12 < gap and (best is None or gap < best[0]):
                best = (gap, j2, hit.point)
        if best is None:
            return tuple(edges), math.inf, math.inf
        gap, j2, y = best
        edges.append(spec.face_edges[face][j2])
        d_y = sphtrig.cross(w, y)
        # move into the neighbour's chart frame
        t_inv = mat_transpose(spec.steps[(face, j2)])
        x = sphtrig.mat_apply(t_inv, y)
        d = sphtrig.mat_apply(t_inv, d_y)
        face, entry = spec.gluing[(face, j2)]
    pos_err = sphtrig.angle_between(x, x0)
    dir_err = sphtrig.angle_between(sphtrig.normalize(d), sphtrig.normalize(d0))
    return tuple(edges), pos_err, dir_err


def sampled_is_simple(spec: SolidSpec, seq: CrossingSequence, pole,
                      n_samples: int = 160) -> bool:
    """Brute-force simplicity oracle: decide by dense pointwise sampling of
    all same-face segment pairs.  Resolution-limited but independent of the
    arc-intersection predicate."""
    segs = sampled_segments(spec, seq, pole, n_samples)
    if segs is None:
        return False
    # conservative threshold: two disjoint arcs keep sampled points apart by
    # much more than one sampling step
    step = math.pi / n_samples
    for i in range(len(segs)):
        for k in range(i + 1, len(segs)):
            if segs[i][0] != segs[k][0]:
                continue
            best = min(
                sphtrig.angle_between(p, q)
                for p in segs[i][1][1:-1]
                for q in segs[k][1][1:-1]
            )
            if best < 2.0 * step:
                return False
    return True


def pairwise_is_simple(spec: SolidSpec, dev, hits) -> bool:
    """Reference simplicity check: every pair of in-face segments that lie in
    one physical face is tested with the great-circle arc predicate, O(m^2).

    Takes the same arguments as `dev_is_simple`: the development and
    the pole's crossing with each developed edge arc.
    """
    pts = [h.point for h in hits]
    closing = sphtrig.mat_apply(dev.placements[-1], pts[0])
    m = len(pts)
    by_face = {}
    for i in range(m):
        inv = mat_transpose(dev.placements[i + 1])
        a = sphtrig.mat_apply(inv, pts[i])
        b = sphtrig.mat_apply(inv, pts[i + 1] if i < m - 1 else closing)
        by_face.setdefault(dev.faces[(i + 1) % m], []).append((a, b))
    for segs in by_face.values():
        # segments in one physical face belong to distinct visits, so any
        # contact at all is a self-intersection
        for i in range(len(segs)):
            for k in range(i + 1, len(segs)):
                if sphtrig.arcs_intersect(*segs[i], *segs[k]):
                    return False
    return True


def cyclic_turn_word(spec: SolidSpec, edges: Sequence[int]) -> Tuple[int, ...]:
    """The cyclic turn word of a closed edge word: turn i leaves the face
    that crossing i enters, over edges[i + 1], as (exit - entry) mod n in
    that face's local edges."""
    faces = CrossingSequence(tuple(edges)).validate(spec)
    m, local = len(edges), spec.face_edge_local
    return tuple(
        (local[(faces[(i + 1) % m], edges[(i + 1) % m])]
         - local[(faces[(i + 1) % m], edges[i])]) % spec.face_size
        for i in range(m))


def turn_images(word: Sequence[int], n: int) -> List[Tuple[int, ...]]:
    """Every rotation of a cyclic turn word T, of its mirror n - T, and of
    both read backwards: the turn words of one class's walks from the
    search's start crossing."""
    w = tuple(word)
    mirror = tuple(n - t for t in w)
    return [v[r:] + v[:r] for v in (w, mirror, w[::-1], mirror[::-1]) for r in range(len(v))]


def least_turn_image(word: Sequence[int], n: int) -> Tuple[int, ...]:
    """Slow oracle for the one turn word `finder.enumerate_classes` walks
    per class: the least of `turn_images`."""
    return min(turn_images(word, n))


def prefix_has_smaller_image(prefix: Sequence[int], n: int) -> bool:
    """Slow oracle for the search's prefix cut: whether a read of `prefix`
    alone, forward from some turn or backward from some turn, plain or
    with every t read as n - t, is strictly smaller than the prefix's own
    first turns at the first place they differ."""
    p = tuple(prefix)
    mirror = tuple(n - t for t in p)
    reads = [v[s:] for v in (p, mirror) for s in range(len(p))]
    reads += [v[r::-1] for v in (p, mirror) for r in range(len(p))]
    return any(read < p[:len(read)] for read in reads)


def reference_classes(spec: SolidSpec, depth: int) -> List[Tuple[Tuple[int, ...], str]]:
    """Slow oracle for `finder.enumerate_classes`: the (canonical word, tag)
    of every class with at most `depth` crossings, in canonical order.

    Walks every face path from every directed edge crossing, with no
    feasibility, length or symmetry pruning, and solves every closed word
    with `finder.solve_sequence`; a class is found when any of its words
    solves.  The tag comes from the canonical word's own solution, or is
    None when that fails to re-solve.
    """
    n = spec.face_size
    found = set()
    word: List[int] = []

    def walk(start: int, face: int, entry: int) -> None:
        if len(word) >= 3 and face == start and word[-1] != word[0]:
            seq = CrossingSequence.from_edges(spec, word)
            if finder.solve_sequence(spec, seq) is not None:
                found.add(finder.canonical_word(spec, tuple(word)))
        if len(word) == depth:
            return
        for k in range(n):
            if k != entry:
                word.append(spec.face_edges[face][k])
                walk(start, *spec.gluing[(face, k)])
                word.pop()

    for (f0, j0), (g0, entry0) in spec.gluing.items():
        word.append(spec.face_edges[f0][j0])
        walk(f0, g0, entry0)
        word.pop()
    out = []
    for w in sorted(found):
        path = finder.solve_sequence(spec, CrossingSequence.from_edges(spec, w))
        out.append((w, None if path is None else finder.class_tag(spec, path)))
    return out


def reference_tetra_type_sequence(spec: SolidSpec, p: int, q: int) -> CrossingSequence:
    """Slow oracle for `finder.tetra_type_sequence`: the type-(p, q)
    sequence read off a float line across a coloured lattice.

    Traces a straight segment with direction 2p*a + 2q*b across the unit
    triangular lattice whose vertices are 4-coloured by coordinate parity;
    the colours of each crossed lattice edge name the solid edge.  The
    segment starts at a point no lattice line passes near and closes after
    exactly 4(p+q) crossings.  Its start crossing is not the walk's, so the
    two agree up to rotation and symmetry (compare `canonical_word`s).
    """
    x0, y0 = 0.2376843521963, 0.3579246175811
    wa, wb = 2 * p, 2 * q
    events: List[Tuple[float, str, int]] = []
    for mm in range(math.floor(x0) + 1, math.floor(x0 + wa) + 1):
        events.append(((mm - x0) / wa, "a", mm))
    for nn in range(math.floor(y0) + 1, math.floor(y0 + wb) + 1):
        events.append(((nn - y0) / wb, "b", nn))
    s0 = x0 + y0
    for kk in range(math.floor(s0) + 1, math.floor(s0 + wa + wb) + 1):
        events.append(((kk - s0) / (wa + wb), "d", kk))
    events.sort()
    assert len(events) == 4 * (p + q), "lattice trace produced the wrong crossing count"
    for (t1, _, _), (t2, _, _) in zip(events, events[1:]):
        assert t2 - t1 >= 1e-9, "lattice trace start point is not generic"

    def colour(mm: int, nn: int) -> int:
        return (mm % 2) + 2 * (nn % 2)

    word = []
    for t, fam, val in events:
        at = x0 + wa * t
        bt = y0 + wb * t
        if fam == "a":
            n0 = math.floor(bt)
            ca, cb = colour(val, n0), colour(val, n0 + 1)
        elif fam == "b":
            m0 = math.floor(at)
            ca, cb = colour(m0, val), colour(m0 + 1, val)
        else:
            m0 = math.floor(at)
            ca, cb = colour(m0, val - m0), colour(m0 + 1, val - m0 - 1)
        word.append(spec.edge_id(ca, cb))
    return CrossingSequence.from_edges(spec, word)


# Reference SVG renderer: it develops the sequence twice, and for every point
# it calls slerp and builds the pole frame again; `cli.render_svg`, which
# writes those float operations out inline, must write the same bytes.

_REF_SVG_SCALE = 120.0  # px per radian


def _reference_project(pole, point) -> Tuple[float, float]:
    r = sphtrig.angle_between(pole, point)
    az = azimuth_about(pole, point)
    return r * math.cos(az), -r * math.sin(az)


def _reference_path_cmd(points_2d: List[Tuple[float, float]], half: float) -> str:
    cmds = []
    for i, (x, y) in enumerate(points_2d):
        op = "M" if i == 0 else "L"
        cmds.append(
            f"{op} {half + _REF_SVG_SCALE * x:.6f} {half + _REF_SVG_SCALE * y:.6f}"
        )
    return " ".join(cmds)


def reference_render_svg(spec: SolidSpec, cls_doc) -> str:
    """Render the development of one class: face outlines plus the geodesic
    equator arc, projected so the geodesic shows as (part of) a circle."""
    seq = unfold.CrossingSequence.from_edges(spec, cls_doc["canonical_sequence"])
    path = finder.solve_sequence(spec, seq)
    if path is None:
        raise DomainError("document sequence does not solve at this angle")
    dev = unfold.develop(spec, seq)
    pole = path.pole
    n = spec.face_size
    half = _REF_SVG_SCALE * PI + 20.0
    size = 2.0 * half
    samples = 24

    face_paths = []
    for placement in dev.placements[:-1]:
        pts: List[Tuple[float, float]] = []
        for j in range(n):
            a = sphtrig.mat_apply(placement, spec.chart[j])
            b = sphtrig.mat_apply(placement, spec.chart[(j + 1) % n])
            for k in range(samples):
                pts.append(_reference_project(pole, sphtrig.slerp(a, b, k / samples)))
        pts.append(pts[0])
        face_paths.append(f'  <path d="{_reference_path_cmd(pts, half)}"/>')

    hits = [sphtrig.pole_edge_crossing(pole, a, b) for a, b in dev.arcs]
    az0 = hits[0].azimuth
    theta = path.total_length
    e1, e2 = sphtrig.pole_frame(pole)
    geo_pts = []
    for k in range(10 * samples + 1):
        az = az0 + theta * k / (10 * samples)
        x = math.cos(az)
        y = math.sin(az)
        p = tuple(x * e1[i] + y * e2[i] for i in range(3))
        geo_pts.append(_reference_project(pole, p))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        '<g id="faces" fill="none" stroke="#334d80" stroke-width="1.2">',
        *face_paths,
        "</g>",
        '<g id="geodesic" fill="none" stroke="#c03030" stroke-width="2">',
        f'  <path d="{_reference_path_cmd(geo_pts, half)}"/>',
        "</g>",
        "</svg>",
        "",
    ]
    return "\n".join(lines)


# Reference closure solver for one pole: the crossing and incidence work done
# arc by arc through the sphtrig helpers, each crossing computed on its own
# (a fresh pole frame, the arc length twice) and each incidence developed from
# its placement.  `finder._closure_for_pole` must return None exactly when
# this does, and `finder._build_path` must build a path with the same repr
# from any closure it returns (see `path_for_pole`).


def reference_pole_edge_crossing(pole, a, b):
    """Interior intersection of the equator of `pole` with the minor arc (a, b).

    Returns None when the arc does not strictly cross the equator, i.e. when
    (pole.a)(pole.b) >= -1e-14.
    """
    da = sphtrig.dot(pole, a)
    db = sphtrig.dot(pole, b)
    if da * db >= -1e-14:
        return None
    length = sphtrig.angle_between(a, b)
    # da*sin((1-s)L) + db*sin(sL) = 0 with the root in (0, L)
    s_len = math.atan2(da * math.sin(length), da * math.cos(length) - db)
    if s_len <= 0.0:
        s_len += PI
    t = s_len / length
    point = sphtrig.slerp(a, b, t)
    return sphtrig.ArcCrossing(t, azimuth_about(pole, point), point)


def reference_path_for_pole(spec, dev, pole, theta, tol_closure, tol_vertex):
    if theta < 1e-9:
        return None
    m = len(dev.arcs)
    # the equator must cross from the exited copy's side to the entered one;
    # most poles fail this somewhere, so test every arc before any crossing
    for p, q in dev.arcs:
        if not sphtrig.dot(pole, q) > 0.0 > sphtrig.dot(pole, p):
            return None
    hits = []
    for p, q in dev.arcs:
        hit = reference_pole_edge_crossing(pole, p, q)
        if hit is None:
            return None
        if not tol_vertex < hit.t < 1.0 - tol_vertex:
            return None
        hits.append(hit)

    gaps = []
    for i in range(m):
        if i < m - 1:
            d = (hits[i + 1].azimuth - hits[i].azimuth) % (2.0 * PI)
        else:
            d = (hits[0].azimuth + theta - hits[i].azimuth) % (2.0 * PI)
        if d <= 0.0:
            return None
        gaps.append(d)

    # Each in-face chord must equal its azimuth gap; acos gives the minor-arc
    # length, so agreement also certifies the segment is the minor arc, which
    # face convexity then keeps inside the face copy.
    pts = [h.point for h in hits]
    closing_pt = sphtrig.mat_apply(dev.placements[-1], pts[0])
    arc_lengths = []
    for i in range(m):
        nxt = pts[i + 1] if i < m - 1 else closing_pt
        seg = sphtrig.angle_between(pts[i], nxt)
        if abs(seg - gaps[i]) > tol_closure:
            return None
        arc_lengths.append(seg)
    total = math.fsum(arc_lengths)
    residual = abs(total - theta)
    if residual > tol_closure or not total < 2.0 * PI:
        return None

    n = spec.face_size
    crossings = []
    for i, (f, e) in enumerate(zip(dev.faces, dev.seq.edges)):
        j = spec.face_edge_local[(f, e)]
        v1 = spec.faces[f][j]
        v2 = spec.faces[f][(j + 1) % n]
        inc_exit = _reference_incidence(spec, dev.placements[i], j, pts[i], pole)
        j2 = spec.gluing[(f, j)][1]
        inc_enter = _reference_incidence(spec, dev.placements[i + 1], j2, pts[i], pole)
        # the two face copies develop the edge independently; the angles they
        # see must agree (edge orientations oppose, hence the pi flip)
        if abs(inc_exit - (PI - inc_enter)) > 1e-10:
            return None
        if v1 < v2:
            t, inc = hits[i].t, inc_exit
        else:
            t, inc = 1.0 - hits[i].t, PI - inc_exit
        crossings.append(finder.Crossing(e, t, inc))

    if not dev_is_simple(spec, dev, hits):
        return None

    return finder.GeodesicPath(
        seq=dev.seq,
        crossings=tuple(crossings),
        arc_lengths=tuple(arc_lengths),
        total_length=total,
        pole=pole,
        closure_residual=residual,
    )


def path_for_pole(spec, dev, pole, theta, tol_closure, tol_vertex):
    """`finder._solve_development`'s two stages on a given pole: the path
    of the closure `finder._closure_for_pole` decides, or None."""
    closure = finder._closure_for_pole(spec, dev, pole, theta, tol_closure, tol_vertex)
    return None if closure is None else finder._build_path(spec, dev, closure)


def two_pole_solve(spec, dev, tol_closure, tol_vertex):
    """`finder._solve_development` by trying both signs of the closing
    rotation's axis, the axis first: the reference for its one-pole rule."""
    axis, ang, near_identity = sphtrig.axis_angle(dev.placements[-1])
    if near_identity:
        return None
    for pole, theta in ((axis, ang), (sphtrig.neg(axis), finder.TWO_PI - ang)):
        path = path_for_pole(spec, dev, pole, theta, tol_closure, tol_vertex)
        if path is not None:
            return path
    return None


def _reference_incidence(spec, placement, local_edge, point, pole):
    n = spec.face_size
    p = sphtrig.mat_apply(placement, spec.chart[local_edge])
    q = sphtrig.mat_apply(placement, spec.chart[(local_edge + 1) % n])
    edge_pole = sphtrig.normalize(sphtrig.cross(p, q))
    tau = sphtrig.normalize(sphtrig.cross(edge_pole, point))      # edge tangent, p -> q
    direction = sphtrig.normalize(sphtrig.cross(pole, point))     # geodesic tangent
    return sphtrig.angle_between(direction, tau)


def reference_extend_least(
    turns: bytes, start: int, tied: Sequence[Tuple[int, bool]], n: int
) -> Optional[Sequence[Tuple[int, bool]]]:
    """Oracle for `finder._extend_least`: the search's earlier prefix test,
    which lists every forward image (s, mirrored) still tied with the
    prefix, where t_s..t_{k-1} (each read as n - t if mirrored) equal
    t_0..t_{k-1-s}, and compares each with every new turn.  Returns the
    list after the last turn, or None as soon as some image is strictly
    smaller at a position the turns fix (the root's list is empty)."""
    mirror = finder._MIRRORS[n]
    for k in range(start, len(turns)):
        t = turns[k]
        out = []
        for s, mirrored in tied:
            a = n - t if mirrored else t
            b = turns[k - s]
            if a < b:
                return None
            if a == b:
                out.append((s, mirrored))
        # t_k starts a forward image and its mirror (the plain image from
        # t_0 is the prefix itself)
        if k and t == turns[0]:
            out.append((k, False))
        if n - t == turns[0]:
            out.append((k, True))
        back, prefix = turns[k::-1], turns[:k + 1]
        if back < prefix or back.translate(mirror) < prefix:
            return None
        tied = out
    return tied
