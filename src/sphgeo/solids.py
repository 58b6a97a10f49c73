"""Combinatorial and metric models of the three regular spherical solids.

A solid is a set of congruent regular spherical polygons (all realized by one
canonical chart centered at the north pole) glued along directed edges.  Faces
are stored as cyclic vertex lists with a globally consistent orientation:
every directed edge (a, b) appears in exactly one face, and its reverse
(b, a) in exactly one other.

The combinatorial tables (faces, edges, incidences and gluing) depend on
the kind alone: they are built once per kind, and every spec of that kind
shares them and never mutates them.  A spec computes only its chart, edge
length and transfer rotations from its angle.

The symmetry group is derived from that face table alone: the symmetries of
a regular solid act simply transitively on its flags (face, local edge,
orientation), so each flag names one symmetry, which the gluing spreads
from face 0 to every face.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from . import sphtrig
from .sphtrig import PI, DomainError, Mat3, Vec3


class SolidKind(enum.Enum):
    TETRAHEDRON = "tetra"
    OCTAHEDRON = "octa"
    CUBE = "cube"


# Open admissible intervals for the facet angle; at the right endpoint each
# solid degenerates to the round sphere (infinitely many geodesics) and at
# the left the solid collapses, so both ends are rejected.
ADMISSIBLE: Dict[SolidKind, Tuple[float, float]] = {
    SolidKind.TETRAHEDRON: (PI / 3, 2 * PI / 3),
    SolidKind.OCTAHEDRON: (PI / 3, PI / 2),
    SolidKind.CUBE: (PI / 2, 2 * PI / 3),
}

# Near the flat limit, the left end, the float model fails before the
# geometry does.  One or two ulps above it the transfer rotations cannot be
# built, and up to about 1e-14 above it (edges of 2e-7 to 2.6e-7)
# `enumerate` at depth 12 finds too few classes: 1 of 2 on the octahedron,
# 0 of 3 on the cube, only (0,1) on the tetrahedron.  From 1e-13 above it
# (edges from 6.3e-7) all three find every class, and with edges near 1e-5
# the octahedron and the cube still find theirs at depth 40.  Shorter edges
# are refused.
MIN_EDGE_LENGTH = 1e-5

_FACES: Dict[SolidKind, Tuple[Tuple[int, ...], ...]] = {
    SolidKind.TETRAHEDRON: (
        (0, 1, 2),
        (0, 2, 3),
        (0, 3, 1),
        (1, 3, 2),
    ),
    # 0..3 equatorial square, 4 apex, 5 bottom
    SolidKind.OCTAHEDRON: (
        (0, 1, 4),
        (1, 2, 4),
        (2, 3, 4),
        (3, 0, 4),
        (1, 0, 5),
        (2, 1, 5),
        (3, 2, 5),
        (0, 3, 5),
    ),
    # 0..3 front face, 4..7 the opposite (primed) vertices
    SolidKind.CUBE: (
        (0, 1, 2, 3),
        (4, 7, 6, 5),
        (1, 0, 4, 5),
        (2, 1, 5, 6),
        (3, 2, 6, 7),
        (0, 3, 7, 4),
    ),
}

_VERTEX_NAMES: Dict[SolidKind, Tuple[str, ...]] = {
    SolidKind.TETRAHEDRON: ("A1", "A2", "A3", "A4"),
    SolidKind.OCTAHEDRON: ("A1", "A2", "A3", "A4", "A5", "A6"),
    SolidKind.CUBE: ("A1", "A2", "A3", "A4", "A1'", "A2'", "A3'", "A4'"),
}

@dataclass(frozen=True)
class SymmetryOp:
    """A combinatorial automorphism of a solid, acting on vertex ids."""

    perm: Tuple[int, ...]
    is_rotation: bool
    edge_perm: Tuple[int, ...]
    face_perm: Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SolidSpec:
    """One solid at a fixed facet angle, with all derived lookup tables."""

    kind: SolidKind
    alpha: float
    faces: Tuple[Tuple[int, ...], ...]
    vertex_names: Tuple[str, ...]
    n_vertices: int
    face_size: int
    edges: Tuple[Tuple[int, int], ...]               # sorted vertex pairs, id = index
    edge_index: Dict[Tuple[int, int], int]
    edge_faces: Tuple[Tuple[int, int], ...]          # per edge id, both adjacent faces
    face_edge_local: Dict[Tuple[int, int], int]      # (face, edge id) -> local index
    face_edges: Tuple[Tuple[int, ...], ...]          # per face, edge ids in local order
    gluing: Dict[Tuple[int, int], Tuple[int, int]]   # (face, local edge) -> same for the neighbour
    chart: Tuple[Vec3, ...]                          # canonical face polygon
    edge_length: float
    steps: Dict[Tuple[int, int], Mat3]               # (face, local edge) -> transfer

    def edge_id(self, a: int, b: int) -> int:
        return self.edge_index[(a, b) if a < b else (b, a)]

    def edge_by_names(self, na: str, nb: str) -> int:
        ia = self.vertex_names.index(na)
        ib = self.vertex_names.index(nb)
        return self.edge_id(ia, ib)

    def common_face(self, e1: int, e2: int) -> Optional[int]:
        """The unique face containing both edges, or None."""
        f1 = self.edge_faces[e1]
        f2 = self.edge_faces[e2]
        shared = [f for f in f1 if f in f2]
        return shared[0] if len(shared) == 1 else None


# The tables that depend on the kind alone (ids, incidences and gluing),
# with the (j, j2) local edge pairs the gluing joins: built once per kind,
# shared by every spec of it and never mutated
_TABLES_CACHE: Dict[SolidKind, Tuple[Dict[str, Any], Tuple[Tuple[int, int], ...]]] = {}


def _kind_tables(kind: SolidKind) -> Tuple[Dict[str, Any], Tuple[Tuple[int, int], ...]]:
    """The combinatorial `SolidSpec` fields of a kind, by name, and the local
    edge pairs (j, j2) that its gluing joins, sorted."""
    cached = _TABLES_CACHE.get(kind)
    if cached is not None:
        return cached
    faces = _FACES[kind]
    n = len(faces[0])

    directed: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for fi, f in enumerate(faces):
        for j in range(n):
            directed[(f[j], f[(j + 1) % n])] = (fi, j)

    pairs = sorted({(min(a, b), max(a, b)) for (a, b) in directed})
    edge_index = {p: i for i, p in enumerate(pairs)}

    face_edge_local: Dict[Tuple[int, int], int] = {}
    face_edges: List[Tuple[int, ...]] = []
    for fi, f in enumerate(faces):
        ids = []
        for j in range(n):
            a, b = f[j], f[(j + 1) % n]
            e = edge_index[(a, b) if a < b else (b, a)]
            ids.append(e)
            face_edge_local[(fi, e)] = j
        face_edges.append(tuple(ids))

    edge_faces = []
    for (a, b) in pairs:
        f1, _ = directed[(a, b)]
        f2, _ = directed[(b, a)]
        edge_faces.append((min(f1, f2), max(f1, f2)))

    gluing: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for fi, f in enumerate(faces):
        for j in range(n):
            a, b = f[j], f[(j + 1) % n]
            gluing[(fi, j)] = directed[(b, a)]

    tables: Dict[str, Any] = dict(
        faces=faces,
        vertex_names=_VERTEX_NAMES[kind],
        n_vertices=max(max(f) for f in faces) + 1,
        face_size=n,
        edges=tuple(pairs),
        edge_index=edge_index,
        edge_faces=tuple(edge_faces),
        face_edge_local=face_edge_local,
        face_edges=tuple(face_edges),
        gluing=gluing,
    )
    local_pairs = tuple(sorted({(j, j2) for (_, j), (_, j2) in gluing.items()}))
    cached = _TABLES_CACHE[kind] = (tables, local_pairs)
    return cached


@functools.lru_cache(maxsize=1, typed=True)
def build_solid(kind: SolidKind, alpha: float) -> SolidSpec:
    """Construct a solid at the given facet angle.

    Raises DomainError when alpha is inadmissible or edges < MIN_EDGE_LENGTH.
    The latest spec is kept, so a caller that asks for the solid just built
    (`count_tetra` after `enumerate`, `export` after either) shares it; an
    int and an equal float are different angles to the memo, so the spec's
    alpha has the type asked for.
    """
    lo, hi = ADMISSIBLE[kind]
    if not lo < alpha < hi:
        raise DomainError(
            f"alpha={alpha!r} outside the admissible interval ({lo!r}, {hi!r}) "
            f"for {kind.value}"
        )
    tables, local_pairs = _kind_tables(kind)
    n = tables["face_size"]

    rho = sphtrig.circumradius(n, alpha)
    sr, cr = math.sin(rho), math.cos(rho)
    chart = tuple(
        (sr * math.cos(2 * PI * k / n), sr * math.sin(2 * PI * k / n), cr)
        for k in range(n)
    )
    edge_length = sphtrig.angle_between(chart[0], chart[1])
    if edge_length < MIN_EDGE_LENGTH:
        raise DomainError(
            f"alpha={alpha!r} is too close to the flat limit {lo!r} for {kind.value}: "
            f"its edge length {edge_length!r} is below {MIN_EDGE_LENGTH!r}"
        )

    # transfer rotation across each directed edge: glue the neighbour's chart
    # copy of the shared edge onto this face's copy, endpoints matched.  It
    # depends only on the two local edge indices, so each pair is built once
    local = {(j, j2): sphtrig.rotation_from_pairs(
        chart[(j2 + 1) % n], chart[j2], chart[j], chart[(j + 1) % n]
    ) for j, j2 in local_pairs}
    steps = {(fi, j): local[(j, j2)] for (fi, j), (_, j2) in tables["gluing"].items()}

    return SolidSpec(
        kind=kind,
        alpha=alpha,
        chart=chart,
        edge_length=edge_length,
        steps=steps,
        **tables,
    )


def cone_angle(spec: SolidSpec, vertex: int) -> float:
    """Total facet angle glued at a vertex; < 2*pi on the admissible range."""
    if type(vertex) is not int or not 0 <= vertex < spec.n_vertices:
        raise DomainError(f"vertex {vertex!r} is not an integer in range({spec.n_vertices})")
    return sum(vertex in f for f in spec.faces) * spec.alpha


# ---------------------------------------------------------------------------
# symmetry group


# the ops act on vertex, edge and face ids only, which depend on the kind
# alone, so every angle of one kind shares them
_OPS_CACHE: Dict[SolidKind, Tuple[SymmetryOp, ...]] = {}


def symmetry_group(spec: SolidSpec) -> Tuple[SymmetryOp, ...]:
    """Full isometry group as combinatorial automorphisms (incl. reflections).

    The group of a regular solid acts simply transitively on its flags
    (face, local edge, orientation), so there is one op per flag, sorted by
    vertex permutation.
    """
    cached = _OPS_CACHE.get(spec.kind)
    if cached is None:
        n = spec.face_size
        cached = tuple(sorted(
            (_flag_op(spec, f, j, s)
             for f in range(len(spec.faces)) for j in range(n) for s in (1, -1)),
            key=lambda op: op.perm,
        ))
        _OPS_CACHE[spec.kind] = cached
    return cached


def _flag_op(spec: SolidSpec, f: int, j: int, s: int) -> SymmetryOp:
    """The symmetry sending local edge 0 of face 0 to local edge j of face f,
    keeping (s = 1) or reversing (s = -1) the orientation of the faces.

    Face g goes to face h with its local vertex k at local vertex
    (r + s*k) % n of h, so its local edge k goes to local edge (r + k) % n
    or (r - k - 1) % n.  The map spreads across the gluing: the neighbour
    over edge k goes to the neighbour of h over that edge's image.
    """
    n = spec.face_size
    image = {0: (f, j if s == 1 else (j + 1) % n)}  # face g -> (h, r)
    perm = [-1] * spec.n_vertices
    stack = [0]
    while stack:
        g = stack.pop()
        h, r = image[g]
        for k in range(n):
            v, w = spec.faces[g][k], spec.faces[h][(r + s * k) % n]
            if perm[v] not in (-1, w):
                raise AssertionError(f"flag ({f}, {j}, {s}) sends vertex {v} twice")
            perm[v] = w
            g2, k2 = spec.gluing[(g, k)]
            if g2 not in image:
                h2, m2 = spec.gluing[(h, (r + k) % n if s == 1 else (r - k - 1) % n)]
                image[g2] = (h2, (m2 - k2) % n if s == 1 else (m2 + k2 + 1) % n)
                stack.append(g2)
    return SymmetryOp(
        perm=tuple(perm),
        is_rotation=s == 1,
        edge_perm=tuple(spec.edge_id(perm[a], perm[b]) for (a, b) in spec.edges),
        face_perm=tuple(image[g][0] for g in range(len(spec.faces))),
    )
