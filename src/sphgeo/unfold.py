"""Development of face sequences onto the unit sphere.

A crossing sequence is the faces a candidate geodesic passes through and the
edges it crosses between them.
Developing the sequence lays consecutive face copies onto the sphere so the
candidate becomes a single great-circle arc; the composition of all the
per-edge transfer rotations around the cycle is the closing rotation
(holonomy) whose axis is the only possible pole of that arc.

Per-directed-edge transfer rotations are precomputed once per solid (in
``SolidSpec.steps``).  ``step`` crosses one edge, and is the only reader of
them.  A walk that enters a face over local edge ``entry`` and leaves it over
local edge k makes the exit turn t = (k - entry) mod n, so a walk is fixed by
its first crossing and its turns; a ``Walker`` lays out turn words with
``step``, each from the longest prefix it shares with the word before, and
``walk`` lays out one.  ``develop`` reads the turns of a crossing sequence
and walks them, the exhaustive search in ``finder`` steps once per walk
node, and the tetrahedron types are walked by one ``Walker``, so every
development comes from the same products in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .sphtrig import IDENTITY, DomainError, Mat3, Vec3, mat_compose
from .solids import SolidSpec


@dataclass(frozen=True)
class CrossingSequence:
    """Cyclic list of directed edge crossings; the combinatorial identity of
    a closed geodesic candidate.  Crossing i leaves face ``faces[i]`` over
    edge ``edges[i]`` into face ``faces[(i + 1) % m]``."""

    faces: Tuple[int, ...]
    edges: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)

    @staticmethod
    def from_edges(spec: SolidSpec, edges: Sequence[int]) -> "CrossingSequence":
        """Build the sequence from a cyclic edge-id list.

        Consecutive edges must share exactly one face (which becomes the face
        traversed between the two crossings), and the faces must chain into a
        closed face walk (see `validate`); raises DomainError otherwise.
        """
        m = len(edges)
        if m < 3:
            raise DomainError("a crossing sequence needs at least 3 crossings")
        mids = []
        for i in range(m):
            e1, e2 = edges[i], edges[(i + 1) % m]
            if e1 == e2:
                raise DomainError("consecutive crossings reuse one edge")
            f = spec.common_face(e1, e2)
            if f is None:
                raise DomainError(
                    f"edges {e1} and {e2} do not bound a common face"
                )
            mids.append(f)
        seq = CrossingSequence(tuple(mids[-1:] + mids[:-1]), tuple(edges))
        # each pair of consecutive edges bounds a face, yet a crossing can
        # still lead from a face back into it, as in the tetrahedron word
        # (0, 4, 3, 1, 2, 4)
        seq.validate(spec)
        return seq

    def validate(self, spec: SolidSpec) -> None:
        """Raise DomainError unless the sequence is a closed face walk:
        crossing i leaves face faces[i] over an edge of it and enters
        faces[(i + 1) % m], and no two consecutive crossings share an edge."""
        m = len(self.edges)
        if m < 3 or len(self.faces) != m:
            raise DomainError("a crossing sequence needs at least 3 crossings "
                              "and one face for each")
        for i, e in enumerate(self.edges):
            f, g = self.faces[i], self.faces[(i + 1) % m]
            j = spec.face_edge_local.get((f, e))
            if j is None or spec.gluing[(f, j)][0] != g:
                raise DomainError(f"crossing {i} over edge {e} does not lead "
                                  f"from face {f} into face {g}")
            if e == self.edges[(i + 1) % m]:
                raise DomainError("consecutive crossings reuse one edge")


@dataclass(frozen=True)
class Development:
    """Face placements and developed edge arcs of one crossing sequence.

    ``placements[i]`` carries face ``seq.faces[i % m]`` for m crossings;
    ``arcs[i]`` is the developed copy of crossing i's edge, directed as the
    boundary of the face copy being exited (the entered copy traverses it
    backwards).  ``closing`` is the holonomy: placements[-1] relative to the
    identity start.
    """

    seq: CrossingSequence
    placements: Tuple[Mat3, ...]
    arcs: Tuple[Tuple[Vec3, Vec3], ...]

    @property
    def closing(self) -> Mat3:
        return self.placements[-1]


def step(spec: SolidSpec, face: int, j: int,
         placement: Mat3) -> Tuple[Tuple[Vec3, Vec3], int, int, Mat3]:
    """Cross local edge j of the copy of `face` placed by `placement`.

    Returns the edge's developed arc (p, q), directed as the boundary of
    the exited copy, the face entered and its local index of the edge, and
    the placement of the entered copy.  p and q are the floats of
    mat_apply(placement, chart[j]) and of the next chart vertex.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = placement
    p0, p1, p2 = spec.chart[j]
    q0, q1, q2 = spec.chart[(j + 1) % spec.face_size]
    return (((m00 * p0 + m01 * p1 + m02 * p2,
              m10 * p0 + m11 * p1 + m12 * p2,
              m20 * p0 + m21 * p1 + m22 * p2),
             (m00 * q0 + m01 * q1 + m02 * q2,
              m10 * q0 + m11 * q1 + m12 * q2,
              m20 * q0 + m21 * q1 + m22 * q2)),
            *spec.gluing[(face, j)], mat_compose(placement, spec.steps[(face, j)]))


class Walker:
    """Lays out turn words from one first crossing, local edge j of `face`,
    each from the layout of the word before it.

    Crossing i of a walk depends on its first crossing and turns[:i] alone.
    So a word that shares its first k turns with the previous one shares
    its first k crossings, their faces, edges, arcs and placements, and the
    (face, j) that crossing k leaves; `walk` keeps those and steps on from
    crossing k.  Every crossing is the same `step` product as in a fresh
    walk, so each development equals a fresh walk's, float for float.
    Words in lexicographic order share the longest prefixes.
    """

    def __init__(self, spec: SolidSpec, face: int, j: int) -> None:
        self.spec = spec
        self._turns: Sequence[int] = ()
        self._faces: List[int] = []
        self._edges: List[int] = []
        self._arcs: List[Tuple[Vec3, Vec3]] = []
        self._placements: List[Mat3] = [IDENTITY]
        self._at: List[Tuple[int, int]] = [(face, j)]  # (face, j) of crossing i

    def walk(self, turns: Sequence[int]) -> Development:
        """The walk that turns turns[i] in the face that crossing i enters:
        one crossing per turn."""
        prev = self._turns
        k = 0
        common = min(len(prev), len(turns))
        while k < common and prev[k] == turns[k]:
            k += 1
        faces, edges, arcs = self._faces, self._edges, self._arcs
        placements, at = self._placements, self._at
        del faces[k:], edges[k:], arcs[k:], placements[k + 1:], at[k + 1:]
        spec = self.spec
        face_edges, n = spec.face_edges, spec.face_size
        face, j = at[-1]
        placement = placements[-1]
        for t in turns[k:]:
            faces.append(face)
            edges.append(face_edges[face][j])
            arc, face, entry, placement = step(spec, face, j, placement)
            arcs.append(arc)
            placements.append(placement)
            j = (entry + t) % n
            at.append((face, j))
        self._turns = tuple(turns)
        return Development(CrossingSequence(tuple(faces), tuple(edges)),
                           tuple(placements), tuple(arcs))


def walk(spec: SolidSpec, face: int, j: int, turns: Sequence[int]) -> Development:
    """Lay out, from the identity, the walk that crosses local edge j of
    `face` first and turns turns[i] in the face that crossing i enters: one
    crossing per turn."""
    return Walker(spec, face, j).walk(turns)


def develop(spec: SolidSpec, seq: CrossingSequence) -> Development:
    """Lay out the face copies traversed by `seq`, starting from the identity."""
    seq.validate(spec)
    local = spec.face_edge_local
    # crossing i enters g = faces[i + 1] over edge e and leaves it over e2 = edges[i + 1]
    after = zip(seq.faces[1:] + seq.faces[:1], seq.edges[1:] + seq.edges[:1])
    turns = [(local[(g, e2)] - local[(g, e)]) % spec.face_size
             for e, (g, e2) in zip(seq.edges, after)]
    return walk(spec, seq.faces[0], local[(seq.faces[0], seq.edges[0])], turns)
