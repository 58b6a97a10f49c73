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
its first crossing and its turns; ``walk`` lays out a turn word with
``step``.  ``develop`` reads the turns of a crossing sequence and walks them,
the exhaustive search in ``finder`` steps once per walk node, and a
tetrahedron type is the walk of its turn word, so every development comes
from the same products in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .sphtrig import IDENTITY, DomainError, Mat3, Vec3, mat_apply, mat_compose
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
        traversed between the two crossings); raises DomainError otherwise.
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
        return CrossingSequence(tuple(mids[-1:] + mids[:-1]), tuple(edges))

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
    the placement of the entered copy.
    """
    p = mat_apply(placement, spec.chart[j])
    q = mat_apply(placement, spec.chart[(j + 1) % spec.face_size])
    return (p, q), *spec.gluing[(face, j)], mat_compose(placement, spec.steps[(face, j)])


def walk(spec: SolidSpec, face: int, j: int, turns: Sequence[int]) -> Development:
    """Lay out, from the identity, the walk that crosses local edge j of
    `face` first and turns turns[i] in the face that crossing i enters: one
    crossing per turn."""
    faces: List[int] = []
    edges: List[int] = []
    placements: List[Mat3] = [IDENTITY]
    arcs: List[Tuple[Vec3, Vec3]] = []
    for t in turns:
        faces.append(face)
        edges.append(spec.face_edges[face][j])
        arc, face, entry, placement = step(spec, face, j, placements[-1])
        arcs.append(arc)
        placements.append(placement)
        j = (entry + t) % spec.face_size
    return Development(CrossingSequence(tuple(faces), tuple(edges)),
                       tuple(placements), tuple(arcs))


def develop(spec: SolidSpec, seq: CrossingSequence) -> Development:
    """Lay out the face copies traversed by `seq`, starting from the identity."""
    seq.validate(spec)
    local = spec.face_edge_local
    # crossing i enters g = faces[i + 1] over edge e and leaves it over e2 = edges[i + 1]
    after = zip(seq.faces[1:] + seq.faces[:1], seq.edges[1:] + seq.edges[:1])
    turns = [(local[(g, e2)] - local[(g, e)]) % spec.face_size
             for e, (g, e2) in zip(seq.edges, after)]
    return walk(spec, seq.faces[0], local[(seq.faces[0], seq.edges[0])], turns)
