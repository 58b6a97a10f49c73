"""Development of face sequences onto the unit sphere.

A crossing sequence is the faces a candidate geodesic passes through and the
edges it crosses between them.
Developing the sequence lays consecutive face copies onto the sphere so the
candidate becomes a single great-circle arc; the composition of all the
per-edge transfer rotations around the cycle is the closing rotation
(holonomy) whose axis is the only possible pole of that arc.

Per-directed-edge transfer rotations are precomputed once per solid (in
``SolidSpec.steps``), and one crossing stack reads them: a ``Walker``,
which `cut` shortens and `cross` extends by one exit turn.  ``develop``
walks the turns of a crossing sequence, the exhaustive search in
``finder`` cuts and crosses once per walk node, and the tetrahedron types
are walked by one ``Walker``, so every development comes from the same
products in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .sphtrig import IDENTITY, DomainError, Mat3, Vec3, mat_compose
from .solids import SolidSpec


def _check_edge_ids(spec: SolidSpec, edges: Sequence[int]) -> None:
    """Raise DomainError unless every edge id is an int (not a bool) in
    range(len(spec.edges)), before any lookup: a negative id would index
    another edge, and True or 1.0 would look up edge 1."""
    count = len(spec.edges)
    for e in edges:
        if type(e) is not int or not 0 <= e < count:
            raise DomainError(f"edge id {e!r} is not an integer in range({count})")


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

        Every edge id must be an int in range(len(spec.edges)), consecutive
        edges must share exactly one face (which becomes the face traversed
        between the two crossings), and the faces must chain into a closed
        face walk (see `validate`); raises DomainError otherwise.
        """
        m = len(edges)
        if m < 3:
            raise DomainError("a crossing sequence needs at least 3 crossings")
        _check_edge_ids(spec, edges)
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
        """Raise DomainError unless the sequence is a closed face walk of
        edge ids in range(len(spec.edges)): crossing i leaves face faces[i]
        over an edge of it and enters faces[(i + 1) % m], and no two
        consecutive crossings share an edge."""
        m = len(self.edges)
        if m < 3 or len(self.faces) != m:
            raise DomainError("a crossing sequence needs at least 3 crossings "
                              "and one face for each")
        _check_edge_ids(spec, self.edges)
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


class Walker:
    """A stack of crossings, laid out from the identity: the walk that
    crosses local edge j of `face` first, then turns once per crossing.

    A walk that enters a face over local edge ``entry`` and leaves it over
    local edge k makes the exit turn t = (k - entry) mod n, so crossing i
    depends on the first crossing and the first i turns alone.  `cut` keeps
    the first k crossings and `cross` adds one, so a walk that shares its
    first k turns with the one held keeps k + 1 crossings and crosses on
    from there, with the products of a fresh walk, float for float.
    ``placements[i + 1]`` and ``entered[i + 1]`` belong to the copy that
    crossing i enters; the start copy enters `face` over j itself, so its
    turn 0 is the first crossing.
    """

    def __init__(self, spec: SolidSpec, face: int, j: int) -> None:
        self.spec = spec
        self.edges: List[int] = []
        self.arcs: List[Tuple[Vec3, Vec3]] = []
        self.placements: List[Mat3] = [IDENTITY]
        self.entered: List[Tuple[int, int]] = [(face, j)]  # (face, local edge)
        self.cross(0)

    def cut(self, k: int) -> None:
        """Keep the first k crossings."""
        del self.edges[k:], self.arcs[k:]
        del self.placements[k + 1:], self.entered[k + 1:]

    def cross(self, t: int) -> None:
        """Cross one more edge: leave the face the last crossing entered by
        the exit turn t.  The arc (p, q) is the crossed edge as the exited
        copy's boundary runs, the floats of mat_apply(placement, chart[j])
        and of the next chart vertex."""
        spec = self.spec
        face, entry = self.entered[-1]
        j = (entry + t) % spec.face_size
        placement = (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = self.placements[-1]
        p0, p1, p2 = spec.chart[j]
        q0, q1, q2 = spec.chart[(j + 1) % spec.face_size]
        self.edges.append(spec.face_edges[face][j])
        self.arcs.append(((m00 * p0 + m01 * p1 + m02 * p2,
                           m10 * p0 + m11 * p1 + m12 * p2,
                           m20 * p0 + m21 * p1 + m22 * p2),
                          (m00 * q0 + m01 * q1 + m02 * q2,
                           m10 * q0 + m11 * q1 + m12 * q2,
                           m20 * q0 + m21 * q1 + m22 * q2)))
        self.entered.append(spec.gluing[(face, j)])
        self.placements.append(mat_compose(placement, spec.steps[(face, j)]))

    def development(self) -> Development:
        """The crossings held, as a development."""
        faces = tuple(f for f, _ in self.entered[:-1])
        return Development(CrossingSequence(faces, tuple(self.edges)),
                           tuple(self.placements), tuple(self.arcs))


def develop(spec: SolidSpec, seq: CrossingSequence) -> Development:
    """Lay out the face copies traversed by `seq`, starting from the identity."""
    seq.validate(spec)
    local = spec.face_edge_local
    walker = Walker(spec, seq.faces[0], local[(seq.faces[0], seq.edges[0])])
    # crossing i enters g = faces[i + 1] over edge e and leaves it over e2 = edges[i + 1]
    for e, g, e2 in zip(seq.edges, seq.faces[1:], seq.edges[1:]):
        walker.cross((local[(g, e2)] - local[(g, e)]) % spec.face_size)
    return walker.development()
