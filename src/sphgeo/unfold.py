"""Development of face sequences onto the unit sphere.

A crossing sequence is the word of edges a candidate geodesic crosses; the
faces it passes through between them follow from the edges by one face walk
(`CrossingSequence.validate`), and its walker carries them (`Walker.faces`).
Developing the sequence lays consecutive face copies onto the sphere so the
candidate becomes a single great-circle arc; the composition of all the
per-edge transfer rotations around the cycle is the closing rotation
(holonomy) whose axis is the only possible pole of that arc.

Per-directed-edge transfer rotations are precomputed once per solid (in
``SolidSpec.steps``), and one crossing stack reads them: a ``Walker``,
which `cut` shortens and `cross` extends by one exit turn.  ``develop``
walks the turns of a crossing sequence and returns its walker, the
exhaustive search in ``finder`` cuts and crosses once per walk node, and
the tetrahedron types are walked by one ``Walker``, so every development
comes from the same products in the same order, and every solve reads the
walker's stack in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .sphtrig import IDENTITY, DomainError, Mat3, Vec3
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
    """Cyclic word of the edges a closed geodesic candidate crosses, in
    order; its combinatorial identity.  The faces between the crossings
    follow from the edges (see `validate`)."""

    edges: Tuple[int, ...]

    def __post_init__(self) -> None:
        # any iterable of edge ids: a list would neither hash nor equal the
        # tuple, and an iterator has no length to validate
        object.__setattr__(self, "edges", tuple(self.edges))

    def __len__(self) -> int:
        return len(self.edges)

    @staticmethod
    def from_edges(spec: SolidSpec, edges: Sequence[int]) -> "CrossingSequence":
        """The sequence of a cyclic edge-id list, checked by `validate`."""
        seq = CrossingSequence(edges)
        seq.validate(spec)
        return seq

    def validate(self, spec: SolidSpec) -> Tuple[int, ...]:
        """The faces of the closed face walk that crosses the edges in turn:
        crossing i leaves face faces[i] over edges[i] into faces[(i + 1) % m].

        The walk starts on the face that the last and first edges share, and
        each crossing must enter a face that holds the next, different, edge;
        every edge id must be an int in range(len(spec.edges)).  Raises
        DomainError otherwise: a tetrahedron word such as (0, 4, 3, 1, 2, 4)
        has a face for each pair of consecutive edges, yet its crossing 0
        leads out of the face that holds the next edge.
        """
        edges = self.edges
        m = len(edges)
        if m < 3:
            raise DomainError("a crossing sequence needs at least 3 crossings")
        _check_edge_ids(spec, edges)
        local, gluing = spec.face_edge_local, spec.gluing
        faces = []
        face = spec.common_face(edges[-1], edges[0])
        # step m checks that the last crossing enters the start face again
        for i in range(m + 1):
            prev, e = edges[i - 1], edges[i % m]
            if face is None or e == prev or (face, e) not in local:
                if e == prev:
                    raise DomainError("consecutive crossings reuse one edge")
                if spec.common_face(prev, e) is None:
                    raise DomainError(f"edges {prev} and {e} do not bound a common face")
                raise DomainError(f"crossing {i - 1} over edge {prev} does not lead "
                                  f"from face {faces[i - 1]} into a face of edge {e}")
            faces.append(face)
            face = gluing[(face, local[(face, e)])][0]
        return tuple(faces[:m])


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
    turn 0 is the first crossing, and ``placements[-1]`` is the holonomy.
    ``exits[i]`` is the local edge that crossing i leaves its face over,
    and ``arcs[i]`` is its edge as the exited copy's boundary runs (the
    entered copy traverses it backwards).
    """

    def __init__(self, spec: SolidSpec, face: int, j: int) -> None:
        self.spec = spec
        self.edges: List[int] = []
        self.exits: List[int] = []
        self.arcs: List[Tuple[Vec3, Vec3]] = []
        # (length, sine, cosine) of arcs[i], kept by the closure stage
        self.trig: List[Tuple[float, float, float]] = []
        self.placements: List[Mat3] = [IDENTITY]
        self.entered: List[Tuple[int, int]] = [(face, j)]  # (face, local edge)
        self.cross(0)

    @property
    def seq(self) -> CrossingSequence:
        """The edge word of the crossings held."""
        return CrossingSequence(self.edges)

    @property
    def faces(self) -> Tuple[int, ...]:
        """The face each crossing leaves."""
        return tuple(f for f, _ in self.entered[:-1])

    def cut(self, k: int) -> None:
        """Keep the first k crossings."""
        del self.edges[k:], self.exits[k:], self.arcs[k:], self.trig[k:]
        del self.placements[k + 1:], self.entered[k + 1:]

    def cross(self, t: int) -> None:
        """Cross one more edge: leave the face the last crossing entered by
        the exit turn t.  The arc (p, q) is the crossed edge as the exited
        copy's boundary runs, the floats of mat_apply(placement, chart[j])
        and of the next chart vertex, where placement is the exited copy's;
        the entered copy's placement holds the floats of
        mat_compose(placement, spec.steps[(face, j)])."""
        spec = self.spec
        face, entry = self.entered[-1]
        j = (entry + t) % spec.face_size
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = self.placements[-1]
        p0, p1, p2 = spec.chart[j]
        q0, q1, q2 = spec.chart[(j + 1) % spec.face_size]
        self.edges.append(spec.face_edges[face][j])
        self.exits.append(j)
        self.arcs.append(((m00 * p0 + m01 * p1 + m02 * p2,
                           m10 * p0 + m11 * p1 + m12 * p2,
                           m20 * p0 + m21 * p1 + m22 * p2),
                          (m00 * q0 + m01 * q1 + m02 * q2,
                           m10 * q0 + m11 * q1 + m12 * q2,
                           m20 * q0 + m21 * q1 + m22 * q2)))
        self.entered.append(spec.gluing[(face, j)])
        (s00, s01, s02), (s10, s11, s12), (s20, s21, s22) = spec.steps[(face, j)]
        self.placements.append((
            (m00 * s00 + m01 * s10 + m02 * s20,
             m00 * s01 + m01 * s11 + m02 * s21,
             m00 * s02 + m01 * s12 + m02 * s22),
            (m10 * s00 + m11 * s10 + m12 * s20,
             m10 * s01 + m11 * s11 + m12 * s21,
             m10 * s02 + m11 * s12 + m12 * s22),
            (m20 * s00 + m21 * s10 + m22 * s20,
             m20 * s01 + m21 * s11 + m22 * s21,
             m20 * s02 + m21 * s12 + m22 * s22)))


def develop(spec: SolidSpec, seq: CrossingSequence) -> Walker:
    """The walker that lays out the face copies traversed by `seq`, starting
    from the identity."""
    faces = seq.validate(spec)
    local = spec.face_edge_local
    walker = Walker(spec, faces[0], local[(faces[0], seq.edges[0])])
    # crossing i enters g = faces[i + 1] over edge e and leaves it over e2 = edges[i + 1]
    for e, g, e2 in zip(seq.edges, faces[1:], seq.edges[1:]):
        walker.cross((local[(g, e2)] - local[(g, e)]) % spec.face_size)
    return walker
