"""Development of face sequences onto the unit sphere.

A crossing sequence names the directed edges a candidate geodesic traverses.
Developing the sequence lays consecutive face copies onto the sphere so the
candidate becomes a single great-circle arc; the composition of all the
per-edge transfer rotations around the cycle is the closing rotation
(holonomy) whose axis is the only possible pole of that arc.

Per-directed-edge transfer rotations are precomputed once per solid (in
``SolidSpec.steps``).  ``develop`` lays a sequence out from scratch; the
exhaustive search in ``finder`` builds the same ``Development`` incrementally,
one placement per crossing, with the same products in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .sphtrig import IDENTITY, DomainError, Mat3, Vec3, mat_apply, mat_compose
from .solids import SolidSpec


@dataclass(frozen=True)
class DirectedCrossing:
    from_face: int
    edge: int
    to_face: int


@dataclass(frozen=True)
class CrossingSequence:
    """Cyclic list of directed edge crossings; the combinatorial identity of
    a closed geodesic candidate."""

    crossings: Tuple[DirectedCrossing, ...]

    def __len__(self) -> int:
        return len(self.crossings)

    def edge_word(self) -> Tuple[int, ...]:
        return tuple(c.edge for c in self.crossings)

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
        crossings = tuple(
            DirectedCrossing(mids[i - 1], edges[i], mids[i]) for i in range(m)
        )
        return CrossingSequence(crossings)

    def validate(self, spec: SolidSpec) -> None:
        m = len(self.crossings)
        if m < 3:
            raise DomainError("a crossing sequence needs at least 3 crossings")
        for i, c in enumerate(self.crossings):
            if (c.from_face, c.edge) not in spec.face_edge_local:
                raise DomainError(f"edge {c.edge} is not on face {c.from_face}")
            if (c.to_face, c.edge) not in spec.face_edge_local:
                raise DomainError(f"edge {c.edge} is not on face {c.to_face}")
            nxt = self.crossings[(i + 1) % m]
            if c.to_face != nxt.from_face:
                raise DomainError("consecutive crossings do not share a face")
            if c.edge == nxt.edge:
                raise DomainError("consecutive crossings reuse one edge")


@dataclass(frozen=True)
class Development:
    """Face placements and developed edge arcs of one crossing sequence.

    ``placements[i]`` carries face ``faces[i]``; ``arcs[i]`` is the developed
    copy of crossing i's edge, directed as the boundary of the face copy
    being exited (the entered copy traverses it backwards).  ``closing`` is
    the holonomy: placements[-1] relative to the identity start.
    """

    seq: CrossingSequence
    faces: Tuple[int, ...]
    placements: Tuple[Mat3, ...]
    arcs: Tuple[Tuple[Vec3, Vec3], ...]

    @property
    def closing(self) -> Mat3:
        return self.placements[-1]


def develop(spec: SolidSpec, seq: CrossingSequence) -> Development:
    """Lay out the face copies traversed by `seq`, starting from the identity."""
    seq.validate(spec)
    n = spec.face_size
    placements: List[Mat3] = [IDENTITY]
    faces: List[int] = [seq.crossings[0].from_face]
    arcs: List[Tuple[Vec3, Vec3]] = []
    r = IDENTITY
    for c in seq.crossings:
        j = spec.face_edge_local[(c.from_face, c.edge)]
        p = mat_apply(r, spec.chart[j])
        q = mat_apply(r, spec.chart[(j + 1) % n])
        arcs.append((p, q))
        r = mat_compose(r, spec.steps[(c.from_face, j)])
        placements.append(r)
        faces.append(c.to_face)
    return Development(
        seq=seq,
        faces=tuple(faces),
        placements=tuple(placements),
        arcs=tuple(arcs),
    )
