"""Development of face sequences onto the unit sphere.

A crossing sequence is the faces a candidate geodesic passes through and the
edges it crosses between them.
Developing the sequence lays consecutive face copies onto the sphere so the
candidate becomes a single great-circle arc; the composition of all the
per-edge transfer rotations around the cycle is the closing rotation
(holonomy) whose axis is the only possible pole of that arc.

Per-directed-edge transfer rotations are precomputed once per solid (in
``SolidSpec.steps``).  ``develop`` lays a sequence out from scratch; the
exhaustive search in ``finder`` builds the same ``Development`` incrementally,
one placement per crossing, with the same products in the same order
(``test_search_lays_out_closures_as_develop`` checks that every closure it
solves equals ``develop``'s layout of its edge word).
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
        m = len(self.edges)
        if m < 3 or len(self.faces) != m:
            raise DomainError("a crossing sequence needs at least 3 crossings "
                              "and one face for each")
        for i, e in enumerate(self.edges):
            f, g = self.faces[i], self.faces[(i + 1) % m]
            if (f, e) not in spec.face_edge_local:
                raise DomainError(f"edge {e} is not on face {f}")
            if (g, e) not in spec.face_edge_local:
                raise DomainError(f"edge {e} is not on face {g}")
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


def develop(spec: SolidSpec, seq: CrossingSequence) -> Development:
    """Lay out the face copies traversed by `seq`, starting from the identity."""
    seq.validate(spec)
    n = spec.face_size
    placements: List[Mat3] = [IDENTITY]
    arcs: List[Tuple[Vec3, Vec3]] = []
    r = IDENTITY
    for f, e in zip(seq.faces, seq.edges):
        j = spec.face_edge_local[(f, e)]
        p = mat_apply(r, spec.chart[j])
        q = mat_apply(r, spec.chart[(j + 1) % n])
        arcs.append((p, q))
        r = mat_compose(r, spec.steps[(f, j)])
        placements.append(r)
    return Development(seq=seq, placements=tuple(placements), arcs=tuple(arcs))
