import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphgeo import sphtrig
from sphgeo.solids import ADMISSIBLE, SolidKind, build_solid, cone_angle, symmetry_group
from sphgeo.sphtrig import (
    IDENTITY,
    PI,
    DomainError,
    angle_between,
    axis_angle,
    mat_apply,
    mat_compose,
    rot_about,
)
from sphgeo.unfold import CrossingSequence, Walker, develop

from util import (
    edge_copies_coincide,
    holonomy,
    mat_transpose,
    orthonormality_residual,
    random_closed_word,
    random_sequence,
    reference_develop,
    reference_face_walk,
    step_rotation,
)

MIDPOINTS = {
    SolidKind.TETRAHEDRON: 0.5 * PI,
    SolidKind.OCTAHEDRON: 0.45 * PI,
    SolidKind.CUBE: 0.6 * PI,
}


def _is_identity(m, tol=1e-12):
    return all(
        abs(m[i][j] - (1.0 if i == j else 0.0)) <= tol
        for i in range(3)
        for j in range(3)
    )


# ---------------------------------------------------------------------------
# sequence construction


def test_from_edges_rejects_short_and_invalid():
    spec = build_solid(SolidKind.TETRAHEDRON, 0.5 * PI)
    with pytest.raises(DomainError):
        CrossingSequence.from_edges(spec, [0, 1])
    with pytest.raises(DomainError):
        CrossingSequence.from_edges(spec, [0, 0, 1])
    octa = build_solid(SolidKind.OCTAHEDRON, 0.45 * PI)
    sq1 = octa.edge_by_names("A1", "A2")
    sq2 = octa.edge_by_names("A2", "A3")
    up = octa.edge_by_names("A2", "A5")
    # two square edges never bound a common octahedron face
    with pytest.raises(DomainError):
        CrossingSequence.from_edges(octa, [sq1, sq2, up])


def test_validate_checks_face_chain():
    spec = build_solid(SolidKind.TETRAHEDRON, 0.5 * PI)
    seq = CrossingSequence.from_edges(spec, [0, 1, 2])
    seq.validate(spec)
    # the figure-eight word: each pair of consecutive edges bounds a face,
    # yet crossing 0 leads out of the face that holds edge 4
    with pytest.raises(DomainError):
        CrossingSequence((0, 4, 3, 1, 2, 4)).validate(spec)


def test_crossing_sequence_is_its_edge_word():
    # the faces follow from the edges, so a sequence holds only its edges
    # and its development carries the faces, each an int
    assert tuple(f.name for f in dataclasses.fields(CrossingSequence)) == ("edges",)
    spec = build_solid(SolidKind.OCTAHEDRON, 0.4 * PI)
    faces = develop(spec, CrossingSequence((0, 2, 1, 11, 7, 8, 4, 6))).faces
    assert faces == (4, 0, 3, 7, 6, 2, 1, 5)
    assert all(type(f) is int for f in faces)


@pytest.mark.parametrize("kind,max_len", [
    (SolidKind.TETRAHEDRON, 6),
    (SolidKind.OCTAHEDRON, 4),
    (SolidKind.CUBE, 4),
])
def test_validate_matches_reference_face_walk(kind, max_len):
    # the one face walk accepts and refuses every short word as the
    # two-pass reference does, and gives the same faces
    spec = build_solid(kind, MIDPOINTS[kind])
    accepted = 0
    for m in range(max_len + 1):
        for word in itertools.product(range(len(spec.edges)), repeat=m):
            try:
                want = reference_face_walk(spec, word)
            except DomainError:
                want = None
            try:
                got = CrossingSequence(word).validate(spec)
            except DomainError:
                got = None
            assert got == want, word
            accepted += got is not None
    assert accepted > 0


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(list(SolidKind)), st.integers(0, 2**32 - 1), st.data())
def test_develop_walks_the_reference_layout(kind, seed, data):
    # develop walks a sequence's turns on an unfold.Walker; a
    # closed face walk must come out as the per-crossing lookup lays it out,
    # float for float, and a word with one edge replaced must be a walk
    # exactly when the reference face walk says so
    spec = build_solid(kind, MIDPOINTS[kind])
    word = random_closed_word(spec, random.Random(seed), max_len=16)
    seq = CrossingSequence.from_edges(spec, word)
    assert develop(spec, seq) == reference_develop(spec, seq)
    i = data.draw(st.integers(0, len(seq) - 1))
    e = data.draw(st.sampled_from([g for g in range(len(spec.edges))
                                   if g != word[i]]))
    changed = CrossingSequence(word[:i] + (e,) + word[i + 1:])
    try:
        reference_face_walk(spec, changed.edges)
    except DomainError:
        with pytest.raises(DomainError):
            develop(spec, changed)
    else:
        assert develop(spec, changed) == reference_develop(spec, changed)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(list(SolidKind)), st.integers(0, 2**32 - 1))
def test_walker_lays_out_words_sharing_prefixes(kind, seed):
    # one walker lays out closed walks from one first crossing, each going
    # on from a random prefix of an earlier one, in random order: every cut
    # must keep exactly the crossings that the shared turns fix, so each
    # layout is the per-crossing reference's, float for float
    spec = build_solid(kind, MIDPOINTS[kind])
    rng = random.Random(seed)
    n = spec.face_size
    f0 = spec.edge_faces[0][0]
    j0 = spec.face_edge_local[(f0, 0)]
    walks = []  # (the turns between crossings, the edge word)
    while len(walks) < 12:
        prefix = rng.choice(walks)[0] if walks else ()
        prefix = prefix[:rng.randrange(len(prefix) + 1)]
        turns, edges, face, j = [], [], f0, j0
        while len(edges) < 20:
            edges.append(spec.face_edges[face][j])
            face, entry = spec.gluing[(face, j)]
            if len(turns) >= max(2, len(prefix)) and face == f0 and entry != j0:
                walks.append((tuple(turns), tuple(edges)))
                break
            turns.append(prefix[len(turns)] if len(turns) < len(prefix)
                         else rng.randrange(1, n))
            j = (entry + turns[-1]) % n
    rng.shuffle(walks)
    walker = Walker(spec, f0, j0)
    held = ()
    for turns, edges in walks:
        k = 0
        while k < min(len(held), len(turns)) and held[k] == turns[k]:
            k += 1
        walker.cut(k + 1)
        for t in turns[k:]:
            walker.cross(t)
        held = turns
        seq = CrossingSequence.from_edges(spec, edges)
        assert walker.development() == reference_develop(spec, seq), edges


# ---------------------------------------------------------------------------
# step rotations


@pytest.mark.parametrize("kind", list(SolidKind))
def test_step_across_and_back_is_identity(kind):
    spec = build_solid(kind, MIDPOINTS[kind])
    for (f, j), (g, j2) in spec.gluing.items():
        e = spec.face_edges[f][j]
        there = step_rotation(spec, IDENTITY, f, e, g)
        back = step_rotation(spec, there, g, e, f)
        assert _is_identity(back)


@pytest.mark.parametrize("kind", list(SolidKind))
def test_developed_edge_copies_coincide(kind):
    # the exiting copy and the entering copy place the shared edge on the
    # same arc, endpoints swapped, across the interval and 1e-3 pi from its
    # ends; the solver measures each incidence on the exiting copy alone
    lo, hi = ADMISSIBLE[kind]
    alphas = [lo + 1e-3 * PI] + [lo + (hi - lo) * k / 9 for k in range(1, 9)] + [hi - 1e-3 * PI]
    rng = random.Random(99)
    for alpha in alphas:
        spec = build_solid(kind, alpha)
        for _ in range(50):
            dev = develop(spec, random_sequence(spec, rng))
            assert edge_copies_coincide(spec, dev, 1e-14), (alpha, dev.seq.edges)


def test_step_rotation_rejects_mismatched_crossing():
    spec = build_solid(SolidKind.TETRAHEDRON, 0.5 * PI)
    with pytest.raises(DomainError):
        step_rotation(spec, IDENTITY, 0, 5, 1)


# ---------------------------------------------------------------------------
# vertex loops = cone angles


@pytest.mark.parametrize(
    "kind,alpha",
    [
        (SolidKind.TETRAHEDRON, 0.6 * PI),
        (SolidKind.TETRAHEDRON, 0.45 * PI),
        (SolidKind.OCTAHEDRON, 0.4 * PI),
        (SolidKind.CUBE, 0.58 * PI),
    ],
)
def test_vertex_loop_matches_cone_angle(kind, alpha):
    spec = build_solid(kind, alpha)
    for v in range(spec.n_vertices):
        # edges incident to v, ordered by walking the faces around v
        f0 = next(i for i, f in enumerate(spec.faces) if v in f)
        word = []
        face = f0
        while True:
            fverts = spec.faces[face]
            k = fverts.index(v)
            n = spec.face_size
            # leave through the edge (v, previous vertex in the cycle)
            e = spec.edge_id(v, fverts[(k - 1) % n])
            word.append(e)
            j = spec.face_edge_local[(face, e)]
            face = spec.gluing[(face, j)][0]
            if face == f0:
                break
        seq = CrossingSequence.from_edges(spec, word)
        r = holonomy(spec, seq)
        axis, ang, near = axis_angle(r)
        cone = cone_angle(spec, v) % (2 * PI)
        expected = min(cone, 2 * PI - cone)
        assert not near
        assert ang == pytest.approx(expected, abs=1e-10)
        # the developed vertex is the fixed point
        k0 = spec.faces[f0].index(v)
        fixed = spec.chart[k0]
        img = mat_apply(r, fixed)
        assert max(abs(img[i] - fixed[i]) for i in range(3)) < 1e-10


# ---------------------------------------------------------------------------
# holonomy structure


@pytest.mark.parametrize("kind", list(SolidKind))
def test_holonomy_orthonormal(kind):
    spec = build_solid(kind, MIDPOINTS[kind])
    rng = random.Random(4)
    for _ in range(100):
        seq = random_sequence(spec, rng)
        assert orthonormality_residual(holonomy(spec, seq)) < 1e-12


@pytest.mark.parametrize("kind", list(SolidKind))
def test_cyclic_shift_conjugates_holonomy(kind):
    spec = build_solid(kind, MIDPOINTS[kind])
    rng = random.Random(17)
    for _ in range(100):
        word = random_sequence(spec, rng).edges
        r0 = holonomy(spec, CrossingSequence.from_edges(spec, word))
        a0 = axis_angle(r0).angle
        s = rng.randrange(1, len(word))
        shifted = word[s:] + word[:s]
        r1 = holonomy(spec, CrossingSequence.from_edges(spec, shifted))
        assert axis_angle(r1).angle == pytest.approx(a0, abs=1e-10)


@pytest.mark.parametrize("kind", list(SolidKind))
def test_reversal_inverts_holonomy(kind):
    spec = build_solid(kind, MIDPOINTS[kind])
    rng = random.Random(23)
    for _ in range(100):
        word = random_sequence(spec, rng).edges
        r = holonomy(spec, CrossingSequence.from_edges(spec, word))
        r_rev = holonomy(spec, CrossingSequence.from_edges(spec, word[::-1]))
        assert _is_identity(mat_compose(r, r_rev), tol=1e-12)
        aa, bb = axis_angle(r), axis_angle(r_rev)
        if not aa.near_identity and aa.angle < PI - 1e-6:
            assert bb.angle == pytest.approx(aa.angle, abs=1e-10)
            assert max(abs(aa.axis[i] + bb.axis[i]) for i in range(3)) < 1e-9


def _ambient_rotation(spec, op, face):
    """The sphere rotation realizing op on the canonical chart of `face`."""
    n = spec.face_size
    fverts = spec.faces[face]
    image_face = op.face_perm[face]
    iverts = spec.faces[image_face]
    shift = iverts.index(op.perm[fverts[0]])
    # orientation-preserving ops shift chart indices cyclically
    assert all(
        op.perm[fverts[k]] == iverts[(shift + k) % n] for k in range(n)
    )
    return rot_about((0.0, 0.0, 1.0), 2 * PI * shift / n)


@pytest.mark.parametrize("kind", list(SolidKind))
def test_symmetry_conjugates_holonomy(kind):
    spec = build_solid(kind, MIDPOINTS[kind])
    rotations = [op for op in symmetry_group(spec) if op.is_rotation]
    rng = random.Random(31)
    for _ in range(60):
        seq = random_sequence(spec, rng)
        word = seq.edges
        op = rotations[rng.randrange(len(rotations))]
        image = CrossingSequence.from_edges(
            spec, tuple(op.edge_perm[e] for e in word)
        )
        # the image sequence starts on the image face; conjugate by the
        # chart-level rotation relating the two start placements
        start = seq.validate(spec)[0]
        assert image.validate(spec)[0] == op.face_perm[start]
        w = _ambient_rotation(spec, op, start)
        lhs = holonomy(spec, image)
        rhs = mat_compose(w, mat_compose(holonomy(spec, seq), mat_transpose(w)))
        assert max(
            abs(lhs[i][j] - rhs[i][j]) for i in range(3) for j in range(3)
        ) < 1e-10


# ---------------------------------------------------------------------------
# examples from the known constructions


def test_octa_type1_closing_rotation():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.4 * PI)
    E = spec.edge_by_names
    word = [E("A1", "A2"), E("A2", "A5"), E("A5", "A3"),
            E("A3", "A4"), E("A4", "A6"), E("A6", "A1")]
    r = holonomy(spec, CrossingSequence.from_edges(spec, word))
    axis, ang, near = axis_angle(r)
    assert not near
    assert 0 < ang < PI
    assert abs(sum(x * x for x in axis) - 1.0) < 1e-12


def test_octa_type2_rotation_angle_below_two_pi():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.45 * PI)
    E = spec.edge_by_names
    word = [E("A1", "A2"), E("A2", "A6"), E("A2", "A3"), E("A3", "A5"),
            E("A3", "A4"), E("A4", "A6"), E("A4", "A1"), E("A1", "A5")]
    r = holonomy(spec, CrossingSequence.from_edges(spec, word))
    _, ang, near = axis_angle(r)
    assert not near
    assert ang < 2 * PI  # total length bound


def test_cube_type1_axis_is_symmetry_axis():
    # symmetry oracle: the quarter turn about the front-back axis advances
    # the development by one face copy, so its development-level realization
    # S satisfies S^4 = closing rotation and shares its axis (the developed
    # image of the axis through the front/back face centres)
    spec = build_solid(SolidKind.CUBE, 0.6 * PI)
    E = spec.edge_by_names
    word = [E("A1", "A1'"), E("A2", "A2'"), E("A3", "A3'"), E("A4", "A4'")]
    seq = CrossingSequence.from_edges(spec, word)
    dev = develop(spec, seq)
    r = dev.closing
    axis, ang, near = axis_angle(r)
    assert not near
    rho = {0: 1, 1: 2, 2: 3, 3: 0, 4: 5, 5: 6, 6: 7, 7: 4}
    f0, f1 = dev.faces[0], dev.faces[1]

    def pos(copy, face, v):
        idx = spec.faces[face].index(v)
        return mat_apply(dev.placements[copy], spec.chart[idx])

    v0 = spec.faces[f0]
    s = sphtrig.rotation_from_pairs(
        pos(0, f0, v0[0]),
        pos(0, f0, v0[1]),
        pos(1, f1, rho[v0[0]]),
        pos(1, f1, rho[v0[1]]),
    )
    s4 = mat_compose(s, mat_compose(s, mat_compose(s, s)))
    assert max(abs(s4[i][j] - r[i][j]) for i in range(3) for j in range(3)) < 1e-10
    ax_s = axis_angle(s).axis
    assert abs(abs(sphtrig.dot(ax_s, axis)) - 1.0) < 1e-10
