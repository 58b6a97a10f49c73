import dataclasses
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphgeo import cli, counts, finder, sphtrig, unfold
from sphgeo.finder import (
    ClassificationError,
    GeodesicPath,
    class_tag,
    classify_tetra_type,
    enumerate_classes,
    orbit_size,
    solve_sequence,
    solve_tetra_type,
    tetra_type_sequence,
)
from sphgeo.solids import ADMISSIBLE, MIN_EDGE_LENGTH, SolidKind, build_solid, symmetry_group
from sphgeo.sphtrig import PI, DomainError, dot, neg, normalize
from sphgeo.unfold import CrossingSequence, develop

from util import (
    canonicalize,
    cyclic_turn_word,
    dev_is_simple,
    edge_copies_coincide,
    feasible_pole_exists,
    is_simple,
    least_turn_image,
    midpoint_class_length,
    path_for_pole,
    pairwise_is_simple,
    prefix_has_smaller_image,
    random_closed_word,
    random_sequence,
    random_unit,
    reference_classes,
    reference_extend_least,
    reference_length_bound,
    reference_orbit,
    reference_path_for_pole,
    reference_tetra_type_sequence,
    sampled_is_simple,
    snapshot,
    strict_pole,
    trace_geodesic,
    turn_images,
    two_pole_solve,
    window_distance,
)

OCTA_TYPE1 = ("A1A2", "A2A5", "A5A3", "A3A4", "A4A6", "A6A1")
OCTA_TYPE2 = ("A1A2", "A2A6", "A2A3", "A3A5", "A3A4", "A4A6", "A4A1", "A1A5")
CUBE_TYPE1 = ("A1A1'", "A2A2'", "A3A3'", "A4A4'")
CUBE_TYPE2 = ("A1'A2'", "A2'A2", "A2A3", "A3A4", "A4A4'", "A4'A1'")
CUBE_TYPE3 = ("A2A3", "A2A2'", "A1A1'", "A1'A4'", "A3'A4'", "A3A4")

ENUMERATE_CLASSES_TXT = Path(__file__).parent / "data" / "enumerate_classes.txt"
ENUMERATE_DEEP_CLASSES_TXT = Path(__file__).parent / "data" / "enumerate_deep_classes.txt"


def word_of(spec, names):
    out = []
    for pair in names:
        cut = pair.index("A", 1)
        out.append(spec.edge_by_names(pair[:cut], pair[cut:]))
    return tuple(out)


def seq_of(spec, names):
    return CrossingSequence.from_edges(spec, word_of(spec, names))


# ---------------------------------------------------------------------------
# pole feasibility


def test_feasible_single_arc():
    a = normalize((1.0, 0.2, 0.6))
    b = normalize((0.9, -0.1, -0.7))
    assert feasible_pole_exists([(a, b)])


def test_infeasible_contradictory_signs():
    # the same band demanded in both directions
    a = normalize((1.0, 0.0, 1e-3))
    b = normalize((1.0, 0.0, -1e-3))
    assert not feasible_pole_exists([(a, b), (b, a)])


def test_infeasible_zero_area_region():
    # u.c > 0 and u.(-c) > 0 pinch the polygon onto the great circle of c:
    # clipping leaves a degenerate polygon, which has no strict witness
    rng = random.Random(60)
    for _ in range(300):
        a = random_unit(rng)
        c = random_unit(rng)
        assert not feasible_pole_exists([(a, neg(c)), (neg(c), neg(a))])


def test_feasible_random_with_witness():
    rng = random.Random(61)
    for _ in range(300):
        u = random_unit(rng)
        arcs = []
        for _ in range(rng.randrange(1, 13)):
            # manufacture an arc genuinely crossed by the equator of u
            while True:
                a = random_unit(rng)
                b = random_unit(rng)
                if dot(u, a) > 0.05 and dot(u, b) < -0.05:
                    arcs.append((a, b))
                    break
        assert feasible_pole_exists(arcs)


def test_infeasible_random_antipodal_pairs():
    rng = random.Random(62)
    for _ in range(300):
        c = random_unit(rng)
        d = random_unit(rng)
        # u.c > 0 > u.d and u.d > 0 > u.c cannot both hold
        arcs = [(c, d), (d, c)]
        for _ in range(rng.randrange(0, 6)):
            arcs.append((random_unit(rng), random_unit(rng)))
        assert not feasible_pole_exists(arcs)


def test_infeasible_by_convex_certificate():
    # build constraint sets whose convex hull provably contains the origin:
    # c4 = -(l1 c1 + l2 c2 + l3 c3), so no pole can be positive on all four
    rng = random.Random(63)
    built = 0
    while built < 300:
        c1, c2, c3 = (random_unit(rng) for _ in range(3))
        lam = [rng.uniform(0.2, 1.0) for _ in range(3)]
        s = tuple(-sum(l * c[i] for l, c in zip(lam, (c1, c2, c3)))
                  for i in range(3))
        n = math.sqrt(sum(x * x for x in s))
        if n < 1e-3:
            continue
        c4 = tuple(x / n for x in s)
        # arcs (a, b) demand u.a > 0 and u.(-b) > 0: the same four constraints
        assert not feasible_pole_exists([(c1, neg(c2)), (c3, neg(c4))])
        built += 1


def test_feasible_agrees_with_dense_sampling():
    # a sampled pole clearing every constraint by 1e-6 certifies feasibility
    n = 3000
    golden = PI * (3.0 - math.sqrt(5.0))
    poles = []
    for i in range(n):
        z = 1.0 - (2 * i + 1) / n
        r = math.sqrt(1.0 - z * z)
        poles.append((r * math.cos(golden * i), r * math.sin(golden * i), z))
    rng = random.Random(65)
    sampled_feasible = infeasible = 0
    for _ in range(150):
        arcs = [(random_unit(rng), random_unit(rng))
                for _ in range(rng.randrange(1, 6))]
        cons = [c for a, b in arcs for c in (a, neg(b))]
        if any(all(dot(u, c) > 1e-6 for c in cons) for u in poles):
            sampled_feasible += 1
            assert feasible_pole_exists(arcs)
        elif not feasible_pole_exists(arcs):
            infeasible += 1
    # both outcomes occur, so neither branch is vacuous
    assert sampled_feasible > 30 and infeasible > 30


def test_feasibility_shrinks_with_constraints():
    # dropping arcs can never turn a feasible set infeasible
    rng = random.Random(64)
    for _ in range(200):
        u = random_unit(rng)
        arcs = []
        for _ in range(10):
            while True:
                a = random_unit(rng)
                b = random_unit(rng)
                if dot(u, a) > 0.05 and dot(u, b) < -0.05:
                    arcs.append((a, b))
                    break
        k = rng.randrange(1, 10)
        assert feasible_pole_exists(arcs)
        assert feasible_pole_exists(arcs[:k])


def test_octa_type2_prefixes_feasible():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.45 * PI)
    dev = develop(spec, seq_of(spec, OCTA_TYPE2))
    # crossing into the next copy needs u.q > 0 > u.p for the exiting arc
    arcs = [(q, p) for p, q in dev.arcs]
    for k in range(1, len(arcs) + 1):
        assert feasible_pole_exists(arcs[:k])


# ---------------------------------------------------------------------------
# solving known constructions


def test_octa_type1_midpoints():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.4 * PI)
    path = solve_sequence(spec, seq_of(spec, OCTA_TYPE1))
    assert path is not None
    assert path.total_length < 2 * PI
    assert path.closure_residual < 1e-9
    for c in path.crossings:
        assert c.t == pytest.approx(0.5, abs=1e-9)
    assert class_tag(spec, path) == "type1"


def test_octa_type2_right_angles():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.45 * PI)
    path = solve_sequence(spec, seq_of(spec, OCTA_TYPE2))
    assert path is not None
    square = {spec.edge_by_names(a, b) for a, b in
              (("A1", "A2"), ("A2", "A3"), ("A3", "A4"), ("A4", "A1"))}
    a_t = sphtrig.tetra_edge(0.45 * PI)
    # closed-form oracle for the off-square crossing position
    t_oracle = math.atan(math.tan(a_t / 2) * math.cos(0.45 * PI)) / a_t
    for c in path.crossings:
        if c.edge in square:
            assert c.t == pytest.approx(0.5, abs=1e-9)
        else:
            assert c.incidence == pytest.approx(PI / 2, abs=1e-9)
            assert min(c.t, 1.0 - c.t) == pytest.approx(t_oracle, abs=1e-9)
    assert class_tag(spec, path) == "type2"


def test_octa_reordered_word_has_no_geodesic():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.4 * PI)
    # crossing 0 of this word leaves face 4 for a face that does not hold
    # the next edge, so it is no face walk
    word = word_of(
        spec, ("A1A2", "A2A6", "A2A3", "A3A5", "A3A4", "A4A6", "A6A1")
    )
    with pytest.raises(DomainError, match="crossing 0 over edge"):
        solve_sequence(spec, CrossingSequence.from_edges(spec, word))
    # a closed walk that follows the type-2 geodesic for five crossings and
    # then turns back; the octahedron's faces form the bipartite cube graph,
    # so a closed walk has an even number of crossings
    word = word_of(
        spec, ("A1A2", "A2A6", "A2A3", "A3A5", "A3A4", "A3A6", "A2A3", "A2A5")
    )
    seq = CrossingSequence.from_edges(spec, word)
    develop(spec, seq)
    assert solve_sequence(spec, seq) is None
    # solve_class names the word, not a closure tolerance too tight for its
    # canonical image
    with pytest.raises(DomainError, match=r"edge word \[.*\] does not solve at alpha=") as err:
        finder.solve_class(spec, word)
    assert "tol_closure" not in str(err.value)


def test_cube_types_solve():
    spec = build_solid(SolidKind.CUBE, 0.6 * PI)
    for names, tag, orbit in (
        (CUBE_TYPE1, "type1", 3),
        (CUBE_TYPE2, "type2", 4),
        (CUBE_TYPE3, "type3", 12),
    ):
        seq = seq_of(spec, names)
        path = solve_sequence(spec, seq)
        assert path is not None
        assert class_tag(spec, path) == tag
        assert orbit_size(spec, seq) == orbit


def test_path_invariants_on_known_solutions():
    jobs = [
        (SolidKind.OCTAHEDRON, 0.4 * PI, OCTA_TYPE1),
        (SolidKind.OCTAHEDRON, 0.45 * PI, OCTA_TYPE2),
        (SolidKind.CUBE, 0.58 * PI, CUBE_TYPE3),
    ]
    for kind, alpha, names in jobs:
        spec = build_solid(kind, alpha)
        path = solve_sequence(spec, seq_of(spec, names))
        assert path is not None
        assert path.total_length < 2 * PI
        assert path.closure_residual < 1e-9
        assert abs(sum(path.arc_lengths) - path.total_length) < 1e-9
        for c in path.crossings:
            assert 1e-9 < c.t < 1 - 1e-9
            assert 0.0 < c.incidence < PI
        assert is_simple(spec, path)


def test_closed_form_lengths():
    # midpoint constructions have closed-form lengths: each segment of the
    # 'belt' classes is the midsegment of one face (cos_side of two half
    # edges and the face angle), and the 4-crossing cube class is four face
    # midlines laid end to end
    for api in (0.36, 0.42, 0.48):
        alpha = api * PI
        spec = build_solid(SolidKind.OCTAHEDRON, alpha)
        E = spec.edge_by_names
        word = [E("A1", "A2"), E("A2", "A5"), E("A5", "A3"),
                E("A3", "A4"), E("A4", "A6"), E("A6", "A1")]
        path = solve_sequence(spec, CrossingSequence.from_edges(spec, word))
        half = sphtrig.tetra_edge(alpha) / 2
        seg = sphtrig.cos_side(half, half, alpha)
        assert path.total_length == pytest.approx(6 * seg, abs=1e-12)
    for api in (0.55, 0.60, 0.65):
        alpha = api * PI
        spec = build_solid(SolidKind.TETRAHEDRON, alpha)
        path = solve_tetra_type(spec, 0, 1)
        half = sphtrig.tetra_edge(alpha) / 2
        seg = sphtrig.cos_side(half, half, alpha)
        assert path.total_length == pytest.approx(4 * seg, abs=1e-12)
    for api in (0.54, 0.60, 0.64):
        alpha = api * PI
        spec = build_solid(SolidKind.CUBE, alpha)
        E = spec.edge_by_names
        word = [E("A1", "A1'"), E("A2", "A2'"), E("A3", "A3'"), E("A4", "A4'")]
        path = solve_sequence(spec, CrossingSequence.from_edges(spec, word))
        assert path.total_length == pytest.approx(
            4 * sphtrig.square_midline(alpha), abs=1e-12
        )


def test_shooting_oracle_confirms_solutions():
    # re-trace each solved geodesic on the surface from its first crossing's
    # surface data alone; the trace must cross the same edges and close up
    jobs = [
        (SolidKind.OCTAHEDRON, 0.4 * PI, OCTA_TYPE1),
        (SolidKind.OCTAHEDRON, 0.45 * PI, OCTA_TYPE2),
        (SolidKind.CUBE, 0.55 * PI, CUBE_TYPE1),
        (SolidKind.CUBE, 0.6 * PI, CUBE_TYPE2),
        (SolidKind.CUBE, 0.6 * PI, CUBE_TYPE3),
    ]
    for kind, alpha, names in jobs:
        spec = build_solid(kind, alpha)
        path = solve_sequence(spec, seq_of(spec, names))
        assert path is not None
        word = path.seq.edges
        edges, pos_err, dir_err = trace_geodesic(spec, path)
        assert edges == word[1:] + word[:1]
        assert pos_err < 1e-9
        assert dir_err < 1e-9
    # targeted tetra types, including many-crossing ones
    spec = build_solid(SolidKind.TETRAHEDRON, 0.36 * PI)
    for p, q in ((0, 1), (1, 1), (1, 2), (1, 3)):
        path = solve_tetra_type(spec, p, q)
        assert path is not None
        word = path.seq.edges
        edges, pos_err, dir_err = trace_geodesic(spec, path)
        assert edges == word[1:] + word[:1]
        assert pos_err < 1e-9
        assert dir_err < 1e-9


def test_vertex_avoidance_rejects_near_vertex():
    # at alpha = pi/2 + eps the vertex loop crossings sit eps-close to the
    # far vertices; with a large vertex tolerance the sequence is rejected
    spec = build_solid(SolidKind.TETRAHEDRON, 0.51 * PI)
    word = (spec.edge_id(0, 1), spec.edge_id(0, 2), spec.edge_id(0, 3))
    seq = CrossingSequence.from_edges(spec, word)
    path = solve_sequence(spec, seq)
    assert path is not None
    margin = min(min(c.t, 1 - c.t) for c in path.crossings)
    assert solve_sequence(spec, seq, tol_vertex=2 * margin) is None


# ---------------------------------------------------------------------------
# simplicity


def test_is_simple_against_sampled_oracle():
    jobs = [
        (SolidKind.OCTAHEDRON, 0.4 * PI, OCTA_TYPE1),
        (SolidKind.CUBE, 0.6 * PI, CUBE_TYPE2),
    ]
    for kind, alpha, names in jobs:
        spec = build_solid(kind, alpha)
        seq = seq_of(spec, names)
        path = solve_sequence(spec, seq)
        assert is_simple(spec, path)
        assert sampled_is_simple(spec, seq, path.pole)


def test_tetra_type01_simple_by_oracle():
    spec = build_solid(SolidKind.TETRAHEDRON, 0.6 * PI)
    path = solve_tetra_type(spec, 0, 1)
    assert path is not None
    assert is_simple(spec, path)
    assert sampled_is_simple(spec, path.seq, path.pole)


def _closure_pole(spec, word):
    dev = develop(spec, CrossingSequence.from_edges(spec, word))
    axis, ang, near = sphtrig.axis_angle(dev.placements[-1])
    assert not near
    return axis


def test_self_crossing_band_rejected():
    # doubled band: passes the closure conditions, fails only simplicity
    spec = build_solid(SolidKind.TETRAHEDRON, 0.42 * PI)
    word = (0, 2, 5, 3, 0, 2, 5, 3)
    seq = CrossingSequence.from_edges(spec, word)
    assert solve_sequence(spec, seq) is None
    for pole in (p := _closure_pole(spec, word), sphtrig.neg(p)):
        fake = GeodesicPath(seq, (), (), 0.0, pole, 0.0)
        hits = [
            sphtrig.pole_edge_crossing(pole, a, b)
            for a, b in develop(spec, seq).arcs
        ]
        if all(h is not None for h in hits):
            assert not is_simple(spec, fake)
            assert not sampled_is_simple(spec, seq, pole)


def test_figure_eight_rejected():
    # each pair of consecutive edges bounds a face, yet crossing 0 leaves
    # face 2 for a face that does not hold edge 4, so no face walk traces
    # it, and from_edges refuses it before anything takes it for a sequence
    spec = build_solid(SolidKind.TETRAHEDRON, 0.42 * PI)
    word = (0, 4, 3, 1, 2, 4)
    with pytest.raises(DomainError, match="crossing 0 over edge 0"):
        CrossingSequence.from_edges(spec, word)
    seq = CrossingSequence(word)
    with pytest.raises(DomainError, match="crossing 0 over edge 0"):
        solve_sequence(spec, seq)
    # nor does any caller that takes the word or the sequence undeveloped
    # accept it
    for call in (lambda: finder.canonical_word(spec, word),
                 lambda: finder.orbit_size(spec, seq),
                 lambda: finder.solve_class(spec, word)):
        with pytest.raises(DomainError, match="does not lead"):
            call()


# an octahedron class's word, with one edge id replaced: -12 indexes as
# edge 0, True and 1.0 look up edge 1, and 999 is past the last edge
_OCTA_WORD = (0, 2, 1, 11, 7, 8, 4, 6)


@pytest.mark.parametrize("word", [
    (-12,) + _OCTA_WORD[1:],
    _OCTA_WORD[:2] + (True,) + _OCTA_WORD[3:],
    _OCTA_WORD[:2] + (1.0,) + _OCTA_WORD[3:],
    (999,) + _OCTA_WORD[1:],
    (1.0,) + _OCTA_WORD[1:],
], ids=["negative", "bool", "float", "past-last", "float-first"])
def test_edge_ids_refused_before_lookup(word):
    # every caller that takes an edge word or an undeveloped sequence refuses
    # an id that is not an int in range(len(spec.edges)) with one message
    spec = build_solid(SolidKind.OCTAHEDRON, 0.4 * PI)
    seq = CrossingSequence(word)
    for call in (lambda: CrossingSequence.from_edges(spec, word),
                 lambda: seq.validate(spec),
                 lambda: develop(spec, seq),
                 lambda: solve_sequence(spec, seq),
                 lambda: finder.orbit_size(spec, seq),
                 lambda: finder.canonical_word(spec, word),
                 lambda: finder.solve_class(spec, word)):
        with pytest.raises(DomainError, match=r"edge id .* is not an integer in range\(12\)"):
            call()
    assert finder.solve_class(spec, _OCTA_WORD).tag == "type2"


@pytest.mark.parametrize("kind", list(SolidKind))
def test_any_int_sequence_is_an_edge_word(kind):
    # the word callers take any sequence of edge ids, as from_edges does: a
    # list, an iterator or a sequence built on a list gives the results of
    # the tuple
    lo, hi = ADMISSIBLE[kind]
    spec = build_solid(kind, (lo + hi) / 2)
    classes = enumerate_classes(spec, 12)
    assert classes
    for c in classes:
        word = c.path.seq.edges
        least = finder.canonical_word(spec, word)
        size = orbit_size(spec, CrossingSequence(word))
        cls = finder.solve_class(spec, word)
        for like in (list, iter):
            assert finder.canonical_word(spec, like(word)) == least
            assert finder.solve_class(spec, like(word)) == cls
            # the sequence stores the tuple, so it equals, hashes and
            # validates as the tuple's
            seq = CrossingSequence(like(word))
            assert seq == CrossingSequence(word) and hash(seq) == hash(CrossingSequence(word))
            assert orbit_size(spec, seq) == size


@pytest.fixture
def simplicity_verdicts(monkeypatch):
    """Check every nesting verdict of the solver against the pairwise
    reference and record the verdicts."""
    verdicts = []
    solving = []  # the (spec, dev, pole) being solved
    closure_for_pole, chords_nest = finder._closure_for_pole, finder._chords_nest

    def solve(spec, dev, pole, *args):
        solving[:] = [(spec, snapshot(dev), pole)]
        return closure_for_pole(spec, dev, pole, *args)

    def checked(ends, tol):
        got = chords_nest(ends, tol)
        spec, dev, pole = solving[0]
        hits = [sphtrig.pole_edge_crossing(pole, a, b) for a, b in dev.arcs]
        assert got == pairwise_is_simple(spec, dev, hits), dev.seq.edges
        verdicts.append(got)
        return got

    monkeypatch.setattr(finder, "_closure_for_pole", solve)
    monkeypatch.setattr(finder, "_chords_nest", checked)
    return verdicts


@pytest.mark.parametrize("kind,alphas", [
    (SolidKind.TETRAHEDRON, (0.36 * PI, 0.5 * PI, 0.6 * PI)),
    (SolidKind.OCTAHEDRON, (0.36 * PI, 0.42 * PI, 0.48 * PI)),
    (SolidKind.CUBE, (0.54 * PI, 0.6 * PI, 0.65 * PI)),
])
def test_chord_nesting_agrees_with_pairwise(kind, alphas, simplicity_verdicts):
    for alpha in alphas:
        spec = build_solid(kind, alpha)
        for cls in enumerate_classes(spec, 16):
            # a class traversed twice closes but retraces itself
            doubled = CrossingSequence.from_edges(spec, cls.path.seq.edges * 2)
            solve_sequence(spec, doubled)
    assert True in simplicity_verdicts and False in simplicity_verdicts


def test_chord_nesting_agrees_on_long_tetra_types(simplicity_verdicts):
    # near the flat limit the typed sequences run to ~100 crossings
    counts.count_tetra(0.336 * PI)
    assert len(simplicity_verdicts) > 20


@pytest.mark.parametrize("kind,alpha", [
    (SolidKind.TETRAHEDRON, 0.4 * PI),
    (SolidKind.OCTAHEDRON, 0.45 * PI),
    (SolidKind.CUBE, 0.6 * PI),
])
def test_chord_nesting_agrees_on_random_chords(kind, alpha):
    # arbitrary crossing points still give in-face minor chords, so both
    # checks decide the same question; a coarse grid of t makes the same
    # surface point recur (contact), a fine one makes chords cross
    spec = build_solid(kind, alpha)
    rng = random.Random(5)
    verdicts = []
    for trial in range(300):
        dev = develop(spec, random_sequence(spec, rng, max_len=14))
        hits = []
        for p, q in dev.arcs:
            t = rng.choice((0.25, 0.5, 0.75)) if trial % 2 else rng.uniform(0.01, 0.99)
            hits.append(sphtrig.ArcCrossing(t, 0.0, sphtrig.slerp(p, q, t)))
        got = dev_is_simple(spec, dev, hits)
        assert got == pairwise_is_simple(spec, dev, hits), dev.seq.edges
        verdicts.append(got)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("word", [
    (0, 2, 5, 3, 0, 2, 5, 3),  # doubled band
    (0, 4, 3, 1, 2, 4),        # figure eight
])
def test_chord_nesting_rejects_self_crossing(word, simplicity_verdicts):
    # the doubled band is a closed walk that retraces itself, so its chords
    # decide it; the figure eight is no face walk (see
    # test_figure_eight_rejected) and is refused before any chord is sorted
    spec = build_solid(SolidKind.TETRAHEDRON, 0.42 * PI)
    if word == (0, 4, 3, 1, 2, 4):
        with pytest.raises(DomainError):
            solve_sequence(spec, CrossingSequence.from_edges(spec, word))
        assert simplicity_verdicts == []
    else:
        assert solve_sequence(spec, CrossingSequence.from_edges(spec, word)) is None
        assert simplicity_verdicts == [False]


# ---------------------------------------------------------------------------
# canonicalization


@pytest.mark.parametrize("kind,alpha", [
    (SolidKind.TETRAHEDRON, 0.5 * PI),
    (SolidKind.OCTAHEDRON, 0.45 * PI),
    (SolidKind.CUBE, 0.6 * PI),
])
def test_canonicalize_idempotent_and_reversal(kind, alpha):
    spec = build_solid(kind, alpha)
    rng = random.Random(71)
    for _ in range(60):
        seq = random_sequence(spec, rng)
        canon = canonicalize(spec, seq)
        assert canonicalize(spec, canon).edges == canon.edges
        rev = CrossingSequence.from_edges(spec, seq.edges[::-1])
        assert canonicalize(spec, rev).edges == canon.edges


def test_canonicalize_octa_pole_swap():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.4 * PI)
    seq = seq_of(spec, OCTA_TYPE1)
    swap = next(
        op for op in symmetry_group(spec)
        if op.perm == (0, 1, 2, 3, 5, 4)
    )
    image = CrossingSequence.from_edges(
        spec, tuple(swap.edge_perm[e] for e in seq.edges)
    )
    assert canonicalize(spec, image).edges == canonicalize(spec, seq).edges


@pytest.mark.parametrize("kind", list(SolidKind))
def test_orbit_matches_reference(kind):
    # the one pass over the group gives the least word and the orbit size
    # of the slow oracle, on every class found at 4 angles, every tetra
    # candidate type, and random closed walks with their squares and cubes:
    # a proper power has fewer than 2m distinct shifts and a larger
    # stabilizer
    lo, hi = ADMISSIBLE[kind]
    for k in range(4):
        spec = build_solid(kind, lo + (hi - lo) * (k + 0.5) / 4)
        for c in enumerate_classes(spec, 16):
            assert (c.path.seq.edges, c.orbit_size) == reference_orbit(spec, c.path.seq.edges)
    words = []
    if kind is SolidKind.TETRAHEDRON:
        spec = build_solid(kind, 0.336 * PI)
        words += [tetra_type_sequence(spec, p, q).edges
                  for p, q in counts.candidate_types(0.336 * PI)]
    rng = random.Random(f"orbit/{kind.value}")
    for _ in range(400):
        word = random_closed_word(spec, rng)
        words += [word, word * 2, word * 3]
    for word in words:
        assert finder._orbit(spec, word) == reference_orbit(spec, word)


def test_orbit_slices_match_reference():
    # _orbit reads the least word and the orbit size off 8m translated
    # slices, and agrees with the slow oracle: on every shift and reversal
    # of every symmetry image of each class word in
    # data/enumerate_classes.txt (all of one class, so all with that class's
    # least word and size), on the squares and cubes of those words, and on
    # a word that a shifted reversal fixes, so that s = 2.  No face walk is
    # such a word (it would cross one edge twice in a row, or twice around
    # one crossing), but the count is the same on any word
    images = 0
    for line in ENUMERATE_CLASSES_TXT.read_text().splitlines():
        if line.startswith("#"):
            continue
        kind, alpha, _, letters = line.split()[:4]
        spec = build_solid(SolidKind(kind), float(alpha))
        word = tuple(int(e) for e in letters.split(","))
        want = reference_orbit(spec, word)
        assert want[0] == word
        for g in symmetry_group(spec):
            image = tuple(g.edge_perm[e] for e in word)
            for v in (image, image[::-1]):
                for r in range(len(v)):
                    assert finder._orbit(spec, v[r:] + v[:r]) == want
                    images += 1
        for power in (word * 2, word * 3):
            assert finder._orbit(spec, power) == reference_orbit(spec, power)
            assert orbit_size(spec, CrossingSequence(power)) == reference_orbit(spec, power)[1]
        mirrored = word + word[-2:0:-1]
        assert sum(v[r:] + v[:r] == mirrored for v in (mirrored, mirrored[::-1])
                   for r in range(len(mirrored))) == 2
        assert finder._orbit(spec, mirrored) == reference_orbit(spec, mirrored)
    assert images == 14_688


@pytest.mark.parametrize("kind", [SolidKind.OCTAHEDRON, SolidKind.CUBE])
def test_midpoint_classes_closed_form(kind):
    # the octahedron's 6-crossing class and the cube's 4-crossing and
    # 6-crossing orbit-4 classes cross every edge at its midpoint, and have
    # closed-form lengths (util.midpoint_class_length): checked at 60
    # angles across the open interval, to 1e-12
    lo, hi = ADMISSIBLE[kind]
    for k in range(60):
        spec = build_solid(kind, lo + (hi - lo) * (k + 0.5) / 60)
        checked = []
        for c in enumerate_classes(spec, 8):
            want = midpoint_class_length(spec, c.tag)
            if want is not None:
                assert abs(c.path.total_length - want) < 1e-12, (spec.alpha, c.tag)
                assert all(abs(x.t - 0.5) < 1e-12 for x in c.path.crossings), (spec.alpha, c.tag)
                checked.append((c.tag, c.orbit_size, len(c.path.crossings)))
        assert sorted(checked) == ([("type1", 4, 6)] if kind is SolidKind.OCTAHEDRON
                                   else [("type1", 3, 4), ("type2", 4, 6)])


# ---------------------------------------------------------------------------
# equivariance and per-sequence determinism


def _transform_crossings(spec, path, op, shift):
    """Expected crossing list of solve(op . shifted seq)."""
    m = len(path.crossings)
    out = []
    for i in range(m):
        c = path.crossings[(i + shift) % m]
        a, b = spec.edges[c.edge]
        ia, ib = op.perm[a], op.perm[b]
        t = c.t if ia < ib else 1.0 - c.t
        out.append((op.edge_perm[c.edge], t))
    return out


@pytest.mark.parametrize("kind,alpha,names", [
    (SolidKind.OCTAHEDRON, 0.4 * PI, OCTA_TYPE1),
    (SolidKind.OCTAHEDRON, 0.45 * PI, OCTA_TYPE2),
    (SolidKind.CUBE, 0.6 * PI, CUBE_TYPE3),
])
def test_solve_equivariance(kind, alpha, names):
    spec = build_solid(kind, alpha)
    seq = seq_of(spec, names)
    path = solve_sequence(spec, seq)
    rng = random.Random(83)
    ops = symmetry_group(spec)
    m = len(seq.edges)
    for _ in range(40):
        op = ops[rng.randrange(len(ops))]
        shift = rng.randrange(m)
        word = seq.edges
        shifted = word[shift:] + word[:shift]
        image_word = tuple(op.edge_perm[e] for e in shifted)
        image_path = solve_sequence(
            spec, CrossingSequence.from_edges(spec, image_word)
        )
        assert image_path is not None
        assert image_path.total_length == pytest.approx(
            path.total_length, abs=1e-9
        )
        expected = _transform_crossings(spec, path, op, shift)
        for c, (edge, t) in zip(image_path.crossings, expected):
            assert c.edge == edge
            assert c.t == pytest.approx(t, abs=1e-9)


def test_solve_reversal_same_geodesic():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.45 * PI)
    seq = seq_of(spec, OCTA_TYPE2)
    path = solve_sequence(spec, seq)
    rev = solve_sequence(
        spec, CrossingSequence.from_edges(spec, seq.edges[::-1])
    )
    assert rev is not None
    m = len(seq.edges)
    assert rev.total_length == pytest.approx(path.total_length, abs=1e-9)
    for i in range(m):
        c_orig = path.crossings[(m - 1 - i) % m]
        c_rev = rev.crossings[i]
        assert c_rev.edge == c_orig.edge
        assert c_rev.t == pytest.approx(c_orig.t, abs=1e-9)
        assert c_rev.incidence == pytest.approx(PI - c_orig.incidence, abs=1e-9)


# ---------------------------------------------------------------------------
# classification


def test_classify_tetra_types():
    spec = build_solid(SolidKind.TETRAHEDRON, 0.35 * PI)
    for p, q in ((0, 1), (1, 1), (1, 2), (1, 3), (2, 3)):
        path = solve_tetra_type(spec, p, q)
        assert path is not None
        assert classify_tetra_type(spec, path) == (p, q)
        assert len(path.crossings) == 4 * (p + q)
        # one symmetry class per type; three geodesics when the crossing
        # profile (p, q, p+q) has a repeated entry (mirror-symmetric types),
        # six otherwise (three pair assignments x two chiralities)
        expected_orbit = 3 if (p == 0 or p == q) else 6
        assert orbit_size(spec, path.seq) == expected_orbit


def test_solve_bitwise_deterministic():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.45 * PI)
    seq = seq_of(spec, OCTA_TYPE2)
    a = solve_sequence(spec, seq)
    b = solve_sequence(spec, seq)
    assert a.crossings == b.crossings
    assert a.pole == b.pole
    assert a.total_length == b.total_length


def test_classify_rejects_vertex_loop_pattern():
    spec = build_solid(SolidKind.TETRAHEDRON, 0.6 * PI)
    word = (spec.edge_id(0, 1), spec.edge_id(0, 2), spec.edge_id(0, 3))
    path = solve_sequence(spec, CrossingSequence.from_edges(spec, word))
    assert path is not None
    with pytest.raises(ClassificationError):
        classify_tetra_type(spec, path)
    assert class_tag(spec, path) == "vertex-loop"


def test_typed_solves_classify_nothing(monkeypatch):
    # a typed walk fixes its type (test_tetra_type_sequence_structure checks
    # every type a count can list), so counts and typed solves classify no
    # path; the search's classes, whose types are not known in advance, are
    # still classified by class_tag
    calls = []
    classify = finder.classify_tetra_type

    def counted(spec, path):
        calls.append(path.seq.edges)
        return classify(spec, path)

    monkeypatch.setattr(finder, "classify_tetra_type", counted)
    for api in (0.336, 0.45):
        assert counts.count_tetra(api * PI).n >= 1
    spec = build_solid(SolidKind.TETRAHEDRON, 0.34 * PI)
    for p, q in ((0, 1), (1, 2), (3, 4)):
        assert solve_tetra_type(spec, p, q) is not None
    assert calls == []
    classes = enumerate_classes(spec, 12)
    calls.clear()
    assert [class_tag(spec, c.path) for c in classes] == [c.tag for c in classes]
    assert calls == [c.path.seq.edges for c in classes]


def test_tetra_type_sequence_structure():
    # every type a count can list: (0, 1) and the pairs below the largest
    # threshold _coprime_pairs_below admits.  A typed solve trusts its walk
    # to have its type, so no count classifies what it solves
    spec = build_solid(SolidKind.TETRAHEDRON, 0.4 * PI)
    start_face = spec.edge_faces[0][0]
    types = [(0, 1)] + counts._coprime_pairs_below(
        counts.MAX_CANDIDATES * math.sqrt(3.0) * PI)
    assert len(types) == 2002 and max(q for _, q in types) == 103
    traced = 0
    for i, walker in finder._type_walks(spec, types):
        dev = snapshot(walker)
        p, q = types[i]
        seq = dev.seq
        assert len(seq.edges) == 4 * (p + q)
        assert seq.validate(spec) == dev.faces
        # pair counts (p, q, p+q), each edge of a pair crossed equally
        per_edge = [0] * 6
        for e in seq.edges:
            per_edge[e] += 1
        pairs = sorted(
            (per_edge[spec.edge_index[a]], per_edge[spec.edge_index[b]])
            for a, b in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
        )
        assert [a for a, b in pairs] == [b for a, b in pairs]
        assert [a for a, _ in pairs] == sorted((p, q, p + q))
        # the walk starts on the search's start crossing and closes on it:
        # its last crossing enters the start face, which the first leaves
        # over edge 0
        assert (dev.faces[0], seq.edges[0]) == (start_face, 0)
        last = dev.faces[-1]
        assert spec.gluing[(last, spec.face_edge_local[(last, seq.edges[-1])])][0] \
            == start_face
        # the class, against a line traced across the lattice (slow, so short
        # types only)
        if q <= 30:
            assert tetra_type_sequence(spec, p, q).edges == seq.edges
            assert finder.canonical_word(spec, seq.edges) == finder.canonical_word(
                spec, reference_tetra_type_sequence(spec, p, q).edges), (p, q)
            traced += 1
    assert traced == 279


# coprime types with q <= 14, and the run (1, 1), ..., (1, 14), whose turn
# words share long prefixes with each other and with (0, 1)'s
_TYPES = [(p, q) for q in range(1, 15) for p in range(q + 1) if math.gcd(p, q) == 1]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from((0.3342, 0.34, 0.36)),
       st.lists(st.sampled_from(_TYPES), min_size=1, max_size=10),
       st.integers(0, 14), st.randoms(use_true_random=False))
def test_shared_prefix_walk_matches_one_type_walks(alpha, types, run, rnd):
    # count_tetra walks its types along one shared-prefix walk; each
    # development must be the one-type walk's float for float, each path
    # solve_tetra_type's, and the verdicts must come back in the types' order
    types = types + [(1, q) for q in range(1, run + 1)]
    rnd.shuffle(types)
    spec = build_solid(SolidKind.TETRAHEDRON, alpha * PI)
    batched = [(i, snapshot(walker)) for i, walker in finder._type_walks(spec, types)]
    assert sorted(i for i, _ in batched) == list(range(len(types)))
    for i, dev in batched:
        p, q = types[i]
        ((_, alone),) = finder._type_walks(spec, [(p, q)])
        assert repr(dev) == repr(snapshot(alone)), (p, q)
        path = finder._solve_development(spec, dev, finder.SOLVE_TOL, finder.SOLVE_TOL)
        assert repr(path) == repr(solve_tetra_type(spec, p, q)), (p, q)
    found = finder._types_found(spec, types, finder.SOLVE_TOL, finder.SOLVE_TOL)
    assert found == [solve_tetra_type(spec, p, q) is not None for p, q in types]


@pytest.mark.parametrize("call", [
    lambda spec: tetra_type_sequence(spec, True, 2),
    lambda spec: solve_tetra_type(spec, 0, True),
], ids=["tetra_type_sequence", "solve_tetra_type"])
def test_typed_walk_rejects_bool_type(call):
    # True == 1 would walk type (1, 2) or (0, 1) under a name that is no count
    with pytest.raises(DomainError, match="not a valid coprime type"):
        call(build_solid(SolidKind.TETRAHEDRON, 0.4 * PI))


@pytest.mark.parametrize("p,q", [(2, 1), (2, 4), (0, 0), (True, 1), (1.0, 2)])
@pytest.mark.parametrize("call", [
    lambda spec, p, q: solve_tetra_type(spec, p, q),
    lambda spec, p, q: tetra_type_sequence(spec, p, q),
    lambda spec, p, q: counts.necessary_excluded(p, q, spec.alpha),
    lambda spec, p, q: counts.sufficient_exists(p, q, spec.alpha),
], ids=["solve_tetra_type", "tetra_type_sequence", "necessary_excluded",
        "sufficient_exists"])
def test_type_check_is_shared(call, p, q):
    # the solver, the walk and both existence windows refuse a type with one
    # check and one message
    with pytest.raises(DomainError) as err:
        call(build_solid(SolidKind.TETRAHEDRON, 0.4 * PI), p, q)
    assert str(err.value) == (f"({p!r}, {q!r}) is not a valid coprime type: p and q must "
                              "be integers with 0 <= p <= q and gcd(p, q) = 1")


# ---------------------------------------------------------------------------
# vertex loops: present on the tetrahedron only, iff the edge exceeds pi/2


def test_vertex_loop_threshold():
    for alpha, expected in ((0.45 * PI, 0), (0.55 * PI, 1), (0.65 * PI, 1)):
        spec = build_solid(SolidKind.TETRAHEDRON, alpha)
        tags = [c.tag for c in enumerate_classes(spec, 6)]
        assert tags.count("vertex-loop") == expected


def test_no_vertex_loop_on_octa_or_cube():
    for kind, alpha in ((SolidKind.OCTAHEDRON, 0.45 * PI), (SolidKind.CUBE, 0.62 * PI)):
        spec = build_solid(kind, alpha)
        for cls in enumerate_classes(spec, 8):
            assert cls.tag in ("type1", "type2", "type3")


def test_vertex_loop_geometry():
    # crossings sit exactly pi/2 along each incident edge, at right angles,
    # and the length is the cone angle
    alpha = 0.6 * PI
    spec = build_solid(SolidKind.TETRAHEDRON, alpha)
    word = (spec.edge_id(0, 1), spec.edge_id(0, 2), spec.edge_id(0, 3))
    path = solve_sequence(spec, CrossingSequence.from_edges(spec, word))
    a_t = sphtrig.tetra_edge(alpha)
    assert path is not None
    assert path.total_length == pytest.approx(3 * alpha, abs=1e-12)
    for c in path.crossings:
        assert c.t == pytest.approx((PI / 2) / a_t, abs=1e-12)
        assert c.incidence == pytest.approx(PI / 2, abs=1e-12)
    assert orbit_size(spec, path.seq) == 4


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_octa():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.4 * PI)
    classes = enumerate_classes(spec, 12)
    assert sorted(len(c.path.seq.edges) for c in classes) == [6, 8]
    assert sorted(c.tag for c in classes) == ["type1", "type2"]
    assert sorted(c.orbit_size for c in classes) == [4, 6]


def test_enumerate_cube():
    spec = build_solid(SolidKind.CUBE, 0.6 * PI)
    classes = enumerate_classes(spec, 12)
    assert sorted(len(c.path.seq.edges) for c in classes) == [4, 6, 6]
    assert sorted(c.orbit_size for c in classes) == [3, 4, 12]


def test_enumerate_tetra_above_half_pi():
    # the (0,1) band plus the vertex loop
    spec = build_solid(SolidKind.TETRAHEDRON, 0.6 * PI)
    classes = enumerate_classes(spec, 12)
    assert sorted(c.tag for c in classes) == ["0,1", "vertex-loop"]
    typed = [c for c in classes if c.tag == "0,1"]
    assert len(typed) == 1 and typed[0].orbit_size == 3


def test_enumerate_deterministic():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.45 * PI)
    a = enumerate_classes(spec, 10)
    b = enumerate_classes(spec, 10)
    assert [c.path.seq.edges for c in a] == [c.path.seq.edges for c in b]
    words = [c.path.seq.edges for c in a]
    assert words == sorted(words)


@pytest.mark.parametrize("kind,alphas", [
    # (alpha / pi, crossing bound, closures solved)
    (SolidKind.TETRAHEDRON, ((0.36, 16, 12), (0.5, 16, 2), (0.6, 16, 4))),
    (SolidKind.OCTAHEDRON, ((0.36, 16, 4), (0.45, 16, 4))),
    (SolidKind.CUBE, ((0.54, 16, 9), (0.64, 16, 6))),
    (SolidKind.TETRAHEDRON, ((0.337, None, 196), (0.3343, None, 1273))),
    (SolidKind.OCTAHEDRON, ((0.33433333333333333, None, 370),)),
    (SolidKind.CUBE, ((0.505, None, 80),)),
])
def test_proper_powers_never_simple(kind, alphas, monkeypatch):
    # a closed geodesic traversed twice retraces itself, so the search may
    # skip every word that is a proper power without solving it.  The
    # closures it solves are pinned like the node counts
    closures = []
    solve = finder._closure

    def recorded(spec, dev, tol_closure, tol_vertex):
        closures.append(snapshot(dev).seq.edges)
        return solve(spec, dev, tol_closure, tol_vertex)

    monkeypatch.setattr(finder, "_closure", recorded)
    for k, depth, calls in alphas:
        spec = build_solid(kind, k * PI)
        classes = enumerate_classes(spec, depth)
        assert classes and len(closures) == calls, k
        for w in closures:
            assert all(w[d:] + w[:d] != w for d in range(1, len(w)))
        for cls in classes:
            doubled = cls.path.seq.edges * 2
            assert solve_sequence(spec, CrossingSequence.from_edges(spec, doubled)) is None
        closures.clear()


def test_search_lays_out_closures_as_develop(monkeypatch):
    # the search builds each closure's development crossing by crossing and
    # solves it without developing again, so its faces, placements and arcs
    # must be develop's, float for float
    devs = []
    solve = finder._closure

    def recorded(spec, dev, tol_closure, tol_vertex):
        devs.append(snapshot(dev))
        return solve(spec, dev, tol_closure, tol_vertex)

    monkeypatch.setattr(finder, "_closure", recorded)
    for kind in SolidKind:
        lo, hi = ADMISSIBLE[kind]
        for k in (1, 2, 3):
            spec = build_solid(kind, lo + (hi - lo) * k / 4)
            classes = enumerate_classes(spec, 16)
            assert len(devs) > len(classes)
            for dev in devs:
                seq = CrossingSequence.from_edges(spec, dev.seq.edges)
                assert dev == snapshot(develop(spec, seq)), dev.seq.edges
            devs.clear()


@pytest.mark.parametrize("kind", list(SolidKind))
def test_solving_leaves_the_layout(kind):
    # develop returns its walker, and a solve on it adds only each arc's
    # length, sine and cosine: the crossing stack stays the one develop laid
    # out, and each arc's length is angle_between's, float for float
    lo, hi = ADMISSIBLE[kind]
    solved = 0
    for k in (1, 2, 3):
        spec = build_solid(kind, lo + (hi - lo) * k / 4)
        for cls in enumerate_classes(spec, 12):
            walker = develop(spec, cls.path.seq)
            laid = snapshot(walker)
            path = finder._solve_development(spec, walker, finder.SOLVE_TOL, finder.SOLVE_TOL)
            assert repr(path) == repr(cls.path)
            assert snapshot(walker) == laid
            assert len(walker.trig) == len(walker.arcs)
            for (length, sin_len, cos_len), arc in zip(walker.trig, walker.arcs):
                assert length == sphtrig.angle_between(*arc)
                assert (sin_len, cos_len) == (math.sin(length), math.cos(length))
            solved += 1
    assert solved >= 3


def test_side_test_precedes_crossings(monkeypatch):
    # a pole on the wrong side of only the last arc is rejected before any
    # crossing point is computed
    spec = build_solid(SolidKind.OCTAHEDRON, 0.42 * PI)
    cls = enumerate_classes(spec, 8)[0]
    dev = snapshot(develop(spec, cls.path.seq))
    pole, theta = cls.path.pole, cls.path.total_length
    # the crossings need the pole's equator frame, built once per pole
    computed = []
    frame = finder.pole_frame

    def counted(pole):
        computed.append(pole)
        return frame(pole)

    monkeypatch.setattr(finder, "pole_frame", counted)
    assert finder._closure_for_pole(spec, dev, pole, theta, 1e-9, 1e-9) is not None
    assert computed == [pole]
    computed.clear()
    p, q = dev.arcs[-1]
    flipped = dataclasses.replace(dev, arcs=dev.arcs[:-1] + ((q, p),))
    assert finder._closure_for_pole(spec, flipped, pole, theta, 1e-9, 1e-9) is None
    assert computed == []


def test_incidence_sides_developed_independently():
    # the entered face copy develops the crossed edge from its own placement;
    # a copy that is off by 1e-6 rad no longer shares the edge, which the
    # shared-edge check flags, and the reference, which measures the
    # incidence on both copies, sees the two angles disagree and refuses
    spec = build_solid(SolidKind.CUBE, 0.59 * PI)
    cls = enumerate_classes(spec, 8)[0]
    dev = snapshot(develop(spec, cls.path.seq))
    pole, theta = cls.path.pole, cls.path.total_length
    assert edge_copies_coincide(spec, dev, 1e-14)
    assert path_for_pole(spec, dev, pole, theta, 1e-9, 1e-9) is not None
    assert reference_path_for_pole(spec, dev, pole, theta, 1e-9, 1e-9) is not None
    for k in range(1, len(dev.arcs)):
        tilt = sphtrig.rot_about(normalize(dev.arcs[k - 1][0]), 1e-6)
        placements = list(dev.placements)
        placements[k] = sphtrig.mat_compose(tilt, placements[k])
        bent = dataclasses.replace(dev, placements=tuple(placements))
        assert not edge_copies_coincide(spec, bent, 1e-14)
        assert reference_path_for_pole(spec, bent, pole, theta, 1e-9, 1e-9) is None


def test_incidence_measured_once(monkeypatch):
    # each incidence is measured on the edge as the exited copy develops it:
    # one _edge_angle call per crossing, and no placement but the closing
    # rotation is read
    spec = build_solid(SolidKind.CUBE, 0.59 * PI)
    cls = enumerate_classes(spec, 8)[0]
    dev = snapshot(develop(spec, cls.path.seq))
    args = (cls.path.pole, cls.path.total_length, 1e-9, 1e-9)
    path = path_for_pole(spec, dev, *args)
    calls = []
    edge_angle = finder._edge_angle

    def counted(*a):
        calls.append(None)
        return edge_angle(*a)

    monkeypatch.setattr(finder, "_edge_angle", counted)
    blind = dataclasses.replace(dev, placements=(None,) * len(dev.arcs) + (dev.placements[-1],))
    assert repr(path_for_pole(spec, blind, *args)) == repr(path) != "None"
    assert len(calls) == len(dev.arcs)


def test_count_builds_no_path(monkeypatch):
    # a count reads only each closure's verdict, so it measures no incidence
    # and builds no crossing; solve_tetra_type keeps its path, so it does
    # both once per crossing
    measured, built = [], []
    edge_angle, crossing = finder._edge_angle, finder.Crossing

    def counted_angle(*a):
        measured.append(None)
        return edge_angle(*a)

    def counted_crossing(*a):
        built.append(None)
        return crossing(*a)

    monkeypatch.setattr(finder, "_edge_angle", counted_angle)
    monkeypatch.setattr(finder, "Crossing", counted_crossing)
    report = counts.count_tetra(0.336 * PI)
    assert report.n > 20
    assert measured == built == []
    p, q = max(report.realizable, key=sum)
    path = solve_tetra_type(build_solid(SolidKind.TETRAHEDRON, 0.336 * PI), p, q)
    assert len(measured) == len(built) == len(path.crossings) == 4 * (p + q)


def test_path_for_pole_matches_reference(monkeypatch):
    # the two-stage solver must give the arc-by-arc reference's verdict on
    # every pole that count_tetra and enumerate_classes try, and where one
    # closes, the path built from its closure must have the reference's floats
    calls = []
    solve = finder._closure_for_pole

    def recorded(spec, dev, *args):
        closure = solve(spec, dev, *args)
        dev = snapshot(dev)
        calls.append(((spec, dev) + args,
                      None if closure is None else finder._build_path(spec, dev, closure)))
        return closure

    monkeypatch.setattr(finder, "_closure_for_pole", recorded)
    for k in range(13):
        counts.count_tetra((0.334 + 0.0005 * k) * PI)
    for k in range(12):
        counts.count_tetra((1 / 3 + (k + 0.5) / 36) * PI)
    for kind, alphas in [
        (SolidKind.TETRAHEDRON, (0.36, 0.48, 0.61)),
        (SolidKind.OCTAHEDRON, (0.36, 0.42, 0.47)),
        (SolidKind.CUBE, (0.53, 0.59, 0.65)),
    ]:
        for alpha in alphas:
            enumerate_classes(build_solid(kind, alpha * PI), 16)
    outcomes = set()
    for args, path in calls:
        assert repr(path) == repr(reference_path_for_pole(*args))
        outcomes.add(path is None)
    assert outcomes == {True, False}


def test_solve_tries_one_pole(monkeypatch):
    # the pole on the wrong side of arc 0 fails the side test there, so the
    # solver tries only the other one, and finds what trying both finds
    solved = []
    solve, closure_for_pole = finder._closure, finder._closure_for_pole

    def recorded(spec, dev, tol_closure, tol_vertex):
        solved.append([spec, snapshot(dev), tol_closure, tol_vertex, 0])
        closure = solve(spec, dev, tol_closure, tol_vertex)
        kept = solved[-1][1]
        solved[-1].append(None if closure is None else finder._build_path(spec, kept, closure))
        return closure

    def counted(*args):
        solved[-1][4] += 1
        return closure_for_pole(*args)

    monkeypatch.setattr(finder, "_closure", recorded)
    monkeypatch.setattr(finder, "_closure_for_pole", counted)
    for kind, alphas in [
        (SolidKind.TETRAHEDRON, (0.36, 0.5, 0.6)),
        (SolidKind.OCTAHEDRON, (0.36, 0.42, 0.48)),
        (SolidKind.CUBE, (0.54, 0.6, 0.65)),
    ]:
        for alpha in alphas:
            enumerate_classes(build_solid(kind, alpha * PI), 16)
    for alpha in (0.336, 0.45):
        counts.count_tetra(alpha * PI)
    monkeypatch.undo()
    outcomes = set()
    for spec, dev, tol_closure, tol_vertex, calls, path in solved:
        assert calls <= 1, dev.seq.edges
        assert repr(path) == repr(two_pole_solve(spec, dev, tol_closure, tol_vertex))
        outcomes.add(path is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("kind,alphas", [
    (SolidKind.TETRAHEDRON, (0.44 * PI, 0.52 * PI, 0.61 * PI)),
    (SolidKind.OCTAHEDRON, (0.38 * PI, 0.42 * PI, 0.47 * PI)),
    (SolidKind.CUBE, (0.54 * PI, 0.59 * PI, 0.64 * PI)),
])
def test_pruning_equivalence_depth8(kind, alphas):
    for alpha in alphas:
        spec = build_solid(kind, alpha)
        pruned = enumerate_classes(spec, 8)
        assert [(c.path.seq.edges, c.tag) for c in pruned] == reference_classes(spec, 8)


def _golden_rows(path):
    """The rows of a golden file, and the same rows as enumerate_classes
    computes them now."""
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    got = []
    for solid, alpha, depth in dict.fromkeys(tuple(r.split()[:3]) for r in rows):
        spec = build_solid(SolidKind(solid), float(alpha))
        for c in enumerate_classes(spec, int(depth)):
            got.append(" ".join([
                solid, alpha, depth, ",".join(map(str, c.path.seq.edges)), c.tag,
                str(c.orbit_size), repr(c.path.total_length),
            ]))
    return rows, got


def test_enumerate_matches_golden_file():
    # data/enumerate_classes.txt pins every class found at depth 16 on 3
    # solids x 4 angles: word, tag, orbit and length floats; it was written
    # before mirror pruning moved to turns, and a rewrite of the search must
    # reproduce it
    rows, got = _golden_rows(ENUMERATE_CLASSES_TXT)
    assert got == rows


def test_enumerate_matches_deep_golden_file():
    # data/enumerate_deep_classes.txt pins the classes at depth 40 (tetra
    # 0.34pi and 0.45pi, octa 0.42pi, cube 0.52pi and 0.6pi), where the long
    # tetra words of types up to (4, 5) give the search's least-turn-word
    # cut the most to prune; its depth-40 rows were written by the search
    # that pruned only the mirror of the first turns.  The depth-100 rows
    # (tetra 0.337pi, 23 classes; cube 0.505pi, 3) were written by the
    # search that checked a closed word's least-ness by the cyclic minimum
    # now kept in tests/util.reference_orbit, before the closure became the
    # prefix test run on through the word.  The
    # depth-100 rows above pi/2 (tetra 0.52pi and 0.6pi, 2 classes each),
    # where the winding length bound cuts, were written by the search
    # before that bound, which walked their repeats to the depth
    rows, got = _golden_rows(ENUMERATE_DEEP_CLASSES_TXT)
    assert got == rows


def _smallest_accepted(kind):
    """The least alpha above the flat limit that build_solid accepts."""
    lo, _ = ADMISSIBLE[kind]
    refused, accepted = 1, 1 << 20  # ulps above lo
    while accepted - refused > 1:
        mid = (refused + accepted) // 2
        try:
            build_solid(kind, lo + mid * math.ulp(lo))
            accepted = mid
        except DomainError:
            refused = mid
    return lo + accepted * math.ulp(lo)


@pytest.mark.parametrize("kind,n_classes", [(SolidKind.OCTAHEDRON, 2), (SolidKind.CUBE, 3)])
def test_smallest_accepted_alpha_finds_every_class(kind, n_classes):
    # the edge-length floor keeps every class in reach: at the least alpha
    # the solid accepts, its edges ~1e-5 long, the search finds them all
    spec = build_solid(kind, _smallest_accepted(kind))
    assert spec.edge_length < 1.01 * MIN_EDGE_LENGTH
    assert len(enumerate_classes(spec, 20)) == n_classes


def _search_work(spec, depth, monkeypatch):
    """enumerate_classes(spec, depth) with its nodes (_narrow calls) and
    the crossings its walker lays out counted."""
    calls = []
    crossed = []
    narrow = finder._narrow
    cross = unfold.Walker.cross

    def counting(*args):
        calls.append(None)
        return narrow(*args)

    def crossing(walker, t):
        crossed.append(None)
        cross(walker, t)

    monkeypatch.setattr(finder, "_narrow", counting)
    monkeypatch.setattr(unfold.Walker, "cross", crossing)
    classes = enumerate_classes(spec, depth)
    return len(calls), len(crossed), classes


@pytest.mark.parametrize("kind,alpha,nodes", [
    (SolidKind.TETRAHEDRON, 0.45 * PI, 44),
    (SolidKind.OCTAHEDRON, 0.42 * PI, 62),
    (SolidKind.CUBE, 0.52 * PI, 444),
    (SolidKind.CUBE, 0.6 * PI, 91),
    (SolidKind.TETRAHEDRON, 0.52 * PI, 15),
    (SolidKind.TETRAHEDRON, 0.6 * PI, 15),
    (SolidKind.CUBE, 0.5 * PI + (PI / 6) * (3.5 / 8), 130),
])
def test_search_node_counts(kind, alpha, nodes, monkeypatch):
    # the DFS makes one _narrow call per node; the counts at depth 20 pin
    # how much the feasibility, least-turn-word and length-bound pruning
    # cut.  They rest on the same float determinism as
    # data/enumerate_classes.txt: a change to the pruning updates them.
    # The walker lays out one crossing per node, and only solve_class lays
    # out a closure again, so a search that re-walks a closure fails here.
    calls, crossed, classes = _search_work(build_solid(kind, alpha), 20, monkeypatch)
    assert calls == nodes
    assert crossed == nodes + sum(len(c.path.seq) for c in classes)


def test_exhaustive_search_node_count(monkeypatch):
    # with no crossing bound the length cap alone ends the search; pinned
    # like the depth-20 counts, with each case's classes and the crossings
    # of its deepest class
    for kind, k, nodes, found, deepest in ((SolidKind.TETRAHEDRON, 0.337, 2207, 23, 48),
                                           (SolidKind.CUBE, 0.505, 4006, 3, 6)):
        calls, crossed, classes = _search_work(build_solid(kind, k * PI), None, monkeypatch)
        assert (calls, len(classes)) == (nodes, found), kind
        assert max(len(c.path.seq) for c in classes) == deepest
        assert crossed == calls + sum(len(c.path.seq) for c in classes)


def test_kept_regions_hold_a_strict_pole(monkeypatch):
    # the search cuts a node only when its pole polygon keeps fewer than 3
    # vertices, a necessary condition; every polygon it keeps here also
    # holds a pole that meets every arc on the walker strictly, its
    # normalized vertex centroid
    walkers = []
    kept = []
    narrow = finder._narrow

    class Recorded(unfold.Walker):
        def __init__(self, *args):
            super().__init__(*args)
            walkers.append(self)

    def checked(poly, arc):
        poly = narrow(poly, arc)
        if poly is not None:
            assert strict_pole(poly, walkers[-1].arcs), len(walkers[-1].arcs)
            kept.append(None)
        return poly

    monkeypatch.setattr(finder, "Walker", Recorded)
    monkeypatch.setattr(finder, "_narrow", checked)
    cases = [(kind, lo + (hi - lo) * (k + 0.5) / 4, 16)
             for kind, (lo, hi) in ADMISSIBLE.items() for k in range(4)]
    cases += [(SolidKind.CUBE, 0.5 * PI + (PI / 6) * (3.5 / 8), 20),
              (SolidKind.TETRAHEDRON, 0.337 * PI, None), (SolidKind.CUBE, 0.505 * PI, None)]
    for kind, alpha, depth in cases:
        enumerate_classes(build_solid(kind, alpha), depth)
    assert len(kept) > 4000


def _edge_angles(kind):
    """Five angles of the solid's admissible interval: 1e-3*pi from each
    end and three between."""
    lo, hi = ADMISSIBLE[kind]
    return [lo + 1e-3 * PI] + [lo + (hi - lo) * k / 4 for k in (1, 2, 3)] + [hi - 1e-3 * PI]


@pytest.mark.parametrize("kind", list(SolidKind))
def test_exhaustive_search_ends(kind):
    # a search with no crossing bound ends, and finds the depth-60 search's
    # classes plus only longer ones; on the tetrahedron its classes are
    # count_tetra's types, plus the vertex loop exactly above pi/2
    for alpha in _edge_angles(kind):
        spec = build_solid(kind, alpha)
        every = enumerate_classes(spec, None)
        words = [c.path.seq.edges for c in every]
        assert [w for w in words if len(w) <= 60] == [
            c.path.seq.edges for c in enumerate_classes(spec, 60)]
        if kind is SolidKind.TETRAHEDRON:
            want = {f"{p},{q}" for p, q in counts.count_tetra(alpha).realizable}
            if alpha > PI / 2:
                want.add("vertex-loop")
            assert sorted(c.tag for c in every) == sorted(want), alpha
        else:
            assert len(every) == {SolidKind.OCTAHEDRON: 2, SolidKind.CUBE: 3}[kind]


@pytest.mark.parametrize("kind", list(SolidKind))
def test_window_table_matches_distance(kind):
    # each entry of the window table is the distance between the developed
    # arcs two crossings apart, less its 1e-9 slack: never above the
    # oracle's, and within 2e-9 of it.  It has one entry per turn pair
    lo, hi = ADMISSIBLE[kind]
    for k in range(120):
        spec = build_solid(kind, lo + (hi - lo) * (k + 0.5) / 120)
        table = finder._window_table(spec)
        n = spec.face_size
        assert set(table) == {bytes((s, t)) for s in range(1, n) for t in range(1, n)}
        for s in range(1, n):
            for t in range(1, n):
                oracle = window_distance(spec, s, t)
                assert oracle - 2e-9 <= table[bytes((s, t))] <= oracle, (spec.alpha, s, t)


def _window_sums_hold(spec, path):
    """Whether each two consecutive segments of a solved path sum to at
    least the window table's entry for the turns between them."""
    table = finder._window_table(spec)
    turns = cyclic_turn_word(spec, path.seq.edges)
    seg = path.arc_lengths
    m = len(turns)
    # segment i runs from crossing i to i + 1, in the face whose exit turn is turns[i]
    return all(seg[i] + seg[(i + 1) % m] >= table[bytes((turns[i], turns[(i + 1) % m]))]
               for i in range(m))


def test_window_bound_below_geodesic_pieces():
    # every window of a real geodesic, the search's classes at depth 20
    # on every solid and every typed path a count finds, is at least as
    # long as the window table says
    checked = 0
    for kind in SolidKind:
        for alpha in _edge_angles(kind)[1:]:
            spec = build_solid(kind, alpha)
            for c in enumerate_classes(spec, 20):
                assert _window_sums_hold(spec, c.path), (kind, alpha, c.tag)
                checked += 1
    spec = build_solid(SolidKind.TETRAHEDRON, 0.336 * PI)
    for p, q in counts.count_tetra(0.336 * PI).realizable:
        assert _window_sums_hold(spec, solve_tetra_type(spec, p, q)), (p, q)
        checked += 1
    assert checked >= 60


@pytest.mark.parametrize("alpha,crossed,closures,decided,closed", [
    (0.336 * PI, 705, 33, 1240, 33),
    (0.34 * PI, 191, 14, 324, 14),
    (0.45 * PI, 9, 2, 12, 2),
])
def test_count_work_counts(alpha, crossed, closures, decided, closed, monkeypatch):
    # count_tetra's work: the crossings its typed walks lay out, the
    # closures it decides and their crossings.  Pinned like the search's
    # node counts, so a faster count is cheaper per unit and not less work
    calls = []
    decisions = []
    cross = unfold.Walker.cross
    closure = finder._closure

    def crossing(walker, t):
        calls.append(None)
        cross(walker, t)

    def deciding(spec, dev, *tols):
        result = closure(spec, dev, *tols)
        decisions.append((len(dev.arcs), result is not None))
        return result

    monkeypatch.setattr(unfold.Walker, "cross", crossing)
    monkeypatch.setattr(finder, "_closure", deciding)
    counts.count_tetra(alpha)
    assert len(calls) == crossed
    assert len(decisions) == closures
    assert sum(m for m, _ in decisions) == decided
    assert sum(ok for _, ok in decisions) == closed


def test_each_layout_is_one_walker(monkeypatch):
    # every solve reads the walker that laid its word out, and nothing
    # copies it: a count walks all its types on one walker, a solve
    # develops its sequence once, and the search walks every node on one
    # walker and develops each class's canonical word once (solve_class)
    built = []
    init = unfold.Walker.__init__

    def counted(walker, *args):
        built.append(None)
        init(walker, *args)

    monkeypatch.setattr(unfold.Walker, "__init__", counted)
    counts.count_tetra(0.336 * PI)
    assert len(built) == 1
    built.clear()
    spec = build_solid(SolidKind.OCTAHEDRON, 0.42 * PI)
    assert solve_sequence(spec, CrossingSequence.from_edges(spec, _OCTA_WORD)) is not None
    assert len(built) == 1
    for kind, alpha, found in [(SolidKind.OCTAHEDRON, 0.42 * PI, 2),
                               (SolidKind.CUBE, 0.52 * PI, 3),
                               (SolidKind.TETRAHEDRON, 0.337 * PI, 4)]:
        built.clear()
        assert len(enumerate_classes(build_solid(kind, alpha), 16)) == found
        assert len(built) == 1 + found, kind


def test_closure_crossings_match_helper(monkeypatch):
    # the closure stage writes pole_edge_crossing's float operations out
    # in its loop; every crossing it returns has the helper's floats
    checked = []
    for_pole = finder._closure_for_pole

    def checking(spec, dev, pole, *args):
        closure = for_pole(spec, dev, pole, *args)
        if closure is not None:
            hits = [sphtrig.pole_edge_crossing(pole, a, b) for a, b in dev.arcs]
            assert repr(tuple(closure[1])) == repr(tuple(tuple(h) for h in hits))
            checked.append(None)
        return closure

    monkeypatch.setattr(finder, "_closure_for_pole", checking)
    for alpha in (0.336 * PI, 0.45 * PI):
        counts.count_tetra(alpha)
    for kind, (lo, hi) in ADMISSIBLE.items():
        enumerate_classes(build_solid(kind, (lo + hi) / 2), 16)
    assert len(checked) == 47  # 35 closures in the counts, 12 in the searches


def _turn_words(n):
    """Turn words on n-gons: any word, and the proper powers u^k,
    palindromes and one-turn words whose images tie longest."""
    turn = st.integers(1, n - 1)
    return st.one_of(
        st.lists(turn, min_size=1, max_size=24),
        st.tuples(st.lists(turn, min_size=1, max_size=8), st.integers(2, 4))
        .map(lambda uk: uk[0] * uk[1]),
        st.tuples(st.lists(turn, min_size=1, max_size=12), st.booleans())
        .map(lambda ub: ub[0] + ub[0][::-1][ub[1]:]),
        st.tuples(turn, st.integers(1, 24)).map(lambda tk: [tk[0]] * tk[1]),
    )


def _closes_least(word, tied, n):
    """The search's closure call on a word of m turns whose first m - 1
    left `tied`: the prefix test run on through a second copy of them."""
    m = len(word)
    return finder._extend_least(bytes(word + word[:m - 1]), m - 1, tied, n) is not None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from((3, 4)).flatmap(lambda n: st.tuples(st.just(n), _turn_words(n))))
def test_search_walks_least_turn_word_only(case):
    # the search feeds each turn of a walk to finder._extend_least and, at
    # closure, runs the same test on through the word's first m - 1 turns;
    # the oracles in util.py read every image of the word by brute force
    n, word = case
    least = least_turn_image(word, n)
    for image in set(turn_images(word, n)):
        tied = finder._UNTIED
        cut_at = None
        accepted = False  # unless the walk reaches the closure and passes
        for k in range(len(image)):
            if k == len(image) - 1:
                accepted = _closes_least(image, tied, n)
            tied = finder._extend_least(bytes(image[:k + 1]), k, tied, n)
            if tied is None:
                cut_at = k
                break
        # the incremental test cuts exactly where the first prefix has a
        # strictly smaller image at a position it fixes
        assert cut_at == next((k for k in range(len(image))
                               if prefix_has_smaller_image(image[:k + 1], n)), None)
        if image == least:
            assert cut_at is None  # every prefix of the least image passes
        # the least image is accepted at closure and every other image is
        # cut at a proper prefix or at closure
        assert accepted == (image == least)


def test_closure_decision_exhaustive():
    # every turn word of up to 10 turns on triangles and squares: the prefix
    # test on its first m - 1 turns and the closure call accept a word
    # exactly when it is the least of its 4m images
    for n in (3, 4):
        tied_after = {(): finder._UNTIED}  # prefix -> prefix test state, or None once cut
        for m in range(1, 11):
            grown = {}
            for word in itertools.product(range(1, n), repeat=m):
                tied = tied_after[word[:-1]]
                accepted = tied is not None and _closes_least(word, tied, n)
                assert accepted == (word == least_turn_image(word, n)), (n, word)
                grown[word] = None if tied is None else finder._extend_least(
                    bytes(word), m - 1, tied, n)
            tied_after = grown


def _least_ties(listed):
    """The least plain and the least mirrored shift of a list of tied
    forward images (s, mirrored), None where the list has none."""
    return (min((s for s, mirrored in listed if not mirrored), default=None),
            min((s for s, mirrored in listed if mirrored), default=None))


def test_two_shifts_match_tied_images():
    # on every prefix that the prefix test passes, up to 18 turns on
    # triangles and 11 on squares, finder._extend_least cuts each new turn
    # and each closing wrap exactly where the list version in util.py does,
    # and keeps the least plain and least mirrored shift of its list
    def check(turns, start, listed, tied, n):
        ref = reference_extend_least(turns, start, listed, n)
        got = finder._extend_least(turns, start, tied, n)
        assert got == (None if ref is None else _least_ties(ref)), (n, turns, start)
        return ref, got

    for n, depth in ((3, 18), (4, 11)):
        level = [(b"", [], finder._UNTIED)]  # every passing prefix of k turns
        for k in range(depth + 1):
            grown = []
            for turns, listed, tied in level:
                for t in range(1, n):
                    # the search's closure call on the closing turn t
                    check(turns + bytes((t,)) + turns, k, listed, tied, n)
                    if k < depth:
                        word = turns + bytes((t,))
                        ref, got = check(word, k, listed, tied, n)
                        if ref is not None:
                            grown.append((word, ref, got))
            level = grown


def _turn_bounds(spec, turns):
    """finder._length_bound folded over `turns` from the search's root, as
    the search calls it: best[k] after each turn, k = 1, ..., len(turns)."""
    window = finder._window_table(spec)
    best = (0.0,)
    for k in range(1, len(turns) + 1):
        best += (finder._length_bound(spec, window, bytes(turns[:k]), best),)
    return list(best[1:])


def _trailing_run(spec, turns):
    """The number of trailing turns equal to the last of `turns`, the run
    whose winding the bound credits, or 0 if that turn is straight."""
    if 2 * turns[-1] == spec.face_size:
        return 0
    return len(turns) - len(bytes(turns).rstrip(bytes(turns[-1:])))


@pytest.mark.parametrize("kind", list(SolidKind))
def test_length_bound_not_below_reference(kind):
    # on every turn word of up to 8 turns (the prefixes of those of 8), the
    # sum of piece bounds is at every prefix at least the earlier bound,
    # the largest of its turn fold, the parent's bound and the
    # grandparent's plus the window; on the cube a window adds onto a
    # straight turn's credit, so some words are strictly above it
    lo, hi = ADMISSIBLE[kind]
    above = 0
    for k in (1, 2, 3):
        spec = build_solid(kind, lo + (hi - lo) * k / 4)
        for word in itertools.product(range(1, spec.face_size), repeat=8):
            for got, ref in zip(_turn_bounds(spec, word), reference_length_bound(spec, word)):
                assert got >= ref, (spec.alpha, word)
                above += got > ref
    if kind is SolidKind.CUBE:
        assert above


@pytest.mark.parametrize("kind", list(SolidKind))
def test_winding_runs_share_one_vertex(kind):
    # the length bound credits a trailing run of `run` turns with the winding
    # of its run + 1 crossings about one vertex: on every turn word of up
    # to 8 turns, those crossings' edges share exactly one vertex, and a
    # straight turn ends every run
    lo, hi = ADMISSIBLE[kind]
    spec = build_solid(kind, (lo + hi) / 2)
    n = spec.face_size
    walker = unfold.Walker(spec, *finder._start_crossing(spec))
    for m in range(1, 9):
        for word in itertools.product(range(1, n), repeat=m):
            walker.cut(1)
            for t in word:
                walker.cross(t)
            for k in range(m):
                run = _trailing_run(spec, word[:k + 1])
                assert (run == 0) == (2 * word[k] == n), word
                if run:
                    shared = set.intersection(
                        *(set(spec.edges[e]) for e in walker.edges[k + 1 - run:k + 2]))
                    assert len(shared) == 1, (word, k, run)


def test_length_bound_below_class_lengths():
    # each prefix of a class's least turn word, the walk the search takes
    # to it, traces a piece of its geodesic, so the bound of every prefix,
    # the closing turn included, stays below the class's solved length
    credited = 0
    for kind, (lo, hi) in ADMISSIBLE.items():
        for k in range(8):
            spec = build_solid(kind, lo + (hi - lo) * (k + 0.5) / 8)
            for c in enumerate_classes(spec, 16):
                least = least_turn_image(cyclic_turn_word(spec, c.path.seq.edges),
                                         spec.face_size)
                walker = unfold.Walker(spec, *finder._start_crossing(spec))
                for t in least[:-1]:
                    walker.cross(t)
                assert finder.canonical_word(spec, tuple(walker.edges)) == c.path.seq.edges
                steps = _turn_bounds(spec, least)
                assert max(steps) < c.path.total_length, (kind, spec.alpha, c.tag)
                credited += any(_trailing_run(spec, least[:k + 1]) * spec.alpha > PI
                                for k in range(len(least)))
    assert credited == 4  # the vertex loops at the 4 angles above pi/2


# an upper bound on pi: a credit of k*pi is sound when k*PI_ABOVE <= r*alpha
PI_ABOVE = Fraction("3.14159265358979323847")


@pytest.mark.parametrize("kind", list(SolidKind))
def test_winding_credit_rounds_down(kind):
    # a run of r turns winds exactly r*alpha, with alpha the float the
    # solid is built on, and earns k*pi only if k*pi <= r*alpha holds
    # exactly.  Where r*alpha lies at k*pi within rounding (float alpha =
    # k*PI/r and its neighbours; 0.5*PI lies below the true pi/2), the
    # credit is (k - 1)*pi
    lo, hi = ADMISSIBLE[kind]
    checked = 0
    for r in range(2, 9):
        for k in range(1, r):
            if not lo < k * PI / r < hi:
                continue
            for alpha in (math.nextafter(k * PI / r, 0.0), k * PI / r,
                          math.nextafter(k * PI / r, 4.0)):
                spec = build_solid(kind, alpha)
                lb = _turn_bounds(spec, (1,) * r)[-1]
                credit = round(lb / PI)
                assert lb == PI * credit
                assert credit * PI_ABOVE <= r * Fraction(alpha), (alpha, r)
                assert credit == k - 1, (alpha, r)
                checked += 1
    assert checked >= 9


@pytest.mark.parametrize("kind", list(SolidKind))
def test_turn_gap_matches_sampled_distance(kind):
    # the search's length bound adds, for the exit turn t, the distance
    # between chart edges j and (j + t) % n: one edge length for the
    # straight turn on a square (2t == n) and 0 for every other turn.  The
    # oracle is the least distance between 33 points on each edge, ends
    # included.
    lo, hi = ADMISSIBLE[kind]
    for k in range(12):
        spec = build_solid(kind, lo + (hi - lo) * (k + 0.5) / 12)
        n = spec.face_size
        chart = spec.chart
        samples = [
            [sphtrig.slerp(chart[j], chart[(j + 1) % n], i / 32) for i in range(33)]
            for j in range(n)
        ]
        for j1 in range(n):
            for j2 in range(n):
                if j1 == j2:
                    continue
                t = (j2 - j1) % n
                gap = spec.edge_length if 2 * t == n else 0.0
                oracle = min(sphtrig.angle_between(p, q)
                             for p in samples[j1] for q in samples[j2])
                assert abs(oracle - gap) <= 1e-12, (spec.alpha, j1, j2)


def test_enumerate_stable_beyond_required_depth():
    # no further classes hide just past the 12-crossing horizon
    spec = build_solid(SolidKind.OCTAHEDRON, 0.42 * PI)
    assert sorted(len(c.path.seq.edges) for c in enumerate_classes(spec, 16)) == [6, 8]
    spec = build_solid(SolidKind.CUBE, 0.58 * PI)
    assert sorted(len(c.path.seq.edges) for c in enumerate_classes(spec, 14)) == [4, 6, 6]


def test_enumerate_rejects_shallow_depth():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.45 * PI)
    with pytest.raises(sphtrig.DomainError):
        enumerate_classes(spec, 2)


def test_enumerate_rejects_depth_beyond_search_cap():
    spec = build_solid(SolidKind.CUBE, 0.52 * PI)
    with pytest.raises(sphtrig.DomainError):
        enumerate_classes(spec, finder.MAX_SEARCH_DEPTH + 1)


@pytest.mark.parametrize("depth", [12.5, float("nan"), True],
                         ids=["fraction", "nan", "bool"])
def test_enumerate_rejects_non_integer_depth(depth):
    # no walk depth equals 12.5 and NaN passes both range checks, so either
    # bound would let the walk run without end; True is no count at all
    # count_tetra shares the check (`finder.check_depth`)
    spec = build_solid(SolidKind.TETRAHEDRON, 0.45 * PI)
    for call in (lambda: enumerate_classes(spec, depth),
                 lambda: counts.count_tetra(spec.alpha, depth)):
        with pytest.raises(sphtrig.DomainError, match="not an integer"):
            call()


@pytest.mark.parametrize("bad", [
    {"tol_vertex": math.nan}, {"tol_vertex": 0.7}, {"tol_vertex": 0.5},
    {"tol_vertex": 0.0}, {"tol_closure": -1.0}, {"tol_closure": math.nan},
    {"tol_closure": math.inf}, {"tol_closure": True},
], ids=["vertex-nan", "vertex-0.7", "vertex-0.5", "vertex-0", "closure-neg",
        "closure-nan", "closure-inf", "closure-true"])
def test_library_rejects_bad_tolerances(bad):
    # a NaN tol_vertex or one past 0.5 fails every crossing and a negative
    # tol_closure every chord, so the search would find nothing; a NaN
    # tol_closure would switch the chord and residual checks off, and True
    # would run as a tolerance of 1.0
    octa = build_solid(SolidKind.OCTAHEDRON, 0.4 * PI)
    tetra = build_solid(SolidKind.TETRAHEDRON, 0.45 * PI)
    cls = enumerate_classes(octa, 12)[0]
    word = cls.path.seq.edges
    calls = [
        lambda: enumerate_classes(octa, 12, **bad),
        lambda: solve_sequence(octa, cls.path.seq, **bad),
        lambda: finder.solve_class(octa, word, **bad),
        lambda: solve_tetra_type(tetra, 0, 1, **bad),
        lambda: counts.count_tetra(0.45 * PI, **bad),
        lambda: cli.render_svg(octa, cli.class_to_doc(cls), **bad),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="tol"):
            call()


def test_tight_closure_tolerance_is_a_domain_error():
    # at 1e-15 the search solves a word on its own development, but the
    # canonical image of that word, developed afresh, misses the tolerance
    # by rounding: a configuration error, not an internal one
    spec = build_solid(SolidKind.OCTAHEDRON, 1.2653637076958888)
    with pytest.raises(sphtrig.DomainError, match="tol_closure"):
        enumerate_classes(spec, 12, tol_closure=1e-15)
