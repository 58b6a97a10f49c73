import math

import pytest

from sphgeo import cli, solids, sphtrig
from sphgeo.solids import (
    ADMISSIBLE,
    SolidKind,
    build_solid,
    cone_angle,
    symmetry_group,
)
from sphgeo.sphtrig import PI, DomainError

COUNTS = {
    SolidKind.TETRAHEDRON: (4, 6, 4),
    SolidKind.OCTAHEDRON: (6, 12, 8),
    SolidKind.CUBE: (8, 12, 6),
}

MIDPOINTS = {
    SolidKind.TETRAHEDRON: 0.5 * PI,
    SolidKind.OCTAHEDRON: 0.45 * PI,
    SolidKind.CUBE: 0.6 * PI,
}


def _alphas(kind, steps=40):
    lo, hi = ADMISSIBLE[kind]
    return [lo + (hi - lo) * (k + 0.5) / steps for k in range(steps)]


@pytest.mark.parametrize("kind", list(SolidKind))
def test_counts_and_euler(kind):
    spec = build_solid(kind, MIDPOINTS[kind])
    v, e, f = COUNTS[kind]
    assert spec.n_vertices == v
    assert len(spec.edges) == e
    assert len(spec.faces) == f
    assert v - e + f == 2


def test_build_examples():
    spec = build_solid(SolidKind.TETRAHEDRON, PI / 2)
    assert spec.edge_length == pytest.approx(PI / 2, abs=1e-12)
    spec = build_solid(SolidKind.CUBE, 0.6 * PI)
    assert spec.edge_length == pytest.approx(
        math.acos(1.0 / math.tan(0.3 * PI) ** 2), abs=1e-12
    )


def test_memo_keeps_the_angle_type():
    # 2 and 2.0 are different keys to the one-spec memo, so each spec's
    # alpha, which a result document writes, has the type it was asked with
    solids.build_solid.cache_clear()
    for alpha, kind in ((2, int), (2.0, float), (2, int)):
        spec = build_solid(SolidKind.CUBE, alpha)
        assert type(spec.alpha) is kind
        assert cli.dump_json(cli.result_document(spec, [], None)).count(f'"alpha": {alpha!r}') == 1
    assert solids.build_solid.cache_info().misses == 3


@pytest.mark.parametrize("kind", list(SolidKind))
def test_admissibility_open_interval(kind):
    lo, hi = ADMISSIBLE[kind]
    for bad in (lo, hi, lo - 0.1, hi + 0.1):
        with pytest.raises(DomainError):
            build_solid(kind, bad)
    build_solid(kind, 0.5 * (lo + hi))


@pytest.mark.parametrize("kind", list(SolidKind))
def test_flat_limit_refused(kind):
    # one ulp above the flat limit no transfer rotation can be built, and
    # 1e-14 above it the search would miss classes
    lo, _ = ADMISSIBLE[kind]
    for alpha in (lo + math.ulp(lo), lo + 1e-14):
        with pytest.raises(DomainError, match=f"alpha={alpha!r} is too close to the "
                           f"flat limit {lo!r} for {kind.value}: its edge length"):
            build_solid(kind, alpha)


def test_octahedron_boundary_is_rejected():
    with pytest.raises(DomainError) as exc:
        build_solid(SolidKind.OCTAHEDRON, PI / 2)
    assert "admissible interval" in str(exc.value)


@pytest.mark.parametrize("kind", list(SolidKind))
def test_gluing_is_involution(kind):
    spec = build_solid(kind, MIDPOINTS[kind])
    for (f, j), (g, j2) in spec.gluing.items():
        assert spec.gluing[(g, j2)] == (f, j)
        # glued edges carry the same vertex pair, reversed
        n = spec.face_size
        a, b = spec.faces[f][j], spec.faces[f][(j + 1) % n]
        c, d = spec.faces[g][j2], spec.faces[g][(j2 + 1) % n]
        assert (a, b) == (d, c)


@pytest.mark.parametrize("kind", list(SolidKind))
def test_every_directed_edge_has_one_owner(kind):
    spec = build_solid(kind, MIDPOINTS[kind])
    n = spec.face_size
    seen = set()
    for face in spec.faces:
        for j in range(n):
            d = (face[j], face[(j + 1) % n])
            assert d not in seen
            seen.add(d)
    assert len(seen) == 2 * len(spec.edges)


@pytest.mark.parametrize("kind", list(SolidKind))
def test_steps_equal_direct_rotations(kind):
    # build_solid builds one transfer rotation per pair of local edges;
    # every directed edge's entry is, bit for bit, the rotation that glues
    # the neighbour's copy of that edge onto this face's copy
    for alpha in _alphas(kind, 20):
        spec = build_solid(kind, alpha)
        n, chart = spec.face_size, spec.chart
        for (f, j), (_, j2) in spec.gluing.items():
            direct = sphtrig.rotation_from_pairs(
                chart[(j2 + 1) % n], chart[j2], chart[j], chart[(j + 1) % n])
            assert repr(spec.steps[(f, j)]) == repr(direct)


@pytest.mark.parametrize("kind", list(SolidKind))
def test_chart_metric_invariants(kind):
    closed_form = (
        sphtrig.cube_edge if kind is SolidKind.CUBE else sphtrig.tetra_edge
    )
    for alpha in _alphas(kind):
        spec = build_solid(kind, alpha)
        n = spec.face_size
        side = closed_form(alpha)
        for k in range(n):
            a, b = spec.chart[k], spec.chart[(k + 1) % n]
            assert abs(sphtrig.angle_between(a, b) - side) < 1e-12
            # circumradius consistency: vertex-to-center distance
            assert abs(a[2] - math.cos(sphtrig.circumradius(n, alpha))) < 1e-12
            # interior angle from the side cosine rule applied to the
            # vertex-neighbour triangle
            c = spec.chart[(k + 2) % n]
            span = sphtrig.angle_between(a, c)
            ang = math.acos(
                (math.cos(span) - math.cos(side) ** 2) / math.sin(side) ** 2
            )
            assert abs(ang - alpha) < 1e-12


@pytest.mark.parametrize("kind", list(SolidKind))
def test_cone_angles(kind):
    alpha = MIDPOINTS[kind]
    spec = build_solid(kind, alpha)
    per_vertex = 4 if kind is SolidKind.OCTAHEDRON else 3
    for v in range(spec.n_vertices):
        assert cone_angle(spec, v) == pytest.approx(per_vertex * alpha)
        assert cone_angle(spec, v) < 2 * PI
    with pytest.raises(DomainError):
        cone_angle(spec, spec.n_vertices)


def test_cone_angle_examples():
    assert cone_angle(build_solid(SolidKind.TETRAHEDRON, PI / 2), 0) == pytest.approx(
        1.5 * PI
    )
    assert cone_angle(build_solid(SolidKind.OCTAHEDRON, 0.4 * PI), 0) == pytest.approx(
        1.6 * PI
    )


# ---------------------------------------------------------------------------
# symmetry group


ORDERS = {
    SolidKind.TETRAHEDRON: 24,
    SolidKind.OCTAHEDRON: 48,
    SolidKind.CUBE: 48,
}


@pytest.mark.parametrize("kind", list(SolidKind))
def test_group_order_and_identity(kind):
    spec = build_solid(kind, MIDPOINTS[kind])
    ops = symmetry_group(spec)
    assert len(ops) == ORDERS[kind]
    assert len(set(op.perm for op in ops)) == ORDERS[kind]
    ident = tuple(range(spec.n_vertices))
    assert any(op.perm == ident for op in ops)
    assert sum(1 for op in ops if op.is_rotation) == ORDERS[kind] // 2


@pytest.mark.parametrize("kind", list(SolidKind))
def test_group_closed_under_composition(kind):
    spec = build_solid(kind, MIDPOINTS[kind])
    perms = {op.perm for op in symmetry_group(spec)}
    for p in perms:
        for q in perms:
            comp = tuple(p[q[i]] for i in range(spec.n_vertices))
            assert comp in perms


@pytest.mark.parametrize("kind", list(SolidKind))
def test_group_transitive_on_incidences(kind):
    # the exhaustive search starts only by crossing edge 0 out of face
    # edge_faces[0][0]; that needs every (face, edge) incidence in its orbit.
    # The one other symmetry fixing that crossing is the mirror that the
    # search's pruning by turns rests on (see test_mirror_reverses_turns)
    spec = build_solid(kind, MIDPOINTS[kind])
    ops = symmetry_group(spec)
    start = (spec.edge_faces[0][0], 0)
    for f, face_edges in enumerate(spec.face_edges):
        for e in face_edges:
            assert any((g.face_perm[f], g.edge_perm[e]) == start for g in ops)
    stab = [g for g in ops if (g.face_perm[start[0]], g.edge_perm[0]) == start]
    ident = tuple(range(spec.n_vertices))
    assert len(stab) == 2 and stab[0].perm == ident
    sigma = stab[1]
    assert not sigma.is_rotation
    # the reflection across the perpendicular bisector of edge 0
    a, b = spec.edges[0]
    assert (sigma.perm[a], sigma.perm[b]) == (b, a)


@pytest.mark.parametrize("kind", list(SolidKind))
def test_mirror_reverses_turns(kind):
    # the mirror fixing the search's start crossing sends the exit turn t of
    # every face, entered over any local edge, to the turn n - t
    spec = build_solid(kind, MIDPOINTS[kind])
    n = spec.face_size
    start_face = spec.edge_faces[0][0]
    ident = tuple(range(spec.n_vertices))
    (sigma,) = [g for g in symmetry_group(spec) if g.perm != ident
                and g.edge_perm[0] == 0 and g.face_perm[start_face] == start_face]

    def image(f, j):
        e = sigma.edge_perm[spec.face_edges[f][j]]
        return spec.face_edge_local[(sigma.face_perm[f], e)]

    for f in range(len(spec.faces)):
        for i in range(n):
            i2 = image(f, i)
            for t in range(n):
                assert image(f, (i + t) % n) == (i2 - t) % n


@pytest.mark.parametrize("kind", list(SolidKind))
def test_ops_preserve_gluing(kind):
    # an automorphism must map the edge-adjacency of faces onto itself
    spec = build_solid(kind, MIDPOINTS[kind])
    for op in symmetry_group(spec):
        for e, (f1, f2) in enumerate(spec.edge_faces):
            img = spec.edge_faces[op.edge_perm[e]]
            assert {op.face_perm[f1], op.face_perm[f2]} == set(img)


@pytest.mark.parametrize("kind", list(SolidKind))
def test_group_shared_across_angles(kind, monkeypatch):
    # the ops act on ids alone, so every angle of one kind gets one table,
    # and building it from another angle gives the same ops
    lo, hi = ADMISSIBLE[kind]
    near = build_solid(kind, lo + 0.2 * (hi - lo))
    far = build_solid(kind, lo + 0.8 * (hi - lo))
    ops = symmetry_group(near)
    assert symmetry_group(far) is ops
    monkeypatch.setattr(solids, "_OPS_CACHE", {})
    assert symmetry_group(far) == ops


@pytest.mark.parametrize("kind", list(SolidKind))
def test_kind_tables_shared_across_angles(kind, monkeypatch):
    # the combinatorial tables depend on the kind alone, so every angle of
    # one kind shares them; a rebuild from an emptied cache gives equal
    # tables, and only the chart and the transfer rotations move with alpha
    names = ("faces", "edges", "edge_index", "edge_faces", "face_edge_local",
             "face_edges", "gluing")
    lo, hi = ADMISSIBLE[kind]
    near = build_solid(kind, lo + 0.2 * (hi - lo))
    far = build_solid(kind, lo + 0.8 * (hi - lo))
    for name in names:
        assert getattr(far, name) is getattr(near, name), name
    assert far.chart != near.chart and far.steps != near.steps
    pairs = solids._kind_tables(kind)[1]
    monkeypatch.setattr(solids, "_TABLES_CACHE", {})
    again = build_solid(kind, lo + 0.2 * (hi - lo))
    assert again.gluing is not near.gluing
    for name in names:
        assert getattr(again, name) == getattr(near, name), name
    assert solids._kind_tables(kind)[1] == pairs
    assert (again.chart, again.steps) == (near.chart, near.steps)


def test_edge_by_names():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.45 * PI)
    assert spec.edges[spec.edge_by_names("A1", "A2")] == (0, 1)
    assert spec.edges[spec.edge_by_names("A5", "A3")] == (2, 4)
    cube = build_solid(SolidKind.CUBE, 0.6 * PI)
    assert cube.edges[cube.edge_by_names("A1", "A1'")] == (0, 4)


def test_common_face_unique_or_none():
    spec = build_solid(SolidKind.OCTAHEDRON, 0.45 * PI)
    e_sq = spec.edge_by_names("A1", "A2")
    e_up = spec.edge_by_names("A2", "A5")
    e_sq2 = spec.edge_by_names("A2", "A3")
    assert spec.common_face(e_sq, e_up) is not None
    assert spec.common_face(e_sq, e_sq2) is None
