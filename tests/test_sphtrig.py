import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphgeo import sphtrig
from sphgeo.sphtrig import (
    DomainError,
    angle_between,
    axis_angle,
    circumradius,
    clamp_unit,
    cos_side,
    cube_diagonal,
    cube_edge,
    dot,
    mat_apply,
    mat_compose,
    pole_edge_crossing,
    rot_about,
    side_from_mixed,
    slerp,
    square_midline,
    tetra_edge,
)

from util import arc_midpoint, mat_det, orthonormality_residual

PI = math.pi


# ---------------------------------------------------------------------------
# closed forms


def test_cos_side_octant():
    assert cos_side(PI / 2, PI / 2, PI / 2) == pytest.approx(PI / 2, abs=1e-15)


def test_cos_side_degenerate_hinge():
    # B -> 0 closes the hinge onto |a - c|
    assert cos_side(1.1, 0.4, 1e-9) == pytest.approx(0.7, abs=1e-7)


def test_cos_side_value():
    # arccos(1/4), frozen from direct evaluation
    assert cos_side(PI / 3, PI / 3, PI / 2) == pytest.approx(
        1.318116071652818, abs=1e-12
    )


def test_cos_side_domain():
    with pytest.raises(DomainError):
        cos_side(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        cos_side(1.0, 1.0, PI)


def test_side_from_mixed_octant():
    assert side_from_mixed(PI / 2, PI / 2, PI / 2, PI / 2) == pytest.approx(
        PI / 2, abs=1e-15
    )


def test_side_from_mixed_half_square():
    # isoceles triangle cut from a spherical square by a diagonal:
    # a = b = a_s, A = B = alpha/2, C = alpha
    alpha = 0.55 * PI
    a_s = cube_edge(alpha)
    b = side_from_mixed(a_s, alpha / 2, alpha / 2, alpha)
    assert b == pytest.approx(a_s, abs=1e-12)


def test_side_from_mixed_round_trip():
    # sides -> angles by the cosine rule for angles, then back to side b
    a = c = PI / 3
    b = cos_side(a, c, PI / 2)

    def angle(opp, s1, s2):
        return math.acos(
            (math.cos(opp) - math.cos(s1) * math.cos(s2))
            / (math.sin(s1) * math.sin(s2))
        )

    A = angle(a, b, c)
    B = angle(b, a, c)
    C = angle(c, a, b)
    assert side_from_mixed(a, A, B, C) == pytest.approx(b, abs=1e-10)


def test_side_from_mixed_inconsistent_data():
    with pytest.raises(DomainError):
        side_from_mixed(0.1, 0.05, 1.2, 3.0)


def test_tetra_edge_values():
    assert tetra_edge(PI / 2) == PI / 2  # exact: cos(pi/2) = 0
    assert tetra_edge(PI / 3 + 1e-9) < 1e-3
    assert tetra_edge(2 * PI / 3) == pytest.approx(
        1.9106332362490186, abs=1e-12
    )  # arccos(-1/3)
    with pytest.raises(DomainError):
        tetra_edge(PI / 3)
    with pytest.raises(DomainError):
        tetra_edge(0.7 * PI)


def test_cube_edge_values():
    assert cube_edge(PI / 2 + 1e-9) < 1e-3
    assert cube_edge(2 * PI / 3) == pytest.approx(1.2309594173407747, abs=1e-12)
    alpha = 0.55 * PI
    assert cube_edge(alpha) == pytest.approx(
        math.acos(1.0 / math.tan(0.275 * PI) ** 2), abs=1e-15
    )
    with pytest.raises(DomainError):
        cube_edge(PI / 2)


def test_cube_diagonal_values():
    assert cube_diagonal(PI / 2 + 1e-9) < 1e-3
    assert cube_diagonal(2 * PI / 3) == pytest.approx(
        math.acos(-1.0 / 3.0), abs=1e-12
    )


def _square_chart(alpha):
    rho = circumradius(4, alpha)
    sr, cr = math.sin(rho), math.cos(rho)
    return [
        (sr * math.cos(k * PI / 2), sr * math.sin(k * PI / 2), cr) for k in range(4)
    ]


def test_cube_diagonal_against_built_square():
    # oracle: distance between opposite vertices of the constructed square
    for alpha in (0.55 * PI, 0.6 * PI, 0.65 * PI):
        v = _square_chart(alpha)
        assert cube_diagonal(alpha) == pytest.approx(
            angle_between(v[0], v[2]), abs=1e-10
        )


def test_square_midline_values():
    assert square_midline(PI / 2) == pytest.approx(0.0, abs=1e-7)
    assert square_midline(2 * PI / 3) == pytest.approx(PI / 2, abs=1e-12)


def test_square_midline_against_built_square():
    # oracle: arc between midpoints of opposite edges of the built square
    for k in range(1, 30):
        alpha = PI / 2 + k * (PI / 6) / 30
        v = _square_chart(alpha)
        m1 = arc_midpoint(v[0], v[1])
        m2 = arc_midpoint(v[2], v[3])
        assert abs(square_midline(alpha) - angle_between(m1, m2)) < 1e-10


def test_circumradius_values():
    # half-diagonal identity for the square
    assert circumradius(4, 2 * PI / 3) == pytest.approx(
        cube_diagonal(2 * PI / 3) / 2, abs=1e-12
    )
    assert circumradius(4, 2 * PI / 3) == pytest.approx(
        math.acos(1 / math.sqrt(3)), abs=1e-12
    )
    assert circumradius(3, PI / 2) == pytest.approx(
        math.acos(1 / math.sqrt(3)), abs=1e-12
    )
    assert circumradius(4, PI / 2 + 1e-9) < 1e-3
    with pytest.raises(DomainError):
        circumradius(5, 0.6 * PI)
    with pytest.raises(DomainError):
        circumradius(4, PI / 2)


def test_circumradius_construction_oracle():
    # the polygon built with this radius has the closed-form side length
    for n, alpha, side_fn in ((3, PI / 2, tetra_edge), (4, 0.6 * PI, cube_edge)):
        rho = circumradius(n, alpha)
        sr, cr = math.sin(rho), math.cos(rho)
        v0 = (sr, 0.0, cr)
        v1 = (sr * math.cos(2 * PI / n), sr * math.sin(2 * PI / n), cr)
        assert angle_between(v0, v1) == pytest.approx(side_fn(alpha), abs=1e-12)


def test_monotonicity_on_grid():
    def grid(lo, hi, steps=600):
        return [lo + (hi - lo) * (k + 0.5) / steps for k in range(steps)]

    for fn, lo, hi in (
        (tetra_edge, PI / 3 + 1e-6, 2 * PI / 3),
        (cube_edge, PI / 2 + 1e-6, 2 * PI / 3),
        (cube_diagonal, PI / 2 + 1e-6, 2 * PI / 3),
        (square_midline, PI / 2 + 1e-6, 2 * PI / 3),
    ):
        xs = grid(lo, hi)
        ys = [fn(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))


def test_half_angle_identities():
    # sin^2(a_t/2) = (4 sin^2(a/2) - 1) / (4 sin^2(a/2))
    for k in range(1, 300):
        alpha = PI / 3 + k * (PI / 3) / 300
        s2 = math.sin(alpha / 2) ** 2
        lhs = math.sin(tetra_edge(alpha) / 2) ** 2
        assert abs(lhs - (4 * s2 - 1) / (4 * s2)) < 1e-12
    # sin(a_s/2) = sqrt(-cos a) / (sqrt(2) sin(a/2))
    for k in range(1, 300):
        alpha = PI / 2 + k * (PI / 6) / 300
        lhs = math.sin(cube_edge(alpha) / 2)
        rhs = math.sqrt(-math.cos(alpha)) / (math.sqrt(2) * math.sin(alpha / 2))
        assert abs(lhs - rhs) < 1e-12


def test_clamping_discipline():
    assert clamp_unit(1.0 + 5e-13) == 1.0
    assert clamp_unit(-1.0 - 5e-13) == -1.0
    with pytest.raises(DomainError):
        clamp_unit(1.0 + 1e-11)
    with pytest.raises(DomainError):
        clamp_unit(-1.0 - 1e-11)


# ---------------------------------------------------------------------------
# rotations


def test_rot_about_basics():
    north = (0.0, 0.0, 1.0)
    ident = rot_about(north, 0.0)
    assert orthonormality_residual(ident) < 1e-15
    assert mat_apply(ident, (1.0, 0.0, 0.0)) == pytest.approx((1.0, 0.0, 0.0))
    quarter = rot_about(north, PI / 2)
    assert mat_apply(quarter, (1.0, 0.0, 0.0)) == pytest.approx(
        (0.0, 1.0, 0.0), abs=1e-15
    )
    with pytest.raises(DomainError):
        rot_about((0.0, 0.0, 2.0), 1.0)


def test_rotation_inverse_pairs():
    rng = random.Random(7)
    from util import random_unit

    for _ in range(200):
        u = random_unit(rng)
        t = rng.uniform(0, PI)
        m = mat_compose(rot_about(u, t), rot_about(u, -t))
        assert orthonormality_residual(m) < 1e-12
        assert max(
            abs(m[i][j] - (1.0 if i == j else 0.0)) for i in range(3) for j in range(3)
        ) < 1e-12


def test_composition_det_drift():
    rng = random.Random(11)
    from util import random_rotation

    for _ in range(200):
        m = mat_compose(
            random_rotation(rng), mat_compose(random_rotation(rng), random_rotation(rng))
        )
        assert abs(mat_det(m) - 1.0) < 1e-12


def test_axis_angle_round_trip_bulk():
    rng = random.Random(20240601)
    from util import random_rotation, random_unit

    for _ in range(10_000):
        m = random_rotation(rng)
        axis, ang, near = axis_angle(m)
        if near:
            continue
        m2 = rot_about(axis, ang)
        assert max(
            abs(m[i][j] - m2[i][j]) for i in range(3) for j in range(3)
        ) < 1e-10
    # targeted round trip
    u = random_unit(rng)
    axis, ang, near = axis_angle(rot_about(u, 1.0))
    assert not near
    assert ang == pytest.approx(1.0, abs=1e-12)
    assert dot(axis, u) == pytest.approx(1.0, abs=1e-12)


def test_axis_angle_near_identity_and_pi():
    _, ang, near = axis_angle(sphtrig.IDENTITY)
    assert near and ang < 1e-9
    rng = random.Random(5)
    from util import random_unit

    for _ in range(200):
        u = random_unit(rng)
        for t in (PI, PI - 1e-8, PI - 1e-3):
            axis, ang, near = axis_angle(rot_about(u, t))
            assert not near
            m2 = rot_about(axis, ang)
            m = rot_about(u, t)
            assert max(
                abs(m[i][j] - m2[i][j]) for i in range(3) for j in range(3)
            ) < 1e-9


def test_rotation_from_pairs():
    rng = random.Random(3)
    from util import random_rotation, random_unit

    for _ in range(200):
        m = random_rotation(rng)
        p1 = random_unit(rng)
        p2 = random_unit(rng)
        if abs(dot(p1, p2)) > 0.99:
            continue
        q1, q2 = mat_apply(m, p1), mat_apply(m, p2)
        r = sphtrig.rotation_from_pairs(p1, p2, q1, q2)
        assert max(abs(mat_apply(r, p1)[i] - q1[i]) for i in range(3)) < 1e-12
        assert max(abs(mat_apply(r, p2)[i] - q2[i]) for i in range(3)) < 1e-12
        assert abs(mat_det(r) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# equator / arc crossing


def test_pole_crossing_symmetric():
    eps = 1e-3
    a = sphtrig.normalize((1.0, 0.0, eps))
    b = sphtrig.normalize((1.0, 0.0, -eps))
    hit = pole_edge_crossing((0.0, 0.0, 1.0), a, b)
    assert hit is not None
    assert hit.t == pytest.approx(0.5, abs=1e-12)
    assert hit.point == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


def test_pole_crossing_absent():
    a = sphtrig.normalize((1.0, 0.0, 0.5))
    b = sphtrig.normalize((0.0, 1.0, 0.5))
    assert pole_edge_crossing((0.0, 0.0, 1.0), a, b) is None
    # touching the equator at an endpoint does not count as a strict crossing
    c = (1.0, 0.0, 0.0)
    assert pole_edge_crossing((0.0, 0.0, 1.0), c, a) is None


def _bisect_crossing(pole, a, b, tol=1e-13):
    lo, hi = 0.0, 1.0
    flo = dot(pole, a)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = dot(pole, slerp(a, b, mid))
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_pole_crossing_vs_bisection_bulk():
    rng = random.Random(424242)
    from util import random_unit

    checked = 0
    while checked < 10_000:
        pole = random_unit(rng)
        a = random_unit(rng)
        b = random_unit(rng)
        if dot(pole, a) * dot(pole, b) >= -1e-6:
            continue
        if angle_between(a, b) > PI - 1e-3:
            continue
        hit = pole_edge_crossing(pole, a, b)
        assert hit is not None
        assert abs(hit.t - _bisect_crossing(pole, a, b)) < 1e-9
        checked += 1


@settings(max_examples=300, derandomize=True)
@given(st.integers(0, 10_000), st.floats(0.0, 1e-7, exclude_max=True), st.booleans())
def test_equator_misses_short_arcs(seed, length, through_midpoint):
    # a strict crossing needs (pole.a)(pole.b) < -1e-14 with opposite signs,
    # so |pole.a - pole.b| > 2e-7; but |pole.a - pole.b| <= |a - b| <= length
    rng = random.Random(seed)
    from util import random_unit

    a = random_unit(rng)
    u = sphtrig.normalize(sphtrig.cross(a, random_unit(rng)))  # tangent at a
    b = sphtrig.normalize(sphtrig.add(sphtrig.scale(a, math.cos(length)),
                                      sphtrig.scale(u, math.sin(length))))
    pole = random_unit(rng)
    if through_midpoint:
        # the equator through the arc's midpoint, the nearest to crossing it
        pole = sphtrig.add(sphtrig.scale(a, -math.sin(length / 2)),
                           sphtrig.scale(u, math.cos(length / 2)))
    assert sphtrig.pole_edge_crossing(pole, a, b) is None


@settings(max_examples=300, derandomize=True)
@given(
    st.floats(0.05, PI - 0.05),
    st.floats(0.05, PI - 0.05),
    st.floats(0.05, PI - 0.05),
)
def test_cos_side_symmetry_and_range(a, c, B):
    b1 = cos_side(a, c, B)
    b2 = cos_side(c, a, B)
    assert b1 == pytest.approx(b2, abs=1e-12)
    assert 0.0 <= b1 <= PI


@settings(max_examples=200, derandomize=True)
@given(st.integers(0, 10_000))
def test_azimuth_frame_deterministic(seed):
    rng = random.Random(seed)
    from util import random_unit

    pole = random_unit(rng)
    e1, e2 = sphtrig.pole_frame(pole)
    assert abs(dot(e1, pole)) < 1e-12
    assert abs(dot(e2, pole)) < 1e-12
    assert abs(dot(e1, e2)) < 1e-12
    assert sphtrig.pole_frame(pole) == (e1, e2)
