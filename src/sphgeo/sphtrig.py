"""Spherical trigonometry and rotation kernel.

Closed-form metric quantities of regular spherical triangles and squares,
great-circle primitives, and plain 3x3 rotation helpers.  Angles are radians,
points are unit vectors stored as float 3-tuples, rotations are row-major
orthonormal 3x3 tuples with determinant +1.  Everything is a pure function of
its inputs; nothing mutates.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

Vec3 = Tuple[float, float, float]
Mat3 = Tuple[Vec3, Vec3, Vec3]

PI = math.pi

# Clamp window for arccos arguments produced by algebraic identities; larger
# excursions mean inconsistent data and raise DomainError instead.
ALG_TOL = 1e-12

# Contact window, in radians of arc: arcs or boundary points closer than this
# touch.  arcs_intersect and the simplicity test finder._chords_nest share it.
CONTACT_TOL = 1e-10

# Crossing floor: an arc crosses a pole's equator only if its end dots da, db
# have da*db < -CROSSING_FLOOR.  A dot of unit vectors is off by a few 1e-16,
# so the floor, about 45 ulps of 1, counts an end whose dot rounding could
# flip as lying on the equator: the arc meets it at a vertex, or may.  For an
# edge of length L crossed at angle phi it refuses fractions t with t(1 - t)
# below about CROSSING_FLOOR / (L sin phi)^2, inside the default tol_vertex
# of 1e-9 unless L sin phi < ~3e-3.
CROSSING_FLOOR = 1e-14

IDENTITY: Mat3 = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
)

_AXES: Tuple[Vec3, Vec3, Vec3] = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class DomainError(ValueError):
    """An argument left the mathematical domain of an operation."""


# ---------------------------------------------------------------------------
# vector helpers


def dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(v: Vec3) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def normalize(v: Vec3) -> Vec3:
    n = norm(v)
    if n < 1e-15:
        raise DomainError("cannot normalize a (near-)zero vector")
    return (v[0] / n, v[1] / n, v[2] / n)


def neg(v: Vec3) -> Vec3:
    return (-v[0], -v[1], -v[2])


def add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def scale(v: Vec3, s: float) -> Vec3:
    return (v[0] * s, v[1] * s, v[2] * s)


def is_unit(v: Vec3) -> bool:
    return abs(dot(v, v) - 1.0) <= 2.0 * ALG_TOL


def clamp_unit(x: float) -> float:
    """Clamp a cosine-like value to [-1, 1].

    Values beyond the window by more than ALG_TOL are treated as
    inconsistent input, never silently clamped.
    """
    if x > 1.0:
        if x - 1.0 > ALG_TOL:
            raise DomainError(f"arccos argument {x!r} exceeds 1 by more than {ALG_TOL}")
        return 1.0
    if x < -1.0:
        if -1.0 - x > ALG_TOL:
            raise DomainError(f"arccos argument {x!r} is below -1 by more than {ALG_TOL}")
        return -1.0
    return x


def angle_between(a: Vec3, b: Vec3) -> float:
    """Geodesic distance between two unit vectors, in [0, pi]."""
    # cross/dot form is stable near 0 and pi
    return math.atan2(norm(cross(a, b)), dot(a, b))


def slerp(a: Vec3, b: Vec3, t: float) -> Vec3:
    """Point at arc-length fraction t along the minor arc from a to b."""
    ang = angle_between(a, b)
    if ang < 1e-15:
        return a
    sa = math.sin((1.0 - t) * ang)
    sb = math.sin(t * ang)
    return normalize(add(scale(a, sa), scale(b, sb)))


# ---------------------------------------------------------------------------
# closed-form metric quantities


def cos_side(a: float, c: float, B: float) -> float:
    """Third side of a spherical triangle from two sides and the included angle.

    b = arccos(cos a cos c + sin a sin c cos B).
    """
    for name, val in (("a", a), ("c", c), ("B", B)):
        if not 0.0 < val < PI:
            raise DomainError(f"{name}={val!r} outside (0, pi)")
    arg = math.cos(a) * math.cos(c) + math.sin(a) * math.sin(c) * math.cos(B)
    return math.acos(clamp_unit(arg))


def side_from_mixed(a: float, A: float, B: float, C: float) -> float:
    """Side b from the mixed relation cos b sin A = cos a sin B cos C + sin C cos B."""
    for name, val in (("a", a), ("A", A), ("B", B), ("C", C)):
        if not 0.0 < val < PI:
            raise DomainError(f"{name}={val!r} outside (0, pi)")
    sA = math.sin(A)
    if sA <= 1e-12:
        raise DomainError("sin A too small")
    arg = (math.cos(a) * math.sin(B) * math.cos(C) + math.sin(C) * math.cos(B)) / sA
    return math.acos(clamp_unit(arg))


def tetra_edge(alpha: float) -> float:
    """Edge length of a regular spherical triangle with interior angle alpha."""
    if not PI / 3 < alpha <= 2 * PI / 3:
        raise DomainError(f"alpha={alpha!r} outside (pi/3, 2pi/3]")
    return math.acos(clamp_unit(math.cos(alpha) / (1.0 - math.cos(alpha))))


def cube_edge(alpha: float) -> float:
    """Edge length of a regular spherical square with interior angle alpha."""
    if not PI / 2 < alpha <= 2 * PI / 3:
        raise DomainError(f"alpha={alpha!r} outside (pi/2, 2pi/3]")
    t = math.tan(alpha / 2.0)
    return math.acos(clamp_unit(1.0 / (t * t)))


def cube_diagonal(alpha: float) -> float:
    """Diagonal length of a regular spherical square with interior angle alpha."""
    if not PI / 2 < alpha <= 2 * PI / 3:
        raise DomainError(f"alpha={alpha!r} outside (pi/2, 2pi/3]")
    ch = math.cos(alpha / 2.0)
    sh = math.sin(alpha / 2.0)
    arg = (ch**4 - math.cos(alpha) ** 2) / sh**4
    return math.acos(clamp_unit(arg))


def square_midline(alpha: float) -> float:
    """Arc length between midpoints of opposite edges of a spherical square.

    The left endpoint pi/2 is admitted (degenerate square, zero midline).
    """
    if not PI / 2 <= alpha <= 2 * PI / 3:
        raise DomainError(f"alpha={alpha!r} outside [pi/2, 2pi/3]")
    return math.acos(clamp_unit(math.sin(1.5 * alpha) / math.sin(alpha / 2.0)))


def circumradius(n: int, alpha: float) -> float:
    """Center-to-vertex distance of a regular spherical n-gon with angle alpha."""
    if n not in (3, 4):
        raise DomainError(f"n={n!r} not in {{3, 4}}")
    lo = (n - 2) * PI / n
    if not lo < alpha < PI:
        raise DomainError(f"alpha={alpha!r} outside ({lo!r}, pi) for n={n}")
    arg = 1.0 / (math.tan(alpha / 2.0) * math.tan(PI / n))
    return math.acos(clamp_unit(arg))


# ---------------------------------------------------------------------------
# rotations


def mat_apply(m: Mat3, v: Vec3) -> Vec3:
    return (
        m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
        m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
        m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
    )


def mat_compose(a: Mat3, b: Mat3) -> Mat3:
    """Matrix product a.b, i.e. apply b first, then a."""
    (a0, a1, a2) = a
    (b0, b1, b2) = b
    return (
        (a0[0] * b0[0] + a0[1] * b1[0] + a0[2] * b2[0],
         a0[0] * b0[1] + a0[1] * b1[1] + a0[2] * b2[1],
         a0[0] * b0[2] + a0[1] * b1[2] + a0[2] * b2[2]),
        (a1[0] * b0[0] + a1[1] * b1[0] + a1[2] * b2[0],
         a1[0] * b0[1] + a1[1] * b1[1] + a1[2] * b2[1],
         a1[0] * b0[2] + a1[1] * b1[2] + a1[2] * b2[2]),
        (a2[0] * b0[0] + a2[1] * b1[0] + a2[2] * b2[0],
         a2[0] * b0[1] + a2[1] * b1[1] + a2[2] * b2[1],
         a2[0] * b0[2] + a2[1] * b1[2] + a2[2] * b2[2]),
    )


def rot_about(axis: Vec3, angle: float) -> Mat3:
    """Rodrigues rotation about a unit axis by `angle` (right-hand rule)."""
    if not is_unit(axis):
        raise DomainError(f"axis {axis!r} is not a unit vector")
    x, y, z = axis
    c = math.cos(angle)
    s = math.sin(angle)
    k = 1.0 - c
    return (
        (c + x * x * k, x * y * k - z * s, x * z * k + y * s),
        (y * x * k + z * s, c + y * y * k, y * z * k - x * s),
        (z * x * k - y * s, z * y * k + x * s, c + z * z * k),
    )


class AxisAngle(NamedTuple):
    axis: Vec3
    angle: float  # in [0, pi]; rot_about(axis, angle) reproduces the input
    near_identity: bool


def axis_angle(m: Mat3) -> AxisAngle:
    """Axis and angle of a rotation; angle in [0, pi], axis sign fixed so the
    rotation about +axis by +angle reproduces the input."""
    tr = m[0][0] + m[1][1] + m[2][2]
    w = (m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1])
    # atan2 of (sin, cos) stays well conditioned near both 0 and pi, where
    # acos((tr-1)/2) alone loses ~8 digits
    ang = math.atan2(norm(w) / 2.0, (tr - 1.0) / 2.0)
    if ang < 1e-9:
        return AxisAngle((0.0, 0.0, 1.0), ang, True)
    if ang < PI - 1e-6:
        return AxisAngle(normalize(w), ang, False)
    # near pi: use the symmetric part, sign from the skew part when usable
    b = (
        (m[0][0] + 1.0) / 2.0,
        (m[1][1] + 1.0) / 2.0,
        (m[2][2] + 1.0) / 2.0,
    )
    k = max(range(3), key=lambda i: b[i])
    ak = math.sqrt(max(b[k], 0.0))
    axis = [0.0, 0.0, 0.0]
    axis[k] = ak
    for j in range(3):
        if j != k:
            axis[j] = (m[j][k] + m[k][j]) / (4.0 * ak)
    a = normalize(tuple(axis))  # type: ignore[arg-type]
    if norm(w) > 1e-12:
        if dot(a, w) < 0.0:
            a = neg(a)
    else:
        # angle == pi: both signs reproduce m; pick a deterministic one
        for comp in a:
            if abs(comp) > 1e-8:
                if comp < 0.0:
                    a = neg(a)
                break
    return AxisAngle(a, ang, False)


def rotation_from_pairs(p1: Vec3, p2: Vec3, q1: Vec3, q2: Vec3) -> Mat3:
    """The unique rotation sending p1 -> q1 and p2 -> q2.

    Requires angle(p1, p2) == angle(q1, q2) and both pairs non-degenerate.
    """
    e = _frame(p1, p2)
    f = _frame(q1, q2)
    # rows of the result are f . e^T contracted by hand
    return tuple(
        tuple(
            f[0][i] * e[0][j] + f[1][i] * e[1][j] + f[2][i] * e[2][j]
            for j in range(3)
        )
        for i in range(3)
    )  # type: ignore[return-value]


def _frame(a: Vec3, b: Vec3) -> Tuple[Vec3, Vec3, Vec3]:
    e1 = a
    d = dot(a, b)
    e2 = normalize((b[0] - d * a[0], b[1] - d * a[1], b[2] - d * a[2]))
    return (e1, e2, cross(e1, e2))


# ---------------------------------------------------------------------------
# great-circle / arc primitives


def pole_frame(pole: Vec3) -> Tuple[Vec3, Vec3]:
    """Deterministic tangent basis (e1, e2) of the equator of `pole`.

    e1 is the Gram-Schmidt projection of the coordinate axis least aligned
    with the pole; e2 = pole x e1, so azimuth increases counterclockwise
    around the pole.
    """
    k = min(range(3), key=lambda i: abs(pole[i]))
    ax = _AXES[k]
    d = dot(ax, pole)
    e1 = normalize((ax[0] - d * pole[0], ax[1] - d * pole[1], ax[2] - d * pole[2]))
    return e1, cross(pole, e1)


class ArcCrossing(NamedTuple):
    t: float        # arc-length fraction along the arc, in (0, 1)
    azimuth: float  # azimuth of the crossing point around the pole
    point: Vec3


def pole_edge_crossing(pole: Vec3, a: Vec3, b: Vec3) -> Optional[ArcCrossing]:
    """Interior intersection of the equator of `pole` with the minor arc (a, b).

    Returns None when the arc does not strictly cross the equator, i.e. when
    (pole.a)(pole.b) >= -CROSSING_FLOOR.  The point is `slerp` at the root
    fraction t, and its azimuth, in (-pi, pi], is atan2 of its components
    along `pole_frame(pole)`'s (e2, e1).  The closure stage,
    `finder._closure_for_pole`, writes these float operations out in its
    loop over the crossings.
    """
    da, db = dot(pole, a), dot(pole, b)
    if da * db >= -CROSSING_FLOOR:
        return None
    length = angle_between(a, b)
    # da*sin((1-s)L) + db*sin(sL) = 0 with the root in (0, L)
    s_len = math.atan2(da * math.sin(length), da * math.cos(length) - db)
    if s_len <= 0.0:
        s_len += PI
    t = s_len / length
    point = slerp(a, b, t)
    e1, e2 = pole_frame(pole)
    return ArcCrossing(t, math.atan2(dot(point, e2), dot(point, e1)), point)


def point_on_arc(p: Vec3, a: Vec3, b: Vec3) -> bool:
    """Whether unit vector p lies on the minor arc (a, b), endpoints included,
    within CONTACT_TOL."""
    n = cross(a, b)
    nn = norm(n)
    if nn < 1e-14:
        raise DomainError("degenerate arc")
    if abs(dot(p, n) / nn) > CONTACT_TOL:
        return False
    return angle_between(a, p) + angle_between(p, b) <= angle_between(a, b) + CONTACT_TOL


def arcs_intersect(a1: Vec3, b1: Vec3, a2: Vec3, b2: Vec3) -> bool:
    """Whether two minor arcs share any point (endpoint contact counts)."""
    n1 = cross(a1, b1)
    n2 = cross(a2, b2)
    d = cross(n1, n2)
    if norm(d) < 1e-12:
        # same (or opposite) great circle: 1-d overlap test
        return (
            point_on_arc(a2, a1, b1)
            or point_on_arc(b2, a1, b1)
            or point_on_arc(a1, a2, b2)
            or point_on_arc(b1, a2, b2)
        )
    d = normalize(d)
    for cand in (d, neg(d)):
        if point_on_arc(cand, a1, b1) and point_on_arc(cand, a2, b2):
            return True
    return False

