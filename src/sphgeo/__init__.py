"""Simple closed geodesics on regular spherical tetrahedra, octahedra, cubes.

The surface of each solid is modelled intrinsically (congruent regular
spherical polygons glued along edges); geodesics are found by unfolding
crossing sequences onto the unit sphere and solving the algebraic closure
condition: the axis of the closing rotation is the only possible pole of the
unfolded great circle.
"""

from .sphtrig import (
    DomainError,
    axis_angle,
    circumradius,
    cos_side,
    cube_diagonal,
    cube_edge,
    rot_about,
    side_from_mixed,
    square_midline,
    tetra_edge,
)
from .solids import ADMISSIBLE, SolidKind, SolidSpec, build_solid, cone_angle, symmetry_group
from .unfold import CrossingSequence, Development, develop
from .finder import (
    GeodesicClass,
    GeodesicPath,
    classify_tetra_type,
    enumerate_classes,
    solve_sequence,
    solve_tetra_type,
    tetra_type_sequence,
)
from .counts import (
    CountReport,
    c1_alpha,
    c2_alpha,
    count_tetra,
    f_alpha,
    g_alpha,
    necessary_excluded,
    psi_count,
    sufficient_exists,
    totient_sum,
)

__version__ = "0.1.0"
