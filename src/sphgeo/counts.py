"""Counting apparatus for tetrahedron geodesics by type.

Existence windows for a type (p, q) are controlled by the quadratic form
s = p^2 + pq + q^2 against two angle functions: s < f(alpha) guarantees the
geodesic exists, s >= g(alpha) rules it out.  Counting coprime lattice pairs
under these thresholds gives two-sided bounds c1 < N < c2 on the number of
realizable types, with the Euler totient summatory function supplying the
asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import finder, solids
from .sphtrig import PI, DomainError, tetra_edge
from .solids import SolidKind

_PI2 = PI * PI


def _check_alpha(alpha: float) -> None:
    if not PI / 3 < alpha <= 2 * PI / 3:
        raise DomainError(f"alpha={alpha!r} outside (pi/3, 2pi/3]")


def s_form(p: int, q: int) -> int:
    """The quadratic form p^2 + pq + q^2."""
    return p * p + p * q + q * q


def _half_sin2(alpha: float) -> float:
    """sin(alpha / 2) ** 2 of an admissible alpha: the variable of f, g, c1
    and c2."""
    _check_alpha(alpha)
    return math.sin(alpha / 2.0) ** 2


def f_alpha(alpha: float) -> float:
    """Sufficiency threshold on s: types with s < f(alpha) must exist."""
    s2 = _half_sin2(alpha)
    return _PI2 * math.cos(alpha) ** 2 / (4.0 * s2 * (4.0 * s2 - 1.0))


def g_alpha(alpha: float) -> float:
    """Necessity threshold on s: types with s >= g(alpha) cannot exist."""
    s2 = _half_sin2(alpha)
    return _PI2 * s2 / (4.0 * s2 - 1.0)


def c1_alpha(alpha: float) -> float:
    """Lower envelope on the type count: c1 = (3 / 2 pi^2) f(alpha)."""
    s2 = _half_sin2(alpha)
    return 3.0 * math.cos(alpha) ** 2 / (8.0 * s2 * (4.0 * s2 - 1.0))


def c2_alpha(alpha: float) -> float:
    """Upper envelope on the type count: c2 = (2 / pi^2) g(alpha) + 1."""
    s2 = _half_sin2(alpha)
    return 2.0 * s2 / (4.0 * s2 - 1.0) + 1.0


def necessary_excluded(p: int, q: int, alpha: float) -> bool:
    """Whether the type (p, q) is ruled out at this angle (s >= g).

    Equivalent to the arcsine form alpha > 2 asin sqrt(s / (4s - pi^2))
    wherever that radicand is admissible, and total everywhere.
    """
    finder.check_type(p, q)
    return s_form(p, q) >= g_alpha(alpha)


def sufficient_exists(p: int, q: int, alpha: float) -> bool:
    """Whether the edge is short enough to force existence of type (p, q)."""
    finder.check_type(p, q)
    return _sufficient(s_form(p, q), tetra_edge(alpha))


def _sufficient(s: float, edge: float) -> bool:
    """`sufficient_exists` for the type with form value s and edge length
    `edge`, on a type already checked."""
    return edge < 2.0 * math.asin(PI / (math.sqrt(s) + math.sqrt(s + 2.0 * _PI2)))


# ---------------------------------------------------------------------------
# totients and lattice counts


def phi_table(n: int) -> List[int]:
    """Euler's totient for 0..n by a linear sieve."""
    if not finder.is_int(n) or n < 0:
        raise DomainError(f"n={n!r} is not a nonnegative integer")
    phi = list(range(n + 1))
    primes: List[int] = []
    is_comp = [False] * (n + 1)
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            phi[i] = i - 1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = True
            if i % p == 0:
                phi[i * p] = phi[i] * p
                break
            phi[i * p] = phi[i] * (p - 1)
    return phi


def totient_sum(x: int) -> Tuple[int, float]:
    """Exact sum of phi(1..x) and its ratio to the asymptotic (3/pi^2) x^2."""
    if not finder.is_int(x) or x < 1:
        raise DomainError(f"x={x!r} is not a positive integer")
    total = sum(phi_table(x)[1:])
    return total, total / ((3.0 / _PI2) * x * x)


# A threshold T above MAX_CANDIDATES sqrt(3) pi is refused: below s < T lie
# about T / (pi sqrt 3) coprime pairs (a twelfth of the ellipse s < T at
# density 6 / pi^2).  The largest admitted T holds 2,001 pairs, so a count
# lists at most 2,002 types with (0, 1).  g(alpha) grows without bound as
# alpha nears pi/3: at pi/3 + 1e-9 it asks for 2.6e8.  The bound admits
# 0.3334pi, the tightest angle in use (1,252 types); README gives timings.
MAX_CANDIDATES = 2000


def _coprime_pairs_below(threshold: float) -> List[Tuple[int, int]]:
    """The coprime pairs 0 < p <= q with s(p, q) < threshold, by q, then p;
    raises DomainError, before listing any, if there would be more than
    about MAX_CANDIDATES."""
    if not threshold <= MAX_CANDIDATES * math.sqrt(3.0) * PI:
        raise DomainError(f"s < {threshold!r} holds more than {MAX_CANDIDATES} "
                          "candidate types (alpha too close to pi/3)")
    qmax = math.isqrt(max(0, math.ceil(threshold))) + 1
    return [(p, q) for q in range(1, qmax + 1) for p in range(1, q + 1)
            if s_form(p, q) < threshold and math.gcd(p, q) == 1]


def psi_count(threshold: float) -> int:
    """Count coprime pairs 0 < p <= q with s(p,q) < threshold by direct
    lattice enumeration."""
    if not math.isfinite(threshold):
        raise DomainError("threshold must be finite")
    return len(_coprime_pairs_below(threshold))


# ---------------------------------------------------------------------------
# full per-angle report


@dataclass(frozen=True)
class TypeVerdict:
    p: int
    q: int
    verdict: str  # "sufficient-guaranteed" | "solver-resolved" | "depth-capped"
    found: bool


@dataclass(frozen=True)
class CountReport:
    c1: float
    c2: float
    psi1: int
    psi2: int
    verdicts: Tuple[TypeVerdict, ...]

    @property
    def realizable(self) -> Tuple[Tuple[int, int], ...]:
        """The types found, in candidate order."""
        return tuple((v.p, v.q) for v in self.verdicts if v.found)

    @property
    def n(self) -> int:
        """The number of realizable types."""
        return len(self.realizable)


def candidate_types(alpha: float) -> List[Tuple[int, int]]:
    """All types not excluded by necessity: (0,1) plus coprime 0<p<=q with
    s < g(alpha), ordered by (s, p)."""
    cands = [(0, 1)] + _coprime_pairs_below(g_alpha(alpha))
    cands.sort(key=lambda t: (s_form(*t), t[0]))
    return cands


def count_tetra(
    alpha: float,
    max_crossings: Optional[int] = None,
    tol_closure: float = finder.SOLVE_TOL,
    tol_vertex: float = finder.SOLVE_TOL,
) -> CountReport:
    """Resolve every non-excluded type by its targeted crossing sequence,
    with the solver tolerances and checks of `finder.solve_tetra_type`.

    The types are laid out along one shared-prefix walk: their turn words
    are walked in lexicographic order, each from the longest prefix it
    shares with the one before (`finder._type_walks`), and each
    development is the one `solve_tetra_type` solves, float for float.
    A type (p, q) crosses 4(p+q) edges; candidates needing more than
    `max_crossings` (when given) are reported as depth-capped and not counted.
    """
    finder.check_tolerances(tol_closure, tol_vertex)
    # a bound below 3 would report every type depth-capped with N = 0
    finder.check_depth(max_crossings)
    spec = solids.build_solid(SolidKind.TETRAHEDRON, alpha)
    cands = candidate_types(alpha)
    solved = [(p, q) for p, q in cands
              if max_crossings is None or 4 * (p + q) <= max_crossings]
    found = dict(zip(solved, finder._types_found(spec, solved, tol_closure, tol_vertex)))
    edge = tetra_edge(alpha)
    verdicts: List[TypeVerdict] = []
    for p, q in cands:
        if (p, q) not in found:
            verdicts.append(TypeVerdict(p, q, "depth-capped", False))
            continue
        guaranteed = _sufficient(s_form(p, q), edge)
        verdicts.append(TypeVerdict(
            p, q, "sufficient-guaranteed" if guaranteed else "solver-resolved",
            found[p, q],
        ))
    # the candidates past (0, 1) are psi_count(g_alpha(alpha))'s pairs, and
    # f < g, as f / g = (cos(alpha) / (2 sin^2(alpha / 2)))^2 < 1 on
    # (pi/3, 2pi/3]: so psi_count(f)'s pairs are those of them with s < f
    f = f_alpha(alpha)
    return CountReport(
        c1=c1_alpha(alpha),
        c2=c2_alpha(alpha),
        psi1=sum(s_form(p, q) < f for p, q in cands[1:]),
        psi2=len(cands) - 1,
        verdicts=tuple(verdicts),
    )
