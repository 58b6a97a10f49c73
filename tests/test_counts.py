import hashlib
import math
from pathlib import Path

import pytest

from sphgeo import counts, sphtrig
from sphgeo.counts import (
    CountReport,
    c1_alpha,
    c2_alpha,
    candidate_types,
    count_tetra,
    f_alpha,
    g_alpha,
    necessary_excluded,
    phi_table,
    psi_count,
    s_form,
    sufficient_exists,
    totient_sum,
)
from sphgeo.finder import SOLVE_TOL, enumerate_classes, solve_tetra_type, tetra_type_sequence
from sphgeo.solids import SolidKind, build_solid, cone_angle
from sphgeo.sphtrig import PI, DomainError, tetra_edge

from util import reference_develop, reference_path_for_pole

PI2 = PI * PI

COUNT_TETRA_TXT = Path(__file__).parent / "data" / "count_tetra.txt"


# ---------------------------------------------------------------------------
# threshold functions


def test_f_alpha_values():
    assert f_alpha(PI / 2) == pytest.approx(0.0, abs=1e-30)
    assert f_alpha(2 * PI / 3) == pytest.approx(PI2 / 24, abs=1e-12)
    assert f_alpha(PI / 3 + 1e-7) > 1e5
    with pytest.raises(DomainError):
        f_alpha(PI / 3)


def test_g_alpha_values():
    assert g_alpha(PI / 2) == pytest.approx(PI2 / 2, abs=1e-12)
    assert g_alpha(2 * PI / 3) == pytest.approx(3 * PI2 / 8, abs=1e-12)
    assert g_alpha(PI / 3 + 1e-7) > 1e5


def test_c_values():
    assert c1_alpha(PI / 2) == pytest.approx(0.0, abs=1e-30)
    assert c2_alpha(PI / 2) == pytest.approx(2.0, abs=1e-12)
    assert c1_alpha(2 * PI / 3) == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert c2_alpha(2 * PI / 3) == pytest.approx(7.0 / 4.0, abs=1e-12)


def test_c_proof_relations():
    for k in range(1, 300):
        alpha = PI / 3 + k * (PI / 3) / 301
        assert abs(c1_alpha(alpha) - 3.0 / (2.0 * PI2) * f_alpha(alpha)) < 1e-12
        assert abs(c2_alpha(alpha) - (2.0 / PI2 * g_alpha(alpha) + 1.0)) < 1e-12


def test_c2_monotone_decreasing():
    xs = [PI / 3 + k * 1e-3 for k in range(1, int((PI / 3) / 1e-3))]
    ys = [c2_alpha(x) for x in xs]
    assert all(b < a for a, b in zip(ys, ys[1:]))


# ---------------------------------------------------------------------------
# necessary / sufficient predicates


def test_necessary_examples():
    assert necessary_excluded(1, 2, 0.45 * PI)  # s=7 >= g(0.45pi)=6.06
    assert not necessary_excluded(0, 1, 0.4 * PI)
    assert not necessary_excluded(0, 1, 0.6 * PI)
    assert not necessary_excluded(1, 1, 2 * PI / 3 - 1e-12)  # s=3 < 3.701
    with pytest.raises(DomainError):
        necessary_excluded(2, 4, 0.5 * PI)
    with pytest.raises(DomainError):
        necessary_excluded(0, 0, 0.5 * PI)


def test_sufficient_examples():
    # threshold for s=1 is 2 asin(pi / (1 + sqrt(1 + 2 pi^2))) = 1.2024...
    assert sufficient_exists(0, 1, 0.4 * PI)  # a_t = 1.1040 < 1.2024
    assert not sufficient_exists(0, 1, 0.6 * PI)  # a_t = 1.8091
    assert tetra_edge(0.4 * PI) == pytest.approx(1.1071487177940904, abs=1e-12)
    # large s forces the threshold to zero
    assert not sufficient_exists(99, 100, 0.4 * PI)


def test_necessary_matches_arcsine_form():
    # on its admissible domain the published arcsine inequality and the
    # g-threshold agree
    for p, q in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5)):
        s = s_form(p, q)
        assert 4 * s > PI2 and s / (4 * s - PI2) <= 1.0
        thresh = 2.0 * math.asin(math.sqrt(s / (4.0 * s - PI2)))
        k = 1
        while True:
            alpha = PI / 3 + k * 1e-3
            if alpha >= 2 * PI / 3:
                break
            assert necessary_excluded(p, q, alpha) == (alpha > thresh)
            k += 1


def test_sufficiency_implies_not_excluded():
    for k in range(1, 105):
        alpha = PI / 3 + k * 1e-2
        if alpha >= 2 * PI / 3:
            break
        for p, q in candidate_types(alpha):
            if sufficient_exists(p, q, alpha):
                assert not necessary_excluded(p, q, alpha)


# ---------------------------------------------------------------------------
# totients


def test_totient_small():
    total, _ = totient_sum(1)
    assert total == 1
    total, _ = totient_sum(10)
    assert total == 32


def test_totient_asymptotic():
    total, ratio = totient_sum(1000)
    assert abs(ratio - 1.0) < 0.01


def test_phi_even_from_three():
    phi = phi_table(10_000)
    assert all(phi[n] % 2 == 0 for n in range(3, 10_001))


def test_phi_values():
    phi = phi_table(12)
    assert phi[1:] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


@pytest.mark.parametrize("call", [
    lambda spec: cone_angle(spec, 1.5),
    lambda spec: cone_angle(spec, True),
    lambda spec: cone_angle(spec, 1.0),
    lambda spec: totient_sum(True),
    lambda spec: totient_sum(2.5),
    lambda spec: phi_table(True),
    lambda spec: phi_table(2.5),
], ids=["cone-1.5", "cone-True", "cone-1.0", "totient-True", "totient-2.5",
        "phi-True", "phi-2.5"])
def test_non_integer_ids_and_counts_refused(call):
    # a bool counts as 0 or 1 and a float indexes nothing: both are refused,
    # not read as vertex 1 or as a count
    with pytest.raises(DomainError):
        call(build_solid(SolidKind.CUBE, 0.6 * PI))


# ---------------------------------------------------------------------------
# lattice counts


def test_psi_s_threshold():
    assert psi_count(8) == 2  # (1,1): s=3 and (1,2): s=7
    assert psi_count(3) == 0  # strict inequality
    assert psi_count(3.0001) == 1


def test_psi2_counts_candidates_past_first():
    # count_tetra reads psi2 off its candidate list: the pairs past (0, 1)
    # are exactly the lattice pairs psi_count finds below g(alpha)
    for k in range(1, 200):
        alpha = PI / 3 + (PI / 3) * k / 200
        assert len(candidate_types(alpha)) - 1 == psi_count(g_alpha(alpha))


def test_psi1_counts_candidates_below_f():
    # count_tetra reads psi1 off its candidate list too: f < g on the whole
    # interval, so the lattice pairs psi_count finds below f(alpha) are the
    # candidates past (0, 1) with s < f.  A bound of 3 crossings solves no
    # type, so each count only lists its candidates
    for k in range(1, 200):
        alpha = PI / 3 + (PI / 3) * k / 200
        assert f_alpha(alpha) < g_alpha(alpha)
        assert count_tetra(alpha, 3).psi1 == psi_count(f_alpha(alpha)), alpha


def test_candidate_listing_bounded():
    # every angle in use lists its candidates, down to 0.3334pi; at
    # pi/3 + 1e-9, g(alpha) = 1.4e9 would ask for 2.6e8 pairs, so each
    # lister refuses before listing any
    assert len(candidate_types(0.3334 * PI)) == 1252 <= counts.MAX_CANDIDATES
    alpha = PI / 3 + 1e-9
    for call in (candidate_types, lambda a: psi_count(g_alpha(a)), count_tetra,
                 lambda a: count_tetra(a, 3)):
        with pytest.raises(DomainError, match="more than 2000 candidate types"):
            call(alpha)


def test_psi_bounds_bracket_candidates():
    # psi1 <= N <= psi2 + 1 by construction of the thresholds
    for api in (0.38, 0.45, 0.55):
        rep = count_tetra(api * PI)
        assert rep.psi1 <= rep.n <= rep.psi2 + 1


# ---------------------------------------------------------------------------
# full reports


def test_count_tetra_pinned_across_interval():
    # data/count_tetra.txt pins count_tetra at alpha = pi/3 + (pi/3)(k + 0.5)/60
    # for k = 0..59, then at 0.3334pi, the tightest angle in use, where it
    # solves the longest typed walks: N and the sha256 of the whole report's repr
    rows = COUNT_TETRA_TXT.read_text().splitlines()[1:]
    alphas = [PI / 3 + (PI / 3) * (k + 0.5) / 60 for k in range(60)] + [0.3334 * PI]
    assert len(rows) == len(alphas)
    for alpha, row in zip(alphas, rows):
        rep = count_tetra(alpha)
        digest = hashlib.sha256(repr(rep).encode()).hexdigest()
        assert f"{alpha!r} {rep.n} {digest}" == row
        # psi1 reads f(alpha); each verdict reads the edge-length form
        assert rep.psi1 == sum(v.verdict == "sufficient-guaranteed" and v.p > 0
                               for v in rep.verdicts)


def test_sufficiency_threshold_forms_agree():
    # s < f(alpha), which psi1 counts, and sufficient_exists' arcsine form
    # of the edge length pick the same coprime pairs 0 < p <= q, all of them
    # candidates (s < g), at 2000 angles across the interval
    for k in range(2000):
        alpha = PI / 3 + (PI / 3) * (k + 0.5) / 2000
        guaranteed = sum(sufficient_exists(p, q, alpha)
                         for p, q in candidate_types(alpha) if p > 0)
        assert psi_count(f_alpha(alpha)) == guaranteed, alpha


def test_count_tetra_uniqueness_band():
    rep = count_tetra(0.6 * PI)
    assert rep.n == 1
    assert rep.realizable == ((0, 1),)
    for v in rep.verdicts:
        if (v.p, v.q) != (0, 1):
            assert not v.found


def test_count_tetra_envelope_mid():
    rep = count_tetra(0.45 * PI)
    assert rep.n >= 1
    assert rep.c1 < rep.n < rep.c2


# The strict envelope c1 < N < c2 fails on two bands of alpha.  Each
# starts where c2 falls to N (c2 = 6 at 2 asin(sqrt(5/18)), c2 = 3 at
# 2 asin(1/sqrt 3)) and ends where the band's type stops closing:
# (1, 4) near 0.35509pi, (1, 2) near 0.4pi, the found type of largest s
# there.  (left end, right end, N, type)
ENVELOPE_BANDS = (
    (2 * math.asin(math.sqrt(5 / 18)), 0.35509 * PI, 6, (1, 4)),
    (2 * math.asin(1 / math.sqrt(3)), 0.4 * PI, 3, (1, 2)),
)


def test_envelope_fails_on_two_bands():
    # every angle k*pi/2000 from 0.335pi to 0.665pi; a band that appears,
    # disappears, moves by a grid step or changes its N fails the test
    failing = {}
    for k in range(670, 1331):
        rep = count_tetra(k * PI / 2000)
        assert rep.c1 < rep.n, k
        if not rep.n < rep.c2:
            failing[k] = (rep.n, rep.realizable[-1])
    expected = {k: (n, pq) for k in range(670, 1331)
                for lo, hi, n, pq in ENVELOPE_BANDS if lo < k * PI / 2000 < hi}
    assert failing == expected
    assert sorted(failing) == [*range(707, 711), *range(784, 800)]
    for lo, _, n, _ in ENVELOPE_BANDS:
        assert c2_alpha(lo) == pytest.approx(n, abs=1e-12)


def test_count_tetra_two_types_at_035():
    rep = count_tetra(0.35 * PI)
    assert rep.n >= 2
    assert (0, 1) in rep.realizable and (1, 1) in rep.realizable
    assert sufficient_exists(0, 1, 0.35 * PI)
    assert sufficient_exists(1, 1, 0.35 * PI)


def test_sufficient_guaranteed_always_found():
    for api in (0.35, 0.4, 0.5, 0.6):
        rep = count_tetra(api * PI)
        for v in rep.verdicts:
            if v.verdict == "sufficient-guaranteed":
                assert v.found


def test_depth_cap_reported():
    rep = count_tetra(0.35 * PI, max_crossings=8)
    capped = [v for v in rep.verdicts if v.verdict == "depth-capped"]
    assert capped  # (1,2) needs 12 crossings
    assert all(4 * (v.p + v.q) > 8 for v in capped)


@pytest.mark.parametrize("depth", [12.5, math.nan, True], ids=["fraction", "nan", "bool"])
def test_count_tetra_rejects_non_integer_depth(depth):
    # NaN fails every "needs more crossings" comparison, so it would read as
    # no cap, where enumerate_classes refuses it; True would cap every type
    # as depth 1 and report N = 0
    with pytest.raises(DomainError, match="not an integer"):
        count_tetra(0.45 * PI, depth)


def test_count_tetra_rejects_depth_below_three():
    # no closed walk has fewer than 3 crossings: such a bound would report
    # every type depth-capped with N = 0, and enumerate_classes refuses it
    # with the same message
    spec = build_solid(SolidKind.TETRAHEDRON, 0.45 * PI)
    for depth in (-5, 0, 2):
        for call in (lambda: count_tetra(0.45 * PI, depth),
                     lambda: enumerate_classes(spec, depth)):
            with pytest.raises(DomainError, match="^max_crossings must be at least 3$"):
                call()
    # 3 is accepted; every type needs at least 4 crossings, so all are capped
    rep = count_tetra(0.45 * PI, 3)
    assert rep.n == 0 and rep.verdicts
    assert all(v.verdict == "depth-capped" for v in rep.verdicts)


@pytest.mark.parametrize("alpha", [PI / 3, 2 * PI / 3, 0.7 * PI, math.nan])
def test_count_tetra_rejects_inadmissible_alpha(alpha):
    # the tetrahedron is built first, and it refuses the angle
    with pytest.raises(DomainError, match="admissible interval"):
        count_tetra(alpha)


@pytest.mark.parametrize("call", [
    lambda: necessary_excluded(True, 2, 0.4 * PI),
    lambda: sufficient_exists(0, True, 0.4 * PI),
], ids=["necessary_excluded", "sufficient_exists"])
def test_type_checks_reject_bool(call):
    with pytest.raises(DomainError, match="must be integers"):
        call()


def test_count_tetra_verdicts_in_candidate_order():
    # the types are solved along one walk in the order of their turn words;
    # the verdicts come back in candidate order, each solve_tetra_type's;
    # two of the 53 candidates at this angle are not realizable
    alpha = 0.335 * PI
    spec = build_solid(SolidKind.TETRAHEDRON, alpha)
    rep = count_tetra(alpha)
    assert [(v.p, v.q) for v in rep.verdicts] == candidate_types(alpha)
    assert [v.found for v in rep.verdicts] == [
        solve_tetra_type(spec, v.p, v.q) is not None for v in rep.verdicts]
    assert not all(v.found for v in rep.verdicts)


def test_count_verdicts_match_reference_near_flat_limit():
    # the sweep-flat benchmark's range, 0.334pi to 0.340pi in steps of
    # 0.0005pi, where the typed walks are longest: every candidate's verdict
    # must be the arc-by-arc reference solver's on the reference layout of
    # the type's sequence, with both signs of the closing rotation's axis
    outcomes = set()
    for k in range(13):
        api = 0.334 + 0.0005 * k
        alpha = api * PI
        spec = build_solid(SolidKind.TETRAHEDRON, alpha)
        for v in count_tetra(alpha).verdicts:
            dev = reference_develop(spec, tetra_type_sequence(spec, v.p, v.q))
            axis, ang, near_identity = sphtrig.axis_angle(dev.placements[-1])
            poles = () if near_identity else ((axis, ang), (sphtrig.neg(axis), 2 * PI - ang))
            found = any(reference_path_for_pole(spec, dev, pole, theta, SOLVE_TOL, SOLVE_TOL)
                        is not None for pole, theta in poles)
            assert v.found == found, (api, v.p, v.q)
            outcomes.add(found)
    assert outcomes == {True, False}
