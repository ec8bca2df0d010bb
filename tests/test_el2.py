"""Elliptic plane: distances, angles, triangles, circles, motions."""

import math

import numpy as np
import pytest

from elga.algebra import (
    AlgebraError,
    Multivector,
    Space,
    ZeroInput,
    coeff_norm,
    dual_I,
    geometric_product,
    inner,
    inverse_blade,
    normalized,
    outer,
    regressive,
    tolerance,
)
from elga import el2
from helpers import (
    assert_mv_close,
    assert_mv_close_up_to_sign,
    classify_circle_by_orbit,
    rand_line_el2,
    rand_point,
)

S = Space.EL2


def pt(w, x, y):
    return Multivector.from_terms(S, {"e12": w, "e20": x, "e01": y})


def ln(d, a, b):
    return Multivector.from_terms(S, {"e0": d, "e1": a, "e2": b})


# ---------------------------------------------------------------------------
# distances and angles


def test_distance_pp_worked_value():
    assert abs(el2.distance_pp(pt(1, 1, 0), pt(1, 0, 2))
               - math.acos(1 / math.sqrt(10))) < 1e-12


def test_distance_pp_trivials():
    p = pt(1, 0.3, -0.4)
    assert el2.distance_pp(p, p) < 1e-12
    assert abs(el2.distance_pp(pt(1, 0, 0), pt(0, 1, 0)) - math.pi / 2) < 1e-15


def test_distance_pp_standard_coordinates(rng):
    for _ in range(20):
        x, y = rng.uniform(-3, 3, size=2)
        r = el2.distance_pp(el2.PointEl2.from_xy(x, y).mv, pt(1, 0, 0))
        rho = math.hypot(x, y)
        assert abs(math.sin(r) - rho / math.sqrt(1 + rho * rho)) < 1e-12


def test_angle_ll():
    assert abs(el2.angle_ll(ln(0, 1, 0), ln(0, 0, 1)) - math.pi / 2) < 1e-15
    a = ln(0.3, 1.2, -0.5)
    assert el2.angle_ll(a, a) < 1e-7   # arccos conditioning at 1


def test_angle_equals_polar_distance(rng):
    for _ in range(50):
        a, b = rand_line_el2(rng), rand_line_el2(rng)
        alpha = el2.angle_ll(a, b)
        if alpha > math.pi / 2:
            continue
        assert abs(alpha - el2.distance_pp(dual_I(a), dual_I(b))) < 1e-7


def test_distance_lp_worked_value():
    a = ln(-2, 2, 1)
    p = pt(1, -3 / 5, 4 / 5)
    assert abs(el2.distance_lp(a, p) - math.asin(2.4 / (3 * math.sqrt(2)))) < 1e-12


def test_distance_lp_origin_cases(rng):
    assert abs(el2.distance_lp(ln(1, 0, 0), pt(1, 0, 0)) - math.pi / 2) < 1e-15
    for _ in range(20):
        d, a, b = rng.standard_normal(3)
        line = normalized(ln(d, a, b))
        assert abs(math.sin(el2.distance_lp(line, pt(1, 0, 0)))
                   - abs(line.coeff("e0"))) < 1e-12


def test_point_on_line_distance_zero(rng):
    for _ in range(20):
        p, q = rand_point(S, rng), rand_point(S, rng)
        line = regressive(p, q)
        assert el2.distance_lp(line, p) < 1e-12


# ---------------------------------------------------------------------------
# perpendiculars


def test_perpendicular_through_origin():
    got = el2.perpendicular_through(ln(0, 1, 0), pt(1, 0, 0))
    assert_mv_close_up_to_sign(normalized(got), ln(0, 0, 1), 1e-14)


def test_perpendicular_degenerate_polar():
    a = ln(-2, 2, 1)
    with pytest.raises(el2.DegeneratePolar):
        el2.perpendicular_through(a, dual_I(a))


@pytest.mark.parametrize("k", [-400, -300, 300, 400])
def test_perpendicular_through_scales_with_its_operands(k):
    # the zero test squared the result's norm, which underflowed at 2**-300
    a, p = ln(0.3, 1, -0.5), pt(1, 0.2, 0.7)
    s = 2.0 ** k
    assert el2.perpendicular_through(a * s, p * s) == el2.perpendicular_through(a, p) * (s * s)


def test_perpendicular_properties(rng):
    for _ in range(50):
        a, p = rand_line_el2(rng), rand_point(S, rng)
        if coeff_norm(inner(a, p)) < 1e-3:
            continue
        perp = el2.perpendicular_through(a, p)
        assert abs(el2.angle_ll(a, perp) - math.pi / 2) < 1e-10
        # passes through P and through the polar point of a
        assert abs(outer(perp, p).pseudo_part) < 1e-12
        assert abs(outer(perp, dual_I(a)).pseudo_part) < 1e-12


# ---------------------------------------------------------------------------
# triangles


TRI_PLAIN = (pt(1, -1, 0), pt(1, -2, 1), pt(1, -3 / 4, 3 / 2))
TRI_WRAPPED = (pt(1, 3, -1), pt(1, -2, 1), pt(1, -3 / 4, 3 / 2))


def right_split_area(p, q, r):
    """Independent oracle: drop a perpendicular from r onto pq and apply
    the right-angle sine formula to the two pieces."""
    p, q, r = normalized(p), normalized(q), normalized(r)
    side = regressive(p, q)
    foot = normalized(outer(side, inner(side, r)))
    s1 = el2.right_triangle_area(foot, p, r)
    s2 = el2.right_triangle_area(foot, q, r)
    between = abs(el2.distance_pp(p, foot) + el2.distance_pp(foot, q)
                  - el2.distance_pp(p, q)) < 1e-9
    return s1 + s2 if between else abs(s1 - s2)


def test_triangle_max_area():
    assert abs(el2.triangle_area(pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)) - math.pi / 2) < 1e-12
    assert abs(el2.right_triangle_area(pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))
               - math.pi / 2) < 1e-15


def test_triangle_plain_excess_vs_split():
    area = el2.triangle_area(*TRI_PLAIN)
    assert abs(area - right_split_area(*TRI_PLAIN)) < 1e-10


def test_triangle_wrapped_excess_vs_split():
    area = el2.triangle_area(*TRI_WRAPPED)
    assert abs(area - right_split_area(*TRI_WRAPPED)) < 1e-10


def test_triangle_plain_matches_oriented_side_recipe():
    # alpha + beta - gamma with the sides P v Q, P v R, R v Q
    p, q, r = (normalized(v) for v in TRI_PLAIN)
    side_r = normalized(regressive(p, q))
    side_q = normalized(regressive(p, r))
    side_p = normalized(regressive(r, q))
    alpha = math.acos(inner(side_r, side_q).scalar_part)
    beta = math.acos(inner(side_r, side_p).scalar_part)
    gamma = math.acos(inner(side_q, side_p).scalar_part)
    assert abs(el2.triangle_area(*TRI_PLAIN)
               - (alpha + beta - gamma)) < 1e-12


def test_triangle_degenerate():
    with pytest.raises((ValueError, AlgebraError)):
        el2.triangle_area(pt(1, 0, 0), pt(1, 1, 0), pt(1, 2, 0))
    with pytest.raises(ValueError):
        el2.triangle_area(pt(1, 0, 0), pt(-1, 0, 0), pt(1, 1, 0))


def test_right_triangle_area_requires_right_angle():
    with pytest.raises(ValueError):
        el2.right_triangle_area(*TRI_PLAIN)


def test_right_triangle_area_refuses_coincident_vertices():
    # (PvP).(PvR) = 0 passes the right-angle check; the excess then refuses
    p, r = pt(1, 0.2, 0.3), pt(1, 0.2, 0.9)
    for args in ((p, p, r), (p, r, p), (p, -p, r)):
        with pytest.raises(ValueError, match="coincident"):
            el2.right_triangle_area(*args)


def test_random_triangles_excess_vs_split(rng):
    count = 0
    while count < 40:
        p = el2.PointEl2.from_xy(*rng.uniform(-1.5, 1.5, size=2)).mv
        q = el2.PointEl2.from_xy(*rng.uniform(-1.5, 1.5, size=2)).mv
        r = el2.PointEl2.from_xy(*rng.uniform(-1.5, 1.5, size=2)).mv
        try:
            area = el2.triangle_area(p, q, r)
        except (ValueError, AlgebraError):
            continue
        assert abs(area - right_split_area(p, q, r)) < 1e-10
        count += 1


def excess_by_inner(p, q, r):
    """The excess of el2._excess with each side cosine from a full inner product."""
    p, q, r = (normalized(v) for v in (p, q, r))
    cos_c, cos_b, cos_a = (-inner(u, v).scalar_part for u, v in ((p, q), (p, r), (q, r)))
    if (cos_c < 0) != (cos_b < 0):
        cos_a = -cos_a
    triple = abs(regressive(regressive(p, q), r).scalar_part)
    return 2.0 * math.atan2(triple, 1.0 + cos_a + abs(cos_b) + abs(cos_c))


def test_side_cosines_from_the_grade_2_slots_keep_the_excess_bit_for_bit(rng):
    # negating a sum is exact, so the dot products of the three point slots in
    # the inner kernel's order are the negated inner products, bit for bit
    count = 0
    while count < 500:
        p, q, r = (rand_point(S, rng) * rng.uniform(0.1, 10.0) for _ in range(3))
        try:
            area = el2.triangle_area(p, q, r)
        except (ValueError, AlgebraError):
            continue
        assert area == excess_by_inner(p, q, r)
        count += 1


def test_max_area_construction(rng):
    # line b through the polar point of a; c joins the two polar points
    for _ in range(30):
        a = rand_line_el2(rng)
        b = normalized(regressive(dual_I(a), rand_point(S, rng)))
        c = regressive(dual_I(a), dual_I(b))
        va, vb, vc = outer(a, b), outer(a, c), outer(b, c)
        assert abs(el2.triangle_area(va, vb, vc) - math.pi / 2) < 1e-10


def test_no_parallel_lines(rng):
    for _ in range(50):
        a, b = rand_line_el2(rng), rand_line_el2(rng)
        if coeff_norm(a - b) < 1e-3 or coeff_norm(a + b) < 1e-3:
            continue
        assert coeff_norm(outer(a, b)) > 1e-9


# ---------------------------------------------------------------------------
# projections, rejections, reflections


def test_reflect_line_in_mirror_coordinate_oracle():
    # reflecting d*e0 + a*e1 + b*e2 in the chart line x = 0 maps a -> -a
    a = ln(-2, 2, 1)
    mirror = ln(0, 1, 0)
    got = el2.reflect_topdown(a, mirror)
    assert_mv_close_up_to_sign(got, ln(-2, -2, 1), 1e-12)
    assert_mv_close(got, -geometric_product(
        geometric_product(mirror, a), inverse_blade(mirror)), 1e-14)


def test_project_reject_decomposition(rng):
    for _ in range(50):
        p, a = rand_point(S, rng), rand_line_el2(rng)
        assert_mv_close(el2.project(p, a) + el2.reject(p, a), p, 1e-12)


def test_rejection_lands_at_polar_point(rng):
    for _ in range(50):
        p, a = rand_point(S, rng), rand_line_el2(rng)
        rej = el2.reject(p, a)
        if coeff_norm(rej) < 1e-6:
            continue
        assert_mv_close_up_to_sign(normalized(rej), normalized(dual_I(a)), 1e-10)


def test_reflection_direction_parity(rng):
    a = rand_line_el2(rng)
    p, q = rand_point(S, rng), rand_point(S, rng)
    b = rand_line_el2(rng)
    # mirrors of odd grade flip the sign between the two directions
    assert_mv_close(el2.reflect_topdown(b, a), -el2.reflect_bottomup(b, a), 1e-13)
    assert_mv_close(el2.reflect_topdown(p, a), -el2.reflect_bottomup(p, a), 1e-13)
    # mirrors of even grade (points, k = 2) make them coincide
    assert_mv_close(el2.reflect_topdown(b, q), el2.reflect_bottomup(b, q), 1e-13)


# ---------------------------------------------------------------------------
# rotations


def test_rotate_trivials(rng):
    p, r = rand_point(S, rng), rand_point(S, rng)
    assert_mv_close(el2.rotate(p, r, 0.0), p, 1e-14)
    assert_mv_close(el2.rotate(p, p, 1.234), p, 1e-12)
    alpha = rng.uniform(-2, 2)
    back = el2.rotate(el2.rotate(p, r, alpha), r, -alpha)
    assert_mv_close(back, p, 1e-12)


def test_rotation_is_isometry(rng):
    for _ in range(30):
        r = rand_point(S, rng)
        alpha = rng.uniform(-3, 3)
        p, q = rand_point(S, rng), rand_point(S, rng)
        a, b = rand_line_el2(rng), rand_line_el2(rng)
        images = [el2.rotate(x, r, alpha) for x in (p, q, a, b)]
        assert abs(el2.distance_pp(p, q) - el2.distance_pp(images[0], images[1])) < 1e-10
        assert abs(el2.angle_ll(a, b) - el2.angle_ll(images[2], images[3])) < 1e-10
        assert abs(el2.distance_lp(a, p) - el2.distance_lp(images[2], images[0])) < 1e-10


def test_rotation_angle_matches_elliptic_metric(rng):
    # rotating by alpha moves a point at distance pi/2 (on the polar line)
    # by exactly alpha along the circle; check with the trajectory chord
    r = rand_point(S, rng)
    p = normalized(outer(dual_I(r), rand_line_el2(rng)))
    alpha = 0.4
    moved = el2.rotate(p, r, alpha)
    assert abs(el2.distance_pp(p, moved) - alpha) < 1e-10


# ---------------------------------------------------------------------------
# circles


def test_classify_circle_worked_examples():
    assert el2.classify_circle(pt(1, 0.5, 0), pt(1, 3, 0)) is el2.CircleKind.ELLIPTIC
    assert el2.classify_circle(pt(0, 1, 0), pt(1, 2 / 3, 0)) is el2.CircleKind.HYPERBOLIC


def test_classify_circle_line_and_degenerate():
    r = normalized(pt(1, 0.5, 0))
    on_polar = outer(dual_I(r), ln(0, 1, 0))
    assert abs(el2.distance_pp(r, on_polar) - math.pi / 2) < 1e-12
    assert el2.classify_circle(r, on_polar) is el2.CircleKind.LINE
    assert el2.classify_circle(r, r) is el2.CircleKind.ELLIPTIC


def test_classify_circle_parabolic_by_construction():
    # the circle through the foot of the perpendicular from R to e0 is
    # tangent to e0, hence parabolic
    r = normalized(pt(1, 0.5, 0))
    e0 = ln(1, 0, 0)
    foot = normalized(outer(e0, inner(e0, r)))
    assert el2.classify_circle(r, foot) is el2.CircleKind.PARABOLIC


def scan_zero_crossings(r, p, samples=10_000):
    """Brute-force oracle: count sign changes of the e12 coefficient."""
    r, p = normalized(r), normalized(p)
    ts = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    w = np.array([el2.rotate(p, r, float(t)).coeff("e12") for t in ts])
    signs = np.sign(w)
    return int(np.sum(signs != np.roll(signs, -1)))


@pytest.mark.parametrize("rp,pp,expected", [
    ((1, 0.5, 0), (1, 3, 0), 0),
    ((0, 1, 0), (1, 2 / 3, 0), 2),
    ((1, 0.5, 0), (1, -3, 0.4), 2),
])
def test_classify_circle_against_scan_oracle(rp, pp, expected):
    r, p = pt(*rp), pt(*pp)
    assert scan_zero_crossings(r, p) == expected
    kind = el2.classify_circle(r, p)
    assert kind is {0: el2.CircleKind.ELLIPTIC,
                    2: el2.CircleKind.HYPERBOLIC}[expected]


def test_classify_circle_random_against_scan(rng):
    for _ in range(15):
        r = rand_point(S, rng)
        p = rand_point(S, rng)
        kind = el2.classify_circle(r, p)
        if kind in (el2.CircleKind.LINE, el2.CircleKind.PARABOLIC):
            continue
        crossings = scan_zero_crossings(r, p, samples=2000)
        assert crossings == {el2.CircleKind.ELLIPTIC: 0,
                             el2.CircleKind.HYPERBOLIC: 2}[kind]


def test_classify_circle_agrees_with_the_orbit_rule_away_from_its_thresholds(rng):
    # a pair counts when both rules give the same kind at a tolerance of 1e-6
    # as at 1e-9, so neither sits near a threshold of the other
    compared = 0
    for _ in range(2000):
        r, p = rand_point(S, rng), rand_point(S, rng) * rng.uniform(0.1, 10.0)
        kind, ref = el2.classify_circle(r, p), classify_circle_by_orbit(r, p)
        with tolerance(1e-6):
            if (el2.classify_circle(r, p), classify_circle_by_orbit(r, p)) != (kind, ref):
                continue
        assert kind is ref
        compared += 1
    assert compared > 1990


@pytest.mark.parametrize("shift, kind", [(-10.0, el2.CircleKind.ELLIPTIC),
                                         (0.0, el2.CircleKind.PARABOLIC),
                                         (10.0, el2.CircleKind.HYPERBOLIC)])
def test_classify_circle_at_and_ten_eps_either_side_of_tangency(shift, kind):
    # R lies delta from the ideal line e0; P lies on the same line through the
    # chart origin at delta + shift*eps from R, so the circle misses e0 by
    # -shift*eps (shift 0: P on e0, the circle tangent to it)
    delta, s = 0.7, shift * 1e-9
    r, p = pt(math.sin(delta), math.cos(delta), 0.0), pt(math.sin(-s), math.cos(-s), 0.0)
    assert abs(el2.distance_pp(r, p) - (delta + s)) < 1e-15
    assert el2.classify_circle(r, p) is kind


def test_classify_circle_refuses_what_is_not_two_points():
    with pytest.raises(ZeroInput, match="cannot normalise a zero element"):
        el2.classify_circle(Multivector.zero(S), pt(1, 0.5, 0))
    with pytest.raises(ValueError, match="needs two el2 points"):
        el2.classify_circle(ln(0.3, 1, 0), pt(1, 0.5, 0))
    with pytest.raises(ValueError, match="needs two el2 points"):
        el2.classify_circle(pt(1, 0.5, 0), ln(0.3, 1, 0))


# ---------------------------------------------------------------------------
# blade views


def test_point_view_accessors():
    p = el2.PointEl2.from_xy(0.25, -1.5)
    assert (p.w, p.x, p.y) == (1.0, 0.25, -1.5)
    assert p.chart_xy() == (0.25, -1.5)
    with pytest.raises(ValueError):
        el2.PointEl2(ln(1, 0, 0))
    with pytest.raises(ValueError):
        el2.LineEl2(pt(1, 0, 0))


@pytest.mark.parametrize("k", [-1000, -600, 600])
def test_chart_xy_of_a_scaled_point(k):
    # only w == 0 has no chart coordinates, at any power-of-two weight
    p = el2.PointEl2(el2.PointEl2.from_xy(0.5, -0.25).mv * 2.0 ** k)
    assert p.chart_xy() == (0.5, -0.25)
    with pytest.raises(ZeroDivisionError):
        el2.PointEl2(pt(0.0, 2.0 ** k, 0.0)).chart_xy()
