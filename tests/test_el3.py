"""Elliptic 3-space: metrics, axes, Clifford parallels/translations,
projections, reflections, double rotations, quaternion bridge."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from elga.algebra import (
    Multivector,
    NonSimpleBivector,
    Space,
    axis_split,
    coeff_norm,
    commutator,
    dual_I,
    exp_bivector,
    geometric_product,
    inner,
    inverse_blade,
    is_clifford_bivector,
    is_simple_bivector,
    normalized,
    outer,
    plucker_residual,
    regressive,
)
from elga import algebra, el3, geometry
from helpers import (
    assert_mv_close,
    assert_mv_close_up_to_sign,
    mv_diff,
    rand_bivector_el3,
    rand_line_el3,
    rand_plane_el3,
    rand_point,
    seed_projection_on_line,
)

S = Space.EL3


def ln(p10, p20, p30, p23, p31, p12):
    return Multivector.from_terms(S, {"e10": p10, "e20": p20, "e30": p30,
                                      "e23": p23, "e31": p31, "e12": p12})


def point(w, x, y, z):
    return Multivector.from_terms(S, {"e123": w, "e320": x, "e130": y, "e210": z})


def plane(d, a, b, c):
    return Multivector.from_terms(S, {"e0": d, "e1": a, "e2": b, "e3": c})


REF_LINE = ln(0, -1 / 3, 1, 1, -1, -1 / 3)          # norm sqrt(29)/3
COMM_LAM = ln(-3 / 2, 1, -1 / 2, -1, -5 / 2, -2)
COMM_PHI = ln(1, 5 / 3, -2, -1, 3, 2)
SIN_R1 = math.sqrt((22 - 5 * math.sqrt(17)) / 59)
SIN_R2 = math.sqrt((22 + 5 * math.sqrt(17)) / 59)
REF_PLANE = plane(1, 0.5, -1.5, 1)
REF_POINT = point(1, -0.5, 0, 1.5)


# ---------------------------------------------------------------------------
# distances and angles


def test_distance_pp_origin_formula(rng):
    p = point(1, 1, 0, 0)
    assert abs(el3.distance_pp(el3.ORIGIN, p) - math.pi / 4) < 1e-12
    for _ in range(20):
        x, y, z = rng.uniform(-2, 2, size=3)
        r = el3.distance_pp(el3.ORIGIN, point(1, x, y, z))
        rho = math.sqrt(x * x + y * y + z * z)
        assert abs(math.sin(r) - rho / math.sqrt(1 + rho * rho)) < 1e-12


def test_distance_line_point_cases(rng):
    for _ in range(10):
        p, q = rand_point(S, rng), rand_point(S, rng)
        line = normalized(regressive(p, q))
        assert el3.distance_line_point(line, p) < 1e-12
        # points on the polar line are at pi/2
        far = el3.sweep_line_point(dual_I(line), el3.point_on_line(dual_I(line)),
                                   rng.uniform(0, 3))
        assert abs(el3.distance_line_point(line, far) - math.pi / 2) < 1e-12
        assert coeff_norm(inner(line, far)) < 1e-12


def test_distance_plane_point_along_perpendicular(rng):
    for _ in range(20):
        a, p = rand_plane_el3(rng), rand_point(S, rng)
        r = el3.distance_plane_point(a, p)
        foot = el3.project_on_plane(p, a)
        if coeff_norm(foot) < 1e-6:
            continue
        assert abs(el3.distance_pp(p, foot) - r) < 1e-10


def test_angle_planes():
    assert abs(el3.angle_planes(plane(0, 1, 0, 0), plane(0, 0, 1, 0))
               - math.pi / 2) < 1e-15
    a, b = normalized(plane(0.3, 1, -2, 0.5)), normalized(plane(1, 0.2, 0.4, -1))
    prod = geometric_product(a, b)
    alpha = el3.angle_planes(a, b)
    # a b = cos(alpha) + line * sin(alpha) with the meet line normalised
    assert abs(prod.scalar_part - math.cos(alpha)) < 1e-12
    meet = outer(a, b)
    assert abs(coeff_norm(meet) - math.sin(alpha)) < 1e-12


def test_angle_line_plane_cases(rng):
    a = rand_plane_el3(rng)
    # a line inside the plane: join of two points on the plane
    p1 = el3.project_on_plane(rand_point(S, rng), a)
    p2 = el3.project_on_plane(rand_point(S, rng), a)
    inside = regressive(p1, p2)
    assert coeff_norm(outer(a, inside)) < 1e-12
    assert el3.angle_line_plane(inside, a) < 1e-12
    # a line through the polar point aI is perpendicular to a
    through_polar = regressive(dual_I(a), rand_point(S, rng))
    assert coeff_norm(inner(a, through_polar)) < 1e-12
    assert abs(el3.angle_line_plane(through_polar, a) - math.pi / 2) < 1e-12


def test_polar_line_distance_constant(rng):
    line = rand_line_el3(rng)
    polar = dual_I(line)
    for _ in range(10):
        p = el3.sweep_line_point(line, el3.point_on_line(line), rng.uniform(0, 3))
        q = el3.sweep_line_point(polar, el3.point_on_line(polar), rng.uniform(0, 3))
        assert abs(el3.distance_pp(p, q) - math.pi / 2) < 1e-12


# ---------------------------------------------------------------------------
# axis decomposition


def test_axis_decompose_simple(rng):
    line = rand_line_el3(rng)
    dec = el3.axis_decompose(line)
    assert not dec.degenerate
    assert_mv_close(dec.larger, line, 1e-14)
    assert coeff_norm(dec.smaller) == 0.0


def test_axis_decompose_commutator_example():
    comm = commutator(normalized(COMM_LAM), normalized(COMM_PHI))
    dec = el3.axis_decompose(comm)
    assert not dec.degenerate
    assert coeff_norm(dec.larger) > coeff_norm(dec.smaller)
    for axis, expected in ((dec.larger, SIN_R1), (dec.smaller, SIN_R2)):
        q1 = normalized(outer(axis, regressive(COMM_LAM, el3.ORIGIN)))
        p1 = normalized(outer(axis, regressive(COMM_PHI, el3.ORIGIN)))
        assert abs(coeff_norm(regressive(p1, q1)) - expected) < 1e-12


def test_axis_decompose_clifford_canonical():
    xi = Multivector.from_terms(S, {"e10": 1, "e23": 1})   # (I+1) e23
    dec = el3.axis_decompose(xi)
    assert dec.degenerate
    assert_mv_close(dec.larger, Multivector.basis(S, "e23"))
    assert_mv_close(dec.smaller, Multivector.basis(S, "e10"))


def test_axis_invariants_random(rng):
    for _ in range(50):
        b = rand_bivector_el3(rng)
        if abs(plucker_residual(b)) < 1e-3:
            continue
        dec = el3.axis_decompose(b)
        assert abs(inner(dec.larger, dec.smaller).scalar_part) < 1e-10
        assert coeff_norm(commutator(dec.larger, dec.smaller)) < 1e-10
        assert coeff_norm(dec.larger + dec.smaller - b) < 1e-10
        if not dec.degenerate:
            assert coeff_norm(dec.larger) > coeff_norm(dec.smaller)
            # the smaller axis is the polar of the larger, oriented by
            # the sign of the wedge square
            v = regressive(b, b).scalar_part
            sign = 1.0 if v < 0 else -1.0
            assert_mv_close(normalized(dec.smaller),
                            dual_I(normalized(dec.larger)) * sign, 1e-10)


def _bivector_of_kind(kind, rng):
    line = rand_line_el3(rng) * rng.uniform(0.5, 2.0)
    if kind == "line":
        return line
    if kind == "clifford":
        return el3.clifford_bivector(line, ("positive", "negative")[rng.integers(2)]).value
    return rand_bivector_el3(rng)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["line", "clifford", "generic"]),
       seed=st.integers(0, 2**32 - 1), k=st.integers(-600, 600))
def test_axis_split_is_scale_free_and_agrees_with_the_structure_tests(kind, seed, k):
    b = _bivector_of_kind(kind, np.random.default_rng(seed))
    scale = math.ldexp(1.0, k)
    b1, b2, degenerate = axis_split(b * scale)
    want1, want2, want_degenerate = axis_split(b)
    # power-of-two scaling is exact, so the split scales bit for bit
    assert b1.coeffs.tobytes() == (want1 * scale).coeffs.tobytes()
    assert b2.coeffs.tobytes() == (want2 * scale).coeffs.tobytes()
    assert degenerate == want_degenerate
    simple, clifford = is_simple_bivector(b * scale), is_clifford_bivector(b * scale)
    assert (simple, clifford) == (is_simple_bivector(b), is_clifford_bivector(b))
    assert simple == (kind == "line") and clifford == (kind == "clifford")
    assert degenerate == (clifford and not simple)
    assert simple == (not any(b2.coeffs))


def _near_clifford(rng, ratio, family):
    """A bivector whose self-dual and anti-self-dual halves have lengths 1 and
    ratio (swapped for the negative family): L + IL has only a self-dual
    half, of length 1, and M - IM only an anti-self-dual one."""
    line, other = rand_line_el3(rng), rand_line_el3(rng)
    self_dual, anti = line + dual_I(line), other - dual_I(other)
    if family is el3.Family.POSITIVE:
        return self_dual + anti * ratio
    return self_dual * ratio + anti


@pytest.mark.parametrize("j", range(1, 5))
def test_axes_stay_exact_towards_clifford(j, rng):
    # d/c = 10**-j; the generic axes lost about eps_mach * (c/d)**2 here,
    # 5.0e-9 at j = 4, where the closed form keeps a few ulps
    for _ in range(100):
        b = _near_clifford(rng, 10.0 ** -j, el3.Family.POSITIVE)
        b1, b2, degenerate = axis_split(b)
        assert not degenerate
        size = coeff_norm(b)
        for axis in (b1, b2):
            assert abs(plucker_residual(axis)) / coeff_norm(axis) ** 2 <= 1e-14
        assert coeff_norm(commutator(b1, b2)) / size ** 2 <= 1e-14
        assert coeff_norm(b1 + b2 - b) / size <= 1e-14


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(0, 12),
       family=st.sampled_from(list(el3.Family)), k=st.integers(-1074, 1023))
@example(seed=1, j=6, family=el3.Family.POSITIVE, k=0)
def test_is_clifford_bivector_holds_exactly_when_from_bivector_succeeds(seed, j, family, k):
    # j = 0 draws an exact Clifford bivector, j >= 1 one with d/c = 10**-j
    b = _near_clifford(np.random.default_rng(seed), 10.0 ** -j if j else 0.0, family)
    scaled = b * math.ldexp(1.0, k)
    assume(all(map(math.isfinite, scaled.coeffs)))
    try:
        sign = el3.CliffordBivector.from_bivector(scaled).sign
    except ValueError:
        sign = None
    assert is_clifford_bivector(scaled) == (sign is not None)
    if all(math.ldexp(x, -k) == y for x, y in zip(scaled.coeffs, b.coeffs)):   # exact
        # Clifford: 2 d <= 1e-9 hypot(c, d), so from d/c = 1e-10 on
        assert sign is (family if j == 0 or j >= 10 else None)


def test_the_zero_bivector_is_simple_clifford_and_positive():
    for zero in (Multivector.zero(S), Multivector.from_terms(S, {"e12": 0.0})):
        assert is_simple_bivector(zero) and is_clifford_bivector(zero)
        assert el3.CliffordBivector.from_bivector(zero).sign is el3.Family.POSITIVE


def test_axis_decompose_rejects_zero_and_wrong_grade():
    with pytest.raises(ValueError):
        el3.axis_decompose(Multivector.zero(S))
    with pytest.raises(ValueError):
        el3.axis_decompose(Multivector.basis(S, "e0"))


# ---------------------------------------------------------------------------
# Clifford frame and parallels


def test_clifford_frame_origin_line():
    frame = el3.clifford_frame(Multivector.basis(S, "e23"))
    # for an origin line the defining coefficient formulas give -line / +line
    assert_mv_close(frame.minus, -Multivector.basis(S, "e23"), 1e-15)
    assert_mv_close(frame.plus, Multivector.basis(S, "e23"), 1e-15)
    assert abs(inner(frame.minus, frame.minus_perp).scalar_part) < 1e-14
    assert abs(inner(frame.plus, frame.plus_perp).scalar_part) < 1e-14


def test_clifford_frame_worked_line():
    lam = normalized(REF_LINE)
    frame = el3.clifford_frame(lam)
    k = 3 / math.sqrt(29)
    expected_minus = Multivector.from_terms(S, {
        "e23": -k, "e31": (-k / 3) - (-k), "e12": k - (-k / 3)})
    # direct coefficient arithmetic: m = (p10-p23, p20-p31, p30-p12)
    p = [lam.coeff(n) for n in ("e10", "e20", "e30", "e23", "e31", "e12")]
    direct = Multivector.from_terms(S, {
        "e23": p[0] - p[3], "e31": p[1] - p[4], "e12": p[2] - p[5]})
    assert_mv_close(frame.minus, direct, 1e-15)
    assert abs(coeff_norm(frame.minus) - 1.0) < 1e-12
    assert abs(coeff_norm(frame.plus) - 1.0) < 1e-12
    # frames are deterministic
    again = el3.clifford_frame(lam)
    assert_mv_close(frame.minus_perp, again.minus_perp)
    assert_mv_close(frame.plus_perp, again.plus_perp)


def test_frame_lines_normalised_whenever_input_is(rng):
    for _ in range(20):
        frame = el3.clifford_frame(rand_line_el3(rng))
        assert abs(coeff_norm(frame.minus) - 1.0) < 1e-12
        assert abs(coeff_norm(frame.plus) - 1.0) < 1e-12


def test_parallel_trivial_cases():
    lam = normalized(REF_LINE)
    assert_mv_close(el3.clifford_parallel(lam, "positive", 0.7, math.pi / 2),
                    lam, 1e-12)
    assert_mv_close(el3.clifford_parallel(lam, "positive", 0.0, 0.0),
                    dual_I(lam), 1e-12)
    assert_mv_close(el3.clifford_parallel(lam, "negative", 0.0, 0.0),
                    -dual_I(lam), 1e-12)


def test_parallel_distance_and_normalisation(rng):
    lam = normalized(REF_LINE)
    theta = math.pi / 2 - math.pi / 10
    for family in ("positive", "negative"):
        for phi in rng.uniform(0, 2 * math.pi, size=4):
            par = el3.clifford_parallel(lam, family, float(phi), theta)
            assert abs(coeff_norm(par) - 1.0) < 1e-12
            assert abs(plucker_residual(par)) < 1e-12
            anchor = el3.point_on_line(par)
            for t in np.linspace(0, math.pi, 17):
                sample = el3.sweep_line_point(par, anchor, float(t))
                assert abs(el3.distance_line_point(lam, sample)
                           - math.pi / 10) < 1e-9


def test_parallel_rescales_unnormalised_input():
    weight = coeff_norm(REF_LINE)
    par = el3.clifford_parallel(REF_LINE, "positive", 0.9, 1.1)
    par_unit = el3.clifford_parallel(normalized(REF_LINE), "positive", 0.9, 1.1)
    assert_mv_close(par, par_unit * weight, 1e-12)


def test_parallel_of_a_heavy_line_is_its_weight_times_the_unit_parallel():
    # the weight is math.hypot of the line's coefficients, exact under a power
    # of two; their sum of squares overflowed at 2**520 and gave inf and nan
    for family in ("positive", "negative"):
        par = el3.clifford_parallel(REF_LINE, family, 0.9, 1.1)
        heavy = el3.clifford_parallel(REF_LINE * 2.0 ** 520, family, 0.9, 1.1)
        assert heavy == Multivector(S, [math.ldexp(x, 520) for x in par._c])
        assert all(math.isfinite(x) for x in heavy._c)


def test_parallel_theta_validation_and_plucker():
    with pytest.raises(ValueError):
        el3.clifford_parallel(normalized(REF_LINE), "positive", 0.0, 3.5)
    with pytest.raises(NonSimpleBivector):
        el3.clifford_parallel(ln(1, 0, 0, 1, 0, 0), "positive", 0.0, 1.0)


def test_parallels_property(rng):
    lam = rand_line_el3(rng)
    xi_pos = el3.clifford_bivector(lam, "positive")
    xi_neg = el3.clifford_bivector(lam, "negative")
    assert_mv_close(dual_I(xi_pos.value), xi_pos.value, 1e-13)
    assert_mv_close(dual_I(xi_neg.value), -xi_neg.value, 1e-13)
    for phi in (0.0, 1.0, 2.5):
        pos = el3.clifford_parallel(lam, "positive", phi, 1.2)
        neg = el3.clifford_parallel(lam, "negative", phi, 1.2)
        assert coeff_norm((dual_I(pos) + pos) - xi_pos.value) < 1e-12
        assert coeff_norm((dual_I(neg) - neg) - xi_neg.value) < 1e-12


def test_omega_substitution_swaps_frame_lines(rng):
    # plugging (plus + minus)/|...| into the unparametrised forms yields
    # plus as a positive parallel and -minus as a negative parallel
    lam = rand_line_el3(rng)
    frame = el3.clifford_frame(lam)
    omega = normalized(frame.plus + frame.minus)
    weight_m = inner(frame.minus, omega).scalar_part
    pos = lam + (dual_I(omega) - omega) * weight_m
    assert_mv_close(pos, frame.plus, 1e-12)
    weight_p = inner(frame.plus, omega).scalar_part
    neg = lam + (dual_I(omega) + omega) * weight_p
    assert_mv_close(neg, -frame.minus, 1e-12)


def test_parallel_of_parallel_dual(rng):
    # if L+ is a parallel of Xi+ then L+ I is as well
    lam = rand_line_el3(rng)
    xi = el3.clifford_bivector(lam, "positive")
    par = el3.clifford_parallel(lam, "positive", 1.7, 0.8)
    par_dual = dual_I(par)
    assert coeff_norm((dual_I(par_dual) + par_dual) - xi.value) < 1e-12


def test_parallel_through_point(rng):
    lam = rand_line_el3(rng)
    xi = el3.clifford_bivector(lam, "positive")
    # through a point on the line: the line itself, up to scale
    p_on = el3.point_on_line(lam)
    through = el3.parallel_through_point(xi, p_on)
    assert_mv_close_up_to_sign(normalized(through), lam, 1e-10)
    # generic point: passes through it and belongs to the family
    p = rand_point(S, rng)
    par = el3.parallel_through_point(xi, p)
    assert coeff_norm(regressive(par, p)) < 1e-10
    parn = normalized(par)
    assert coeff_norm((dual_I(parn) + parn) - el3.CliffordBivector.from_bivector(
        dual_I(parn) + parn).value) < 1e-12  # is a positive Clifford bivector
    metrics = el3.line_line_metrics(lam, parn)
    assert metrics.relation is el3.LineRelation.CLIFFORD_PARALLEL


def test_clifford_bivector_classification():
    xi = el3.CliffordBivector.from_bivector(
        Multivector.from_terms(S, {"e10": 1, "e23": 1}))
    assert xi.sign is el3.Family.POSITIVE
    with pytest.raises(ValueError):
        el3.CliffordBivector.from_bivector(Multivector.basis(S, "e23"))
    with pytest.raises(ValueError):
        el3.CliffordBivector(Multivector.basis(S, "e23"), el3.Family.POSITIVE)


def test_clifford_bivector_from_bivector_decides_the_family_once(monkeypatch):
    calls = []
    families = el3._families

    def counted(v):
        calls.append(v)
        return families(v)

    monkeypatch.setattr(el3, "_families", counted)
    exact = Multivector.from_terms(S, {"e10": 1, "e23": 1})
    xi = el3.CliffordBivector.from_bivector(exact)
    assert (xi.value, xi.sign, len(calls)) == (exact, el3.Family.POSITIVE, 1)
    assert xi == el3.CliffordBivector(exact, el3.Family.POSITIVE)       # checked again
    assert len(calls) == 2


def test_clifford_bivector_constructor_uses_the_from_bivector_tolerance():
    e23 = Multivector.basis(S, "e23")
    exact = dual_I(e23) + e23                       # (I+1)e23
    assert el3.CliffordBivector.from_bivector(exact).sign is el3.Family.POSITIVE
    el3.CliffordBivector(exact, el3.Family.POSITIVE)
    with pytest.raises(ValueError):
        el3.CliffordBivector(exact, el3.Family.NEGATIVE)
    off = exact + e23 * 1e-6                        # 7e-7 relative, above 1e-9
    with pytest.raises(ValueError):
        el3.CliffordBivector.from_bivector(off)
    with pytest.raises(ValueError):
        el3.CliffordBivector(off, el3.Family.POSITIVE)


# ---------------------------------------------------------------------------
# line-line metrics


def test_metrics_commutator_pair():
    m = el3.line_line_metrics(COMM_LAM, COMM_PHI)
    assert abs(math.sin(m.r1) - SIN_R1) < 1e-12
    assert abs(math.sin(m.r2) - SIN_R2) < 1e-12
    assert m.relation is el3.LineRelation.GENERIC
    u = abs(inner(normalized(COMM_LAM), normalized(COMM_PHI)).scalar_part)
    v = abs(regressive(normalized(COMM_LAM), normalized(COMM_PHI)).scalar_part)
    assert abs(math.cos(m.r1) * math.cos(m.r2) - u) < 1e-12
    assert abs(math.sin(m.r1) * math.sin(m.r2) - v) < 1e-12


def test_metrics_polar_pair(rng):
    lam = rand_line_el3(rng)
    m = el3.line_line_metrics(lam, dual_I(lam))
    assert m.relation is el3.LineRelation.CLIFFORD_PARALLEL
    assert abs(m.r - math.pi / 2) < 1e-12


def test_metrics_same_line(rng):
    lam = rand_line_el3(rng)
    m = el3.line_line_metrics(lam, lam)
    assert m.r < 1e-12 and m.alpha < 1e-6
    assert m.relation is el3.LineRelation.INTERSECTING


def test_metrics_intersecting(rng):
    p = rand_point(S, rng)
    l1 = normalized(regressive(p, rand_point(S, rng)))
    l2 = normalized(regressive(p, rand_point(S, rng)))
    m = el3.line_line_metrics(l1, l2)
    assert m.relation is el3.LineRelation.INTERSECTING
    assert m.r1 < 1e-7
    # the commutator of intersecting lines is simple
    assert abs(plucker_residual(commutator(l1, l2))) < 1e-12
    # and the oriented angle agrees with -L1.L2 = cos(alpha)
    assert abs(math.cos(m.alpha) + inner(l1, l2).scalar_part) < 1e-10


def test_metrics_clifford_parallel_distance(rng):
    lam = rand_line_el3(rng)
    theta = 1.1
    par = el3.clifford_parallel(lam, "negative", 0.4, theta)
    m = el3.line_line_metrics(lam, par)
    assert m.relation is el3.LineRelation.CLIFFORD_PARALLEL
    assert abs(m.r - abs(math.pi / 2 - theta)) < 1e-10
    assert abs(m.r1 - m.r2) < 1e-10


def _principal_angles(a, b):
    """Principal angles between the column spans of a and b, by float64 SVD:
    atan2 of the sines and cosines."""
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    cos = np.sort(np.linalg.svd(qa.T @ qb, compute_uv=False))[::-1]
    sin = np.sort(np.linalg.svd(qb - qa @ (qa.T @ qb), compute_uv=False))
    return np.arctan2(sin, cos)


def _line_pair(rng, kind):
    """Two lines of El3 as the 2-planes of R^4 spanned by the columns of a and b."""
    p, q, s, t = rng.standard_normal((4, 4))
    if kind == "near-intersecting":
        s = p + 1e-7 * rng.standard_normal(4)
    elif kind == "near-clifford-parallel":
        # a Clifford translation (unit quaternion factor) of the first line, perturbed
        g = rng.standard_normal(4)
        g = tuple(g / np.linalg.norm(g))
        s, t = (np.array(el3.quaternion_multiply(tuple(x), g)) for x in (p, q))
        s = s + 10.0 ** -rng.uniform(3, 8) * rng.standard_normal(4)
    return np.array([p, q]).T, np.array([s, t]).T


@pytest.mark.parametrize("kind", ["generic", "near-intersecting", "near-clifford-parallel"])
def test_metrics_separations_match_svd_principal_angles(kind):
    rng = np.random.default_rng(17)
    for _ in range(300):
        a, b = _line_pair(rng, kind)
        lines = [regressive(point(*x[:, 0]), point(*x[:, 1])) for x in (a, b)]
        m = el3.line_line_metrics(*lines)
        want = _principal_angles(a, b)
        assert abs(m.r1 - want[0]) <= 1e-14 and abs(m.r2 - want[1]) <= 1e-14
        assert m.r == m.r1


# ---------------------------------------------------------------------------
# projections and rejections


def test_plane_projection_worked_configuration():
    proj = el3.project_on_plane(REF_POINT, REF_PLANE)
    rej = el3.reject_by_plane(REF_POINT, REF_PLANE)
    assert abs(outer(REF_PLANE, proj).pseudo_part) < 1e-12     # incident
    assert abs(el3.distance_plane_point(REF_PLANE, rej) - math.pi / 2) < 1e-12
    assert_mv_close(proj + rej, REF_POINT, 1e-12)
    # the rejection sits at the polar point of the plane
    assert_mv_close_up_to_sign(normalized(rej),
                               normalized(dual_I(REF_PLANE)), 1e-12)


def test_projection_zero_cases(rng):
    a = rand_plane_el3(rng)
    # projection of the polar point on the plane vanishes
    assert coeff_norm(el3.project_on_plane(dual_I(a), a)) < 1e-12
    # rejection of a point on the plane vanishes
    p = el3.project_on_plane(rand_point(S, rng), a)
    assert coeff_norm(el3.reject_by_plane(p, a)) < 1e-10


def test_point_projector_decomposition(rng):
    for _ in range(20):
        p = rand_point(S, rng)
        for blade in (rand_plane_el3(rng), rand_line_el3(rng), rand_point(S, rng)):
            proj = el3.project_on_point(blade, p)
            rej = el3.reject_by_point(blade, p)
            assert_mv_close(proj + rej, blade, 1e-11)


def test_reject_by_point_lands_on_polar_plane(rng):
    p = rand_point(S, rng)
    a = rand_plane_el3(rng)
    rej = el3.reject_by_point(a, p)   # a plane through ... lies on PI
    # rejected plane contains the polar plane's... dually: rejection of a
    # point by a point lies on the polar plane of the projector
    q = rand_point(S, rng)
    rq = el3.reject_by_point(q, p)
    if coeff_norm(rq) > 1e-8:
        assert abs(outer(dual_I(p), rq).pseudo_part) < 1e-10


def test_line_projector_perpendicular_family(rng):
    lam = normalized(REF_LINE)
    p = point(1, 2, -1.5, -0.25)
    proj = el3.project_on_line(p, lam)
    rej = el3.reject_by_line(p, lam)
    perp = el3.perpendicular_through(lam, p)
    # both land on the perpendicular line through P
    assert coeff_norm(regressive(perp, proj)) < 1e-10
    assert coeff_norm(regressive(perp, rej)) < 1e-10
    assert coeff_norm(regressive(perp, p)) < 1e-12
    # the alternative form of the perpendicular
    alt = 0.5 * regressive(p, geometric_product(
        geometric_product(lam, p), inverse_blade(lam)))
    assert_mv_close(perp, alt, 1e-12)
    # perpendicular to both the line and its polar line
    assert abs(el3.line_line_metrics(normalized(perp), lam).r2 - math.pi / 2) < 1e-10
    assert abs(el3.line_line_metrics(normalized(perp), dual_I(lam)).r2
               - math.pi / 2) < 1e-10


def test_line_projection_grade_dispatch():
    lam = normalized(REF_LINE)
    with pytest.raises(ValueError):
        el3.project_on_line(COMM_PHI, lam)
    with pytest.raises(ValueError):
        el3.reject_by_line(COMM_PHI, lam)


def test_project_line_on_line_trivial(rng):
    lam = rand_line_el3(rng)
    proj = el3.project_line_on_line(lam, lam, 1)
    assert_mv_close(proj, lam, 1e-12)
    assert coeff_norm(el3.reject_line_by_line(lam, lam, 1)) < 1e-12


def test_project_line_on_line_properties(rng):
    done = 0
    while done < 10:
        lam, phi = rand_line_el3(rng), rand_line_el3(rng)
        base = el3.line_line_metrics(phi, lam)
        if base.relation is not el3.LineRelation.GENERIC:
            continue
        proj1 = el3.project_line_on_line(phi, lam, 1)
        m1 = el3.line_line_metrics(normalized(proj1), lam)
        # passes through lam (they intersect) at the angle of phi
        assert m1.r1 < 1e-7
        assert abs(m1.r2 - base.r2) < 1e-10
        rej2 = el3.reject_line_by_line(phi, lam, 2)
        m2 = el3.line_line_metrics(normalized(rej2), lam)
        assert abs(m2.r1 - base.r1) < 1e-10
        assert abs(m2.r2 - math.pi / 2) < 1e-10
        done += 1


@pytest.mark.parametrize("k", [-20, -200, 200, -400, -300, 300, 400])
@pytest.mark.parametrize("op", [el3.project_line_on_line, el3.reject_line_by_line],
                         ids=lambda op: op.__name__)
@pytest.mark.parametrize("kind", [1, 2])
def test_line_on_line_ops_scale_with_their_lines(op, kind, k):
    # the bundled scene's line and beam; the commutator's zero test was
    # absolute, so at 2**-20 it read the pair as commuting, and then
    # squared the commutator's norm, which underflowed at 2**-300
    phi = Multivector.from_terms(S, {"e20": -1 / 3, "e30": 1, "e23": 1, "e31": -1,
                                     "e12": -1 / 3})
    beam = Multivector.from_terms(S, {"e10": 1, "e20": 1, "e23": -3, "e31": 3, "e12": 2})
    s = 2.0 ** k
    assert op(phi * s, beam * s, kind) == op(phi, beam, kind) * s


@pytest.mark.parametrize("k", [-600, -300, 300, 600])
@pytest.mark.parametrize("op", [el3.project_on_line, el3.reject_by_line], ids=lambda op: op.__name__)
def test_point_on_line_ops_are_the_same_at_every_power_of_two_scale(op, k):
    # inverse_blade refused the line at 2**300 (its residue's square
    # overflowed) and at 2**+-600 (a*~a left the floats)
    p = point(2, 0.5, -1, 0.25)
    assert op(p, REF_LINE * 2.0 ** k) == op(p, REF_LINE)


@pytest.mark.parametrize("k", [20, -300, 300, -600, 600])
def test_point_on_line_is_the_same_at_every_power_of_two_scale(k):
    # the seed's projection was compared with the line's weight, so a line
    # of weight 2**20 or more found no point on it
    assert el3.point_on_line(REF_LINE * 2.0 ** k) == el3.point_on_line(REF_LINE)


def test_project_line_on_line_degenerate(rng):
    lam = rand_line_el3(rng)
    par = el3.clifford_parallel(lam, "positive", 0.3, 1.0)
    with pytest.raises(el3.DegenerateAxes):
        el3.project_line_on_line(par, lam, 1)


# ---------------------------------------------------------------------------
# reflections


def test_reflection_involution(rng):
    lam = rand_line_el3(rng)
    p = rand_point(S, rng)
    once = el3.reflect(p, lam)
    assert_mv_close(el3.reflect(once, lam), p, 1e-12)


def test_reflection_in_line_direction_independent(rng):
    lam = rand_line_el3(rng)
    p = rand_point(S, rng)
    assert_mv_close(el3.reflect(p, lam, "topdown"),
                    el3.reflect(p, lam, "bottomup"), 1e-13)


def test_reflected_line_keeps_plane_angle():
    l8 = ln(1, 1, 0, -3, 3, 2)
    refl = el3.reflect(l8, REF_PLANE, "topdown")
    assert abs(el3.angle_line_plane(l8, REF_PLANE)
               - el3.angle_line_plane(refl, REF_PLANE)) < 1e-12


def test_reflection_preserves_distance_to_mirror_line(rng):
    for _ in range(20):
        lam = rand_line_el3(rng)
        p = rand_point(S, rng)
        image = el3.reflect(p, lam)
        assert abs(el3.distance_line_point(lam, image)
                   - el3.distance_line_point(lam, p)) < 1e-10


# ---------------------------------------------------------------------------
# proper motions


def test_double_rotation_identity(rng):
    p = rand_point(S, rng)
    lam = rand_line_el3(rng)
    assert_mv_close(el3.double_rotation(p, lam, 0.0, 0.0), p, 1e-14)


def test_double_rotation_keeps_axis_points_on_axis(rng):
    lam = rand_line_el3(rng)
    p = el3.point_on_line(lam)
    for alpha, beta in ((0.9, 0.0), (0.4, 1.3), (2.0, -0.7)):
        image = el3.double_rotation(p, lam, alpha, beta)
        assert coeff_norm(regressive(lam, image)) < 1e-12
        q = el3.point_on_line(dual_I(lam))
        image_q = el3.double_rotation(q, lam, alpha, beta)
        assert coeff_norm(regressive(dual_I(lam), image_q)) < 1e-12


def test_double_rotation_isometry(rng):
    lam = rand_line_el3(rng)
    alpha, beta = 1.1, -0.6
    for _ in range(20):
        p, q = rand_point(S, rng), rand_point(S, rng)
        d0 = el3.distance_pp(p, q)
        d1 = el3.distance_pp(el3.double_rotation(p, lam, alpha, beta),
                             el3.double_rotation(q, lam, alpha, beta))
        assert abs(d0 - d1) < 1e-10


def _product_of_the_two_rotations_error(rng, ratio):
    """|exp(-(alpha + beta I)/2 L) - exp(-alpha/2 L) exp(-beta/2 IL)| at beta = ratio * alpha."""
    lam = rand_line_el3(rng)
    alpha = rng.uniform(0.1, 3.0)
    beta = alpha * ratio
    want = geometric_product(exp_bivector(lam * (-alpha / 2)).mv,
                             exp_bivector(dual_I(lam) * (-beta / 2)).mv)
    return coeff_norm(el3.double_rotation_spinor(lam, alpha, beta).mv - want)


@pytest.mark.parametrize("j", range(1, 9))
def test_double_rotation_near_clifford_is_the_product_of_its_two_rotations(j, rng):
    # at beta/alpha - 1 = 10**-j the generator's halves have d/c of about
    # 10**-j / 2; the axes of the old generic split were off by up to 1.1e-5 there
    for _ in range(20):
        assert _product_of_the_two_rotations_error(rng, 1.0 + 10.0 ** -j) <= 1e-15


@pytest.mark.parametrize("ratio", [0.0, 1e-8, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-5, 1 - 1e-8, 1.0])
def test_double_rotation_is_the_product_of_its_two_rotations_from_simple_to_clifford(ratio, rng):
    # beta/alpha = 0 is a simple generator, 1 an exactly Clifford one
    for _ in range(20):
        assert _product_of_the_two_rotations_error(rng, ratio) <= 1e-15


def test_sweep_line_point_is_the_double_rotation_with_alpha_zero(rng):
    for _ in range(200):
        lam, p = rand_line_el3(rng) * float(rng.uniform(0.1, 10.0)), rand_point(S, rng)
        t = float(rng.uniform(-4.0, 4.0))
        assert el3.sweep_line_point(lam, p, t) == el3.double_rotation(p, lam, 0.0, t)


def test_double_rotation_spinor_is_the_exponential_of_its_generator(rng):
    for _ in range(200):
        lam = rand_line_el3(rng) * float(rng.uniform(0.1, 10.0))
        alpha, beta = (float(x) for x in rng.uniform(-4.0, 4.0, size=2))
        unit = normalized(lam)
        want = exp_bivector((unit * alpha + dual_I(unit) * beta) * -0.5)
        assert mv_diff(el3.double_rotation_spinor(lam, alpha, beta).mv, want.mv) <= 1e-15


def test_point_on_line_is_the_seed_projection(rng):
    # lines with no e23, e31, e12 part are polar to e123, whose foot is zero: the
    # next seed serves, e320, or e130 when the foot from e320 is zero too
    polar = [ln(0.5, 1, 2, 0, 0, 0), ln(1, 0, 0, 0, 0, 0)]
    near = ln(0.5, 1, 2, 2.0 ** -10, -2.0 ** -11, 0)         # a foot from e123 of 5e-4
    for lam in polar + [near] + [rand_line_el3(rng) * float(rng.uniform(0.1, 10.0))
                                 for _ in range(200)]:
        got = el3.point_on_line(lam)
        assert mv_diff(got, seed_projection_on_line(lam)) <= 1e-15
        assert got.grades() == (3,)
    assert [el3.point_on_line(lam).coeff(seed) > 0.0 for lam, seed in
            ((polar[0], "e320"), (polar[1], "e130"), (near, "e123"))] == [True] * 3


def test_clifford_translate_identity_and_closed_form(rng):
    lam = rand_line_el3(rng)
    for family in ("positive", "negative"):
        xi = el3.clifford_bivector(lam, family)
        p = rand_point(S, rng)
        assert_mv_close(el3.clifford_translate(p, xi, 0.0), p, 1e-14)
        for beta in (0.3, -1.2, 2.9):
            sandwich = el3.clifford_translate(p, xi, beta)
            closed = p * math.cos(beta) + commutator(p, xi.value) * math.sin(beta)
            assert_mv_close(sandwich, closed, 1e-12)


def test_clifford_translate_moves_all_points_equally(rng):
    lam = rand_line_el3(rng)
    xi = el3.clifford_bivector(lam, "positive")
    beta = 0.77
    expected = math.acos(abs(math.cos(beta)))
    for _ in range(10):
        p = rand_point(S, rng)
        moved = el3.clifford_translate(p, xi, beta)
        assert abs(el3.distance_pp(p, moved) - expected) < 1e-10


def test_clifford_translate_stays_on_parallel(rng):
    lam = rand_line_el3(rng)
    xi = el3.clifford_bivector(lam, "negative")
    p = rand_point(S, rng)
    par = el3.parallel_through_point(xi, p)
    for beta in np.linspace(0, 2.5, 9):
        x = el3.clifford_translate(p, xi, float(beta))
        assert coeff_norm(regressive(par, x)) < 1e-10


# ---------------------------------------------------------------------------
# quaternion bridge


def test_quaternion_bridge_round_trip(rng):
    p = rand_point(S, rng)
    q = el3.quaternion_bridge(p)
    assert_mv_close(el3.point_from_quaternion(q), p, 1e-15)


def test_quaternion_identity():
    p = point(0.1, 0.2, 0.3, 0.4)
    out = el3.clifford_translate_quat(p, Multivector.basis(S, "e23"), 0.0, "right")
    assert_mv_close(out, p, 1e-15)


def test_quaternion_example_quarter_turn():
    out = el3.clifford_translate_quat(el3.ORIGIN, Multivector.basis(S, "e23"),
                                      math.pi / 2, "right")
    assert_mv_close(out, point(0, -1, 0, 0), 1e-12)
    xi = el3.clifford_bivector(Multivector.basis(S, "e23"), "positive")
    sandwich = el3.clifford_translate(el3.ORIGIN, xi, math.pi / 2)
    assert_mv_close(out, sandwich, 1e-12)


def test_quaternion_matches_sandwich(rng):
    for _ in range(40):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        l0 = Multivector.from_terms(S, {"e23": direction[0], "e31": direction[1],
                                        "e12": direction[2]})
        beta = rng.uniform(-3, 3)
        p = rand_point(S, rng)
        for family, side in (("positive", "right"), ("negative", "left")):
            xi = el3.clifford_bivector(l0, family)
            sandwich = el3.clifford_translate(p, xi, beta)
            quat = el3.clifford_translate_quat(p, l0, beta, side)
            assert_mv_close(sandwich, quat, 1e-12)


def test_quaternion_rejects_non_origin_line():
    with pytest.raises(el3.NonOriginLine):
        el3.clifford_translate_quat(el3.ORIGIN, REF_LINE, 0.5, "right")


@pytest.mark.parametrize("k", [-1000, -600, 0, 600, 1000])
def test_quaternion_origin_test_is_the_same_at_every_scale(k):
    # the test squared the line's norm, which overflowed to inf at 2**600
    # and let any line through
    off = Multivector.from_terms(S, {"e10": math.ldexp(0.5, k), "e31": math.ldexp(1.0, k)})
    with pytest.raises(el3.NonOriginLine):
        el3.clifford_translate_quat(el3.ORIGIN, off, 0.5, "right")
    origin_line = Multivector.from_terms(S, {"e23": math.ldexp(0.6, k), "e12": math.ldexp(0.8, k)})
    p = point(2, 0.5, -1, 0.25)
    assert (el3.clifford_translate_quat(p, origin_line, 0.5, "left")
            == el3.clifford_translate_quat(p, origin_line * 2.0 ** -k, 0.5, "left"))


# ---------------------------------------------------------------------------
# structural checks


def test_line_returning_operations_preserve_plucker(rng):
    lam, phi = rand_line_el3(rng), rand_line_el3(rng)
    p = rand_point(S, rng)
    a = rand_plane_el3(rng)
    outputs = [
        regressive(rand_point(S, rng), rand_point(S, rng)),
        outer(a, rand_plane_el3(rng)),
        el3.clifford_parallel(lam, "positive", 1.0, 0.9),
        el3.perpendicular_through(lam, p),
        el3.reflect(lam, a),
        el3.double_rotation(lam, phi, 0.7, 0.2),
    ]
    m = el3.line_line_metrics(phi, lam)
    if m.relation is el3.LineRelation.GENERIC:
        outputs.append(el3.project_line_on_line(phi, lam, 1))
        outputs.append(el3.reject_line_by_line(phi, lam, 2))
    for line in outputs:
        assert abs(plucker_residual(line)) <= 1e-9 * max(coeff_norm(line) ** 2, 1e-9)


def test_blade_views():
    with pytest.raises(NonSimpleBivector):
        el3.LineEl3(ln(1, 0, 0, 1, 0, 0))
    line = el3.LineEl3.from_plucker(0, -1 / 3, 1, 1, -1, -1 / 3)
    assert np.allclose(line.plucker(), (0, -1 / 3, 1, 1, -1, -1 / 3))
    p = el3.PointEl3.from_xyz(1.0, 0.0, -2.0)
    assert (p.w, p.x, p.y, p.z) == (1.0, 1.0, 0.0, -2.0)
    with pytest.raises(ValueError):
        el3.PointEl3(plane(1, 0, 0, 0))
    from_pts = el3.LineEl3.from_points(point(1, 1, 0, 0), point(1, 0, 1, 1 / 3))
    assert abs(plucker_residual(from_pts.mv)) < 1e-12
    pl = el3.PlaneEl3.from_coeffs(1, 0.5, -1.5, 1)
    assert_mv_close(pl.mv, REF_PLANE)
    from_planes = el3.LineEl3.from_planes(pl.mv, plane(0, 0, 0, 1))
    assert abs(plucker_residual(from_planes.mv)) < 1e-12


def test_spinor_actions_are_isometries_small(rng):
    from helpers import rand_spinor
    for _ in range(20):
        s = rand_spinor(S, rng)
        p, q = rand_point(S, rng), rand_point(S, rng)
        a = rand_plane_el3(rng)
        lam = rand_line_el3(rng)
        sp, sq, sa, sl = (s.apply(x) for x in (p, q, a, lam))
        assert abs(el3.distance_pp(p, q) - el3.distance_pp(sp, sq)) < 1e-10
        assert abs(el3.distance_plane_point(a, p)
                   - el3.distance_plane_point(sa, sp)) < 1e-10
        assert abs(el3.distance_line_point(lam, p)
                   - el3.distance_line_point(sl, sp)) < 1e-10
        assert abs(el3.angle_line_plane(lam, a)
                   - el3.angle_line_plane(sl, sa)) < 1e-10


@pytest.mark.parametrize("op, args", [
    (el3.distance_line_point, (REF_LINE, REF_POINT)),
    (el3.angle_line_plane, (REF_LINE, REF_PLANE)),
    (el3.clifford_translate_quat, (REF_POINT, ln(0, 0, 0, 0.6, 0.0, 0.8), 0.5, "right")),
    (el3.clifford_bivector, (REF_LINE, "positive")),
    (el3.clifford_bivector, (REF_LINE, "negative")),
], ids=lambda x: getattr(x, "__name__", ""))
def test_line_ops_split_their_line_once(monkeypatch, op, args):
    # the line check's split into halves is the only one: no second check in
    # a normalisation, and no CliffordBivector check of a value Clifford by
    # construction
    calls = _count_halves(monkeypatch)
    op(*args)
    assert len(calls) == 1


@pytest.mark.parametrize("build", [
    lambda value: el3.CliffordBivector(value, el3.Family.POSITIVE),
    el3.CliffordBivector.from_bivector,
], ids=["constructor", "from_bivector"])
def test_clifford_bivector_checks_split_their_value_once(monkeypatch, build):
    # the Clifford test and the family read one split of the value
    value = dual_I(REF_LINE) + REF_LINE             # (I+1)L, of the positive family
    calls = _count_halves(monkeypatch)
    assert build(value).sign is el3.Family.POSITIVE
    assert len(calls) == 1


def _count_halves(monkeypatch):
    """The list that every later call of algebra._halves appends its argument to."""
    calls = []
    halves = algebra._halves

    def counted(b):
        calls.append(b)
        return halves(b)

    for module in (algebra, geometry, el3):
        monkeypatch.setattr(module, "_halves", counted)
    return calls


def test_clifford_bivector_is_the_line_plus_or_minus_its_dual_bit_for_bit(rng):
    # (I+1)L has the halves (2C, 0) and (I-1)L the halves (0, -2D)
    for _ in range(200):
        lam = rand_line_el3(rng) * rng.uniform(0.1, 10.0)
        for family, sign in (("positive", 1.0), ("negative", -1.0)):
            xi = el3.clifford_bivector(lam, family)
            assert (xi.sign, xi.value) == (el3.Family(family), dual_I(lam) + lam * sign)
