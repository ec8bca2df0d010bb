"""The geometry shared by El1, El2 and El3: one rule per formula."""

import math
import sys

import pytest

from elga import el1, el2, el3
from elga.algebra import (AlgebraError, Multivector, NonSimpleBivector, Space, ZeroInput,
                          coeff_norm)

from helpers import (
    assert_mv_close,
    mv_diff,
    rand_line_el2,
    rand_line_el3,
    rand_plane_el3,
    rand_point,
)

S2, S3 = Space.EL2, Space.EL3

BLADES = {
    "el1 point": lambda rng: rand_point(Space.EL1, rng),
    "el2 line": rand_line_el2,
    "el2 point": lambda rng: rand_point(S2, rng),
    "el3 plane": rand_plane_el3,
    "el3 line": rand_line_el3,
    "el3 point": lambda rng: rand_point(S3, rng),
}

# (project, reject, B, A) for every operand pair the ops accept; a line by
# a line goes through axis_split and has its own ops
CASES = [(el1.project, el1.reject, "el1 point", "el1 point")]
CASES += [(el2.project, el2.reject, b, a)
          for b in ("el2 line", "el2 point") for a in ("el2 line", "el2 point")]
CASES += [(proj, rej, b, a)
          for proj, rej, a in ((el3.project_on_plane, el3.reject_by_plane, "el3 plane"),
                               (el3.project_on_line, el3.reject_by_line, "el3 line"),
                               (el3.project_on_point, el3.reject_by_point, "el3 point"))
          for b in ("el3 plane", "el3 line", "el3 point") if (b, a) != ("el3 line", "el3 line")]


@pytest.mark.parametrize("project, reject, b_kind, a_kind", CASES,
                         ids=[f"{b} by {a}" for _, _, b, a in CASES])
def test_project_plus_reject_reconstructs(project, reject, b_kind, a_kind, rng):
    # BA = B.A + (B^A or B x A), so the two parts add back up to B; the
    # el2 point-by-point rejection used to wedge into a missing grade 4
    for _ in range(20):
        b = BLADES[b_kind](rng) * rng.uniform(0.1, 10.0)
        a = BLADES[a_kind](rng) * rng.uniform(0.1, 10.0)
        rest = reject(b, a)
        assert mv_diff(project(b, a) + rest, b) <= 1e-12 * coeff_norm(b)
        if b_kind == a_kind == "el2 point":
            assert coeff_norm(rest) > 1e-3 * coeff_norm(b)


def test_reflection_is_linear_over_grades(rng):
    # the graded sign applies part by part, so a mixed B reflects as the
    # sum of its reflected grades
    for reflect in (el2.reflect_topdown, el2.reflect_bottomup):
        for mirror in (rand_line_el2(rng), rand_point(S2, rng)):
            line, point = rand_line_el2(rng), rand_point(S2, rng)
            assert_mv_close(reflect(line + point, mirror),
                            reflect(line, mirror) + reflect(point, mirror), 1e-12)


VIEWS = [
    (el1.PointEl1, Space.EL1, "e0", "e01"),
    (el2.LineEl2, S2, "e1", "e12"),
    (el2.PointEl2, S2, "e12", "e1"),
    (el3.PlaneEl3, S3, "e1", "e12"),
    (el3.LineEl3, S3, "e12", "e1"),
    (el3.PointEl3, S3, "e123", "e12"),
]


@pytest.mark.parametrize("view, space, good, wrong", VIEWS,
                         ids=[v.__name__ for v, *_ in VIEWS])
def test_blade_views_share_one_check(view, space, good, wrong):
    view(Multivector.basis(space, good))
    with pytest.raises(ValueError, match=f"^{view.__name__} must be a grade-"):
        view(Multivector.basis(space, wrong))
    with pytest.raises(ValueError):
        view(Multivector.basis(Space.EL1 if space is not Space.EL1 else S2, "e1"))
    with pytest.raises(AlgebraError):
        view(Multivector.basis(space, good) + Multivector.basis(space, wrong))
    with pytest.raises(AlgebraError):
        view(Multivector.zero(space))
    view(Multivector.basis(space, good) * 2.0 ** -40)     # only the zero element is zero


ANGLES = {
    "el2 angle_ll": (el2.angle_ll, S2, "e1", "e2"),
    "el3 angle_planes": (el3.angle_planes, S3, "e1", "e3"),
}


@pytest.mark.parametrize("angle, space, u, v", ANGLES.values(), ids=list(ANGLES))
@pytest.mark.parametrize("t", [1e-9, 1e-8, 1e-4])
def test_angle_keeps_its_digits_near_zero_and_pi(angle, space, u, v, t):
    # acos of the cosine gave 0.0 at t = 1e-8 and 1e-9, and 9.99999997e-5 at 1e-4
    a = Multivector.basis(space, u)
    b = Multivector.from_terms(space, {u: math.cos(t), v: math.sin(t)})
    assert abs(angle(a, b) - t) <= 1e-15 * t
    assert abs(angle(a, -b) - (math.pi - t)) <= 1e-15 * math.pi


def test_angle_refuses_blades_that_are_not_vectors():
    # the wedge of two El2 points is zero, so atan2 would read 0 or pi for any pair
    p, q = (Multivector.from_terms(S2, {"e12": 1, "e20": x}) for x in (1, -2))
    line, other = Multivector.basis(S3, "e23"), Multivector.basis(S3, "e10")
    for angle, a, b in ((el2.angle_ll, p, q), (el3.angle_planes, line, other),
                        (el3.angle_planes, Multivector.basis(S3, "e1"), el3.ORIGIN)):
        with pytest.raises(ValueError, match="^angle needs two grade-1 elements"):
            angle(a, b)


def test_el3_line_arguments_share_the_plucker_check():
    # every El3 line op refuses a bivector off the Plucker quadric with the
    # check's message, which names the argument
    skew = Multivector.from_terms(S3, {"e10": 1, "e23": 1})
    p, a, line = el3.ORIGIN, Multivector.basis(S3, "e1"), Multivector.basis(S3, "e23")
    for what, call in (
        ("LineEl3", lambda: el3.LineEl3(skew)),
        ("line", lambda: el3.distance_line_point(skew, p)),
        ("line", lambda: el3.angle_line_plane(skew, a)),
        ("line", lambda: el3.clifford_frame(skew)),
        ("line", lambda: el3.clifford_parallel(skew, "positive", 0.3, 1.0)),
        ("line", lambda: el3.clifford_bivector(skew, "negative")),
        ("line", lambda: el3.line_line_metrics(skew, line)),
        ("other line", lambda: el3.line_line_metrics(line, skew)),
        ("line", lambda: el3.project_on_line(p, skew)),
        ("line", lambda: el3.reject_by_line(a, skew)),
        ("phi", lambda: el3.project_line_on_line(skew, line, 1)),
        ("line", lambda: el3.project_line_on_line(line, skew, 1)),
        ("phi", lambda: el3.reject_line_by_line(skew, line, 2)),
        ("line", lambda: el3.reject_line_by_line(line, skew, 2)),
        ("line", lambda: el3.perpendicular_through(skew, p)),
        ("line", lambda: el3.double_rotation_spinor(skew, 0.7, 0.2)),
        ("line", lambda: el3.double_rotation(p, skew, 0.7, 0.2)),
        ("line", lambda: el3.sweep_line_point(skew, p, 0.3)),
        ("line", lambda: el3.point_on_line(skew)),
        ("origin line", lambda: el3.clifford_translate_quat(p, skew, 0.5, "right")),
    ):
        with pytest.raises(NonSimpleBivector) as refused:
            call()
        assert str(refused.value) == f"{what}: plücker residual -5.000e-01 exceeds tolerance 1e-09"


# ---------------------------------------------------------------------------
# ratios on the raw operands

_P1 = Multivector.from_terms(Space.EL1, {"e0": -0.3, "e1": 0.9})
_Q1 = Multivector.from_terms(Space.EL1, {"e0": 0.8, "e1": 0.45})
_P2 = Multivector.from_terms(S2, {"e12": 1.0, "e20": 0.3, "e01": -0.7})
_Q2 = Multivector.from_terms(S2, {"e12": 0.8, "e20": -0.5, "e01": 0.6})
_A2 = Multivector.from_terms(S2, {"e0": 0.4, "e1": -0.6, "e2": 0.9})
_B2 = Multivector.from_terms(S2, {"e0": -0.2, "e1": 0.7, "e2": 0.3})
_P3 = Multivector.from_terms(S3, {"e123": 1.0, "e320": 0.3, "e130": -0.2, "e210": 0.5})
_Q3 = Multivector.from_terms(S3, {"e123": 0.9, "e320": -0.1, "e130": 0.4, "e210": 0.2})
_A3 = Multivector.from_terms(S3, {"e0": 0.2, "e1": 0.5, "e2": -0.3, "e3": 0.8})
_B3 = Multivector.from_terms(S3, {"e0": -0.4, "e1": 0.1, "e2": 0.6, "e3": 0.3})
_L3 = el3.line_from_points(_P3, Multivector.from_terms(S3, {"e123": 0.5, "e320": 0.7,
                                                            "e130": 0.1, "e210": -0.3}))
_CIRCLES = {  # centre and point of an elliptic, a hyperbolic and a straight-line circle
    "elliptic": (Multivector.from_terms(S2, {"e12": 1.0, "e20": 0.5}),
                 Multivector.from_terms(S2, {"e12": 1.0, "e20": 3.0})),
    "hyperbolic": (Multivector.from_terms(S2, {"e12": 1.0, "e01": 2.0}),
                   Multivector.from_terms(S2, {"e12": 0.25, "e20": 1.0, "e01": -0.5})),
    "line": (Multivector.from_terms(S2, {"e12": 1.0, "e20": 0.5}),
             Multivector.from_terms(S2, {"e20": 1.0, "e12": -0.5})),
}
JOINT_SCALE_CASES = [
    ("el1.distance", el1.distance, _P1, _Q1),
    ("el2.distance_pp", el2.distance_pp, _P2, _Q2),
    ("el2.distance_lp", el2.distance_lp, _A2, _P2),
    ("el2.angle_ll", el2.angle_ll, _A2, _B2),
    ("el3.distance_pp", el3.distance_pp, _P3, _Q3),
    ("el3.distance_plane_point", el3.distance_plane_point, _A3, _P3),
    ("el3.distance_line_point", el3.distance_line_point, _L3, _Q3),
    ("el3.angle_planes", el3.angle_planes, _A3, _B3),
    ("el3.angle_line_plane", el3.angle_line_plane, _L3, _A3),
] + [(f"el2.classify_circle {name}", el2.classify_circle, r, p)
     for name, (r, p) in _CIRCLES.items()]


def _times_two_to(mv, k):
    return Multivector(mv.space, [math.ldexp(x, k) for x in mv._c])


def _all_normal(mv):
    return all(x == 0.0 or sys.float_info.min <= abs(x) <= sys.float_info.max for x in mv._c)


@pytest.mark.parametrize("op, a, b", [case[1:] for case in JOINT_SCALE_CASES],
                         ids=[case[0] for case in JOINT_SCALE_CASES])
def test_ratio_ops_give_the_same_bits_with_both_operands_scaled(op, a, b):
    # every ratio is taken on its operands as given, or scaled into one band
    # by a power of two, so 2**k on both gives the answer at scale 1 bit for
    # bit; with the band at 2**+-480 the squares of the products underflowed
    # for every k <= -240 (one operand scaled at a time missed it)
    want, scales = op(a, b), 0
    for k in range(-1000, 1001):
        ak, bk = _times_two_to(a, k), _times_two_to(b, k)
        if _all_normal(ak) and _all_normal(bk):
            assert op(ak, bk) == want, k
            scales += 1
    assert scales > 1900


def test_the_circles_of_the_joint_scale_test_have_their_kinds():
    assert [el2.classify_circle(r, p).value for r, p in _CIRCLES.values()] == list(_CIRCLES)


_ZERO2, _ZERO3 = Multivector.zero(S2), Multivector.zero(S3)
_SKEW = Multivector.from_terms(S3, {"e10": 1.0, "e23": 0.5})     # neither a line nor Clifford
_ZERO = (ZeroInput, "cannot normalise a zero element")
_NORM_UNDEFINED = (NonSimpleBivector, "norm undefined: plucker residual -4.000e-01")
_LINE_SKEW = (NonSimpleBivector, "line: plücker residual -4.000e-01 exceeds tolerance 1e-09")
_NO_LINE = (AlgebraError, "element is not of pure grade (grades ())")
REFUSALS = [
    (el1.distance, (Multivector.zero(Space.EL1), _P1), _ZERO),
    (el1.distance, (_P1, Multivector.zero(Space.EL1)), _ZERO),
    (el2.distance_pp, (_ZERO2, _P2), _ZERO),
    (el2.distance_pp, (_P2, _ZERO2), _ZERO),
    (el2.distance_lp, (_ZERO2, _P2), _ZERO),
    (el2.angle_ll, (_A2, _ZERO2), _ZERO),
    (el2.classify_circle, (_ZERO2, _P2), _ZERO),
    (el2.classify_circle, (_P2, _ZERO2), _ZERO),
    (el3.distance_pp, (_ZERO3, _P3), _ZERO),
    (el3.distance_pp, (_SKEW, _P3), _NORM_UNDEFINED),
    (el3.distance_plane_point, (_A3, _ZERO3), _ZERO),
    (el3.angle_planes, (_ZERO3, _A3), _ZERO),
    (el3.angle_planes, (_SKEW, _A3), _NORM_UNDEFINED),
    (el3.distance_line_point, (_ZERO3, _P3), _NO_LINE),
    (el3.distance_line_point, (_L3, _ZERO3), _ZERO),
    (el3.distance_line_point, (_SKEW, _P3), _LINE_SKEW),
    (el3.angle_line_plane, (_ZERO3, _A3), _NO_LINE),
    (el3.angle_line_plane, (_L3, _ZERO3), _ZERO),
    (el3.angle_line_plane, (_SKEW, _A3), _LINE_SKEW),
]


@pytest.mark.parametrize("op, args, refusal", REFUSALS,
                         ids=[f"{op.__module__[5:]}.{op.__name__}-{i}"
                              for i, (op, _, _) in enumerate(REFUSALS)])
def test_ratio_ops_refuse_a_zero_or_skew_operand_as_when_they_normalised(op, args, refusal):
    # the exception type and message of the normalising formulas, unchanged
    with pytest.raises(AlgebraError) as refused:
        op(*args)
    assert (type(refused.value), str(refused.value)) == refusal
