"""Elliptic line: worked distances, polar points, motions, projections."""

import math

import mpmath
import pytest

from elga.algebra import (
    Multivector,
    Space,
    ZeroInput,
    coeff_norm,
    geometric_product,
    normalized,
)
from elga import el1
from helpers import assert_mv_close, assert_mv_close_up_to_sign, rand_point

S = Space.EL1


def pt(d, a):
    return Multivector.from_terms(S, {"e0": d, "e1": a})


A = pt(-2, 1)   # alpha = arctan 2
B = pt(-1, 1)   # beta = pi/4
C = pt(3, 1)    # kappa = -arctan 3


def test_worked_distances():
    assert abs(el1.distance(A, B) - (math.atan(2) - math.pi / 4)) < 1e-12
    assert abs(el1.distance(A, C) - (math.pi - math.atan(2) - math.atan(3))) < 1e-12


def test_worked_distance_is_within_one_ulp_of_its_exact_value():
    # the golden r_ab before its report rounds it to 15 digits
    r = el1.distance(A, B)
    with mpmath.workprec(256):
        assert abs(mpmath.mpf(r) - (mpmath.atan(2) - mpmath.pi / 4)) <= math.ulp(r)


def test_distance_keeps_its_digits_for_close_points():
    # acos of the dot product read 0.0 here
    r = el1.distance(el1.PointEl1.from_angle(0.0), el1.PointEl1.from_angle(1e-8))
    assert abs(r - 1e-8) <= 1e-15 * 1e-8


def test_distance_trivials():
    assert el1.distance(A, A) < 1e-7
    assert abs(el1.distance(pt(0, 1), pt(1, 0)) - math.pi / 2) < 1e-15


def test_distance_satisfies_both_forms(rng):
    for _ in range(50):
        a, b = rand_point(S, rng), rand_point(S, rng)
        r = el1.distance(a, b)
        from elga.algebra import inner, regressive
        assert abs(math.cos(r) - abs(inner(a, b).scalar_part)) < 1e-12
        assert abs(math.sin(r) - abs(regressive(a, b).scalar_part)) < 1e-12


def test_distance_zero_input():
    with pytest.raises(ZeroInput):
        el1.distance(Multivector.zero(S), A)


def test_from_angle_matches_parametrisation():
    alpha = 0.77
    p = el1.PointEl1.from_angle(alpha)
    assert_mv_close(p.mv, pt(-math.sin(alpha), math.cos(alpha)))
    assert (p.d, p.a) == (-math.sin(alpha), math.cos(alpha))
    assert abs(p.angle() - alpha) < 1e-15


def test_polar_examples():
    assert_mv_close_up_to_sign(el1.polar(Multivector.basis(S, "e0")).mv,
                               Multivector.basis(S, "e1"))
    assert_mv_close_up_to_sign(el1.polar(pt(0, -1)).mv, Multivector.basis(S, "e0"))


def test_polar_properties(rng):
    for _ in range(20):
        a = rand_point(S, rng)
        p = el1.polar(a)
        assert abs(el1.distance(a, p) - math.pi / 2) < 1e-12
        assert_mv_close(el1.polar(p.mv).mv, -a, 1e-14)  # e01 squares to -1


def test_translate():
    alpha = 0.3
    moved = el1.translate(Multivector.basis(S, "e1"), alpha)
    assert_mv_close(moved.mv, pt(-math.sin(alpha), math.cos(alpha)), 1e-15)
    assert_mv_close(el1.translate(A, 0.0).mv, A)
    assert_mv_close(el1.translate(A, math.pi).mv, -A, 1e-12)


def test_translate_shifts_angle(rng):
    for _ in range(20):
        alpha, lam = rng.uniform(-1.2, 1.2, size=2)
        moved = el1.translate(el1.PointEl1.from_angle(alpha), lam)
        assert_mv_close(moved.mv, el1.PointEl1.from_angle(alpha + lam).mv, 1e-12)


def test_translate_is_isometry(rng):
    for _ in range(50):
        a, b = rand_point(S, rng), rand_point(S, rng)
        lam = rng.uniform(-4, 4)
        d0 = el1.distance(a, b)
        d1 = el1.distance(el1.translate(a, lam), el1.translate(b, lam))
        assert abs(d0 - d1) < 1e-12


def test_reflect():
    assert_mv_close(el1.reflect(A, A).mv, -normalized(A) * coeff_norm(A), 1e-12)
    got = el1.reflect(el1.PointEl1.from_angle(math.pi / 3),
                      el1.PointEl1.from_angle(math.pi / 4))
    # parameter maps to 2*beta - alpha = pi/6, orientation flipped
    assert_mv_close(got.mv, -el1.PointEl1.from_angle(math.pi / 6).mv, 1e-12)


def test_reflect_preserves_distance_to_mirror(rng):
    for _ in range(50):
        a, b = rand_point(S, rng), rand_point(S, rng)
        assert abs(el1.distance(el1.reflect(a, b), b) - el1.distance(a, b)) < 1e-12


def test_project_reject():
    bn = normalized(B)
    assert coeff_norm(el1.project(el1.polar(bn).mv, bn)) < 1e-14
    assert_mv_close(el1.project(bn, bn), bn, 1e-14)
    assert coeff_norm(el1.reject(bn, bn)) < 1e-14


def test_project_reject_decomposition(rng):
    for _ in range(50):
        a, b = rand_point(S, rng), rand_point(S, rng)
        assert_mv_close(el1.project(a, b) + el1.reject(a, b), a, 1e-12)


def test_rejection_sits_at_polar_point(rng):
    for _ in range(20):
        alpha, beta = rng.uniform(-1.5, 1.5, size=2)
        a = el1.PointEl1.from_angle(alpha)
        b = el1.PointEl1.from_angle(beta)
        expected = geometric_product(b.mv, Multivector.basis(S, "e01")) * math.sin(alpha - beta)
        assert_mv_close(el1.reject(a, b), expected, 1e-12)


def test_metric_axioms(rng):
    for _ in range(100):
        a, b, c = (rand_point(S, rng) for _ in range(3))
        dab, dba = el1.distance(a, b), el1.distance(b, a)
        assert abs(dab - dba) < 1e-14
        assert el1.distance(a, b) <= el1.distance(a, c) + el1.distance(c, b) + 1e-12
        assert el1.distance(a, b) <= math.pi / 2 + 1e-15


def test_spinor_closure_of_point_products(rng):
    # the product of two normalised points is exp(gamma * e01)
    for _ in range(30):
        a, b = rand_point(S, rng), rand_point(S, rng)
        prod = geometric_product(a, b)
        gamma = math.atan2(prod.coeff("e01"), prod.scalar_part)
        expected = Multivector.from_terms(
            S, {"1": math.cos(gamma), "e01": math.sin(gamma)})
        assert_mv_close(prod, expected, 1e-12)
