"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from elga.algebra import (
    Multivector,
    Space,
    coeff_norm,
    commutator,
    dual_I,
    exp_bivector,
    geometric_product,
    inner,
    normalized,
    outer,
    regressive,
)
from elga import el1, el2, el3
from elga.scene import evaluate_scene, load_scene_file, round_report
from helpers import (
    exp_power_series,
    rand_bivector_el3,
    rand_line_el2,
    rand_line_el3,
    rand_mv,
    rand_plane_el3,
    rand_point,
    rand_spinor,
)

SCENES = Path(__file__).resolve().parents[1] / "src" / "elga" / "scenes"
E1, E2, E3 = Space.EL1, Space.EL2, Space.EL3


def report(number, description, worst, tolerance):
    ok = worst <= tolerance
    line = (f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description} "
            f"(worst {worst:.3e}, tolerance {tolerance:.0e})")
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def seeded(n):
    return np.random.default_rng(n)


def test_c01_el1_worked_distances():
    a = Multivector.from_terms(E1, {"e0": -2, "e1": 1})
    b = Multivector.from_terms(E1, {"e0": -1, "e1": 1})
    c = Multivector.from_terms(E1, {"e0": 3, "e1": 1})
    worst = max(
        abs(el1.distance(a, b) - (math.atan(2) - math.pi / 4)),
        abs(el1.distance(a, c) - (math.pi - (math.atan(2) + math.atan(3)))),
    )
    report(1, "el1 worked distances r_ab, r_ac", worst, 1e-12)


def test_c02_el2_point_distance():
    p = Multivector.from_terms(E2, {"e12": 1, "e20": 1})
    q = Multivector.from_terms(E2, {"e12": 1, "e01": 2})
    worst = abs(el2.distance_pp(p, q) - math.acos(1 / math.sqrt(10)))
    report(2, "el2 distance arccos(1/sqrt(10))", worst, 1e-12)


def test_c03_el2_line_point_distance():
    a = Multivector.from_terms(E2, {"e0": -2, "e1": 2, "e2": 1})
    p = Multivector.from_terms(E2, {"e12": 1, "e20": -0.6, "e01": 0.8})
    worst = abs(el2.distance_lp(a, p) - math.asin(2.4 / (3 * math.sqrt(2))))
    report(3, "el2 line-point distance arcsin(2.4/(3*sqrt(2)))", worst, 1e-12)


def _right_split_area(p, q, r):
    p, q, r = normalized(p), normalized(q), normalized(r)
    side = regressive(p, q)
    foot = normalized(outer(side, inner(side, r)))
    s1 = el2.right_triangle_area(foot, p, r)
    s2 = el2.right_triangle_area(foot, q, r)
    between = abs(el2.distance_pp(p, foot) + el2.distance_pp(foot, q)
                  - el2.distance_pp(p, q)) < 1e-9
    return s1 + s2 if between else abs(s1 - s2)


def test_c04_el2_triangle_excess_vs_right_split():
    def pt(w, x, y):
        return Multivector.from_terms(E2, {"e12": w, "e20": x, "e01": y})
    tri_plain = (pt(1, -1, 0), pt(1, -2, 1), pt(1, -3 / 4, 3 / 2))
    tri_wrapped = (pt(1, 3, -1), pt(1, -2, 1), pt(1, -3 / 4, 3 / 2))
    worst = max(
        abs(el2.triangle_area(*tri_plain) - _right_split_area(*tri_plain)),
        abs(el2.triangle_area(*tri_wrapped) - _right_split_area(*tri_wrapped)),
    )
    report(4, "el2 triangle excess equals two-right-triangle split", worst, 1e-10)


def test_c05_el3_commutator_separations():
    lam = Multivector.from_terms(E3, {"e10": -1.5, "e20": 1, "e30": -0.5,
                                      "e23": -1, "e31": -2.5, "e12": -2})
    phi = Multivector.from_terms(E3, {"e10": 1, "e20": 5 / 3, "e30": -2,
                                      "e23": -1, "e31": 3, "e12": 2})
    m = el3.line_line_metrics(lam, phi)
    worst = max(
        abs(math.sin(m.r1) - math.sqrt((22 - 5 * math.sqrt(17)) / 59)),
        abs(math.sin(m.r2) - math.sqrt((22 + 5 * math.sqrt(17)) / 59)),
    )
    report(5, "el3 commutator example sin r1, sin r2", worst, 1e-12)


def test_c06_principal_angle_oracle():
    rng = seeded(6)
    worst = 0.0
    count = 0
    while count < 1000:
        p1, q1 = rand_point(E3, rng), rand_point(E3, rng)
        p2, q2 = rand_point(E3, rng), rand_point(E3, rng)
        l1, l2 = regressive(p1, q1), regressive(p2, q2)
        if min(coeff_norm(l1), coeff_norm(l2)) < 1e-3:
            continue
        m = el3.line_line_metrics(l1, l2)
        if m.relation is not el3.LineRelation.GENERIC:
            continue
        basis1 = np.linalg.qr(np.column_stack([
            el3.quaternion_bridge(p1), el3.quaternion_bridge(q1)]))[0]
        basis2 = np.linalg.qr(np.column_stack([
            el3.quaternion_bridge(p2), el3.quaternion_bridge(q2)]))[0]
        svals = np.clip(np.linalg.svd(basis1.T @ basis2)[1], 0.0, 1.0)
        angles = np.sort(np.arccos(svals))
        worst = max(worst, abs(angles[0] - m.r1), abs(angles[1] - m.r2))
        count += 1
    report(6, "el3 line separations match SVD principal angles (1000 pairs)",
           worst, 1e-9)


def test_c07_clifford_parallel_distance_constancy():
    lam = normalized(Multivector.from_terms(E3, {
        "e20": -1 / 3, "e30": 1, "e23": 1, "e31": -1, "e12": -1 / 3}))
    theta = math.pi / 2 - math.pi / 10
    worst_distance = 0.0
    worst_property = 0.0
    xi_pos = el3.clifford_bivector(lam, "positive").value
    xi_neg = el3.clifford_bivector(lam, "negative").value
    ts = np.linspace(0.0, math.pi, 100)
    for family, xi in (("positive", xi_pos), ("negative", xi_neg)):
        for k in range(32):
            phi = 2 * math.pi * k / 32
            par = el3.clifford_parallel(lam, family, phi, theta)
            if family == "positive":
                residual = coeff_norm((dual_I(par) + par) - xi)
            else:
                residual = coeff_norm((dual_I(par) - par) - xi)
            worst_property = max(worst_property, residual)
            anchor = el3.point_on_line(par)
            for t in ts:
                sample = el3.sweep_line_point(par, anchor, float(t))
                worst_distance = max(worst_distance, abs(
                    el3.distance_line_point(lam, sample) - math.pi / 10))
    report(7, "clifford parallels at constant distance pi/10 (32 phi x 2 x 100 pts)",
           worst_distance, 1e-9)
    report(7, "clifford parallels generator property residuals", worst_property,
           1e-12)


def test_c08_clifford_translation_equivalences():
    rng = seeded(8)
    worst = 0.0
    for case in range(500):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        l0 = Multivector.from_terms(E3, {"e23": direction[0],
                                         "e31": direction[1],
                                         "e12": direction[2]})
        beta = rng.uniform(-math.pi, math.pi)
        p = rand_point(E3, rng)
        family, side = (("positive", "right") if case % 2 == 0
                        else ("negative", "left"))
        xi = el3.clifford_bivector(l0, family)
        sandwich = el3.clifford_translate(p, xi, beta)
        closed = p * math.cos(beta) + commutator(p, xi.value) * math.sin(beta)
        quat = el3.clifford_translate_quat(p, l0, beta, side)
        worst = max(worst,
                    float(np.max(np.abs(sandwich.coeffs - closed.coeffs))),
                    float(np.max(np.abs(sandwich.coeffs - quat.coeffs))))
    report(8, "clifford translation sandwich = closed form = quaternion (500)",
           worst, 1e-12)


def _el1_metrics(entities):
    pts = entities
    vals = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            vals.append(el1.distance(pts[i], pts[j]))
    return np.array(vals)


def _el2_metrics(entities):
    points, lines = entities
    vals = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            vals.append(el2.distance_pp(points[i], points[j]))
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            vals.append(el2.angle_ll(lines[i], lines[j]))
    for a in lines:
        for p in points:
            vals.append(el2.distance_lp(a, p))
    return np.array(vals)


def _el3_metrics(entities):
    points, planes, lines = entities
    vals = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            vals.append(el3.distance_pp(points[i], points[j]))
    for i in range(len(planes)):
        for j in range(i + 1, len(planes)):
            vals.append(el3.angle_planes(planes[i], planes[j]))
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            m = el3.line_line_metrics(lines[i], lines[j])
            vals.extend((m.r1, m.r2))
    for a in planes:
        for p in points:
            vals.append(el3.distance_plane_point(a, p))
    for l in lines:
        for p in points:
            vals.append(el3.distance_line_point(l, p))
    for l in lines:
        for a in planes:
            vals.append(el3.angle_line_plane(l, a))
    return np.array(vals)


def test_c09_spinor_isometry_suite():
    rng = seeded(9)
    worst = 0.0
    spinors_per_space = 500

    el1_pts = [rand_point(E1, rng) for _ in range(10)]
    base1 = _el1_metrics(el1_pts)
    for _ in range(spinors_per_space):
        s = rand_spinor(E1, rng)
        moved = [s.apply(p) for p in el1_pts]
        worst = max(worst, float(np.max(np.abs(_el1_metrics(moved) - base1))))

    el2_ents = ([rand_point(E2, rng) for _ in range(5)],
                [rand_line_el2(rng) for _ in range(5)])
    base2 = _el2_metrics(el2_ents)
    for _ in range(spinors_per_space):
        s = rand_spinor(E2, rng)
        moved = ([s.apply(p) for p in el2_ents[0]],
                 [s.apply(a) for a in el2_ents[1]])
        worst = max(worst, float(np.max(np.abs(_el2_metrics(moved) - base2))))

    el3_ents = ([rand_point(E3, rng) for _ in range(4)],
                [rand_plane_el3(rng) for _ in range(3)],
                [rand_line_el3(rng) for _ in range(3)])
    base3 = _el3_metrics(el3_ents)
    for _ in range(spinors_per_space):
        s = rand_spinor(E3, rng)
        moved = tuple([s.apply(x) for x in group] for group in el3_ents)
        worst = max(worst, float(np.max(np.abs(_el3_metrics(moved) - base3))))

    report(9, "500 spinors per space preserve all pairwise metrics", worst, 1e-10)


def test_c10_algebra_invariants():
    rng = seeded(10)

    worst_assoc = 0.0
    for space in (E1, E2, E3):
        for _ in range(340):
            a, b, c = (rand_mv(space, rng) for _ in range(3))
            left = geometric_product(geometric_product(a, b), c)
            right = geometric_product(a, geometric_product(b, c))
            worst_assoc = max(worst_assoc,
                              float(np.max(np.abs(left.coeffs - right.coeffs))))
    report(10, "associativity over 1020 random triples", worst_assoc, 1e-12)

    worst_norm = 0.0
    for space in (E1, E2, E3):
        for _ in range(340):
            p, q = rand_point(space, rng), rand_point(space, rng)
            total = (inner(p, q).scalar_part ** 2
                     + coeff_norm(regressive(p, q)) ** 2)
            worst_norm = max(worst_norm, abs(total - 1.0))
    report(10, "norm identity |P.Q|^2 + |PvQ|^2 = 1 over 1020 pairs",
           worst_norm, 1e-12)

    worst_sign = 0.0
    for space in (E1, E2, E3):
        for _ in range(334):
            from elga.algebra import grade
            a = normalized(grade(rand_mv(space, rng), 1))
            sq = geometric_product(a, a)
            worst_sign = max(worst_sign, abs(sq.scalar_part - 1.0),
                             coeff_norm(sq) - abs(sq.scalar_part))
    for _ in range(1000):
        lam = rand_line_el3(rng)
        worst_sign = max(worst_sign,
                         abs(geometric_product(lam, lam).scalar_part + 1.0))
        p = rand_point(E3, rng)
        worst_sign = max(worst_sign,
                         abs(geometric_product(p, p).scalar_part + 1.0))
    report(10, "metric sign table a^2=+1, line^2=-1, point^2=-1 (1000+ each)",
           worst_sign, 1e-12)

    plus = Multivector.from_terms(E3, {"1": 1, "I": 1})
    minus = Multivector.from_terms(E3, {"1": -1, "I": 1})
    worst_zero = coeff_norm(geometric_product(plus, minus))
    for _ in range(1000):
        x = rand_mv(E3, rng)
        prod = geometric_product(geometric_product(x, plus), minus)
        worst_zero = max(worst_zero,
                         coeff_norm(prod) / max(coeff_norm(x), 1.0))
    report(10, "(I+1)(I-1) = 0 zero divisor over 1000 random factors",
           worst_zero, 1e-12)

    worst_exp = 0.0
    for _ in range(1000):
        b = rand_bivector_el3(rng, 2.0)
        diff = exp_bivector(b).mv.coeffs - exp_power_series(b, 20).coeffs
        worst_exp = max(worst_exp, float(np.max(np.abs(diff))))
    report(10, "exp_bivector vs 20-term power series over 1000 bivectors",
           worst_exp, 1e-10)


def test_c11_max_area_triangles():
    rng = seeded(11)
    worst = 0.0
    for _ in range(100):
        a = rand_line_el2(rng)
        b = normalized(regressive(dual_I(a), rand_point(E2, rng)))
        c = regressive(dual_I(a), dual_I(b))
        area = el2.triangle_area(outer(a, b), outer(a, c), outer(b, c))
        worst = max(worst, abs(area - math.pi / 2))
    report(11, "max-area construction yields pi/2 over 100 seeds", worst, 1e-10)


def test_c12_cli_golden_reports():
    mismatches = 0
    for name in ("paper_el1", "paper_el2", "paper_el3"):
        scene = load_scene_file(str(SCENES / f"{name}.json"))
        live = evaluate_scene(scene)
        stored = json.loads((SCENES / f"{name}.report.json").read_text())
        live_bytes = json.dumps(round_report(live, 12), indent=2).encode()
        stored_bytes = json.dumps(round_report(stored, 12), indent=2).encode()
        if live_bytes != stored_bytes:
            mismatches += 1
    report(12, "eval on three bundled scenes byte-matches stored golden reports",
           float(mismatches), 0.0)
