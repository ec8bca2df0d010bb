"""Forward error of the closed-form ops against 256-bit mpmath references.

Each reference is evaluated on the exact float inputs with mpmath at 256
bits, from a formula other than the one the op uses where one exists:
interior angles for the triangle excess and its two-right-triangle split,
the dot and join of the lines for their separations, acos or asin of a
cosine and Gram determinants for the distances and angles, the product of
two simple rotations and the sandwich for the El3 line motions, and
Gram-Schmidt for the point on a line.  The ops are called directly, not
through the report.
"""

import importlib
import math
import random
import sys
from pathlib import Path

import mpmath
import pytest

from elga import el1, el2, el3
from elga.algebra import (
    AlgebraError,
    Multivector,
    Space,
    axis_split,
    coeff_norm,
    commutator,
    dual_I,
    exp_bivector,
    geometric_product,
    inner,
    inverse_blade,
    norm,
    normalized,
    outer,
    regressive,
)
from elga.scene import load_scene, load_scene_file
from helpers import bits_of, blade_product_bruteforce

PREC = 256
ROOT = Path(__file__).resolve().parents[1]
SCENES = ROOT / "src" / "elga" / "scenes"
BENCH = ROOT / "bench"
_PLUCKER = ("e10", "e20", "e30", "e23", "e31", "e12")


def _unit(v):
    n = mpmath.sqrt(mpmath.fsum(x * x for x in v))
    return [x / n for x in v]


def _dot(u, v):
    return mpmath.fsum(x * y for x, y in zip(u, v))


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


# ---------------------------------------------------------------------------
# triangle excess


def _excess(points):
    """Interior angles minus pi of the triangle of three El2 points (w, x, y),
    on the representatives whose sides are the short segments."""
    with mpmath.workprec(PREC):
        a, b, c = (_unit([mpmath.mpf(x) for x in p]) for p in points)
        if _dot(a, b) < 0:
            b = [-x for x in b]
        if _dot(a, c) < 0:
            c = [-x for x in c]

        def angle(at, u, v):                # between the tangents towards u and v
            tu = [x - _dot(at, u) * y for x, y in zip(u, at)]
            tv = [x - _dot(at, v) * y for x, y in zip(v, at)]
            return mpmath.atan2(mpmath.sqrt(_dot(*[_cross(tu, tv)] * 2)), _dot(tu, tv))

        return float(angle(a, b, c) + angle(b, a, c) + angle(c, a, b) - mpmath.pi)


def _point_el2(w, x, y):
    return Multivector.from_terms(Space.EL2, {"e12": w, "e20": x, "e01": y})


def _thin_triangles(count):
    # two vertices 0.1 to 0.5 chart units apart and a third 10**-3 to 10**-7
    # of that off their chord, so the excess runs from about 1e-4 down to 1e-10
    rnd = random.Random(27)
    for _ in range(count):
        x0, y0 = rnd.uniform(-1.0, 1.0), rnd.uniform(-1.0, 1.0)
        turn, length = rnd.uniform(0.0, 2.0 * math.pi), rnd.uniform(0.1, 0.5)
        dx, dy = length * math.cos(turn), length * math.sin(turn)
        t, h = rnd.random(), 10.0 ** -rnd.uniform(3.0, 7.0)
        xm, ym = x0 + t * dx, y0 + t * dy
        yield (1.0, x0, y0), (1.0, x0 + dx, y0 + dy), (1.0, xm - h * dy, ym + h * dx)


def test_triangle_area_keeps_its_digits_on_thin_triangles():
    # the excess is an atan2 of the triple product: its error stays at the
    # rounding of the side cosines, about 1e-16, however small the area
    worst = 0.0
    for points in _thin_triangles(300):
        got = el2.triangle_area(*(_point_el2(*p) for p in points))
        worst = max(worst, abs(got - _excess(points)))
    assert worst <= 1e-15


def test_triangle_areas_of_the_bundled_scene_are_within_two_ulps():
    scene = load_scene_file(str(SCENES / "paper_el2.json"))
    for query in scene.queries:
        if query.op == "triangle_area":
            pts = [scene.entities[name] for name in query.args]
            got = el2.triangle_area(*pts)
            want = _excess([(p.coeff("e12"), p.coeff("e20"), p.coeff("e01")) for p in pts])
            assert abs(got - want) <= 2 * math.ulp(want), query.name


def _right_triangle(b, c):
    """P = e12, Q = cos b e12 + sin b e20, R = cos c e12 + sin c e01: the right
    angle at P, with legs b and c."""
    return (1.0, 0.0, 0.0), (math.cos(b), math.sin(b), 0.0), (math.cos(c), 0.0, math.sin(c))


_LEGS = (1e-6, 1e-3, 0.3, 1.0) + tuple(math.pi / 2 - 10.0 ** -k for k in range(1, 9))


def test_right_triangle_area_keeps_its_digits_up_to_a_quarter_of_the_plane():
    # as both legs near pi/2 the area nears pi/2, where the sine form
    # asin(|PvQvR| / (1 + |Q.R|)) lost digits (2.4e-9 relative)
    worst = 0.0
    for b in _LEGS:
        for c in _LEGS:
            if math.sin(b) * math.sin(c) < 1e-8:    # thinner is refused as collinear
                continue
            points = _right_triangle(b, c)
            want = _excess(points)
            got = el2.right_triangle_area(*(_point_el2(*p) for p in points))
            worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-15


def _split_excess(points):
    """The excess of the triangle P, Q, R as the sum (or difference) of its two
    right triangles at the foot F of the perpendicular from R onto PQ, each by
    _excess (interior angles), with F found at 256 bits."""
    with mpmath.workprec(PREC):
        p, q, r = (_unit([mpmath.mpf(x) for x in v]) for v in points)
        n = _unit(_cross(p, q))
        f = _unit([x - _dot(r, n) * y for x, y in zip(r, n)])
        gap = [mpmath.acos(abs(_dot(u, v))) for u, v in ((p, f), (f, q), (p, q))]
        e1, e2 = _excess((f, p, r)), _excess((f, q, r))
        return e1 + e2 if abs(gap[0] + gap[1] - gap[2]) < 1e-30 else abs(e1 - e2)


def test_triangle_area_matches_its_two_right_triangles_at_256_bits():
    # the two-right-triangle split of acceptance criterion C04, with the split
    # and both right triangles' excesses (interior angles) at 256 bits: a second
    # formula beside _excess, which the split in C04 calls three times
    rnd = random.Random(55)
    triangles = [((1, -1, 0), (1, -2, 1), (1, -0.75, 1.5)), ((1, 3, -1), (1, -2, 1), (1, -0.75, 1.5))]
    triangles += [tuple((1.0, rnd.uniform(-1.5, 1.5), rnd.uniform(-1.5, 1.5)) for _ in range(3))
                  for _ in range(200)]
    worst = 0.0
    for points in triangles:
        try:
            got = el2.triangle_area(*(_point_el2(*v) for v in points))
        except (ValueError, AlgebraError):      # collinear, or sides that bound no triangle
            continue
        worst = max(worst, abs(got - _split_excess(points)))
    assert worst <= 1e-15


@pytest.fixture(scope="module")
def bench_gen():
    """The bench's scene generator, bench/gen.py."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("gen")
    finally:
        sys.path.remove(str(BENCH))


def test_right_triangle_area_is_triangle_area_on_the_bench_scenes(bench_gen):
    count = 0
    for seed in range(1, 9):
        for data in bench_gen.eval_batch(seed):
            if data["space"] != "el2":
                continue
            scene = load_scene(data)
            for query in scene.queries:
                if query.op == "right_triangle_area":
                    pts = [scene.entities[name] for name in query.args]
                    got = el2.right_triangle_area(*pts)
                    assert got == el2.triangle_area(*pts), query.name
                    want = _excess([(p.coeff("e12"), p.coeff("e20"), p.coeff("e01")) for p in pts])
                    assert abs(got - want) <= 1e-15 * want, query.name
                    count += 1
    assert count == 8 * 18


# ---------------------------------------------------------------------------
# line-line metrics


def _line_line(l, m):
    """(r1, r2, alpha) of two El3 lines given as Plucker 6-tuples:
    with u = <L Phi>_0 and v = (L v Phi)_0 on the unit lines,
    cos(r2 - r1) = |u| + |v| and cos(r1 + r2) = |u| - |v|."""
    with mpmath.workprec(PREC):
        a, b = _unit([mpmath.mpf(x) for x in l]), _unit([mpmath.mpf(x) for x in m])
        u = -_dot(a, b)
        v = -_dot(a, b[3:] + b[:3])
        gap, span = mpmath.acos(min(1, abs(u) + abs(v))), mpmath.acos(abs(u) - abs(v))
        r1, r2 = (span - gap) / 2, (span + gap) / 2
        return float(r1), float(r2), float(r2 if u <= 0 else mpmath.pi - r2)


def _dyadic_point(rnd):
    return Multivector.from_terms(Space.EL3, {
        n: rnd.randint(-64, 64) / 64 for n in ("e123", "e320", "e130", "e210")})


def _exact_lines(rnd):
    # joins of points with 7-bit coordinates: every Plucker coordinate is
    # exact, so the input lies on the Plucker quadric without rounding
    while True:
        ln = regressive(_dyadic_point(rnd), _dyadic_point(rnd))
        if any(ln._c):
            return ln


def _line_of_halves(C, D):
    """The line with self-dual half C and anti-self-dual half D (algebra._halves)."""
    return Multivector.from_terms(Space.EL3, dict(zip(_PLUCKER, (
        C[0] - D[0], C[1] - D[1], C[2] - D[2], C[0] + D[0], C[1] + D[1], C[2] + D[2]))))


def _line_pairs():
    rnd = random.Random(2707)
    for _ in range(100):
        yield _exact_lines(rnd), _exact_lines(rnd)
    for _ in range(50):                         # intersecting: a shared point
        p, q, r = (_dyadic_point(rnd) for _ in range(3))
        if any(regressive(p, q)._c) and any(regressive(p, r)._c):
            yield regressive(p, q), regressive(p, r)
    # Clifford parallel: a shared half.  A line's halves have equal lengths,
    # so the other half is a signed permutation of the shared one, and the
    # Plucker coordinates stay exact
    for _ in range(50):
        C = [rnd.randint(-64, 64) / 64 for _ in range(3)]
        if not any(C):
            continue
        D1, D2 = ([rnd.choice((-1, 1)) * x for x in rnd.sample(C, 3)] for _ in range(2))
        yield _line_of_halves(C, D1), _line_of_halves(C, D2)
        yield _line_of_halves(D1, C), _line_of_halves(D2, C)


def test_line_line_metrics_match_the_separations_of_the_dot_and_join():
    worst = 0.0
    for ln, other in _line_pairs():
        m = el3.line_line_metrics(ln, other)
        want = _line_line([ln.coeff(n) for n in _PLUCKER], [other.coeff(n) for n in _PLUCKER])
        worst = max(worst, *(abs(g - w) for g, w in zip((m.r1, m.r2, m.alpha), want)))
    assert worst <= 1e-15


def _product_form_args(phi, line, kind):
    """_line_line_args with the commutator as the El3 product (Phi L - L Phi)/2."""
    comm = commutator(phi, line)
    if coeff_norm(comm) / coeff_norm(phi) / coeff_norm(line) <= 1e-9:
        zero = Multivector.zero(Space.EL3)
        return zero, zero
    b1, b2, _ = axis_split(comm)
    return (b1, b2) if kind == 1 else (b2, b1)


def test_line_line_projections_match_the_product_form_commutator():
    rnd = random.Random(11)
    for _ in range(100):
        phi, line = _exact_lines(rnd), _exact_lines(rnd)
        inv, scale = inverse_blade(line), coeff_norm(phi)      # the results scale with phi
        for kind in (1, 2):
            axis, other_axis = _product_form_args(phi, line, kind)
            for got, want in (
                (el3.project_line_on_line(phi, line, kind),
                 geometric_product(inner(phi, line) + axis, inv)),
                (el3.reject_line_by_line(phi, line, kind),
                 geometric_product(other_axis + outer(phi, line), inv)),
            ):
                assert coeff_norm(got - want) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# Clifford parallels


def _sandwich_parallel(frame, family, phi, theta):
    """The parallel with omega as the sandwich of the axis by
    exp(-phi/2 axis) exp(-theta/2 perp)."""
    axis, perp = ((frame.minus, frame.minus_perp) if family == "positive"
                  else (frame.plus, frame.plus_perp))
    s = exp_bivector(axis * (-0.5 * phi)) * exp_bivector(perp * (-0.5 * theta))
    omega = s.apply(axis)
    sign = 1.0 if family == "positive" else -1.0
    return frame.line - (dual_I(omega) - omega * sign) * math.cos(theta)


def _random_line(rnd):
    p, q = ([rnd.gauss(0.0, 1.0) for _ in range(4)] for _ in range(2))
    names = ("e123", "e320", "e130", "e210")
    return regressive(Multivector.from_terms(Space.EL3, dict(zip(names, p))),
                      Multivector.from_terms(Space.EL3, dict(zip(names, q))))


@pytest.mark.parametrize("family", ["positive", "negative"])
def test_clifford_parallel_matches_the_sandwich_construction(family):
    rnd = random.Random(5)
    worst = 0.0
    for _ in range(100):
        frame = el3.clifford_frame(_random_line(rnd))
        phi, theta = rnd.uniform(0.0, 2.0 * math.pi), rnd.uniform(0.0, math.pi)
        got = frame.parallel(family, phi, theta)
        worst = max(worst, *map(abs, (got - _sandwich_parallel(frame, family, phi, theta))._c))
    assert worst <= 1e-15


# ---------------------------------------------------------------------------
# distances and angles
#
# Each op's absolute error is pinned at 1e-15.  Its relative error is pinned
# at 1e-13 only where the answer is at least 1e-2: the atan2 forms keep an
# absolute error of a few 1e-16 however close the elements, so the relative
# error grows like 1e-16/d as the separation d shrinks (about 1e-8 for points
# 1e-8 apart), which is the rounding of the inputs' own coordinates, not of
# the formula.

_POINT = {Space.EL1: ("e0", "e1"), Space.EL2: ("e12", "e20", "e01"),
          Space.EL3: ("e123", "e320", "e130", "e210")}
_VECTOR = {Space.EL2: ("e0", "e1", "e2"), Space.EL3: ("e0", "e1", "e2", "e3")}


def _mv(space, names, coords):
    return Multivector.from_terms(space, dict(zip(names, coords)))


def _gauss(rnd, n):
    return [rnd.gauss(0.0, 1.0) for _ in range(n)]


def _nudged(rnd, u):
    return [x + 1e-8 * rnd.gauss(0.0, 1.0) for x in u]


def _off(u, ws):
    """u less its parts along the pairwise orthogonal vectors ws, in floats."""
    for w in ws:
        t = sum(x * y for x, y in zip(u, w)) / sum(x * x for x in w)
        u = [x - t * y for x, y in zip(u, w)]
    return u


def _reference(f):
    """f() evaluated at 256 bits, as a float."""
    with mpmath.workprec(PREC):
        return float(f())


def _cos(u, v):
    with mpmath.workprec(PREC):
        u, v = [mpmath.mpf(x) for x in u], [mpmath.mpf(x) for x in v]
        return _dot(u, v) / mpmath.sqrt(_dot(u, u) * _dot(v, v))


def _gram(*vs):
    return mpmath.det(mpmath.matrix([[_dot(u, v) for v in vs] for u in vs]))


def _off_span(p, us):
    """sin of the angle between the vector p and the span of the vectors us, by
    Gram determinants: sin**2 = G(us, p) / (G(us) |p|**2)."""
    with mpmath.workprec(PREC):
        p, us = [mpmath.mpf(x) for x in p], [[mpmath.mpf(x) for x in u] for u in us]
        return mpmath.sqrt(_gram(*us, p) / (_gram(*us) * _dot(p, p)))


def _in_span(n, us):
    """sin of the angle between the hyperplane normal to n and the span of us:
    |n's projection onto the span| / |n|."""
    with mpmath.workprec(PREC):
        return mpmath.sqrt(1 - _off_span(n, us) ** 2)


def _dyadic(rnd, n):
    return [rnd.randint(-64, 64) / 64 for _ in range(n)]


def _exact_line(rnd):
    """Two points with 7-bit coordinates and their join, whose Plucker
    coordinates are exact: the line is the span of the two points."""
    while True:
        u, v = _dyadic(rnd, 4), _dyadic(rnd, 4)
        ln = regressive(_mv(Space.EL3, _POINT[Space.EL3], u), _mv(Space.EL3, _POINT[Space.EL3], v))
        if any(ln._c):
            return ln, (u, v)


def _point_point(space, op):
    def case(rnd, near):
        u = _gauss(rnd, len(_POINT[space]))
        v = _nudged(rnd, u) if near else _gauss(rnd, len(u))
        got = op(_mv(space, _POINT[space], u), _mv(space, _POINT[space], v))
        return got, _reference(lambda: mpmath.acos(abs(_cos(u, v))))
    return case


def _vector_point(space, op):
    def case(rnd, near):
        n = _gauss(rnd, len(_VECTOR[space]))
        p = _nudged(rnd, _off(_gauss(rnd, len(n)), [n])) if near else _gauss(rnd, len(n))
        got = op(_mv(space, _VECTOR[space], n), _mv(space, _POINT[space], p))
        return got, _reference(lambda: mpmath.asin(abs(_cos(n, p))))
    return case


def _vector_vector(space, op):
    def case(rnd, near):
        u = _gauss(rnd, len(_VECTOR[space]))
        v = _nudged(rnd, [rnd.choice((-1.0, 1.0)) * x for x in u]) if near else _gauss(rnd, len(u))
        got = op(_mv(space, _VECTOR[space], u), _mv(space, _VECTOR[space], v))
        return got, _reference(lambda: mpmath.acos(_cos(u, v)))
    return case


def _line_point(rnd, near):
    ln, (u, v) = _exact_line(rnd)
    t = rnd.gauss(0.0, 1.0)
    p = _nudged(rnd, [x + t * y for x, y in zip(u, v)]) if near else _gauss(rnd, 4)
    got = el3.distance_line_point(ln, _mv(Space.EL3, _POINT[Space.EL3], p))
    return got, _reference(lambda: mpmath.asin(_off_span(p, (u, v))))


def _line_plane(rnd, near):
    ln, (u, v) = _exact_line(rnd)
    n = _nudged(rnd, _off(_gauss(rnd, 4), [u, _off(v, [u])])) if near else _gauss(rnd, 4)
    got = el3.angle_line_plane(ln, _mv(Space.EL3, _VECTOR[Space.EL3], n))
    return got, _reference(lambda: mpmath.asin(_in_span(n, (u, v))))


AUDIT = {
    "el1.distance": _point_point(Space.EL1, el1.distance),
    "el2.distance_pp": _point_point(Space.EL2, el2.distance_pp),
    "el3.distance_pp": _point_point(Space.EL3, el3.distance_pp),
    "el2.distance_lp": _vector_point(Space.EL2, el2.distance_lp),
    "el3.distance_plane_point": _vector_point(Space.EL3, el3.distance_plane_point),
    "el3.distance_line_point": _line_point,
    "el2.angle_ll": _vector_vector(Space.EL2, el2.angle_ll),
    "el3.angle_planes": _vector_vector(Space.EL3, el3.angle_planes),
    "el3.angle_line_plane": _line_plane,
}


@pytest.mark.parametrize("op", AUDIT)
def test_distances_and_angles_match_their_256_bit_references(op):
    # 200 generic draws and 100 near ones: points 1e-8 apart, a point 1e-8
    # off a line or plane, lines or planes 1e-8 from parallel or antiparallel,
    # a line 1e-8 from lying in a plane
    rnd = random.Random(op)
    worst_abs = worst_rel = 0.0
    for i in range(300):
        got, want = AUDIT[op](rnd, i >= 200)
        worst_abs = max(worst_abs, abs(got - want))
        if want >= 1e-2:
            worst_rel = max(worst_rel, abs(got - want) / want)
    assert worst_abs <= 1e-15 and worst_rel <= 1e-13


# ---------------------------------------------------------------------------
# the coefficient norm
#
# The floats within 1 ulp of a norm at 2**k are those within 1 ulp of it at
# scale 1, times 2**k, while every coefficient and the norm are normal.


def _within_one_ulp(x):
    """The floats within 1 ulp of the real x (an mpf), by the ulp of the nearest."""
    r = float(x)
    near = (math.nextafter(r, -math.inf), r, math.nextafter(r, math.inf))
    return {y for y in near if abs(mpmath.mpf(y) - x) <= math.ulp(r)}


def _norm_cases(rnd):
    """Gaussian El1, El2 and El3 elements, and El3 lines (joins of Gaussian points)."""
    for space in Space:
        for _ in range(8):
            yield Multivector(space, _gauss(rnd, space.size))
    for _ in range(8):
        yield regressive(*[_mv(Space.EL3, _POINT[Space.EL3], _gauss(rnd, 4)) for _ in range(2)])


def test_coeff_norm_and_norm_are_within_one_ulp_at_every_power_of_two_scale():
    # the root of a sum of squares in slot order is off by nearly 2 ulp, and loses
    # every digit once the squares leave the floats
    rnd = random.Random("coeff_norm")
    for a in _norm_cases(rnd):
        with mpmath.workprec(PREC):
            want = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 for x in a._c))
            allowed = _within_one_ulp(want)
        for k in range(-1000, 1001):
            c = [math.ldexp(x, k) for x in a._c]
            if math.ldexp(float(want), k) < sys.float_info.min or any(
                    x and abs(x) < sys.float_info.min for x in c):
                continue
            scaled = Multivector(a.space, c)
            for op in (coeff_norm, norm):
                assert math.ldexp(op(scaled), -k) in allowed, (op.__name__, a, k)


# ---------------------------------------------------------------------------
# El3 line motions and the point on a line
#
# The references multiply in Cl(4) at 256 bits with the signs of
# blade_product_bruteforce, on exact lines (joins of 7-bit points, whose
# Plucker coordinates are exact) normalised at 256 bits.


_EL3_SIGNS = [(a, b) + blade_product_bruteforce(bits_of(a), bits_of(b)) for a in range(16)
              for b in range(16)]


def _mp_product(x, y):
    out = [mpmath.mpf(0)] * 16
    for a, b, sign, bits in _EL3_SIGNS:
        if x[a] and y[b]:
            out[sum(1 << i for i in bits)] += sign * x[a] * y[b]
    return out


def _mp_unit(mv):
    c = [mpmath.mpf(x) for x in mv._c]
    n = mpmath.sqrt(mpmath.fsum(x * x for x in c))
    return [x / n for x in c]


def _rotor(unit_line, angle):
    """exp(-angle/2 L) = cos(angle/2) - sin(angle/2) L for a unit line L (L**2 = -1)."""
    out = [-mpmath.sin(mpmath.mpf(angle) / 2) * x for x in unit_line]
    out[0] = mpmath.cos(mpmath.mpf(angle) / 2)
    return out


def _worst(got, want):
    return max(float(abs(mpmath.mpf(g) - w)) for g, w in zip(got._c, want))


def test_double_rotation_spinor_matches_the_product_of_its_two_rotations():
    # exp(-(alpha + beta I)/2 L) = exp(-alpha/2 L) exp(-beta/2 LI), L and LI commute
    rnd = random.Random(31)
    worst = 0.0
    for _ in range(100):
        ln, _ = _exact_line(rnd)
        alpha, beta = rnd.uniform(-4.0, 4.0), rnd.uniform(-4.0, 4.0)
        with mpmath.workprec(PREC):
            want = _mp_product(_rotor(_mp_unit(ln), alpha), _rotor(_mp_unit(dual_I(ln)), beta))
            worst = max(worst, _worst(el3.double_rotation_spinor(ln, alpha, beta).mv, want))
    assert worst <= 1e-15


def test_sweep_line_point_matches_the_sandwich_about_the_polar_line():
    # S P ~S with S = exp(-t/2 LI), on the line's own point and on unit points off it
    rnd = random.Random(32)
    worst = 0.0
    for i in range(100):
        ln, _ = _exact_line(rnd)
        p = el3.point_on_line(ln) if i % 2 else normalized(_mv(Space.EL3, _POINT[Space.EL3],
                                                                _gauss(rnd, 4)))
        t = rnd.uniform(-4.0, 4.0)
        with mpmath.workprec(PREC):
            s = _rotor(_mp_unit(dual_I(ln)), t)
            reverse = [s[0]] + [-x for x in s[1:]]          # S is a scalar plus a bivector
            want = _mp_product(_mp_product(s, [mpmath.mpf(x) for x in p._c]), reverse)
            worst = max(worst, _worst(el3.sweep_line_point(ln, p, t), want))
    assert worst <= 1e-15


def _foot(u, v):
    """point_on_line at 256 bits: the projection of the first basis point e_k
    onto the span of u and v (Gram-Schmidt) longer than 1e-6, normalised."""
    with mpmath.workprec(PREC):
        a = _unit([mpmath.mpf(x) for x in u])
        v = [mpmath.mpf(x) for x in v]
        b = _unit([x - _dot(v, a) * y for x, y in zip(v, a)])
        for k in range(4):
            foot = [a[k] * x + b[k] * y for x, y in zip(a, b)]
            if mpmath.sqrt(_dot(foot, foot)) > 1e-6:
                return _unit(foot)


def test_point_on_line_matches_the_projection_onto_the_span_of_its_points():
    # generic lines; lines whose points have 2**-16 of the weight of the others,
    # so the foot from e123 is short; and lines polar to e123, where e320 serves
    rnd = random.Random(33)
    worst = 0.0
    for i in range(300):
        u, v = _dyadic(rnd, 4), _dyadic(rnd, 4)
        if i % 3:
            u[0], v[0] = (u[0] * 2.0 ** -16, v[0] * 2.0 ** -16) if i % 3 == 1 else (0.0, 0.0)
        ln = regressive(_mv(Space.EL3, _POINT[Space.EL3], u), _mv(Space.EL3, _POINT[Space.EL3], v))
        if not any(ln._c):
            continue
        got = el3.quaternion_bridge(el3.point_on_line(ln))
        worst = max(worst, *(abs(g - float(w)) for g, w in zip(got, _foot(u, v))))
    assert worst <= 1e-15
