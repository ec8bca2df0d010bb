"""Forward error of the closed-form ops against 256-bit mpmath references.

Each reference is evaluated on the exact float inputs with mpmath at 256
bits, from a formula other than the one the op uses where one exists:
interior angles for the triangle excess, the dot and join of the lines for
their separations.  The ops are called directly, not through the report.
"""

import math
import random
from pathlib import Path

import mpmath
import pytest

from elga import el2, el3
from elga.algebra import (
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
    outer,
    regressive,
)
from elga.scene import load_scene_file

PREC = 256
SCENES = Path(__file__).resolve().parents[1] / "src" / "elga" / "scenes"
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
        got = el2.triangle_area(el2.TriangleEl2(*(_point_el2(*p) for p in points)))
        worst = max(worst, abs(got - _excess(points)))
    assert worst <= 1e-15


def test_triangle_areas_of_the_bundled_scene_are_within_two_ulps():
    scene = load_scene_file(str(SCENES / "paper_el2.json"))
    for query in scene.queries:
        if query.op == "triangle_area":
            pts = [scene.entities[name] for name in query.args]
            got = el2.triangle_area(el2.TriangleEl2(*pts))
            want = _excess([(p.coeff("e12"), p.coeff("e20"), p.coeff("e01")) for p in pts])
            assert abs(got - want) <= 2 * math.ulp(want), query.name


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
