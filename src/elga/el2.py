"""Geometry of the elliptic plane El2.

Lines are grade-1 elements d*e0 + a*e1 + b*e2, points are grade-2
elements w*e12 + x*e20 + y*e01 (standard coordinates embed as
e12 + x*e20 + y*e01).  Any two distinct lines intersect: there are no
parallels.  Rotations around a point R are sandwiches of
exp(-alpha/2 * R) and every circle appears in the affine chart as an
ellipse, parabola, hyperbola pair, or straight line (radius pi/2).
"""

from __future__ import annotations

import enum
import math
from typing import Tuple

from . import geometry
from .algebra import (
    epsilon,
    AlgebraError,
    Multivector,
    MultivectorLike,
    Record,
    Space,
    as_multivector,
    coeff_norm,
    exp_bivector,
    inner,
    normalized,
    orbit,
    regressive,
)


class DegeneratePolar(AlgebraError):
    """The point sits at the polar point of the line; a.P vanishes."""


class LineEl2(geometry.BladeView):
    """Grade-1 blade view of a line in the elliptic plane."""

    __slots__ = ("mv",)
    space, role = Space.EL2, "line"

    @classmethod
    def from_coeffs(cls, d: float, a: float, b: float) -> "LineEl2":
        return cls(Multivector.from_terms(Space.EL2, {"e0": d, "e1": a, "e2": b}))


class PointEl2(geometry.BladeView):
    """Grade-2 blade view of a point in the elliptic plane."""

    __slots__ = ("mv",)
    space, role = Space.EL2, "point"

    @classmethod
    def from_xy(cls, x: float, y: float) -> "PointEl2":
        """Standard-coordinate embedding e12 + x*e20 + y*e01."""
        return cls(Multivector.from_terms(Space.EL2, {"e12": 1.0, "e20": x, "e01": y}))

    w = geometry.coeff_property("e12")
    x = geometry.coeff_property("e20")
    y = geometry.coeff_property("e01")

    def chart_xy(self) -> Tuple[float, float]:
        """Affine-chart coordinates (x/w, y/w); w must not be zero."""
        w = self.w
        if not w:
            raise ZeroDivisionError("point lies on e0; no chart coordinates")
        return self.x / w, self.y / w


# point-point (P, Q) and line-point (a, P) distances, angle between lines
distance_pp = distance_lp = geometry.distance
angle_ll = geometry.angle


def perpendicular_through(a: MultivectorLike, p: MultivectorLike) -> Multivector:
    """The line a.P through P and perpendicular to a.

    Also passes through the polar point aI.  Raises DegeneratePolar when P
    coincides with the polar point of a (a.P = 0), where every line
    through P qualifies.
    """
    a, p = as_multivector(a), as_multivector(p)
    result = inner(a, p)
    r = math.hypot(*result._c)
    if not r or r / math.hypot(*a._c) / math.hypot(*p._c) <= epsilon():
        raise DegeneratePolar("point lies at the polar point of the line")
    return result


class TriangleEl2(Record):
    """Three pairwise distinct vertices with their joined side lines."""

    __slots__ = ("p", "q", "r", "side_pq", "side_pr", "side_rq")

    def __init__(self, p: MultivectorLike, q: MultivectorLike, r: MultivectorLike):
        p, q, r = (normalized(as_multivector(v)) for v in (p, q, r))
        sides = (regressive(p, q), regressive(p, r), regressive(r, q))
        if any(coeff_norm(side) <= epsilon() for side in sides):
            raise ValueError("triangle vertices coincide (up to sign)")
        self._fill(p, q, r, *sides)


def _cos_side(u: Multivector, v: Multivector) -> float:
    # points square to -1, so the cosine of the arc is the negated inner
    return -inner(u, v).scalar_part


def _oriented_vertices(t: TriangleEl2):
    """Representatives with pairwise non-negative side cosines.

    Each elliptic point has two antipodal representatives; this picks the
    triple whose pairwise arcs are the short elliptic segments, which is
    the triangle the side segments actually bound.
    """
    p, q, r = t.p, t.q, t.r
    if _cos_side(p, q) < 0:
        q = -q
    if _cos_side(p, r) < 0:
        r = -r
    if _cos_side(q, r) < -epsilon():
        raise AlgebraError("side segments do not bound a triangle")
    return p, q, r


def triangle_area(t: TriangleEl2) -> float:
    """Area as the angular excess E of the triangle, in closed form.

    On the vertices of _oriented_vertices, whose side cosines are
    cos a = -Q.R, cos b = -P.R and cos c = -P.Q, the excess is the solid
    angle of Van Oosterom & Strackee (IEEE TBME 1983):
    E = 2 atan2(|PvQvR|, 1 + cos a + cos b + cos c).  No interior angle is
    formed, so thin triangles keep their digits.  Agrees with the
    right-angle sine formula whenever that applies, and caps at pi/2.
    """
    p, q, r = _oriented_vertices(t)
    triple = abs(regressive(regressive(p, q), r).scalar_part)
    if triple <= epsilon():
        raise ValueError("collinear vertices: degenerate triangle")
    return 2.0 * math.atan2(triple, 1.0 + _cos_side(q, r) + _cos_side(p, r) + _cos_side(p, q))


def right_triangle_area(p: MultivectorLike, q: MultivectorLike, r: MultivectorLike) -> float:
    """Area from sin S = |PvQvR| / (1 + |Q.R|), right angle at P.

    Requires (PvQ).(PvR) = 0; inputs are normalised internally.
    """
    p = normalized(as_multivector(p))
    q = normalized(as_multivector(q))
    r = normalized(as_multivector(r))
    pq, pr = regressive(p, q), regressive(p, r)
    perp = inner(pq, pr).scalar_part
    if abs(perp) > 1e-6 * coeff_norm(pq) * coeff_norm(pr):
        raise ValueError("the angle at the first vertex is not right")
    triple = abs(regressive(regressive(p, q), r).scalar_part)
    s = triple / (1.0 + abs(inner(q, r).scalar_part))
    return math.asin(min(s, 1.0))


project = geometry.project
reject = geometry.reject


def reflect_topdown(b: MultivectorLike, a: MultivectorLike) -> Multivector:
    """(-1)**(kl) A B A**-1 for grades k = grade(A), l = grade(B)."""
    return geometry.reflect(b, a, True)


def reflect_bottomup(b: MultivectorLike, a: MultivectorLike) -> Multivector:
    """(-1)**(k(l-1)) A B A**-1."""
    return geometry.reflect(b, a, False)


def rotation_spinor(r: MultivectorLike, alpha: float):
    """Spinor exp(-alpha/2 * R) rotating around the (normalised) point R."""
    rn = normalized(as_multivector(r))
    return exp_bivector(rn * (-0.5 * alpha))


def rotate(a: MultivectorLike, r: MultivectorLike, alpha: float) -> Multivector:
    """Rotate A around the point R by elliptic angle alpha."""
    return rotation_spinor(r, alpha).apply(as_multivector(a))


class CircleKind(enum.Enum):
    """Chart appearance of a circle."""

    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    LINE = "line"


def classify_circle(r: MultivectorLike, p: MultivectorLike) -> CircleKind:
    """Classify the circle through P centred at R by its chart appearance.

    The e12 coefficient along the trajectory is exactly
    c + a*cos(t) + b*sin(t), read off the closed-form orbit
    (algebra.orbit); the number of roots in [0, 2*pi) follows from
    comparing |c| with hypot(a, b): none -> elliptic, one (tangent) ->
    parabolic, two -> hyperbolic.  A radius of pi/2 is the straight-line
    case.  P within the tolerance of R (zero radius) counts as elliptic.
    """
    eps = epsilon()
    rn = normalized(as_multivector(r))
    pn = normalized(as_multivector(p))
    radius = distance_pp(rn, pn)
    if abs(radius - math.pi / 2) <= eps:
        return CircleKind.LINE
    if radius <= eps:
        return CircleKind.ELLIPTIC
    c, a, b = (term.coeff("e12") for term in orbit(rn, pn))
    amp = math.hypot(a, b)
    if abs(abs(c) - amp) <= eps:
        return CircleKind.PARABOLIC
    return CircleKind.ELLIPTIC if abs(c) > amp else CircleKind.HYPERBOLIC
