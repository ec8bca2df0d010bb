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
from dataclasses import dataclass, field
from typing import Tuple

from . import geometry
from .algebra import (
    epsilon,
    AlgebraError,
    Multivector,
    MultivectorLike,
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


@dataclass(frozen=True)
class LineEl2:
    """Grade-1 blade view of a line in the elliptic plane."""

    mv: Multivector

    def __post_init__(self):
        geometry.check_blade(self.mv, Space.EL2, "line", "LineEl2", nonzero=True)

    @classmethod
    def from_coeffs(cls, d: float, a: float, b: float) -> "LineEl2":
        return cls(Multivector.from_terms(Space.EL2, {"e0": d, "e1": a, "e2": b}))


@dataclass(frozen=True)
class PointEl2:
    """Grade-2 blade view of a point in the elliptic plane."""

    mv: Multivector

    def __post_init__(self):
        geometry.check_blade(self.mv, Space.EL2, "point", "PointEl2", nonzero=True)

    @classmethod
    def from_xy(cls, x: float, y: float) -> "PointEl2":
        """Standard-coordinate embedding e12 + x*e20 + y*e01."""
        return cls(Multivector.from_terms(Space.EL2, {"e12": 1.0, "e20": x, "e01": y}))

    @property
    def w(self) -> float:
        return self.mv.coeff("e12")

    @property
    def x(self) -> float:
        return self.mv.coeff("e20")

    @property
    def y(self) -> float:
        return self.mv.coeff("e01")

    def chart_xy(self) -> Tuple[float, float]:
        """Affine-chart coordinates (x/w, y/w); w must not vanish."""
        w = self.w
        if abs(w) < 1e-300:
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
    if coeff_norm(result) <= epsilon() * max(coeff_norm(a) * coeff_norm(p), 1e-300):
        raise DegeneratePolar("point lies at the polar point of the line")
    return result


@dataclass(frozen=True)
class TriangleEl2:
    """Three pairwise distinct vertices with their joined side lines."""

    p: Multivector
    q: Multivector
    r: Multivector
    side_pq: Multivector = field(init=False)
    side_pr: Multivector = field(init=False)
    side_rq: Multivector = field(init=False)

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q), ("r", self.r)):
            v = as_multivector(v)
            object.__setattr__(self, name, normalized(v))
        for name, (u, v) in {
            "side_pq": (self.p, self.q),
            "side_pr": (self.p, self.r),
            "side_rq": (self.r, self.q),
        }.items():
            side = regressive(u, v)
            if coeff_norm(side) <= epsilon():
                raise ValueError("triangle vertices coincide (up to sign)")
            object.__setattr__(self, name, side)


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
    """Area as the angular excess of the triangle's interior angles.

    Equivalent to the alpha + beta - gamma form with the side lines
    oriented as the bounded region dictates; computing interior angles
    directly avoids per-configuration orientation flips.  Agrees with the
    right-angle sine formula whenever that applies, and caps at pi/2.
    """
    p, q, r = _oriented_vertices(t)
    if abs(regressive(regressive(p, q), r).scalar_part) <= epsilon():
        raise ValueError("collinear vertices: degenerate triangle")
    cos_a = _cos_side(q, r)                  # side opposite p
    cos_b = _cos_side(p, r)
    cos_c = _cos_side(p, q)
    sin_a = coeff_norm(regressive(q, r))
    sin_b = coeff_norm(regressive(p, r))
    sin_c = coeff_norm(regressive(p, q))

    def interior(cos_opp, cos_1, cos_2, sin_1, sin_2):
        c = (cos_opp - cos_1 * cos_2) / (sin_1 * sin_2)
        return math.acos(max(-1.0, min(1.0, c)))

    ang_p = interior(cos_a, cos_b, cos_c, sin_b, sin_c)
    ang_q = interior(cos_b, cos_a, cos_c, sin_a, sin_c)
    ang_r = interior(cos_c, cos_a, cos_b, sin_a, sin_b)
    return ang_p + ang_q + ang_r - math.pi


def right_triangle_area(p: MultivectorLike, q: MultivectorLike, r: MultivectorLike) -> float:
    """Area from sin S = |PvQvR| / (1 + |Q.R|), right angle at P.

    Requires (PvQ).(PvR) = 0; inputs are normalised internally.
    """
    p = normalized(as_multivector(p))
    q = normalized(as_multivector(q))
    r = normalized(as_multivector(r))
    pq, pr = regressive(p, q), regressive(p, r)
    perp = inner(pq, pr).scalar_part
    if abs(perp) > 1e-6 * max(coeff_norm(pq) * coeff_norm(pr), 1e-300):
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
