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
    Space,
    as_multivector,
    coeff_norm,
    exp_bivector,
    inner,
    normalized,
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
_ORIGIN = Multivector.basis(Space.EL2, "e12")      # the pole of the ideal line e0


def perpendicular_through(a: MultivectorLike, p: MultivectorLike) -> Multivector:
    """The line a.P through P and perpendicular to a.

    Also passes through the polar point aI.  Raises DegeneratePolar when P
    coincides with the polar point of a (a.P = 0), where every line
    through P qualifies.
    """
    a, p = as_multivector(a), as_multivector(p)
    result = inner(a, p)
    r = coeff_norm(result)
    if not r or r / coeff_norm(a) / coeff_norm(p) <= epsilon():
        raise DegeneratePolar("point lies at the polar point of the line")
    return result


def _excess(p: Multivector, q: Multivector, r: Multivector, pq: Multivector) -> float:
    """Angular excess of the triangle on unit vertices P, Q, R, with pq = PvQ, in closed form.

    Points square to -1, so the side cosines are cos c = -P.Q, cos b = -P.R
    and cos a = -Q.R, dot products of the grade-2 slots in the inner kernel's
    order.  Each elliptic point has two antipodal representatives;
    the triangle is the one whose sides are the short segments, so Q and R
    are taken with cos c and cos b non-negative.  Turning Q or R to its
    antipode negates the cosines it takes part in, so cos a changes sign when
    exactly one of them turns.  The excess is then the solid angle of
    Van Oosterom & Strackee (IEEE TBME 1983):
    E = 2 atan2(|PvQvR|, 1 + cos a + cos b + cos c).  No interior angle is
    formed, so thin triangles keep their digits; E caps at pi/2.  As
    |PvQvR| <= |PvQ| for a unit R, the collinearity test also refuses
    coincident vertices.
    """
    cos_c, cos_b, cos_a = ((u[3] * v[3] + u[5] * v[5]) + u[6] * v[6]      # e01, e02, e12
                           for u, v in ((p._c, q._c), (p._c, r._c), (q._c, r._c)))
    if (cos_c < 0) != (cos_b < 0):
        cos_a = -cos_a
    if cos_a < -epsilon():
        raise AlgebraError("side segments do not bound a triangle")
    triple = abs(regressive(pq, r).scalar_part)
    if triple <= epsilon():
        raise ValueError("degenerate triangle: collinear or coincident vertices")
    return 2.0 * math.atan2(triple, 1.0 + cos_a + abs(cos_b) + abs(cos_c))


def triangle_area(p: MultivectorLike, q: MultivectorLike, r: MultivectorLike) -> float:
    """Area of the triangle P, Q, R (normalised internally): its excess, _excess."""
    p, q, r = (normalized(as_multivector(v)) for v in (p, q, r))
    return _excess(p, q, r, regressive(p, q))


def right_triangle_area(p: MultivectorLike, q: MultivectorLike, r: MultivectorLike) -> float:
    """Area of a triangle with its right angle at P: the same excess.

    Requires (PvQ).(PvR) = 0 on the normalised vertices, within 1e-6 of
    |PvQ||PvR|; the excess reuses that PvQ and equals triangle_area(p, q, r)
    bit for bit.
    """
    p, q, r = (normalized(as_multivector(v)) for v in (p, q, r))
    pq, pr = regressive(p, q), regressive(p, r)
    if abs(inner(pq, pr).scalar_part) > 1e-6 * coeff_norm(pq) * coeff_norm(pr):
        raise ValueError("the angle at the first vertex is not right")
    return _excess(p, q, r, pq)


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
    return exp_bivector(normalized(r) * (-0.5 * alpha))


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

    gap = (pi/2 - d(R, e12)) - d(R, P) is the distance from the circle to the ideal
    line e0: elliptic when gap > eps (e0 missed), parabolic when |gap| <= eps
    (tangent), hyperbolic when gap < -eps.  A radius within eps of pi/2 is the
    straight-line case, one within eps of 0 elliptic.  R, P: El2 points (ValueError).
    """
    eps = epsilon()
    rho = distance_pp(r, p)
    if as_multivector(r).grades() != (2,) or as_multivector(p).grades() != (2,):
        raise ValueError("classify_circle needs two el2 points")
    if abs(rho - math.pi / 2) <= eps:
        return CircleKind.LINE
    if rho <= eps:
        return CircleKind.ELLIPTIC
    gap = (math.pi / 2 - distance_pp(r, _ORIGIN)) - rho
    if abs(gap) <= eps:
        return CircleKind.PARABOLIC
    return CircleKind.ELLIPTIC if gap > 0.0 else CircleKind.HYPERBOLIC
