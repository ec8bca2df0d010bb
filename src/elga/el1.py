"""Geometry of the elliptic line El1.

Points are grade-1 elements d*e0 + a*e1 of Cl(2); a normalised point can
be written -e0*sin(alpha) + e1*cos(alpha), and every isometry is the
sandwich action of a spinor exp(gamma*e01).  Distances cap at pi/2 and
the space is periodic with period pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry
from .algebra import (
    epsilon,
    Multivector,
    MultivectorLike,
    Space,
    as_multivector,
    coeff_norm,
    exp_bivector,
    geometric_product,
    inner,
    normalized,
)

_E01 = Multivector.basis(Space.EL1, "e01")


@dataclass(frozen=True)
class PointEl1:
    """Grade-1 blade view of a point on the elliptic line."""

    mv: Multivector

    def __post_init__(self):
        geometry.check_blade(self.mv, Space.EL1, "point", "PointEl1")

    @classmethod
    def from_coeffs(cls, d: float, a: float) -> "PointEl1":
        return cls(Multivector.from_terms(Space.EL1, {"e0": d, "e1": a}))

    @classmethod
    def from_angle(cls, alpha: float) -> "PointEl1":
        """Normalised point -e0 sin(alpha) + e1 cos(alpha)."""
        return cls.from_coeffs(-math.sin(alpha), math.cos(alpha))

    @property
    def d(self) -> float:
        return self.mv.coeff("e0")

    @property
    def a(self) -> float:
        return self.mv.coeff("e1")

    def angle(self) -> float:
        """Parameter alpha of the normalised representative, in (-pi, pi]."""
        n = normalized(self.mv)
        return math.atan2(-n.coeff("e0"), n.coeff("e1"))


def distance(a: MultivectorLike, b: MultivectorLike) -> float:
    """Elliptic distance in [0, pi/2]: cos r = |a.b| on normalised points.

    The arccos argument is clamped so rounding slightly above 1 cannot
    produce NaN.
    """
    an = normalized(as_multivector(a))
    bn = normalized(as_multivector(b))
    c = abs(inner(an, bn).scalar_part)
    return math.acos(min(c, 1.0))


def polar(a: MultivectorLike) -> PointEl1:
    """The point a*e01, at distance pi/2 from a."""
    a = as_multivector(a)
    if coeff_norm(a) <= epsilon():
        raise ValueError("polar point of a zero element is undefined")
    return PointEl1(geometric_product(a, _E01))


def translate(a: MultivectorLike, lam: float) -> PointEl1:
    """Move a by lam: the angle parameter maps alpha -> alpha + lam.

    Translating by pi returns the same point with opposite orientation.
    """
    s = exp_bivector(_E01 * (-0.5 * lam))
    return PointEl1(s.apply(as_multivector(a)))


def reflect(a: MultivectorLike, b: MultivectorLike) -> PointEl1:
    """Top-down reflection of a in b: -b a b**-1 (alpha -> 2*beta - alpha)."""
    return PointEl1(geometry.reflect(a, b))


# (a.b) b**-1 equals b*cos(alpha-beta) for normalised points; (a^b) b**-1
# lands on the polar point of b, weighted sin(alpha-beta).
project = geometry.project
reject = geometry.reject

