"""Geometry shared by the elliptic line, plane and 3-space.

Projection, rejection, reflection, distance and angle are the same
geometric products in El1, El2 and El3 (the dimension-independent
framework of Gunn, 2011).  Each is written once here and el1, el2 and el3
bind their public names to it.  The blade check behind the blade views
(BladeView), the el3 line arguments and the scene entity roles lives here too.
"""

from __future__ import annotations

import math

from .algebra import (
    Multivector,
    MultivectorLike,
    NonSimpleBivector,
    Record,
    Space,
    _halves,
    _involute,
    _plucker,
    _scaled,
    _simple,
    as_multivector,
    coeff_norm,
    commutator,
    epsilon,
    geometric_product,
    inner,
    inverse_blade,
    outer,
    regressive,
    tables,
)

# Grade of each blade role, per space.
ROLE_GRADES = {
    Space.EL1: {"point": 1},
    Space.EL2: {"line": 1, "point": 2},
    Space.EL3: {"plane": 1, "line": 2, "bivector": 2, "point": 3},
}


def check_blade(x: MultivectorLike, space: Space, role: str, what: str) -> Multivector:
    """x as a blade of the role's grade in the given space, or raise.

    Raises ValueError for the wrong space or grade; AlgebraError (from
    pure_grade) for a mixed-grade or all-zero element; NonSimpleBivector
    for an El3 line off the Plucker quadric.
    """
    if role == "line" and space is Space.EL3:
        return _line_halves(x, what)[0]
    mv = as_multivector(x)
    grade = ROLE_GRADES[space][role]
    if mv.space is not space or mv.pure_grade() != grade:
        raise ValueError(f"{what} must be a grade-{grade} {space.value} element")
    return mv


def _line_halves(x: MultivectorLike, what: str) -> tuple:
    """check_blade of an El3 line, and the halves (C, D, c, d) its Plucker test reads."""
    mv = check_blade(x, Space.EL3, "bivector", what)
    _, _, c, d = halves = _halves(mv)
    if not _simple(c, d):                   # the residual over |mv|**2
        raise NonSimpleBivector(f"{what}: plücker residual {_plucker(c, d):.3e} "
                                f"exceeds tolerance {epsilon():.1g}")
    return mv, halves


class BladeView(Record):
    """Checked blade of one role in one space, held in the field mv.

    A view class sets space and role, and declares __slots__ = ("mv",);
    its name is the `what` of check_blade's messages.
    """

    __slots__ = ()
    space: Space
    role: str

    def __init__(self, mv: Multivector):
        check_blade(mv, self.space, self.role, type(self).__name__)
        object.__setattr__(self, "mv", mv)


def coeff_property(name: str) -> property:
    """Read-only view property: the coefficient of the named blade of mv."""
    return property(lambda self: self.mv.coeff(name), doc=f"Coefficient of {name}.")


def _grade(mv: Multivector) -> int:
    """Grade of a blade, read off its largest coefficient.

    Round-off in other grades cannot change it, and it costs a fraction
    of a pure_grade() probe.
    """
    c = mv._c
    return tables(mv.space).grades[c.index(max(c, key=abs))]


def distance(a: MultivectorLike, b: MultivectorLike) -> float:
    """Distance in [0, pi/2]: sin r = |AvB|, cos r = |A.B| over |A||B|, undivided.

    Covers point-point (El1, El2, El3), plane-point, line-point and (El2) line-point.
    """
    return _distance(_scaled(a)[0], _scaled(b)[0])


def _distance(an: Multivector, bn: Multivector) -> float:     # nonzero blades in algebra._norm
    return math.atan2(coeff_norm(regressive(an, bn)), coeff_norm(inner(an, bn)))


def angle(a: MultivectorLike, b: MultivectorLike) -> float:
    """Angle in [0, pi] between oriented vectors: cos alpha = A.B, sin alpha = |A^B|.

    atan2 keeps every digit near 0 and pi, where acos of the cosine loses half.
    Other grades raise ValueError: the wedge of two El2 points, say, is zero.
    """
    an, bn = _scaled(a)[0], _scaled(b)[0]
    if an.grades() != (1,) or bn.grades() != (1,):
        raise ValueError("angle needs two grade-1 elements (el2 lines, el3 planes)")
    return math.atan2(coeff_norm(outer(an, bn)), inner(an, bn).scalar_part)


def project(b: MultivectorLike, a: MultivectorLike) -> Multivector:
    """(B.A) A**-1: the part of B lying in the blade A."""
    return geometric_product(inner(b, a), inverse_blade(a))


def reject(b: MultivectorLike, a: MultivectorLike) -> Multivector:
    """(B^A) A**-1 when either blade has grade 1, (B x A) A**-1 otherwise.

    The pieces follow the graded decomposition BA = B.A + (the rest), so
    project + reject = B.  When neither blade is a vector, B^A vanishes
    or misses the rest (two El2 points would wedge to grade 4, which does
    not exist) and the commutator carries it.  The result lands on the
    polar of A.
    """
    b, a = as_multivector(b), as_multivector(a)
    top = outer(b, a) if _grade(a) == 1 or _grade(b) == 1 else commutator(b, a)
    return geometric_product(top, inverse_blade(a))


def reflect(b: MultivectorLike, a: MultivectorLike, topdown: bool = True) -> Multivector:
    """Reflection of B in the blade A: sign * A B A**-1.

    With k = grade(A) and l = grade(B) the sign is (-1)**(kl) top-down
    and (-1)**(k(l-1)) bottom-up.  For odd k, (-1)**l is the grade
    involution of B, applied grade by grade so that a mixed B reflects
    part by part; for even k both signs are +1.
    """
    b, a = as_multivector(b), as_multivector(a)
    flip = False
    if _grade(a) % 2:
        b = _involute(b)
        flip = not topdown
    reflected = geometric_product(geometric_product(a, b), inverse_blade(a))
    return -reflected if flip else reflected
