"""Geometry shared by the elliptic line, plane and 3-space.

Projection, rejection, reflection, distance and angle are the same
geometric products in El1, El2 and El3 (the dimension-independent
framework of Gunn, 2011).  Each is written once here and el1, el2 and el3
bind their public names to it.  The blade check behind the blade views,
the el3 line arguments and the scene entity roles lives here too.
"""

from __future__ import annotations

import math

from .algebra import (
    Multivector,
    MultivectorLike,
    NonSimpleBivector,
    Space,
    _involute,
    as_multivector,
    coeff_norm,
    commutator,
    epsilon,
    geometric_product,
    inner,
    inverse_blade,
    is_simple_bivector,
    normalized,
    outer,
    plucker_residual,
    regressive,
    tables,
)

# Grade of each blade role, per space.
ROLE_GRADES = {
    Space.EL1: {"point": 1},
    Space.EL2: {"line": 1, "point": 2},
    Space.EL3: {"plane": 1, "line": 2, "bivector": 2, "point": 3},
}


def check_blade(
    x: MultivectorLike, space: Space, role: str, what: str, nonzero: bool = False
) -> Multivector:
    """x as a blade of the role's grade in the given space, or raise.

    Raises ValueError for the wrong space or grade, and with nonzero for a
    coefficient norm within tolerance of zero; AlgebraError (from
    pure_grade) for a mixed-grade or zero element; NonSimpleBivector for
    an El3 line off the Plucker quadric.
    """
    mv = as_multivector(x)
    grade = ROLE_GRADES[space][role]
    if mv.space is not space or mv.pure_grade() != grade:
        raise ValueError(f"{what} must be a grade-{grade} {space.value} element")
    if nonzero and coeff_norm(mv) <= epsilon():
        raise ValueError(f"{what} must be a nonzero element")
    if role == "line" and space is Space.EL3 and not is_simple_bivector(mv):
        raise NonSimpleBivector(
            f"{what}: plücker residual {plucker_residual(mv):.3e} "
            f"exceeds tolerance {epsilon():.1g}"
        )
    return mv


def _grade(mv: Multivector) -> int:
    """Grade of a blade, read off its largest coefficient.

    Round-off in other grades cannot change it, and it costs a fraction
    of a pure_grade() probe.
    """
    c = mv._c
    return tables(mv.space).grades[c.index(max(c, key=abs))]


def distance(a: MultivectorLike, b: MultivectorLike) -> float:
    """Distance in [0, pi/2]: sin r = |AvB|, cos r = |A.B| on normalised blades.

    Covers point-point, plane-point, line-point and (El2) line-point.
    """
    an, bn = normalized(a), normalized(b)
    return math.atan2(coeff_norm(regressive(an, bn)), coeff_norm(inner(an, bn)))


def angle(a: MultivectorLike, b: MultivectorLike) -> float:
    """Angle in [0, pi] between oriented blades of one grade: cos alpha = A.B."""
    an, bn = normalized(a), normalized(b)
    return math.acos(max(-1.0, min(1.0, inner(an, bn).scalar_part)))


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
