"""Geometry of elliptic 3-space El3.

Planes are grade 1, lines grade 2 (subject to the Plucker condition
p10*p23 + p20*p31 + p30*p12 = 0), points grade 3.  Non-simple bivectors
decompose into a pair of complementary commuting axes; bivectors fixed by
the pseudoscalar (I*Xi = +/-Xi) generate the two families of Clifford
parallels and the corresponding Clifford translations, which in
coordinates act as one-sided quaternion multiplication.
"""

from __future__ import annotations

import enum
import math
from typing import Literal, Tuple, Union

from . import geometry
from .algebra import (
    epsilon,
    _clifford,
    _exp_halves,
    _from_halves,
    _halves,
    _new,
    _norm,
    _scaled,
    _scaled_down,
    _spinor,
    AlgebraError,
    Multivector,
    MultivectorLike,
    Record,
    Space,
    Spinor,
    as_multivector,
    axis_split,
    coeff_norm,
    dual_I,
    exp_bivector,
    geometric_product,
    inner,
    inverse_blade,
    outer,
    regressive,
)

_S = Space.EL3

ORIGIN = Multivector.basis(_S, "e123")


class DegenerateAxes(AlgebraError):
    """Axis decomposition is not unique (Clifford, or within sqrt(tolerance) of it)."""


class NonOriginLine(AlgebraError):
    """Operation requires a line through the origin (no e10/e20/e30 part)."""


class Family(enum.Enum):
    """Clifford parallel family."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


class Side(enum.Enum):
    """Quaternion multiplication side for Clifford translations."""

    RIGHT = "right"
    LEFT = "left"


class Direction(enum.Enum):
    """Reflection variant: sign (-1)**(kl) versus (-1)**(k(l-1))."""

    TOP_DOWN = "topdown"
    BOTTOM_UP = "bottomup"


# ---------------------------------------------------------------------------
# blade views


class PlaneEl3(geometry.BladeView):
    __slots__ = ("mv",)
    space, role = _S, "plane"

    @classmethod
    def from_coeffs(cls, d: float, a: float, b: float, c: float) -> "PlaneEl3":
        return cls(Multivector.from_terms(_S, {"e0": d, "e1": a, "e2": b, "e3": c}))


class LineEl3(geometry.BladeView):
    """Grade-2 blade view; construction checks the Plucker condition."""

    __slots__ = ("mv",)
    space, role = _S, "line"

    @classmethod
    def from_plucker(cls, p10, p20, p30, p23, p31, p12) -> "LineEl3":
        return cls(Multivector.from_terms(_S, {
            "e10": p10, "e20": p20, "e30": p30,
            "e23": p23, "e31": p31, "e12": p12,
        }))

    @classmethod
    def from_points(cls, p: MultivectorLike, q: MultivectorLike) -> "LineEl3":
        """Join of two points."""
        return cls(line_from_points(p, q))

    @classmethod
    def from_planes(cls, a: MultivectorLike, b: MultivectorLike) -> "LineEl3":
        """Meet of two planes."""
        return cls(line_from_planes(a, b))

    def plucker(self) -> Tuple[float, ...]:
        return tuple(self.mv.coeff(n) for n in ("e10", "e20", "e30", "e23", "e31", "e12"))


class PointEl3(geometry.BladeView):
    __slots__ = ("mv",)
    space, role = _S, "point"

    @classmethod
    def from_xyz(cls, x: float, y: float, z: float) -> "PointEl3":
        """Standard-coordinate embedding e123 + x*e320 + y*e130 + z*e210."""
        return cls(Multivector.from_terms(_S, {
            "e123": 1.0, "e320": x, "e130": y, "e210": z,
        }))

    w = geometry.coeff_property("e123")
    x = geometry.coeff_property("e320")
    y = geometry.coeff_property("e130")
    z = geometry.coeff_property("e210")


def _require_line(x: MultivectorLike, what: str = "line") -> Multivector:
    return geometry.check_blade(x, _S, "line", what)


def _unit_line(x: MultivectorLike, what: str = "line") -> Tuple[list, list]:
    """The halves C/|L|, D/|L| of the unit line of a checked line L, from the check's
    one split (geometry._line_halves), scaled by algebra._norm's power of two first."""
    mv, (C, D, _, _) = geometry._line_halves(x, what)
    _, n, e = _norm(mv)
    if e:
        C, D = [math.ldexp(v, -e) for v in C], [math.ldexp(v, -e) for v in D]
    return [v / n for v in C], [v / n for v in D]


# ---------------------------------------------------------------------------
# metric toolkit

# point-point (P, Q) and plane-point (a, P) distances, angle between planes
distance_pp = distance_plane_point = geometry.distance
angle_planes = geometry.angle


def distance_line_point(line: MultivectorLike, p: MultivectorLike) -> float:
    """Line-point distance: sin r = |LvP|, cos r = |L.P|.

    LvP is the plane through the line and the point (zero when P lies on
    the line); L.P is the perpendicular plane through P (zero when P lies
    on the polar line LI).  The line is split once, by its check.
    """
    return geometry._distance(_norm(_require_line(line))[0], _scaled(p)[0])


def angle_line_plane(line: MultivectorLike, a: MultivectorLike) -> float:
    """Unoriented angle in [0, pi/2]: cos = |a.L| (plane), sin = |a^L| (point), undivided."""
    ln, an = _norm(_require_line(line))[0], _scaled(a)[0]
    return math.atan2(coeff_norm(outer(an, ln)), coeff_norm(inner(an, ln)))


# ---------------------------------------------------------------------------
# axis decomposition


class AxisDecomposition(Record):
    """Complementary axes of a bivector: larger + smaller = input.

    The axes satisfy L1.L2 = 0 and L1 x L2 = 0.  A line is its own larger
    axis; any other bivector has the closed-form axes ((c +- d)/2)(C/c +- D/d)
    of its self-dual and anti-self-dual halves (algebra.axis_split).  When
    the input is Clifford, or within sqrt(tolerance) of it, the split is not
    unique or ill-conditioned; the canonical origin-line split is returned
    with degenerate = True.
    """

    __slots__ = ("larger", "smaller", "degenerate")

    def __init__(self, larger: Multivector, smaller: Multivector, degenerate: bool):
        self._fill(larger, smaller, degenerate)


def axis_decompose(b: MultivectorLike) -> AxisDecomposition:
    """Split a grade-2 element into its complementary axes."""
    mv = as_multivector(b)
    if not any(mv._c):
        raise ValueError("axis_decompose requires a nonzero bivector")
    mv = geometry.check_blade(mv, _S, "bivector", "axis_decompose")
    return AxisDecomposition(*axis_split(mv))


# ---------------------------------------------------------------------------
# Clifford parallels


class CliffordFrame(Record):
    """Origin-line frame attached to a normalised line.

    plus and minus are the origin lines along 2C and -2D for the line's
    halves C and D ((p10 +- p23) e23 + ...); the perp companions are
    deterministic perpendicular origin lines anchoring the phi = 0 phase.
    The parallel is line - cos(theta)(I omega -+ omega), - for positive, with
    omega = a cos(theta) + sin(theta)(cos(phi)(p x a) + sin(phi) p) the axis a
    (minus for positive, plus for negative) turned about its perp p, then about
    a, as a unit 3-vector (so(4) = so(3) + so(3)).  In halves that is
    (plus/2, u/2) or (-u/2, -minus/2), u = cos(2 theta) a + sin(2 theta)(...).
    """

    __slots__ = ("line", "minus", "plus", "minus_perp", "plus_perp")

    def __init__(self, line: Multivector, minus: Multivector, plus: Multivector,
                 minus_perp: Multivector, plus_perp: Multivector):
        self._fill(line, minus, plus, minus_perp, plus_perp)

    def parallel(self, family: Union[Family, str], phi: float, theta: float) -> Multivector:
        """The unit-weight parallel of self.line at (phi, theta); see clifford_parallel."""
        family = Family(family)
        if not 0.0 <= theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        axis, perp = ((self.minus, self.minus_perp) if family is Family.POSITIVE
                      else (self.plus, self.plus_perp))
        a, p = _direction(axis), _direction(perp)
        c2, s2, cp, sp = math.cos(2.0 * theta), math.sin(2.0 * theta), math.cos(phi), math.sin(phi)
        half = [0.5 * (c2 * x + s2 * (cp * y + sp * z)) for x, y, z in zip(a, _cross(p, a), p)]
        if family is Family.POSITIVE:
            return _from_halves([0.5 * x for x in _direction(self.plus)], half)
        return _from_halves([-x for x in half], [-0.5 * x for x in _direction(self.minus)])


_Vec3 = Tuple[float, float, float]


def _cross(u: _Vec3, v: _Vec3) -> _Vec3:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _origin_line(direction: _Vec3) -> Multivector:
    return Multivector.from_terms(_S, dict(zip(("e23", "e31", "e12"), direction)))


def _direction(origin_line: Multivector) -> _Vec3:
    c = origin_line._c                  # (e23, e31, e12) by slot; e13 = -e31 is stored
    return c[12], -c[10], c[6]


def _perp_origin_line(direction: _Vec3) -> Multivector:
    n = math.hypot(*direction)
    d = (direction[0] / n, direction[1] / n, direction[2] / n)
    u = _cross(d, (1.0, 0.0, 0.0))
    if math.hypot(*u) <= 1e-9:
        u = _cross(d, (0.0, 1.0, 0.0))
    n = math.hypot(*u)
    return _origin_line((u[0] / n, u[1] / n, u[2] / n))


def clifford_frame(line: MultivectorLike) -> CliffordFrame:
    """Frame of origin lines generating the parallel parametrisation."""
    C, D = _unit_line(line)
    minus, plus = tuple([-2.0 * x for x in D]), tuple([2.0 * x for x in C])
    return CliffordFrame(_from_halves(C, D), _origin_line(minus), _origin_line(plus),
                         _perp_origin_line(minus), _perp_origin_line(plus))


def clifford_parallel(
    line: MultivectorLike, family: Union[Family, str], phi: float, theta: float
) -> Multivector:
    """The parallel of the given family at parameters (phi, theta).

    The result is a line at constant distance |pi/2 - theta| from the
    input everywhere, oriented consistently with it.  A non-normalised
    input is normalised first (over coeff_norm, _unit_line) and the parallel
    rescaled by that weight, which cannot overflow for a finite |L|.
    Parallels of one line can share its frame (CliffordFrame.parallel).
    """
    return clifford_frame(line).parallel(family, phi, theta) * coeff_norm(line)


class CliffordBivector(Record):
    """Non-simple bivector with I*value = +value (positive) or -value."""

    __slots__ = ("value", "sign")
    report_order = ("sign", "value")      # scene.serialize_value writes the sign first

    def __init__(self, value: Multivector, sign: Family):
        if sign not in _families(as_multivector(value)):
            raise ValueError("I*value does not match the declared sign")
        self._fill(value, sign)

    @classmethod
    def from_bivector(cls, mv: MultivectorLike) -> "CliffordBivector":
        mv = as_multivector(mv)
        for sign in _families(mv):
            return cls.__new__(cls)._fill(mv, sign)    # the family is checked
        raise ValueError("bivector is not fixed by the pseudoscalar (not Clifford)")


def _families(v: Multivector) -> Tuple[Family, ...]:
    """The families with I*v = sign*v (is_clifford_bivector, on one split); both for zero."""
    if v._space is not _S or v.grades() not in ((), (2,)):
        return ()
    _, _, c, d = _halves(v)
    return (Family.POSITIVE,) * (d <= c) + (Family.NEGATIVE,) * (c <= d) if _clifford(c, d) else ()


def clifford_bivector(line: MultivectorLike, sign: Union[Family, str]) -> CliffordBivector:
    """(I+1)L, of halves (2C, 0), for the positive family, (I-1)L = (0, -2D) for the negative."""
    sign = Family(sign)
    _, (C, D, _, _) = geometry._line_halves(line, "line")
    C, D = (([2.0 * x for x in C], (0.0,) * 3) if sign is Family.POSITIVE
            else ((0.0,) * 3, [-2.0 * x for x in D]))
    return CliffordBivector.__new__(CliffordBivector)._fill(_from_halves(C, D), sign)


CliffordLike = Union[CliffordBivector, MultivectorLike]


def _as_clifford(xi: CliffordLike) -> CliffordBivector:
    return xi if isinstance(xi, CliffordBivector) else CliffordBivector.from_bivector(xi)


def parallel_through_point(xi: CliffordLike, p: MultivectorLike) -> Multivector:
    """The parallel of the Clifford bivector through P: (Xi v P) P**-1.

    For P on one of the generating lines the construction collapses onto
    that line (or its polar) rather than failing.
    """
    return geometric_product(regressive(_as_clifford(xi).value, p), inverse_blade(p))


# ---------------------------------------------------------------------------
# line-line metrics


class LineRelation(enum.Enum):
    INTERSECTING = "intersecting"
    CLIFFORD_PARALLEL = "clifford_parallel"
    GENERIC = "generic"


class LineLineMetrics(Record):
    """Distance r (= r1), oriented angle alpha, separations r1 <= r2."""

    __slots__ = ("r", "alpha", "r1", "r2", "relation")

    def __init__(self, r: float, alpha: float, r1: float, r2: float, relation: LineRelation):
        self._fill(r, alpha, r1, r2, relation)


def line_line_metrics(line: MultivectorLike, other: MultivectorLike) -> LineLineMetrics:
    """Distance, angle and relation of two lines.

    For unit lines with halves (C, D) and (C', D') (algebra._halves),
    u = <L Phi>_0 = -2(C.C' + D.D'), v = (L v Phi)_0 = 2(D.D' - C.C') and
    L x Phi has the halves -2 C x C' and -2 D x D', of lengths sin(r2 - r1)/2
    (near) and sin(r1 + r2)/2 (far), the self-dual one near when u*v > 0.
    The separations r1 <= r2 satisfy cos r1 cos r2 = |u|, sin r1 sin r2 = |v|,
    so r2 - r1 = atan2(2 near, |u| + |v|) and r1 + r2 = atan2(2 far, |u| - |v|)
    without cancellation.  r = r1 and cos alpha = -u / cos r.  Skew lines
    are Clifford parallel when the commutator passes the Clifford test or
    vanishes within tolerance (a line and its polar), and generic otherwise.
    """
    C, D = _unit_line(line)
    C2, D2 = _unit_line(other, "other line")
    cc, dd = [(x[0] * y[0] + x[1] * y[1]) + x[2] * y[2] for x, y in ((C, C2), (D, D2))]
    u, v = -2.0 * (cc + dd), 2.0 * (dd - cc)
    c, d = 2.0 * math.hypot(*_cross(C, C2)), 2.0 * math.hypot(*_cross(D, D2))   # of L x Phi
    if abs(v) <= epsilon():
        relation = LineRelation.INTERSECTING
    elif math.sqrt(2.0) * math.hypot(c, d) <= epsilon() or _clifford(c, d):
        relation = LineRelation.CLIFFORD_PARALLEL
    else:
        relation = LineRelation.GENERIC
    near, far = (c, d) if u * v > 0 else (d, c)
    gap = math.atan2(2.0 * near, abs(u) + abs(v))       # r2 - r1
    span = math.atan2(2.0 * far, abs(u) - abs(v))       # r1 + r2
    r1, r2 = max(0.5 * (span - gap), 0.0), 0.5 * (span + gap)
    alpha = r2 if u <= 0.0 else math.pi - r2
    return LineLineMetrics(r=r1, alpha=alpha, r1=r1, r2=r2, relation=relation)


# ---------------------------------------------------------------------------
# projections, rejections, reflections


# (B.a) a**-1 lies on the plane a and (B^a) a**-1 passes through its polar
# point aI; (B.P) P**-1 passes through P, and (B^P) P**-1 for planes,
# (B x P) P**-1 for lines and points land on the polar plane PI.
project_on_plane = project_on_point = geometry.project
reject_by_plane = reject_by_point = geometry.reject


def _line_arg(b: MultivectorLike, line: MultivectorLike, instead: str) -> Multivector:
    """The checked line of an op on a point or plane b; a line b is told to use `instead`."""
    ln = _require_line(line)
    if as_multivector(b).pure_grade() == 2:
        raise ValueError(f"use {instead} for a line argument")
    return ln


def project_on_line(b: MultivectorLike, line: MultivectorLike) -> Multivector:
    """(B.L) L**-1 for points and planes; lines use project_line_on_line."""
    return geometry.project(b, _line_arg(b, line, "project_line_on_line"))


def reject_by_line(b: MultivectorLike, line: MultivectorLike) -> Multivector:
    """(a^L) L**-1 for planes, (P x L) L**-1 for points."""
    return geometry.reject(b, _line_arg(b, line, "reject_line_by_line"))


def _line_line_args(phi: MultivectorLike, line: MultivectorLike, kind: int):
    """(Phi, L, (Phi x L)_kind, the other axis) of two checked lines, by axis_split;
    Phi x L is built from the halves, as in line_line_metrics."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    (pn, (C, D, _, _)), (ln, (C2, D2, _, _)) = (geometry._line_halves(phi, "phi"),
                                                geometry._line_halves(line, "line"))
    comm = _from_halves([-2.0 * x for x in _cross(C, C2)], [-2.0 * x for x in _cross(D, D2)])
    if coeff_norm(comm) / coeff_norm(pn) / coeff_norm(ln) <= epsilon():
        zero = Multivector.zero(_S)
        return pn, ln, zero, zero
    b1, b2, degenerate = axis_split(comm)
    if degenerate:
        raise DegenerateAxes(
            "commutator axes are not unique (Clifford, or within √tolerance of it)"
        )
    return (pn, ln, b1, b2) if kind == 1 else (pn, ln, b2, b1)


def project_line_on_line(
    phi: MultivectorLike, line: MultivectorLike, kind: Literal[1, 2]
) -> Multivector:
    """proj_k(Phi; L): (Phi.L + (Phi x L)_k) L**-1 with k in {1, 2}.

    Kind 1 combines the larger commutator axis with the dot (the result
    passes through L at the angle Phi makes with it); kind 2 uses the
    smaller axis.
    """
    pn, ln, axis, _ = _line_line_args(phi, line, kind)
    return geometric_product(inner(pn, ln) + axis, inverse_blade(ln))


def reject_line_by_line(
    phi: MultivectorLike, line: MultivectorLike, kind: Literal[1, 2]
) -> Multivector:
    """rej_k(Phi; L): ((Phi x L)_j + Phi^L) L**-1 with the opposite axis j.

    Kind 2 is perpendicular to L at the same distance from it as Phi.
    """
    pn, ln, _, axis = _line_line_args(phi, line, kind)
    return geometric_product(axis + outer(pn, ln), inverse_blade(ln))


def perpendicular_through(line: MultivectorLike, p: MultivectorLike) -> Multivector:
    """The line (L.P)^(LvP) through P, perpendicular to both L and LI.

    Equals P v (L P L**-1) / 2 for a normalised line.
    """
    ln = _require_line(line)
    return outer(inner(ln, p), regressive(ln, p))


def reflect(
    b: MultivectorLike, a: MultivectorLike, direction: Union[Direction, str] = Direction.TOP_DOWN
) -> Multivector:
    """Reflection of B in the blade A.

    Top-down is (-1)**(kl) A B A**-1, bottom-up (-1)**(k(l-1)) A B A**-1;
    the two coincide for reflections in lines (k = 2).
    """
    return geometry.reflect(b, a, Direction(direction) is Direction.TOP_DOWN)


# ---------------------------------------------------------------------------
# proper motions


def double_rotation_spinor(line: MultivectorLike, alpha: float, beta: float) -> Spinor:
    """exp(-(alpha + beta*I)/2 * L) for a normalised line L of halves (C, D): LI has the
    halves (C, -D), so the generator has -(alpha + beta)C/2 and -(alpha - beta)D/2."""
    C, D = _unit_line(line)
    s, t = -0.5 * alpha - 0.5 * beta, 0.5 * beta - 0.5 * alpha
    C, D = [s * x for x in C], [t * x for x in D]
    return _spinor(_exp_halves(C, D, math.hypot(*C), math.hypot(*D)))


def double_rotation(
    a: MultivectorLike, line: MultivectorLike, alpha: float, beta: float
) -> Multivector:
    """Rotate by alpha around L and by beta around LI (both stay invariant).

    beta = 0 degenerates to a simple rotation around the line.
    """
    return double_rotation_spinor(line, alpha, beta).apply(as_multivector(a))


def clifford_translate(a: MultivectorLike, xi: CliffordLike, beta: float) -> Multivector:
    """Translate along the parallels of the Clifford bivector Xi by beta.

    The spinor is exp(-beta/2 * Xi); every point moves the same elliptic
    distance and stays on the parallel of Xi through it.
    """
    return exp_bivector(_as_clifford(xi).value * (-0.5 * beta)).apply(a)


# ---------------------------------------------------------------------------
# quaternion bridge


Quaternion = Tuple[float, float, float, float]


def quaternion_bridge(p: MultivectorLike) -> Quaternion:
    """Coordinates of a point as the quaternion (w, x, y, z)."""
    p = geometry.check_blade(p, _S, "point", "quaternion_bridge")
    return (p.coeff("e123"), p.coeff("e320"), p.coeff("e130"), p.coeff("e210"))


def point_from_quaternion(q) -> Multivector:
    """Inverse of quaternion_bridge: the polar point of the plane w e0 + x e1 + y e2 + z e3.

    The plane is laid out in slots 1, 2, 4 and 8 (grade mask 0b10), not built
    by from_terms, which refuses a non-finite value: a quaternion product that
    overflowed reaches the scene's check on non-finite results instead.
    """
    w, x, y, z = (float(t) for t in q)
    return dual_I(_new(_S, (0.0, w, x, 0.0, y, 0.0, 0.0, 0.0, z) + (0.0,) * 7, 0b10))


def quaternion_multiply(p, q) -> Quaternion:
    """Hamilton product of (w, x, y, z) quadruples."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - ((px * qx + py * qy) + pz * qz),
        (pw * qx + qw * px) + (py * qz - pz * qy),
        (pw * qy + qw * py) + (pz * qx - px * qz),
        (pw * qz + qw * pz) + (px * qy - py * qx),
    )


def clifford_translate_quat(
    p: MultivectorLike, origin_line: MultivectorLike, beta: float,
    side: Union[Side, str],
) -> Multivector:
    """Clifford translation via quaternion multiplication.

    With p the point quaternion and q = cos(beta) - (l1 i + l2 j + l3 k)
    sin(beta) from the origin line's direction, the right translation
    p -> p q matches the sandwich generated by (I+1)L and the left
    translation p -> q p matches the one generated by (I-1)L.
    """
    side = Side(side)
    C, D = _unit_line(origin_line, "origin line")       # direction C - D, moment C + D
    if math.hypot(*[x - y for x, y in zip(C, D)]) > epsilon():
        raise NonOriginLine("Clifford translation quaternion form needs an origin line")
    s = math.sin(beta)
    q = (math.cos(beta), *[-(x + y) * s for x, y in zip(C, D)])
    pq = quaternion_bridge(p)
    result = quaternion_multiply(pq, q) if side is Side.RIGHT else quaternion_multiply(q, pq)
    return point_from_quaternion(result)


# ---------------------------------------------------------------------------
# construction helpers


line_from_points = regressive      # join P v Q
line_from_planes = outer           # meet a ^ b


def point_on_line(line: MultivectorLike) -> Multivector:
    """A normalised point on the line: the foot (P.L) L**-1 of the first seed P of e123,
    e320, e130, e210 whose foot is longer than 1e-6 (P has unit weight).

    In quaternions (quaternion_bridge) the line is a plane of R**4 with the
    antisymmetric matrix W of rows (0, m) and (-m_i, e_i x d), for the moment
    m = (p23, p31, p12) = C + D and the direction d = (p10, p20, p30) = C - D,
    and the k-th seed's foot is column k of W W^T / |L|**2.  These dot products
    of rows keep every digit of a short foot, which the rounded halves would
    turn by 1e-16 over its length.
    """
    ln = _scaled_down(_require_line(line))[0]      # exact: the products stay normal
    _, _, _, m01, _, m02, p12, _, _, m03, m13, _, p23, _, _, _ = ln._c   # p10 = -m01, ...
    rows = ((0.0, p23, -m13, p12), (-p23, 0.0, m03, -m02),
            (m13, -m03, 0.0, m01), (-p12, m02, -m01, 0.0))
    # the input's rounding (1e-16 of |L|) turns a foot of length r by 1e-16/r, kept below
    # 1e-10 here; the feet's squared lengths sum to 2, so one is longer than 0.7
    shortest = 1e-6 * coeff_norm(ln)
    for k, row in enumerate(rows):
        q = [(a[0] * row[0] + a[1] * row[1]) + (a[2] * row[2] + a[3] * row[3]) for a in rows]
        if math.sqrt(q[k]) > shortest:
            n = math.hypot(*q)
            return point_from_quaternion([x / n for x in q])
    raise AlgebraError("could not find a point on the line")


def sweep_line_point(line: MultivectorLike, p: MultivectorLike, t: float) -> Multivector:
    """Move a point of the line along it by parameter t.

    Sliding along a line is rotation around its polar line: points on the
    line are fixed by rotations around the line itself but swept along it
    by exp(-t/2 * LI): the double rotation with alpha = 0 and beta = t.
    Period pi (with an orientation flip).
    """
    return double_rotation(p, line, 0.0, t)
