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
from dataclasses import dataclass
from typing import Literal, Tuple, Union

from . import geometry
from .algebra import (
    epsilon,
    AlgebraError,
    Multivector,
    MultivectorLike,
    Space,
    Spinor,
    as_multivector,
    axis_split,
    coeff_norm,
    commutator,
    dual_I,
    exp_bivector,
    geometric_product,
    inner,
    inverse_blade,
    normalized,
    outer,
    regressive,
)

_S = Space.EL3

ORIGIN = Multivector.basis(_S, "e123")


class DegenerateAxes(AlgebraError):
    """Axis decomposition is not unique (Clifford-parallel configuration)."""


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


@dataclass(frozen=True)
class PlaneEl3:
    mv: Multivector

    def __post_init__(self):
        geometry.check_blade(self.mv, _S, "plane", "PlaneEl3", nonzero=True)

    @classmethod
    def from_coeffs(cls, d: float, a: float, b: float, c: float) -> "PlaneEl3":
        return cls(Multivector.from_terms(_S, {"e0": d, "e1": a, "e2": b, "e3": c}))


@dataclass(frozen=True)
class LineEl3:
    """Grade-2 blade view; construction checks the Plucker condition."""

    mv: Multivector

    def __post_init__(self):
        geometry.check_blade(self.mv, _S, "line", "LineEl3", nonzero=True)

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


@dataclass(frozen=True)
class PointEl3:
    mv: Multivector

    def __post_init__(self):
        geometry.check_blade(self.mv, _S, "point", "PointEl3", nonzero=True)

    @classmethod
    def from_xyz(cls, x: float, y: float, z: float) -> "PointEl3":
        """Standard-coordinate embedding e123 + x*e320 + y*e130 + z*e210."""
        return cls(Multivector.from_terms(_S, {
            "e123": 1.0, "e320": x, "e130": y, "e210": z,
        }))

    @property
    def w(self) -> float:
        return self.mv.coeff("e123")

    @property
    def x(self) -> float:
        return self.mv.coeff("e320")

    @property
    def y(self) -> float:
        return self.mv.coeff("e130")

    @property
    def z(self) -> float:
        return self.mv.coeff("e210")


def _require_line(x: MultivectorLike, what: str = "line") -> Multivector:
    return geometry.check_blade(x, _S, "line", what)


# ---------------------------------------------------------------------------
# metric toolkit

# point-point (P, Q) and plane-point (a, P) distances, angle between planes
distance_pp = distance_plane_point = geometry.distance
angle_planes = geometry.angle


def distance_line_point(line: MultivectorLike, p: MultivectorLike) -> float:
    """Line-point distance: sin r = |LvP|, cos r = |L.P|.

    LvP is the plane through the line and the point (zero when P lies on
    the line); L.P is the perpendicular plane through P (zero when P lies
    on the polar line LI).
    """
    return geometry.distance(_require_line(line), p)


def angle_line_plane(line: MultivectorLike, a: MultivectorLike) -> float:
    """Unoriented angle in [0, pi/2]: cos = |a.L| (plane), sin = |a^L| (point)."""
    ln = normalized(_require_line(line))
    an = normalized(as_multivector(a))
    return math.atan2(coeff_norm(outer(an, ln)), coeff_norm(inner(an, ln)))


# ---------------------------------------------------------------------------
# axis decomposition


@dataclass(frozen=True)
class AxisDecomposition:
    """Complementary axes of a bivector: larger + smaller = input.

    The axes satisfy L1.L2 = 0 and L1 x L2 = 0.  When the input is a
    Clifford bivector the split is not unique; the canonical origin-line
    split is returned with degenerate = True.
    """

    larger: Multivector
    smaller: Multivector
    degenerate: bool


def axis_decompose(b: MultivectorLike) -> AxisDecomposition:
    """Split a grade-2 element into its complementary axes."""
    mv = as_multivector(b)
    if coeff_norm(mv) <= epsilon():
        raise ValueError("axis_decompose requires a nonzero bivector")
    mv = geometry.check_blade(mv, _S, "bivector", "axis_decompose")
    b1, b2, degenerate = axis_split(mv)
    return AxisDecomposition(b1, b2, degenerate)


# ---------------------------------------------------------------------------
# Clifford parallels


@dataclass(frozen=True)
class CliffordFrame:
    """Origin-line frame attached to a normalised line.

    minus/plus carry the differences/sums of the momentum and direction
    parts of the line ((p10 -+ p23) e23 + ...); the perp companions are
    deterministic perpendicular origin lines anchoring the phi = 0 phase.
    """

    line: Multivector
    minus: Multivector
    plus: Multivector
    minus_perp: Multivector
    plus_perp: Multivector

    def parallel(self, family: Union[Family, str], phi: float, theta: float) -> Multivector:
        """The unit-weight parallel of self.line at (phi, theta); see clifford_parallel."""
        family = Family(family)
        if not 0.0 <= theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if family is Family.POSITIVE:
            omega = _omega(self.minus, self.minus_perp, phi, theta)
            return self.line - (dual_I(omega) - omega) * math.cos(theta)
        omega = _omega(self.plus, self.plus_perp, phi, theta)
        return self.line - (dual_I(omega) + omega) * math.cos(theta)


_Vec3 = Tuple[float, float, float]


def _cross(u: _Vec3, v: _Vec3) -> _Vec3:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _length(v: _Vec3) -> float:
    return math.sqrt((v[0] * v[0] + v[1] * v[1]) + v[2] * v[2])


def _origin_line(direction: _Vec3) -> Multivector:
    return Multivector.from_terms(_S, {
        "e23": direction[0], "e31": direction[1], "e12": direction[2],
    })


def _perp_origin_line(direction: _Vec3) -> Multivector:
    n = _length(direction)
    d = (direction[0] / n, direction[1] / n, direction[2] / n)
    u = _cross(d, (1.0, 0.0, 0.0))
    if _length(u) <= 1e-9:
        u = _cross(d, (0.0, 1.0, 0.0))
    n = _length(u)
    return _origin_line((u[0] / n, u[1] / n, u[2] / n))


def clifford_frame(line: MultivectorLike) -> CliffordFrame:
    """Frame of origin lines generating the parallel parametrisation."""
    ln = normalized(_require_line(line))
    p10, p20, p30 = ln.coeff("e10"), ln.coeff("e20"), ln.coeff("e30")
    p23, p31, p12 = ln.coeff("e23"), ln.coeff("e31"), ln.coeff("e12")
    minus = (p10 - p23, p20 - p31, p30 - p12)
    plus = (p10 + p23, p20 + p31, p30 + p12)
    return CliffordFrame(
        line=ln,
        minus=_origin_line(minus),
        plus=_origin_line(plus),
        minus_perp=_perp_origin_line(minus),
        plus_perp=_perp_origin_line(plus),
    )


def _omega(axis: Multivector, axis_perp: Multivector, phi: float, theta: float) -> Multivector:
    s = exp_bivector(axis * (-0.5 * phi)) * exp_bivector(axis_perp * (-0.5 * theta))
    return s.apply(axis)


def clifford_parallel(
    line: MultivectorLike, family: Union[Family, str], phi: float, theta: float
) -> Multivector:
    """The parallel of the given family at parameters (phi, theta).

    The result is a line at constant distance |pi/2 - theta| from the
    input everywhere, oriented consistently with it.  A non-normalised
    input is normalised first and the parallel rescaled by the original
    weight.  Parallels of one line can share its frame (CliffordFrame.parallel).
    """
    mv = _require_line(line)
    return clifford_frame(mv).parallel(family, phi, theta) * coeff_norm(mv)


@dataclass(frozen=True)
class CliffordBivector:
    """Non-simple bivector with I*value = +value (positive) or -value."""

    value: Multivector
    sign: Family

    def __post_init__(self):
        if not _fixed_by_I(as_multivector(self.value), self.sign):
            raise ValueError("I*value does not match the declared sign")

    @classmethod
    def from_bivector(cls, mv: MultivectorLike) -> "CliffordBivector":
        mv = as_multivector(mv)
        for sign in Family:
            if _fixed_by_I(mv, sign):
                return cls(mv, sign)
        raise ValueError("bivector is not fixed by the pseudoscalar (not Clifford)")


def _fixed_by_I(v: Multivector, sign: Family) -> bool:
    """I*v = v (positive) or -v (negative), relative to |v| within tolerance."""
    dual = dual_I(v)
    off = dual - v if sign is Family.POSITIVE else dual + v
    return coeff_norm(off) <= epsilon() * max(coeff_norm(v), 1e-300)


def clifford_bivector(line: MultivectorLike, sign: Union[Family, str]) -> CliffordBivector:
    """(I+1)L for the positive family, (I-1)L for the negative one."""
    sign = Family(sign)
    ln = _require_line(line)
    d = dual_I(ln)
    value = d + ln if sign is Family.POSITIVE else d - ln
    return CliffordBivector(value, sign)


CliffordLike = Union[CliffordBivector, MultivectorLike]


def _as_clifford(xi: CliffordLike) -> CliffordBivector:
    if isinstance(xi, CliffordBivector):
        return xi
    return CliffordBivector.from_bivector(xi)


def parallel_through_point(xi: CliffordLike, p: MultivectorLike) -> Multivector:
    """The parallel of the Clifford bivector through P: (Xi v P) P**-1.

    For P on one of the generating lines the construction collapses onto
    that line (or its polar) rather than failing.
    """
    xi = _as_clifford(xi)
    p = as_multivector(p)
    return geometric_product(regressive(xi.value, p), inverse_blade(p))


# ---------------------------------------------------------------------------
# line-line metrics


class LineRelation(enum.Enum):
    INTERSECTING = "intersecting"
    CLIFFORD_PARALLEL = "clifford_parallel"
    GENERIC = "generic"


@dataclass(frozen=True)
class LineLineMetrics:
    """Distance r (= r1), oriented angle alpha, separations r1 <= r2."""

    r: float
    alpha: float
    r1: float
    r2: float
    relation: LineRelation


def line_line_metrics(
    line: MultivectorLike, other: MultivectorLike
) -> LineLineMetrics:
    """Distance, angle and relation of two lines.

    With u = L.Phi and v = L v Phi on normalised lines,
    2 sin^2 r = 1 + v^2 - u^2 - sqrt((1 + v^2 - u^2)^2 - 4 v^2) and
    cos alpha = -u / cos r.  The separations satisfy
    cos r1 cos r2 = |u| and sin r1 sin r2 = |v|.
    """
    eps = epsilon()
    ln = normalized(_require_line(line))
    on = normalized(_require_line(other, "other line"))
    u = inner(ln, on).scalar_part
    v = regressive(ln, on).scalar_part
    if abs(v) <= eps:
        relation = LineRelation.INTERSECTING
    else:
        comm = commutator(ln, on)
        cs = inner(comm, comm).scalar_part
        cv = regressive(comm, comm).scalar_part
        if abs(cs * cs - cv * cv) <= eps * max(cs * cs, 1.0):
            relation = LineRelation.CLIFFORD_PARALLEL
        else:
            relation = LineRelation.GENERIC
    if relation is LineRelation.CLIFFORD_PARALLEL:
        # the quadratic discriminant vanishes here and its square root
        # would cost half the working precision; the constant-separation
        # relations give sin^2 r = |v| directly
        sin2 = min(abs(v), 1.0)
    else:
        a = 1.0 + v * v - u * u
        disc = max(a * a - 4.0 * v * v, 0.0)
        sin2 = max(min(0.5 * (a - math.sqrt(disc)), 1.0), 0.0)
    r = math.asin(math.sqrt(sin2))
    cos_r = math.cos(r)
    if cos_r > 1e-12:
        alpha = math.acos(max(-1.0, min(1.0, -u / cos_r)))
    else:
        alpha = math.pi / 2
    r2 = alpha if alpha <= math.pi / 2 else math.pi - alpha
    return LineLineMetrics(r=r, alpha=alpha, r1=r, r2=r2, relation=relation)


# ---------------------------------------------------------------------------
# projections, rejections, reflections


# (B.a) a**-1 lies on the plane a and (B^a) a**-1 passes through its polar
# point aI; (B.P) P**-1 passes through P, and (B^P) P**-1 for planes,
# (B x P) P**-1 for lines and points land on the polar plane PI.
project_on_plane = project_on_point = geometry.project
reject_by_plane = reject_by_point = geometry.reject


def project_on_line(b: MultivectorLike, line: MultivectorLike) -> Multivector:
    """(B.L) L**-1 for points and planes; lines use project_line_on_line."""
    ln = _require_line(line)
    if as_multivector(b).pure_grade() == 2:
        raise ValueError("use project_line_on_line for a line argument")
    return geometry.project(b, ln)


def reject_by_line(b: MultivectorLike, line: MultivectorLike) -> Multivector:
    """(a^L) L**-1 for planes, (P x L) L**-1 for points."""
    ln = _require_line(line)
    if as_multivector(b).pure_grade() == 2:
        raise ValueError("use reject_line_by_line for a line argument")
    return geometry.reject(b, ln)


def _line_line_pieces(phi: Multivector, line: Multivector):
    comm = commutator(phi, line)
    if coeff_norm(comm) <= epsilon():
        zero = Multivector.zero(_S)
        return zero, zero
    b1, b2, degenerate = axis_split(comm)
    if degenerate:
        raise DegenerateAxes(
            "commutator axes are not unique (Clifford-parallel lines)"
        )
    return b1, b2


def project_line_on_line(
    phi: MultivectorLike, line: MultivectorLike, kind: Literal[1, 2]
) -> Multivector:
    """proj_k(Phi; L): (Phi.L + (Phi x L)_k) L**-1 with k in {1, 2}.

    Kind 1 combines the larger commutator axis with the dot (the result
    passes through L at the angle Phi makes with it); kind 2 uses the
    smaller axis.
    """
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    pn = _require_line(phi, "phi")
    ln = _require_line(line)
    b1, b2 = _line_line_pieces(pn, ln)
    axis = b1 if kind == 1 else b2
    return geometric_product(inner(pn, ln) + axis, inverse_blade(ln))


def reject_line_by_line(
    phi: MultivectorLike, line: MultivectorLike, kind: Literal[1, 2]
) -> Multivector:
    """rej_k(Phi; L): ((Phi x L)_j + Phi^L) L**-1 with the opposite axis j.

    Kind 2 is perpendicular to L at the same distance from it as Phi.
    """
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    pn = _require_line(phi, "phi")
    ln = _require_line(line)
    b1, b2 = _line_line_pieces(pn, ln)
    axis = b2 if kind == 1 else b1
    return geometric_product(axis + outer(pn, ln), inverse_blade(ln))


def perpendicular_through(line: MultivectorLike, p: MultivectorLike) -> Multivector:
    """The line (L.P)^(LvP) through P, perpendicular to both L and LI.

    Equals P v (L P L**-1) / 2 for a normalised line.
    """
    ln = _require_line(line)
    p = as_multivector(p)
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
    """exp(-(alpha + beta*I)/2 * L) for a normalised line L."""
    ln = normalized(_require_line(line))
    generator = (ln * alpha + dual_I(ln) * beta) * -0.5
    return exp_bivector(generator)


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
    xi = _as_clifford(xi)
    s = exp_bivector(xi.value * (-0.5 * beta))
    return s.apply(as_multivector(a))


# ---------------------------------------------------------------------------
# quaternion bridge


Quaternion = Tuple[float, float, float, float]


def quaternion_bridge(p: MultivectorLike) -> Quaternion:
    """Coordinates of a point as the quaternion (w, x, y, z)."""
    p = geometry.check_blade(p, _S, "point", "quaternion_bridge")
    return (p.coeff("e123"), p.coeff("e320"), p.coeff("e130"), p.coeff("e210"))


def point_from_quaternion(q) -> Multivector:
    """Inverse of quaternion_bridge."""
    w, x, y, z = (float(t) for t in q)
    return Multivector.from_terms(_S, {"e123": w, "e320": x, "e130": y, "e210": z})


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
    ln = _require_line(origin_line, "origin line")
    off_origin = math.hypot(ln.coeff("e10"), ln.coeff("e20"), ln.coeff("e30"))
    if off_origin > epsilon() * coeff_norm(ln):
        raise NonOriginLine("Clifford translation quaternion form needs an origin line")
    ln = normalized(ln)
    s = math.sin(beta)
    q = (math.cos(beta), *(-ln.coeff(n) * s for n in ("e23", "e31", "e12")))
    pq = quaternion_bridge(p)
    result = quaternion_multiply(pq, q) if side is Side.RIGHT else quaternion_multiply(q, pq)
    return point_from_quaternion(result)


# ---------------------------------------------------------------------------
# construction helpers


line_from_points = regressive      # join P v Q
line_from_planes = outer           # meet a ^ b


def point_on_line(line: MultivectorLike) -> Multivector:
    """A normalised point incident with the line (projection of a seed)."""
    ln = _require_line(line)
    for seed in ("e123", "e320", "e130", "e210"):
        candidate = project_on_line(Multivector.basis(_S, seed), ln)
        if coeff_norm(candidate) > 1e-6 * coeff_norm(ln):
            return normalized(candidate)
    raise AlgebraError("could not find a point on the line")


def sweep_line_point(line: MultivectorLike, p: MultivectorLike, t: float) -> Multivector:
    """Move a point of the line along it by parameter t.

    Sliding along a line is rotation around its polar line: points on the
    line are fixed by rotations around the line itself but swept along it
    by exp(-t/2 * LI).  Period pi (with an orientation flip).
    """
    ln = normalized(_require_line(line))
    s = exp_bivector(dual_I(ln) * (-0.5 * t))
    return s.apply(as_multivector(p))
