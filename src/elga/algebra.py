"""Clifford algebra kernel for the three elliptic model spaces.

Three fixed algebras are supported: Cl(2), Cl(3) and Cl(4), with every
basis vector squaring to +1.  The e0 direction is *not* degenerate, which
is what makes the resulting geometry elliptic rather than Euclidean.

Storage convention
------------------
Coefficients live in a dense float array of length 2**dim indexed by the
binary-subset order: bit i of the index corresponds to e_i, so in Cl(3)
index 0b101 holds the coefficient of e0e2 = e02 (ascending indices).

Display and JSON names follow the dual-coordinate convention of the
geometry modules (e20 = -e02, e31 = -e13, e320 = -e023, e210 = -e012, ...)
and carry the permutation sign against canonical storage.  Any "e<digits>"
permutation is accepted on input.

Duality
-------
j_map(x) = x * I**-1 and regressive(a, b) = j_map_inverse(j_map(a) ^ j_map(b)).
With this choice the join of two El2 points P = e12+e20, Q = e12+2e01 is
-2e0+2e1+e2, and joins in El3 come out in the orientation the geometry
modules expect.  Note I**2 = -1 in El1 and El2, +1 in El3.
"""

from __future__ import annotations

import contextvars
import enum
import itertools
import math
import sys
from collections.abc import Mapping
from typing import Dict, Iterable, Tuple, Union

import numpy as np

# Structural tolerance for simplicity / invertibility / degeneracy
# predicates, local to each thread.  Test comparisons are tighter (1e-12,
# or 1e-10 for derived quantities); this value only gates structural decisions.
_TOLERANCE = contextvars.ContextVar("tolerance", default=1e-9)


def epsilon() -> float:
    """Current structural tolerance (set with ``tolerance``)."""
    return _TOLERANCE.get()


class tolerance:
    """Context manager: its block runs at tolerance ``value`` (checked at the call)."""

    def __init__(self, value: float):
        value = float(value)
        if not 0.0 < value < math.inf:
            raise ValueError("tolerance must be a finite positive number")
        self._value = value

    def __enter__(self) -> None:
        self._token = _TOLERANCE.set(self._value)

    def __exit__(self, *exc) -> None:
        _TOLERANCE.reset(self._token)


class AlgebraError(Exception):
    """Base class for algebraic failures."""


class SpaceMismatch(AlgebraError):
    """Operands bound to different model spaces."""


class NonInvertible(AlgebraError):
    """Multivector has no inverse of the blade/versor form."""


class NonSimpleBivector(AlgebraError):
    """Grade-2 element fails the simplicity (Plucker) condition."""


class ZeroInput(AlgebraError):
    """Operation requires a nonzero (normalisable) element."""


class Space(enum.Enum):
    """The three model spaces; value is the JSON tag."""

    EL1 = "el1"
    EL2 = "el2"
    EL3 = "el3"

    # identity hash: every table lookup keyed by a space skips Enum.__hash__
    __hash__ = object.__hash__

    @property
    def dim(self) -> int:
        """Dimension of the model vector space (2, 3 or 4)."""
        return _DIMS[self]

    @property
    def size(self) -> int:
        """Number of coefficients, 2**dim."""
        return 1 << _DIMS[self]

    @classmethod
    def from_tag(cls, tag: str) -> "Space":
        for s in cls:
            if s.value == tag:
                return s
        raise ValueError(f"unknown space tag {tag!r} (expected el1|el2|el3)")


_DIMS = {Space.EL1: 2, Space.EL2: 3, Space.EL3: 4}

# Display name per canonical index, in the dual-coordinate convention.
_DISPLAY_NAMES = {
    Space.EL1: ("1", "e0", "e1", "e01"),
    Space.EL2: ("1", "e0", "e1", "e01", "e2", "e20", "e12", "e012"),
    Space.EL3: (
        "1", "e0", "e1", "e10", "e2", "e20", "e12", "e210",
        "e3", "e30", "e31", "e130", "e23", "e320", "e123", "e0123",
    ),
}


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _merge_sign(a: int, b: int) -> float:
    """Sign of e_A e_B from reordering; metric factors are all +1."""
    swaps = 0
    a >>= 1
    while a:
        swaps += _popcount(a & b)
        a >>= 1
    return -1.0 if swaps & 1 else 1.0


def _parse_indices(name: str, dim: int) -> Tuple[Tuple[int, ...], float]:
    """Parse 'e<digits>' into sorted indices and the permutation sign."""
    digits = name[1:]
    if not digits or not digits.isdigit():
        raise ValueError(f"invalid blade name {name!r}")
    idx = [int(ch) for ch in digits]
    if len(set(idx)) != len(idx):
        raise ValueError(f"repeated index in blade name {name!r}")
    if any(i >= dim for i in idx):
        raise ValueError(f"index out of range for this space in {name!r}")
    sign = 1.0
    seq = list(idx)
    # bubble sort, counting transpositions
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return tuple(seq), sign


class _Tables:
    """Precomputed product/duality tables for one space."""

    def __init__(self, space: Space):
        dim = space.dim
        n = space.size
        self.dim = dim
        self.size = n
        idx = np.arange(n)
        self.grades = np.array([_popcount(i) for i in range(n)])
        target = idx[:, None] ^ idx[None, :]
        sign = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                sign[a, b] = _merge_sign(a, b)
        disjoint = (idx[:, None] & idx[None, :]) == 0
        gdiff = np.abs(self.grades[:, None] - self.grades[None, :])
        # product tables, flattened: blade pair k = (left[k], right[k]) lands
        # on slot target[k] with sign_<kind>[k] (0 where the kind drops it)
        self.left, self.right = np.divmod(np.arange(n * n), n)
        self.target = target.ravel()
        self.sign_gp = sign.ravel()
        self.sign_outer = np.where(disjoint, sign, 0.0).ravel()
        self.sign_inner = np.where(self.grades[target] == gdiff, sign, 0.0).ravel()
        self.reverse_signs = np.where(self.grades % 4 >= 2, -1.0, 1.0)
        self.full = n - 1
        self.pseudo_sq = sign[self.full, self.full]  # I*I, a +/-1 scalar
        # j_map(e_A) = e_A * I^-1 ; j_inv(e_A) = e_A * I
        self.j_index = idx ^ self.full
        self.j_inv_sign = sign[idx, self.full]
        self.j_sign = self.j_inv_sign * self.pseudo_sq
        # name tables
        names = _DISPLAY_NAMES[space]
        self.names = names
        self.name_signs = np.empty(n)
        self.name_signs[0] = 1.0
        for i, nm in enumerate(names[1:], 1):
            indices, s = _parse_indices(nm, dim)
            assert sum(1 << k for k in indices) == i
            self.name_signs[i] = s
        # every index permutation of every blade, so valid names never re-parse
        self.name_to_slot: Dict[str, Tuple[int, float]] = {"1": (0, 1.0), "I": (self.full, 1.0)}
        for k in range(1, dim + 1):
            for perm in itertools.permutations(range(dim), k):
                nm = "e" + "".join(map(str, perm))
                indices, s = _parse_indices(nm, dim)
                self.name_to_slot[nm] = (sum(1 << j for j in indices), s)


_TABLES: Dict[Space, _Tables] = {s: _Tables(s) for s in Space}


def tables(space: Space) -> _Tables:
    return _TABLES[space]


MultivectorLike = Union["Multivector", "object"]


def as_multivector(x: MultivectorLike) -> "Multivector":
    """Unwrap blade views; pass Multivectors through."""
    if isinstance(x, Multivector):
        return x
    mv = getattr(x, "mv", None)
    if isinstance(mv, Multivector):
        return mv
    raise TypeError(f"expected a Multivector or blade view, got {type(x).__name__}")


class Multivector:
    """Dense graded coefficient vector bound to one model space.

    Immutable: the coefficient array is frozen after construction, and all
    operations return new instances, so values can be shared freely across
    threads.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: Space, coeffs: Iterable[float]):
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (space.size,):
            raise ValueError(
                f"{space.value} multivector needs {space.size} coefficients, "
                f"got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: Space) -> "Multivector":
        return _wrap(space, np.zeros(space.size))

    @classmethod
    def scalar(cls, space: Space, value: float) -> "Multivector":
        c = np.zeros(space.size)
        c[0] = value
        return _wrap(space, c)

    @classmethod
    def basis(cls, space: Space, name: str) -> "Multivector":
        """Unit blade by name; any index permutation is accepted."""
        slot, sign = _blade_slot(space, name)
        c = np.zeros(space.size)
        c[slot] = sign
        return _wrap(space, c)

    @classmethod
    def from_terms(cls, space: Space, terms: Mapping[str, float]) -> "Multivector":
        """Build from {blade name: coefficient}; omitted blades are zero."""
        c = np.zeros(space.size)
        for name, value in terms.items():
            slot, sign = _blade_slot(space, name)
            c[slot] += sign * float(value)
        return _wrap(space, c)

    # -- introspection -----------------------------------------------------

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    @property
    def pseudo_part(self) -> float:
        return float(self.coeffs[-1])

    def coeff(self, name: str) -> float:
        """Coefficient of a named blade (permutation sign applied)."""
        slot, sign = _blade_slot(self.space, name)
        return sign * float(self.coeffs[slot])

    def grades(self) -> Tuple[int, ...]:
        mag = np.abs(self.coeffs)
        cut = 1e-12 * float(mag.max())     # below: rounding left by cancelled grades
        return tuple(sorted(set(_TABLES[self.space].grades[mag > cut].tolist())))

    def pure_grade(self) -> int:
        """Grade of a homogeneous element; raises if mixed or zero."""
        g = self.grades()
        if len(g) != 1:
            raise AlgebraError(f"element is not of pure grade (grades {g})")
        return g[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.space is other.space and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Multivector({self.space.value}: {format_terms(self)})"

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Multivector") -> None:
        if self.space is not other.space:
            raise SpaceMismatch(
                f"cannot combine {self.space.value} with {other.space.value}"
            )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            c = self.coeffs.copy()
            c[0] += other
            return _wrap(self.space, c)
        other = as_multivector(other)
        self._check(other)
        return _wrap(self.space, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self + (-other)
        other = as_multivector(other)
        self._check(other)
        return _wrap(self.space, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _wrap(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return _wrap(self.space, self.coeffs * other)
        return geometric_product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return _wrap(self.space, other * self.coeffs)
        return geometric_product(other, self)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return _wrap(self.space, self.coeffs / other)
        return geometric_product(self, inverse_blade(as_multivector(other)))

    def __xor__(self, other):
        return outer(self, other)

    def __or__(self, other):
        return inner(self, other)

    def __and__(self, other):
        return regressive(self, other)

    def __invert__(self):
        return reverse(self)


def _wrap(space: Space, arr: np.ndarray) -> Multivector:
    """Multivector over an array the kernel has just allocated, frozen in place
    without the public constructor's copy and shape check."""
    arr.setflags(write=False)
    mv = object.__new__(Multivector)
    object.__setattr__(mv, "space", space)
    object.__setattr__(mv, "coeffs", arr)
    return mv


def _blade_slot(space: Space, name: str) -> Tuple[int, float]:
    t = _TABLES[space]
    hit = t.name_to_slot.get(name)
    if hit is not None:
        return hit
    if not name.startswith("e"):
        raise ValueError(f"invalid blade name {name!r}")
    indices, sign = _parse_indices(name, space.dim)
    slot = sum(1 << i for i in indices)
    return slot, sign


def format_terms(a: Multivector, precision: int = 12) -> str:
    """Human-readable term list in display names."""
    t = _TABLES[a.space]
    parts = []
    for i in range(t.size):
        c = t.name_signs[i] * a.coeffs[i]
        if c == 0.0:
            continue
        val = f"{c:.{precision}g}"
        parts.append(val if t.names[i] == "1" else f"{val}*{t.names[i]}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# ---------------------------------------------------------------------------
# products


def _product(a: Multivector, b: Multivector, sign: np.ndarray) -> Multivector:
    # sign * a_i * b_j is exactly sign * (a_i * b_j), as sign is 0 or +-1; the
    # gathers are cheaper than a broadcast outer product at these sizes
    t = _TABLES[a.space]
    weights = sign * a.coeffs[t.left] * b.coeffs[t.right]
    return _wrap(a.space, np.bincount(t.target, weights, t.size))


def geometric_product(a: MultivectorLike, b: MultivectorLike) -> Multivector:
    """Full Clifford product under the all-plus metric."""
    a, b = as_multivector(a), as_multivector(b)
    a._check(b)
    return _product(a, b, _TABLES[a.space].sign_gp)


def outer(a: MultivectorLike, b: MultivectorLike) -> Multivector:
    """Exterior (wedge) product: grade-raising antisymmetrised part."""
    a, b = as_multivector(a), as_multivector(b)
    a._check(b)
    return _product(a, b, _TABLES[a.space].sign_outer)


def inner(a: MultivectorLike, b: MultivectorLike) -> Multivector:
    """Metric dot: grade |k-l| part of each graded product, scalar included."""
    a, b = as_multivector(a), as_multivector(b)
    a._check(b)
    return _product(a, b, _TABLES[a.space].sign_inner)


def commutator(a: MultivectorLike, b: MultivectorLike) -> Multivector:
    """a x b = (ab - ba)/2."""
    a, b = as_multivector(a), as_multivector(b)
    return (geometric_product(a, b) - geometric_product(b, a)) * 0.5


def j_map(a: MultivectorLike) -> Multivector:
    """Duality transformation, a * I**-1 (coordinate shuffle with sign)."""
    a = as_multivector(a)
    t = _TABLES[a.space]
    out = np.empty(t.size)
    out[t.j_index] = t.j_sign * a.coeffs
    return _wrap(a.space, out)


def j_map_inverse(a: MultivectorLike) -> Multivector:
    """Inverse duality transformation, a * I."""
    a = as_multivector(a)
    t = _TABLES[a.space]
    out = np.empty(t.size)
    out[t.j_index] = t.j_inv_sign * a.coeffs
    return _wrap(a.space, out)


def dual_I(a: MultivectorLike) -> Multivector:
    """Right-multiplication by the unit pseudoscalar (polar element)."""
    return j_map_inverse(a)


def regressive(a: MultivectorLike, b: MultivectorLike) -> Multivector:
    """Join: a v b = J**-1 ( J(a) ^ J(b) )."""
    a, b = as_multivector(a), as_multivector(b)
    a._check(b)
    return j_map_inverse(outer(j_map(a), j_map(b)))


def reverse(a: MultivectorLike) -> Multivector:
    """Reversion: sign (-1)**(k(k-1)/2) on each grade k."""
    a = as_multivector(a)
    t = _TABLES[a.space]
    return _wrap(a.space, t.reverse_signs * a.coeffs)


def grade(a: MultivectorLike, k: int) -> Multivector:
    """Projection onto grade k."""
    a = as_multivector(a)
    t = _TABLES[a.space]
    return _wrap(a.space, np.where(t.grades == k, a.coeffs, 0.0))


def coeff_norm(a: MultivectorLike) -> float:
    """Euclidean norm of the raw coefficient array.

    sqrt(c.c) is numpy's own 1-D norm, without its dispatch overhead.
    """
    c = as_multivector(a).coeffs
    return math.sqrt(c.dot(c))


def plucker_residual(a: MultivectorLike) -> float:
    """Simplicity defect of a grade-2 element: pseudoscalar part of (a^a)/2.

    In El3 this equals p10*p23 + p20*p31 + p30*p12 and vanishes exactly on
    lines.  Grade-2 elements of El1/El2 are always simple (the wedge square
    cannot reach grade 4), so the residual is zero there.
    """
    a = as_multivector(a)
    return float(outer(a, a).coeffs[-1] / 2.0)


def is_simple_bivector(a: MultivectorLike) -> bool:
    """Plucker condition, relative to the squared coefficient norm."""
    a = as_multivector(a)
    n2 = float(a.coeffs @ a.coeffs)
    return abs(plucker_residual(a)) <= epsilon() * max(n2, 1e-300)


def is_clifford_bivector(a: MultivectorLike) -> bool:
    """True when (a.a)**2 equals (a v a)**2 within tolerance (El3 only)."""
    a = as_multivector(a)
    if a.space is not Space.EL3:
        return False
    s = inner(a, a).scalar_part
    v = regressive(a, a).scalar_part
    return abs(s * s - v * v) <= epsilon() * max(s * s, 1e-300)


def norm(a: MultivectorLike) -> float:
    """Blade/versor norm sqrt(<a ~a>_0).

    Equals the Euclidean coefficient norm on blades.  A grade-2 element of
    El3 must satisfy the Plucker condition or be a Clifford bivector;
    otherwise the notion of a line norm does not apply and
    NonSimpleBivector is raised.
    """
    a = as_multivector(a)
    if a.space is Space.EL3:
        g = a.grades()
        if g == (2,) and not (
            is_simple_bivector(a) or is_clifford_bivector(a)
        ):
            raise NonSimpleBivector(
                f"norm undefined: plucker residual {plucker_residual(a):.3e}"
            )
    # <a ~a>_0 is the sum of squares, in the product's slot-0 order for the
    # same bits (sum() is compensated from Python 3.12, dot() sums in lanes)
    m = 0.0
    for c in a.coeffs.tolist():
        m += c * c
    return math.sqrt(m)


def normalized(a: MultivectorLike) -> Multivector:
    """a / norm(a); raises ZeroInput below tolerance."""
    a = as_multivector(a)
    n = norm(a)
    if n <= epsilon():
        raise ZeroInput("cannot normalise a (near-)zero element")
    return a * (1.0 / n)


def inverse_blade(a: MultivectorLike) -> Multivector:
    """Inverse of a blade or versor: ~a / <a ~a>_0.

    Raises NonInvertible when a * ~a is not a nonzero scalar (for example
    1 + I in El3, a zero divisor).
    """
    a = as_multivector(a)
    eps = epsilon()
    rev = reverse(a)
    m = geometric_product(a, rev)
    s = m.scalar_part
    scale = max(float(a.coeffs @ a.coeffs), 1e-300)
    residual = m.coeffs.copy()
    residual[0] = 0.0
    if abs(s) <= eps * scale or math.sqrt(residual.dot(residual)) > eps * scale:
        raise NonInvertible(f"no blade inverse: a*~a = {format_terms(m)}")
    return rev * (1.0 / s)


def canonicalize_sign(a: MultivectorLike) -> Multivector:
    """Flip sign so the highest-index non-negligible coefficient is positive.

    Only for equality-up-to-sign assertions; operations never apply this
    silently, since orientation is meaningful.
    """
    a = as_multivector(a)
    eps = epsilon()
    scale = float(np.abs(a.coeffs).max())
    if scale == 0.0:
        return a
    for i in range(a.space.size - 1, -1, -1):
        if abs(a.coeffs[i]) > eps * scale:
            return a if a.coeffs[i] > 0 else -a
    return a


# ---------------------------------------------------------------------------
# spinors and exponentials


class Spinor:
    """Even multivector S with S ~S = 1; acts as a proper motion.

    The sandwich S x ~S preserves every elliptic distance and angle.
    """

    __slots__ = ("mv",)

    _UNIT_TOL = 1e-6

    def __init__(self, mv: Multivector):
        t = _TABLES[mv.space]
        odd = np.where(t.grades % 2 == 1, mv.coeffs, 0.0)
        if np.abs(odd).max() > self._UNIT_TOL:
            raise AlgebraError("spinor must be even-graded")
        unit = geometric_product(mv, reverse(mv))
        dev = unit.coeffs.copy()
        dev[0] -= 1.0
        if math.sqrt(dev.dot(dev)) > self._UNIT_TOL:
            raise AlgebraError("spinor must satisfy S ~S = 1")
        object.__setattr__(self, "mv", mv)

    def __setattr__(self, name, value):
        raise AttributeError("Spinor is immutable")

    @property
    def space(self) -> Space:
        return self.mv.space

    def apply(self, x: MultivectorLike) -> Multivector:
        """Sandwich action S x S**-1 (= S x ~S)."""
        x = as_multivector(x)
        return geometric_product(geometric_product(self.mv, x), reverse(self.mv))

    def reversed(self) -> "Spinor":
        return Spinor(reverse(self.mv))

    def __mul__(self, other: "Spinor") -> "Spinor":
        return Spinor(geometric_product(self.mv, other.mv))

    def __repr__(self) -> str:
        return f"Spinor({self.space.value}: {format_terms(self.mv)})"


def _exp_simple(b: Multivector) -> Multivector:
    """exp of a bivector whose square is a (non-positive) scalar."""
    s = inner(b, b).scalar_part
    theta = math.sqrt(max(-s, 0.0))
    if theta < 1e-30:
        return Multivector.scalar(b.space, 1.0) + b
    return Multivector.scalar(b.space, math.cos(theta)) + b * (math.sin(theta) / theta)


def axis_split(b: Multivector):
    """Split an El3 bivector into complementary commuting parts.

    Returns (b1, b2, degenerate).  b1 is the larger axis (simple input
    gives b2 = 0); for Clifford bivectors, where the decomposition is not
    unique, the canonical split into an origin line and its polar line is
    returned with degenerate = True.
    """
    eps = epsilon()
    s = inner(b, b).scalar_part              # -|coeffs|^2, <= 0
    v = regressive(b, b).scalar_part
    if s == 0.0:
        return b, Multivector.zero(b.space), False
    if abs(v) <= eps * abs(s):               # simple: wedge square vanishes
        return b, Multivector.zero(b.space), False
    disc = s * s - v * v
    if disc <= eps * s * s:                  # Clifford bivector, split not unique
        t = _TABLES[b.space]
        keep = np.zeros(t.size)
        for name in ("e23", "e31", "e12"):
            slot, _ = _blade_slot(b.space, name)
            keep[slot] = b.coeffs[slot]
        b1 = _wrap(b.space, keep)
        return b1, b - b1, True
    root = math.sqrt(disc)
    x1 = 0.5 * (s - root)                    # larger axis: more negative square
    q = plucker_residual(b)                  # (b ^ b) / 2 = q * I
    c1 = q / x1
    inv = (Multivector.scalar(b.space, 1.0) - dual_I(Multivector.scalar(b.space, c1))) * (
        1.0 / (1.0 - c1 * c1)
    )
    b1 = geometric_product(b, inv)
    return b1, b - b1, False


def exp_bivector(b: MultivectorLike) -> Spinor:
    """Exponential of a grade-2 element, as a unit spinor.

    In El1/El2 the square of a bivector is a scalar and the closed
    cos/sinc form applies directly; in El3 the bivector is split into
    commuting axes first and the factors multiplied.
    """
    b = as_multivector(b)
    g = b.grades()
    if g not in ((), (2,)):
        raise AlgebraError(f"exp_bivector needs a grade-2 argument, got grades {g}")
    if b.space is Space.EL3:
        b1, b2, _ = axis_split(b)
        value = geometric_product(_exp_simple(b1), _exp_simple(b2))
    else:
        value = _exp_simple(b)
    return Spinor(value)


# A normalised generator squares to -1 only up to rounding; the unit check
# never asks for closer agreement than this, whatever the tolerance.
_UNIT_ROUNDING = 16 * np.finfo(float).eps


def orbit(
    b: MultivectorLike, x: MultivectorLike
) -> Tuple[Multivector, Multivector, Multivector]:
    """Closed form (A0, Ac, As) of the orbit of x under exp(-t/2 * b).

    For b**2 = -1 the sandwich exp(-t/2 b) x exp(t/2 b) is exactly
    A0 + Ac cos t + As sin t, with A0 = (x - bxb)/2 the part of x that
    commutes with b, Ac = (x + bxb)/2 the part that anticommutes with it
    and As = (xb - bx)/2.  The generator is checked once: grade 2,
    b.b = -1 within tolerance and simple (the Plucker check of a scene's
    el3 lines); AlgebraError (NonSimpleBivector for the last) names the
    condition that failed.
    """
    b, x = as_multivector(b), as_multivector(x)
    b._check(x)
    eps = epsilon()
    g = b.grades()
    if g != (2,):
        raise AlgebraError(f"orbit generator must be grade 2, got grades {g}")
    square = inner(b, b).scalar_part
    if abs(square + 1.0) > max(eps, _UNIT_ROUNDING):
        raise AlgebraError(f"orbit generator must be unit: b.b = {square!r}, not -1")
    if not is_simple_bivector(b):
        raise NonSimpleBivector(
            f"orbit generator must be simple: plucker residual "
            f"{plucker_residual(b):.3e} exceeds tolerance {eps:.1g}"
        )
    bx = geometric_product(b, x)
    xb = geometric_product(x, b)
    bxb = geometric_product(bx, b)
    return (x - bxb) * 0.5, (x + bxb) * 0.5, (xb - bx) * 0.5


# ---------------------------------------------------------------------------
# JSON coefficient form


def to_coeff_dict(a: MultivectorLike) -> Dict[str, float]:
    """{"name": coefficient} in display names; exact zeros omitted."""
    a = as_multivector(a)
    t = _TABLES[a.space]
    signed = (t.name_signs * a.coeffs).tolist()
    return {name: c for name, c in zip(t.names, signed) if c != 0.0}


def to_json_dict(a: MultivectorLike) -> Dict[str, object]:
    a = as_multivector(a)
    return {"space": a.space.value, "coeffs": to_coeff_dict(a)}


def from_coeff_dict(space: Space, coeffs: Mapping[str, float]) -> Multivector:
    """Inverse of to_coeff_dict; unknown keys are rejected."""
    if not isinstance(coeffs, Mapping):
        raise ValueError("coeffs must be an object of blade name -> number")
    for k, v in coeffs.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"coefficient of {k!r} must be a number")
        if not abs(v) <= sys.float_info.max:
            raise ValueError(f"coefficient of {k!r} must be a finite number")
    return Multivector.from_terms(space, coeffs)


def from_json_dict(obj: Mapping[str, object]) -> Multivector:
    space = Space.from_tag(obj.get("space"))
    return from_coeff_dict(space, obj.get("coeffs", {}))
