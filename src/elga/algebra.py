"""Clifford algebra kernel for the three elliptic model spaces.

Three fixed algebras are supported: Cl(2), Cl(3) and Cl(4), with every
basis vector squaring to +1.  The e0 direction is *not* degenerate, which
is what makes the resulting geometry elliptic rather than Euclidean.

Storage convention
------------------
Coefficients live in a tuple of 2**dim floats indexed by the
binary-subset order: bit i of the index corresponds to e_i, so in Cl(3)
index 0b101 holds the coefficient of e0e2 = e02 (ascending indices).
A grade mask rides along: bit k is set when grade k may be nonzero, and
every slot of another grade holds +-0.  Only the two members that deal in
arrays import numpy, when called: ``Multivector.coeffs`` (a fresh
read-only array) and the public constructor (from any array-like).

Products
--------
geometric_product, outer, inner and regressive run straight-line code
generated from the sign tables for each (space, product, mask of a,
mask of b) on first use, and equal the dense sums bit for bit (see
_generate).  The code cache is process-wide but depends on nothing else,
the tolerance included, so sharing it across threads is safe.

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
import operator
import sys
from collections.abc import Mapping
from typing import Dict, Iterable, Tuple, Union

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
    """Sign, grade and name tables of one space."""

    def __init__(self, space: Space):
        dim = space.dim
        n = space.size
        self.dim = dim
        self.size = n
        self.full = n - 1
        self.grades = g = tuple(_popcount(i) for i in range(n))
        gp = [[_merge_sign(a, b) for b in range(n)] for a in range(n)]
        outer_sign = [[s if not a & b else 0.0 for b, s in enumerate(row)]
                      for a, row in enumerate(gp)]
        inner_sign = [[s if g[a ^ b] == abs(g[a] - g[b]) else 0.0 for b, s in enumerate(row)]
                      for a, row in enumerate(gp)]
        # sign of blade pair (a, b) per product kind, 0 where the kind drops
        # it; regressive is the outer product of the j-mapped operands
        self.signs = (gp, outer_sign, inner_sign, outer_sign)
        # j_map(e_A) = e_A * I^-1 and j_map_inverse(e_A) = e_A * I are +-e_B
        # with B = A ^ full, the reverse slot order; signs by target slot B
        pseudo_sq = gp[self.full][self.full]  # I*I, a +/-1 scalar
        self.j_inv_signs = tuple(gp[b ^ self.full][self.full] for b in range(n))
        self.j_signs = tuple(s * pseudo_sq for s in self.j_inv_signs)
        self.reverse_signs = tuple(-1.0 if k % 4 >= 2 else 1.0 for k in g)
        self.parity_signs = tuple(-1.0 if k % 2 else 1.0 for k in g)
        # grade mask of the dual: grade k <-> dim - k
        self.dual_mask = tuple(sum(1 << (dim - k) for k in range(dim + 1) if m >> k & 1)
                               for m in range(1 << (dim + 1)))
        # name tables
        names = _DISPLAY_NAMES[space]
        self.names = names
        signs = [1.0]
        for i, nm in enumerate(names[1:], 1):
            indices, s = _parse_indices(nm, dim)
            assert sum(1 << k for k in indices) == i
            signs.append(s)
        self.name_signs = tuple(signs)
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
    """Graded coefficient tuple bound to one model space.

    Immutable: ``space`` is read-only, the coefficients are a tuple of
    floats (``coeffs`` returns them as a fresh read-only array), and all
    operations return new instances, so values can be shared freely
    across threads.  The grade mask has bit k set when grade k may be
    nonzero; the slots of every other grade hold +-0.
    """

    __slots__ = ("_space", "_c", "_mask")

    space = property(operator.attrgetter("_space"), doc="The model space.")

    def __init__(self, space: Space, coeffs: Iterable[float]):
        import numpy as np

        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (space.size,):
            raise ValueError(
                f"{space.value} multivector needs {space.size} coefficients, "
                f"got shape {arr.shape}"
            )
        c = tuple(arr.tolist())
        mask = 0
        for k, x in zip(_TABLES[space].grades, c):
            if x:
                mask |= 1 << k
        self._space = space
        self._c = c
        self._mask = mask

    @property
    def coeffs(self) -> "numpy.ndarray":
        """The coefficients as a new read-only float array."""
        import numpy as np

        arr = np.array(self._c, dtype=float)
        arr.flags.writeable = False
        return arr

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: Space) -> "Multivector":
        return _new(space, (0.0,) * space.size, 0)

    @classmethod
    def scalar(cls, space: Space, value: float) -> "Multivector":
        return _new(space, (float(value),) + (0.0,) * (space.size - 1), 1)

    @classmethod
    def basis(cls, space: Space, name: str) -> "Multivector":
        """Unit blade by name; any index permutation is accepted."""
        return cls.from_terms(space, {name: 1.0})

    @classmethod
    def from_terms(cls, space: Space, terms: Mapping[str, float]) -> "Multivector":
        """Build from {blade name: coefficient}; omitted blades are zero."""
        grades = _TABLES[space].grades
        c = [0.0] * space.size
        mask = 0
        for name, value in terms.items():
            slot, sign = _blade_slot(space, name)
            c[slot] += sign * float(value)
            mask |= 1 << grades[slot]
        return _new(space, tuple(c), mask)

    # -- introspection -----------------------------------------------------

    @property
    def scalar_part(self) -> float:
        return self._c[0]

    @property
    def pseudo_part(self) -> float:
        return self._c[-1]

    def coeff(self, name: str) -> float:
        """Coefficient of a named blade (permutation sign applied)."""
        slot, sign = _blade_slot(self._space, name)
        return sign * self._c[slot]

    def grades(self) -> Tuple[int, ...]:
        c, mask = self._c, self._mask
        if not mask & (mask - 1):           # at most one grade can be nonzero
            return (mask.bit_length() - 1,) if any(c) else ()
        cut = 1e-12 * max(map(abs, c))      # below: rounding left by cancelled grades
        g = _TABLES[self._space].grades
        return tuple(sorted({k for k, x in zip(g, c) if abs(x) > cut}))

    def pure_grade(self) -> int:
        """Grade of a homogeneous element; raises if mixed or zero."""
        g = self.grades()
        if len(g) != 1:
            raise AlgebraError(f"element is not of pure grade (grades {g})")
        return g[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._space is other._space and all(map(operator.eq, self._c, other._c))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Multivector({self._space.value}: {format_terms(self)})"

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Multivector") -> None:
        if self._space is not other._space:
            raise SpaceMismatch(
                f"cannot combine {self._space.value} with {other._space.value}"
            )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            c = list(self._c)
            c[0] += float(other)
            return _new(self._space, tuple(c), self._mask | 1)
        other = as_multivector(other)
        self._check(other)
        return _new(self._space, tuple(map(operator.add, self._c, other._c)),
                    self._mask | other._mask)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self + (-other)
        other = as_multivector(other)
        self._check(other)
        return _new(self._space, tuple(map(operator.sub, self._c, other._c)),
                    self._mask | other._mask)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _new(self._space, tuple(map(operator.neg, self._c)), self._mask)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return _new(self._space, tuple([x * s for x in self._c]), self._mask)
        return geometric_product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return geometric_product(other, self)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return _new(self._space, tuple([x / s for x in self._c]), self._mask)
        return geometric_product(self, inverse_blade(as_multivector(other)))

    def __xor__(self, other):
        return outer(self, other)

    def __or__(self, other):
        return inner(self, other)

    def __and__(self, other):
        return regressive(self, other)

    def __invert__(self):
        return reverse(self)


_object_new = object.__new__


def _new(space: Space, c: Tuple[float, ...], mask: int) -> Multivector:
    """Multivector over a coefficient tuple the kernel has just built, with a
    grade mask covering every nonzero slot, without the public constructor's
    conversion and checks."""
    mv = _object_new(Multivector)
    mv._space = space
    mv._c = c
    mv._mask = mask
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
    t = _TABLES[a._space]
    parts = []
    for name, sign, x in zip(t.names, t.name_signs, a._c):
        c = sign * x
        if c == 0.0:
            continue
        val = f"{c:.{precision}g}"
        parts.append(val if name == "1" else f"{val}*{name}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# ---------------------------------------------------------------------------
# products

_GP, _OUTER, _INNER, _REGRESSIVE = range(4)
_KIND_NAMES = ("geometric_product", "outer", "inner", "regressive")
# generated code and result mask per space and product key (see _product)
_KERNELS: Dict[Space, Dict[int, tuple]] = {s: {} for s in Space}


def _product(kind: int, a: MultivectorLike, b: MultivectorLike) -> Multivector:
    """The product kind of a and b, by the code for their grade masks."""
    if a.__class__ is not Multivector or b.__class__ is not Multivector:
        a, b = as_multivector(a), as_multivector(b)
    space = a._space
    if b._space is not space:
        a._check(b)
    key = kind << 10 | a._mask << 5 | b._mask      # masks have at most 5 bits
    try:
        code, mask = _KERNELS[space][key]
    except KeyError:
        code, mask = _KERNELS[space][key] = _generate(space, kind, a._mask, b._mask)
    return _new(space, code(a._c, b._c), mask)


def _generate(space: Space, kind: int, mask_a: int, mask_b: int):
    """Straight-line code of one product kind for one pair of grade masks.

    Slot u sums the terms of its blade pairs in the dense formula's order
    (left operand major), starting from +0.0.  Pairs the kind drops and
    pairs of grades outside the masks are left out: for finite operands
    their terms are +-0, which cannot change a sum that starts at +0.0, so
    the result is the dense sum bit for bit.  Regressive is the outer
    product of j_map(a) and j_map(b) under j_map_inverse; both signed
    permutations fold into the terms and the slot's sign, and a slot with
    no terms keeps that sign (-(0.0) is -0.0).  Returns the function and
    the grade mask of its results.
    """
    t = _TABLES[space]
    g = t.grades
    flip = t.full if kind == _REGRESSIVE else 0    # j_map's index permutation
    terms = [[] for _ in range(t.size)]
    read = {"a": set(), "b": set()}
    for i, row in enumerate(t.signs[kind]):
        ai = i ^ flip
        if not mask_a >> g[ai] & 1:
            continue
        for j, s in enumerate(row):
            bj = j ^ flip
            if s and mask_b >> g[bj] & 1:
                if flip:
                    s *= t.j_signs[i] * t.j_signs[j]
                terms[i ^ j ^ flip].append(f"{'-' if s < 0 else '+'} a{ai}*b{bj}")
                read["a"].add(ai)
                read["b"].add(bj)
    slots, mask = [], 0
    for u, ts in enumerate(terms):
        expr = " ".join(["0.0", *ts])
        if flip and t.j_inv_signs[u] < 0:
            expr = f"-({expr})"
        slots.append(expr)
        if ts:
            mask |= 1 << g[u]
    name = f"{_KIND_NAMES[kind]}_{space.value}_{mask_a}_{mask_b}"
    lines = [f"def {name}(a, b):"]
    for x, slots_read in read.items():              # unpack only what is read
        if slots_read:
            lines.append("    " + ", ".join(f"{x}{i}" if i in slots_read else "_"
                                            for i in range(t.size)) + f" = {x}")
    lines.append(f"    return ({', '.join(slots)},)")
    namespace: Dict[str, object] = {}
    exec("\n".join(lines), namespace)
    return namespace[name], mask


def geometric_product(a: MultivectorLike, b: MultivectorLike) -> Multivector:
    """Full Clifford product under the all-plus metric."""
    return _product(_GP, a, b)


def outer(a: MultivectorLike, b: MultivectorLike) -> Multivector:
    """Exterior (wedge) product: grade-raising antisymmetrised part."""
    return _product(_OUTER, a, b)


def inner(a: MultivectorLike, b: MultivectorLike) -> Multivector:
    """Metric dot: grade |k-l| part of each graded product, scalar included."""
    return _product(_INNER, a, b)


def regressive(a: MultivectorLike, b: MultivectorLike) -> Multivector:
    """Join: a v b = J**-1 ( J(a) ^ J(b) )."""
    return _product(_REGRESSIVE, a, b)


def commutator(a: MultivectorLike, b: MultivectorLike) -> Multivector:
    """a x b = (ab - ba)/2."""
    a, b = as_multivector(a), as_multivector(b)
    return (geometric_product(a, b) - geometric_product(b, a)) * 0.5


def j_map(a: MultivectorLike) -> Multivector:
    """Duality transformation, a * I**-1 (coordinate shuffle with sign)."""
    a = as_multivector(a)
    t = _TABLES[a._space]
    return _new(a._space, tuple(map(operator.mul, reversed(a._c), t.j_signs)),
                t.dual_mask[a._mask])


def j_map_inverse(a: MultivectorLike) -> Multivector:
    """Inverse duality transformation, a * I."""
    a = as_multivector(a)
    t = _TABLES[a._space]
    return _new(a._space, tuple(map(operator.mul, reversed(a._c), t.j_inv_signs)),
                t.dual_mask[a._mask])


def dual_I(a: MultivectorLike) -> Multivector:
    """Right-multiplication by the unit pseudoscalar (polar element)."""
    return j_map_inverse(a)


def reverse(a: MultivectorLike) -> Multivector:
    """Reversion: sign (-1)**(k(k-1)/2) on each grade k."""
    a = as_multivector(a)
    signs = _TABLES[a._space].reverse_signs
    return _new(a._space, tuple(map(operator.mul, a._c, signs)), a._mask)


def _involute(a: Multivector) -> Multivector:
    """Grade involution: sign (-1)**k on each grade k."""
    signs = _TABLES[a._space].parity_signs
    return _new(a._space, tuple(map(operator.mul, a._c, signs)), a._mask)


def grade(a: MultivectorLike, k: int) -> Multivector:
    """Projection onto grade k."""
    a = as_multivector(a)
    g = _TABLES[a._space].grades
    return _new(a._space, tuple([x if gi == k else 0.0 for gi, x in zip(g, a._c)]),
                a._mask & (1 << k))


def _sum_squares(c: Iterable[float]) -> float:
    """Sum of squares in slot order from +0.0: <a ~a>_0 of the product, bit for bit."""
    s = 0.0
    for x in c:
        s += x * x
    return s


def coeff_norm(a: MultivectorLike) -> float:
    """Euclidean norm of the coefficients: sqrt(<a ~a>_0), as norm without its El3 check."""
    return math.sqrt(_sum_squares(as_multivector(a)._c))


def plucker_residual(a: MultivectorLike) -> float:
    """Simplicity defect of a grade-2 element: pseudoscalar part of (a^a)/2.

    In El3 this equals p10*p23 + p20*p31 + p30*p12 and vanishes exactly on
    lines.  Grade-2 elements of El1/El2 are always simple (the wedge square
    cannot reach grade 4), so the residual is zero there.
    """
    a = as_multivector(a)
    return outer(a, a).pseudo_part / 2.0


def _scaled_down(a: Multivector) -> Multivector:
    """a times 2**-e, e the binary exponent of its largest coefficient: for
    an a whose squares overflow, exact and direction-preserving."""
    return a * math.ldexp(1.0, -math.frexp(max(map(abs, a._c)))[1])


def is_simple_bivector(a: MultivectorLike) -> bool:
    """Plucker condition, relative to the squared coefficient norm."""
    a = as_multivector(a)
    n2 = _sum_squares(a._c)
    if n2 == math.inf:
        a = _scaled_down(a)
        n2 = _sum_squares(a._c)
    return abs(plucker_residual(a)) <= epsilon() * max(n2, 1e-300)


def is_clifford_bivector(a: MultivectorLike) -> bool:
    """True when (a.a)**2 equals (a v a)**2 within tolerance (El3 only)."""
    a = as_multivector(a)
    if a._space is not Space.EL3:
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
    if a._space is Space.EL3 and a.grades() == (2,) and not (
        is_simple_bivector(a) or is_clifford_bivector(a)
    ):
        raise NonSimpleBivector(
            f"norm undefined: plucker residual {plucker_residual(a):.3e}"
        )
    return coeff_norm(a)


def normalized(a: MultivectorLike) -> Multivector:
    """a / norm(a); raises ZeroInput below tolerance.

    When the squares overflow, a is first scaled down by a power of two
    (_scaled_down), which is exact and leaves the direction alone.
    """
    a = as_multivector(a)
    n = norm(a)
    if n == math.inf:
        a = _scaled_down(a)
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
    s = m.scalar_part                        # the sum of squares, as in _sum_squares
    scale = max(s, 1e-300)
    if abs(s) <= eps * scale or math.sqrt(_sum_squares(m._c[1:])) > eps * scale:
        raise NonInvertible(f"no blade inverse: a*~a = {format_terms(m)}")
    return rev * (1.0 / s)


def canonicalize_sign(a: MultivectorLike) -> Multivector:
    """Flip sign so the highest-index non-negligible coefficient is positive.

    Only for equality-up-to-sign assertions; operations never apply this
    silently, since orientation is meaningful.
    """
    a = as_multivector(a)
    eps = epsilon()
    scale = max(map(abs, a._c))
    if scale == 0.0:
        return a
    for x in reversed(a._c):
        if abs(x) > eps * scale:
            return a if x > 0 else -a
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
        grades = _TABLES[mv.space].grades
        if any(abs(x) > self._UNIT_TOL for x, k in zip(mv._c, grades) if k % 2):
            raise AlgebraError("spinor must be even-graded")
        unit = geometric_product(mv, reverse(mv))._c
        if math.sqrt(_sum_squares((unit[0] - 1.0,) + unit[1:])) > self._UNIT_TOL:
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
        b1 = Multivector.from_terms(b.space, {n: b.coeff(n) for n in ("e23", "e31", "e12")})
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
_UNIT_ROUNDING = 16 * sys.float_info.epsilon


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
    return {name: sign * c for name, sign, c in zip(t.names, t.name_signs, a._c) if c != 0.0}


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
