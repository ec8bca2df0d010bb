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
every slot of another grade holds +-0.  One member deals in arrays and
imports numpy when called: ``Multivector.coeffs`` (a fresh read-only
array).  The public constructor takes any flat iterable of real numbers.

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


class Record:
    """Immutable value whose fields are its __slots__: field equality, hash and
    repr, and AttributeError on assignment.  A subclass's __init__ sets the
    fields with object.__setattr__, or all at once in slot order with _fill."""

    __slots__ = ()

    def _fill(self, *values) -> "Record":
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __getstate__(self) -> tuple:       # copy and pickle
        return self._values()

    def __setstate__(self, values: tuple) -> None:
        self._fill(*values)


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
    if not (digits.isascii() and digits.isdigit()):
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
        # grade k's part: slot u where u has grade k, else the 0.0 appended at index n
        self.grade_picks = {k: operator.itemgetter(*[u if g[u] == k else n for u in range(n)])
                            for k in range(dim + 1)}
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
        try:
            if getattr(coeffs, "ndim", 1) != 1:     # an array of another shape
                raise TypeError(f"got an array of shape {coeffs.shape}")
            c = tuple(map(float, coeffs))
        except TypeError as e:                     # a nested sequence, say
            raise ValueError(f"{space.value} multivector coefficients must be real numbers: {e}")
        if len(c) != space.size:
            raise ValueError(f"{space.value} multivector needs {space.size} coefficients, "
                             f"got {len(c)}")
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
        """Build from {blade name: coefficient}; omitted blades are zero (from_coeff_dict)."""
        return from_coeff_dict(space, terms)

    # -- introspection -----------------------------------------------------

    @property
    def scalar_part(self) -> float:
        return self._c[0]

    @property
    def pseudo_part(self) -> float:
        return self._c[-1]

    def coeff(self, name: str) -> float:
        """Coefficient of a named blade (permutation sign applied)."""
        hit = _TABLES[self._space].name_to_slot.get(name)
        if hit is None:
            _refuse_name(self._space, name)
        return hit[1] * self._c[hit[0]]

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


def _refuse_name(space: Space, name: object) -> None:
    """Raise ValueError for a name outside the space's name table, saying why."""
    if isinstance(name, str) and name.startswith("e"):
        _parse_indices(name, space.dim)      # raises for a repeated or out-of-range index
    raise ValueError(f"invalid blade name {name!r}")


def format_terms(a: Multivector) -> str:
    """Human-readable term list in display names, 12 significant digits."""
    t = _TABLES[a._space]
    parts = []
    for name, sign, x in zip(t.names, t.name_signs, a._c):
        c = sign * x
        if c == 0.0:
            continue
        val = f"{c:.12g}"
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
    pick = _TABLES[a._space].grade_picks.get(k)
    if pick is None:
        return Multivector.zero(a._space)
    return _new(a._space, pick(a._c + (0.0,)), a._mask & (1 << k))


def coeff_norm(a: MultivectorLike) -> float:
    """sqrt(<a ~a>_0) by math.hypot, which squares nothing: norm without its El3 check."""
    return math.hypot(*as_multivector(a)._c)


def plucker_residual(a: MultivectorLike) -> float:
    """Simplicity defect of a grade-2 element: pseudoscalar part of (a^a)/2.

    In El3 this equals -(p10*p23 + p20*p31 + p30*p12) and vanishes exactly on
    lines.  Grade-2 elements of El1/El2 are always simple (the wedge square
    cannot reach grade 4), so the residual is zero there.
    """
    a = as_multivector(a)
    return outer(a, a).pseudo_part / 2.0


def _scaled_down(a: Multivector) -> Tuple[Multivector, int]:
    """(a times 2**-e, e), e the binary exponent of its largest coefficient:
    for an a whose squares overflow or underflow, exact and direction-preserving."""
    e = math.frexp(max(map(abs, a._c)))[1]
    return _new(a._space, tuple([math.ldexp(x, -e) for x in a._c]), a._mask), e


def _halves(b: Multivector) -> tuple:
    """(C, D, c, d) of a grade-2 El3 b: its self-dual half C = (p10 + p23, p20 + p31,
    p30 + p12)/2 (I swaps e10 <-> e23, e20 <-> e31, e30 <-> e12), its anti-self-dual
    half D = (p23 - p10, p31 - p20, p12 - p30)/2 and their lengths, halved once more
    if they overflow.  |b|**2 = 2(c**2 + d**2), plucker_residual(b) = d**2 - c**2."""
    _, _, _, m01, _, m02, p12, _, _, m03, m13, _, p23, _, _, _ = b._c   # p10 = -m01, ...
    C = (0.5 * p23 - 0.5 * m01, -0.5 * m02 - 0.5 * m13, 0.5 * p12 - 0.5 * m03)
    D = (0.5 * p23 + 0.5 * m01, 0.5 * m02 - 0.5 * m13, 0.5 * p12 + 0.5 * m03)
    c, d = math.hypot(*C), math.hypot(*D)
    if max(c, d) == math.inf:                   # coefficients beyond ~1e308
        c, d = math.hypot(*[0.5 * x for x in C]), math.hypot(*[0.5 * x for x in D])
    return C, D, c, d


def _plucker(c: float, d: float) -> float:
    """The simple test's value: plucker_residual/|b|**2, (d**2 - c**2)/(2(c**2 + d**2))."""
    r = min(c, d) / max(c, d) if c != d else 1.0
    return math.copysign((1.0 - r) * (1.0 + r) / (2.0 * (1.0 + r * r)), d - c)


def _simple(c: float, d: float) -> bool:
    """The simple (Plucker) test: |plucker_residual| <= eps |b|**2."""
    return abs(_plucker(c, d)) <= epsilon()


def _clifford(c: float, d: float) -> bool:
    """The Clifford test, I b = +-b within tolerance: 2 min(c, d) <= eps hypot(c, d)."""
    r = min(c, d) / max(c, d) if c or d else 0.0
    return 2.0 * r <= epsilon() * math.hypot(1.0, r)


def is_simple_bivector(a: MultivectorLike) -> bool:
    """Plucker condition, relative to the squared coefficient norm."""
    a = as_multivector(a)       # every El1/El2 bivector is simple
    return a._space is not Space.EL3 or _simple(*_halves(a)[2:])


def is_clifford_bivector(a: MultivectorLike) -> bool:
    """True when a is an El3 bivector (or zero) with I*a = +-a within tolerance."""
    a = as_multivector(a)
    return a._space is Space.EL3 and a.grades() in ((), (2,)) and _clifford(*_halves(a)[2:])


_LOW, _HIGH = 2.0 ** -240, 2.0 ** 240    # a ratio squares products of two: 4 * 240 < 1022


def _norm(a: Multivector) -> Tuple[Multivector, float, int]:
    """(a * 2**-e, its norm, e): e = 0 when the norm lies in (_LOW, _HIGH), and
    otherwise a is scaled by _scaled_down, exactly.  ZeroInput for a zero a."""
    n = coeff_norm(a)
    if _LOW < n < _HIGH:
        return a, n, 0
    a, e = _scaled_down(a)
    n = coeff_norm(a)
    if not n:
        raise ZeroInput("cannot normalise a zero element")
    return a, n, e


def _normable(a: MultivectorLike) -> Multivector:
    """a, which must have a norm: a grade-2 El3 a must be simple or Clifford."""
    a = as_multivector(a)
    if a._space is Space.EL3 and a.grades() == (2,):
        _, _, c, d = _halves(a)
        if not (_simple(c, d) or _clifford(c, d)):
            raise NonSimpleBivector(f"norm undefined: plucker residual {_plucker(c, d):.3e}")
    return a


def _scaled(a: MultivectorLike) -> Tuple[Multivector, float, int]:
    """_norm of an a that has a norm (_normable): normalized's first step."""
    return _norm(_normable(a))


def norm(a: MultivectorLike) -> float:
    """Blade/versor norm sqrt(<a ~a>_0): coeff_norm, the hypot of the coefficients.

    Equals the Euclidean coefficient norm on blades.  A grade-2 element of
    El3 must satisfy the Plucker condition or be a Clifford bivector;
    otherwise the notion of a line norm does not apply and
    NonSimpleBivector is raised.  No square is formed, so nothing is
    rescaled: norm(a * 2**k) is 2**k * norm(a) while both are normal floats.
    """
    return coeff_norm(_normable(a))


def normalized(a: MultivectorLike) -> Multivector:
    """a / norm(a); raises ZeroInput only when every coefficient is zero.

    Outside the band of _norm, a is first scaled by a power of two, which is
    exact and leaves the direction alone.
    """
    a, n, _ = _scaled(a)
    return a * (1.0 / n)


def inverse_blade(a: MultivectorLike) -> Multivector:
    """Inverse of a blade or versor: ~a / <a ~a>_0.

    Raises NonInvertible when a * ~a is not a nonzero scalar (for example
    1 + I in El3, a zero divisor).  When that sum of squares s leaves
    (_LOW**2, _HIGH**2), the square of _norm's band, a is first scaled by a
    power of two (_scaled_down) and the inverse scaled back, both exactly.
    """
    a = as_multivector(a)
    eps = epsilon()
    rev = reverse(a)
    m = shown = geometric_product(a, rev)
    s, e = m.scalar_part, 0                  # the sum of squares
    if not _LOW * _LOW < s < _HIGH * _HIGH and any(a._c):
        a, e = _scaled_down(a)
        rev = reverse(a)
        m = geometric_product(a, rev)
        s = m.scalar_part
    if abs(s) <= eps * s or math.hypot(*m._c[1:]) > eps * s:
        raise NonInvertible(f"no blade inverse: a*~a = {format_terms(shown)}")
    inv = rev * (1.0 / s)
    return _new(inv._space, tuple([math.ldexp(x, -e) for x in inv._c]), inv._mask) if e else inv


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
        if math.hypot(unit[0] - 1.0, *unit[1:]) > self._UNIT_TOL:
            raise AlgebraError("spinor must satisfy S ~S = 1")
        object.__setattr__(self, "mv", mv)

    def __setattr__(self, name, value):
        raise AttributeError("Spinor is immutable")

    @property
    def space(self) -> Space:
        return self.mv.space

    def apply(self, x: MultivectorLike) -> Multivector:
        """Sandwich action S x S**-1 (= S x ~S).

        A motion keeps grade: when x has the single grade k, so has the
        result, and the rounding left in other grades is dropped.  An x of
        several grades gets the full sandwich.
        """
        x = as_multivector(x)
        moved = geometric_product(geometric_product(self.mv, x), reverse(self.mv))
        mask = x._mask
        return grade(moved, mask.bit_length() - 1) if mask and not mask & (mask - 1) else moved

    def __mul__(self, other: "Spinor") -> "Spinor":
        return _spinor(geometric_product(self.mv, other.mv))

    def __repr__(self) -> str:
        return f"Spinor({self.space.value}: {format_terms(self.mv)})"


def _spinor(mv: Multivector) -> Spinor:
    """Spinor over a value that is even and unit by construction, unchecked."""
    s = _object_new(Spinor)
    object.__setattr__(s, "mv", mv)
    return s


def _sinc(x: float) -> float:
    """sin(x)/x, 1 at x = 0."""
    return math.sin(x) / x if x else 1.0


def _from_halves(C: tuple, D: tuple, s: float = 0.0, p: float = 0.0, mask: int = 0b100):
    """The El3 element s + (bivector of self-dual half C, anti-self-dual half D) + p I."""
    (cx, cy, cz), (dx, dy, dz) = C, D
    # C = cx (e10 + e23) + cy (e20 + e31) + cz (e30 + e12), D = dx (e23 - e10) + ...
    return _new(Space.EL3, (s, 0.0, 0.0, dx - cx, 0.0, dy - cy, cz + dz, 0.0,
                            0.0, dz - cz, -(cy + dy), 0.0, cx + dx, 0.0, 0.0, p), mask)


def axis_split(b: Multivector):
    """Split an El3 bivector into complementary commuting parts.

    Returns (b1, b2, degenerate), deciding on the lengths c, d of b's
    self-dual and anti-self-dual halves C, D (_halves).  Simple input gives
    b1 = b, b2 = 0.  When b is Clifford, or within sqrt(tolerance) of it, the
    split is not unique or ill-conditioned, and the origin line and its polar
    come back with degenerate = True.  Otherwise the axes are the closed forms
    b1 = ((c + d)/2)(C/c + D/d), the larger, and b2 = ((c - d)/2)(C/c - D/d)
    (Roelfs & De Keninck, arXiv:2107.03771), which scale with b bit for bit.
    """
    C, D, c, d = _halves(b)
    if _simple(c, d):
        return b, Multivector.zero(b.space), False
    r = min(c, d) / max(c, d)
    if 2.0 * r <= math.sqrt(epsilon()) * (1.0 + r * r):
        b1 = Multivector.from_terms(b.space, {n: b.coeff(n) for n in ("e23", "e31", "e12")})
        return b1, b - b1, True
    s, t = 0.5 * c + 0.5 * d, 0.5 * c - 0.5 * d
    u, v = [x / c for x in C], [x / d for x in D]       # the unit halves C/c, D/d
    return (_from_halves([s * x for x in u], [s * x for x in v]),
            _from_halves([t * x for x in u], [-t * x for x in v]), False)


def _angle(x: float, name: str) -> float:
    """A rotation angle of exp_bivector; one that overflowed is refused by name."""
    if x == math.inf:
        raise AlgebraError(f"exp_bivector: the rotation angle {name} overflows")
    return x


def _exp_halves(C: tuple, D: tuple, c: float, d: float) -> Multivector:
    """exp(b) = cos k P+ + cos l P- + (sin k/k) C + (sin l/l) D from b's halves
    (_halves), with P+- = (1 +- I)/2, k = 2c and l = 2d: C and D commute,
    C**2 = -k**2 P+ and D**2 = -l**2 P- (Roelfs & De Keninck, arXiv:2107.03771)."""
    k, l = _angle(2.0 * c, "2|C|"), _angle(2.0 * d, "2|D|")
    ck, cl, sk, sl = math.cos(k), math.cos(l), _sinc(k), _sinc(l)
    return _from_halves([sk * x for x in C], [sl * x for x in D],
                        0.5 * (ck + cl), 0.5 * (ck - cl), 0b10101)


def exp_bivector(b: MultivectorLike) -> Spinor:
    """Exponential of a grade-2 element, as a unit spinor.

    In El1/El2 a bivector squares to -|b|**2, so exp(b) = cos|b| + (sin|b|/|b|) b.
    In El3 exp(b) is the closed form of b's self-dual and anti-self-dual
    halves (_exp_halves), which a simple bivector (c = d) reduces to the
    same cos/sinc form, and an exactly Clifford one (c or d zero) takes with
    sin x/x = 1 at x = 0.  The lengths come from math.hypot, so nothing is
    squared; an angle beyond the float range raises AlgebraError naming it.
    The result is unit by construction and is not checked again.
    """
    b = as_multivector(b)
    g = b.grades()
    if g not in ((), (2,)):
        raise AlgebraError(f"exp_bivector needs a grade-2 argument, got grades {g}")
    if b.space is Space.EL3:
        return _spinor(_exp_halves(*_halves(b)))
    theta = _angle(coeff_norm(b), "|b|")
    return _spinor(Multivector.scalar(b.space, math.cos(theta)) + b * _sinc(theta))


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
            f"{_plucker(*_halves(b)[2:]):.3e} exceeds tolerance {eps:.1g}"
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
    t = _TABLES[a._space]
    return {name: sign * c for name, sign, c in zip(t.names, t.name_signs, a._c) if c}


def to_json_dict(a: MultivectorLike) -> Dict[str, object]:
    a = as_multivector(a)
    return {"space": a._space._value_, "coeffs": to_coeff_dict(a)}


_FLOAT_MAX = sys.float_info.max


def from_coeff_dict(space: Space, coeffs: Mapping[str, float]) -> Multivector:
    """Inverse of to_coeff_dict, in one pass over the items.

    Names may list a blade's indices in any order ("e21" is -"e12") and
    "I" names the pseudoscalar, but each blade may be named once.  A value
    that is not a finite number raises ValueError naming its key; then an
    unknown name raises naming it, and a second name for a blade naming
    both spellings.
    """
    if type(coeffs) is not dict and not isinstance(coeffs, Mapping):
        raise ValueError("coeffs must be an object of blade name -> number")
    t = _TABLES[space]
    lookup, grades = t.name_to_slot.get, t.grades
    c = [0.0] * t.size
    mask = named = 0            # grade mask; bit s of named: slot s has a name
    for name, v in coeffs.items():
        if type(v) is not float and (not isinstance(v, (int, float)) or isinstance(v, bool)):
            raise ValueError(f"coefficient of {name!r} must be a number")
        if not -_FLOAT_MAX <= v <= _FLOAT_MAX:
            raise ValueError(f"coefficient of {name!r} must be a finite number")
        hit = lookup(name)
        if hit is None:
            continue
        slot = hit[0]
        named |= 1 << slot
        c[slot] = hit[1] * float(v) + 0.0      # + 0.0: a zero loads as +0.0, whatever its sign
        mask |= 1 << grades[slot]
    if named.bit_count() != len(coeffs):      # an unknown name, or a blade named twice
        for name in coeffs:
            if lookup(name) is None:
                _refuse_name(space, name)
        seen: Dict[int, str] = {}
        for name in coeffs:
            first = seen.setdefault(lookup(name)[0], name)
            if first != name:
                raise ValueError(f"{first!r} and {name!r} name the same blade")
    return _new(space, tuple(c), mask)


def from_json_dict(obj: Mapping[str, object]) -> Multivector:
    space = Space.from_tag(obj.get("space"))
    return from_coeff_dict(space, obj.get("coeffs", {}))
