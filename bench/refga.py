"""Naive reference Clifford algebra for the benchmark's generator and gate.

Written blade by blade and independent of elga's table kernel: a
multivector is a dict {sorted index tuple: coefficient}, and each product
loops over every pair of basis blades, bubble-sorting the concatenated
indices.  The benchmark uses it to build inputs and to check outputs,
never to produce them.

Geometry is read off blades as subspaces of R^(n+1): a grade-k blade of
Cl(n) spans a k-dimensional "attitude" (the vectors v with v ^ X = 0),
and the elliptic object it names is the orthogonal complement.  Elliptic
distances and angles are principal angles between those subspaces.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

DIMS = {"el1": 2, "el2": 3, "el3": 4}

# The dual-coordinate display names of the README: points are
# w*e12 + x*e20 + y*e01 in el2 and w*e123 + x*e320 + y*e130 + z*e210 in el3.
DISPLAY = {
    "el1": ("e0", "e1", "e01"),
    "el2": ("e0", "e1", "e2", "e20", "e01", "e12", "e012"),
    "el3": ("e0", "e1", "e2", "e3", "e10", "e20", "e30", "e23", "e31", "e12",
            "e123", "e320", "e130", "e210", "e0123"),
}

Blade = Tuple[int, ...]
MV = Dict[Blade, float]


def sort_sign(indices: Sequence[int]) -> Tuple[Blade, int]:
    """Sorted indices and the sign of the permutation (bubble sort)."""
    seq = list(indices)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return tuple(seq), sign


_PRODUCTS: Dict[Tuple[Blade, Blade], Tuple[int, Blade]] = {}


def blade_product(a: Blade, b: Blade) -> Tuple[int, Blade]:
    """e_a e_b = sign * e_out, every basis vector squaring to +1."""
    key = (a, b)
    hit = _PRODUCTS.get(key)
    if hit is None:
        seq, sign = sort_sign(a + b)
        out = []
        for i in seq:
            if out and out[-1] == i:
                out.pop()
            else:
                out.append(i)
        hit = _PRODUCTS[key] = (sign, tuple(out))
    return hit


def parse_name(name: str, dim: int) -> Tuple[Blade, int]:
    """'e<digits>' (any order) or '1' -> sorted indices and sign."""
    if name == "1":
        return (), 1
    digits = [int(ch) for ch in name[1:]]
    if not name.startswith("e") or not digits or len(set(digits)) != len(digits) \
            or max(digits) >= dim:
        raise ValueError(f"bad blade name {name!r}")
    return sort_sign(digits)


def from_coeffs(space: str, coeffs: Mapping[str, float]) -> MV:
    dim = DIMS[space]
    out: MV = {}
    for name, value in coeffs.items():
        blade, sign = parse_name(name, dim)
        out[blade] = out.get(blade, 0.0) + sign * float(value)
    return out


def to_coeffs(space: str, mv: MV) -> Dict[str, float]:
    """Display-name coefficient dict, exact zeros omitted."""
    dim = DIMS[space]
    out = {}
    if mv.get((), 0.0) != 0.0:
        out["1"] = float(mv[()])
    for name in DISPLAY[space]:
        blade, sign = parse_name(name, dim)
        c = mv.get(blade, 0.0)
        if c != 0.0:
            out[name] = float(sign * c)
    return out


# -- arithmetic -------------------------------------------------------------


def add(a: MV, b: MV, scale_b: float = 1.0) -> MV:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + scale_b * v
    return out


def scale(a: MV, s: float) -> MV:
    return {k: s * v for k, v in a.items()}


def _product(a: MV, b: MV, keep) -> MV:
    out: MV = {}
    for ka, va in a.items():
        if va == 0.0:
            continue
        for kb, vb in b.items():
            if vb == 0.0 or not keep(ka, kb):
                continue
            sign, k = blade_product(ka, kb)
            out[k] = out.get(k, 0.0) + sign * va * vb
    return out


def gp(a: MV, b: MV) -> MV:
    return _product(a, b, lambda ka, kb: True)


def outer(a: MV, b: MV) -> MV:
    return _product(a, b, lambda ka, kb: not set(ka) & set(kb))


def inner(a: MV, b: MV) -> MV:
    """Grade |k - l| part of each pair of basis blades, scalar included."""
    def keep(ka, kb):
        return len(set(ka) ^ set(kb)) == abs(len(ka) - len(kb))
    return _product(a, b, keep)


def commutator(a: MV, b: MV) -> MV:
    return scale(add(gp(a, b), gp(b, a), -1.0), 0.5)


def reverse(a: MV) -> MV:
    return {k: (-v if len(k) % 4 >= 2 else v) for k, v in a.items()}


def pseudo(space: str) -> MV:
    return {tuple(range(DIMS[space])): 1.0}


def dual_i(space: str, a: MV) -> MV:
    """Right multiplication by the unit pseudoscalar."""
    return gp(a, pseudo(space))


def regressive(space: str, a: MV, b: MV) -> MV:
    """J^-1(J(a) ^ J(b)) with J(x) = x I^-1."""
    i = pseudo(space)
    i_inv = scale(i, 1.0 / gp(i, i)[()])
    return gp(outer(gp(a, i_inv), gp(b, i_inv)), i)


def scalar(a: MV) -> float:
    return a.get((), 0.0)


def inverse(a: MV) -> MV:
    """Blade inverse ~a / <a ~a>_0."""
    rev = reverse(a)
    return scale(rev, 1.0 / scalar(gp(a, rev)))


def norm(a: MV) -> float:
    return math.sqrt(abs(scalar(gp(a, reverse(a)))))


def coeff_norm(a: MV) -> float:
    return math.sqrt(sum(v * v for v in a.values()))


def exp(b: MV, terms: int = 60) -> MV:
    """Power series sum b^k / k!, summed until the terms vanish."""
    acc: MV = {(): 1.0}
    term: MV = {(): 1.0}
    for k in range(1, terms):
        term = scale(gp(term, b), 1.0 / k)
        acc = add(acc, term)
        if coeff_norm(term) < 1e-18:
            break
    return acc


def grades(a: MV, tol: float = 1e-12) -> Tuple[int, ...]:
    top = max((abs(v) for v in a.values()), default=0.0)
    return tuple(sorted({len(k) for k, v in a.items() if abs(v) > tol * top}))


def close(got: MV, want: MV, tol: float = 1e-10) -> bool:
    """Coefficient-wise agreement, relative to the larger operand."""
    size = max(coeff_norm(got), coeff_norm(want), 1.0)
    keys = set(got) | set(want)
    return all(abs(got.get(k, 0.0) - want.get(k, 0.0)) <= tol * size for k in keys)


# -- blades as subspaces of R^(n+1) --------------------------------------------


def _complement(space: str, i: int) -> Tuple[int, Blade]:
    """(sign, blade C) with e_i ^ (sign * C) = +I."""
    dim = DIMS[space]
    rest = tuple(j for j in range(dim) if j != i)
    sign, _ = blade_product((i,), rest)
    return sign, rest


def point_blade(space: str, ray: Sequence[float]) -> MV:
    """The grade-(dim - 1) blade naming the point with homogeneous ray."""
    out: MV = {}
    for i, r in enumerate(ray):
        sign, blade = _complement(space, i)
        out[blade] = sign * float(r)
    return out


def ray(space: str, point: MV) -> np.ndarray:
    """Signed ray of a point blade: r_i = <e_i ^ P>_I (inverse of point_blade)."""
    full = tuple(range(DIMS[space]))
    return np.array([outer({(i,): 1.0}, point).get(full, 0.0)
                     for i in range(DIMS[space])])


def vector_blade(v: Sequence[float]) -> MV:
    return {(i,): float(c) for i, c in enumerate(v)}


def vector(a: MV, dim: int) -> np.ndarray:
    return np.array([a.get((i,), 0.0) for i in range(dim)])


def point_set(space: str, blade: MV) -> np.ndarray:
    """Orthonormal basis (columns) of the subspace a blade names."""
    dim = DIMS[space]
    k = grades(blade)[0]
    rows = [b for b in combinations(range(dim), k + 1)]
    m = np.zeros((len(rows), dim))
    for i in range(dim):
        wedge = outer({(i,): 1.0}, blade)
        for r, b in enumerate(rows):
            m[r, i] = wedge.get(b, 0.0)
    _, _, vt = np.linalg.svd(m)
    return vt[: dim - k].T


def ray_angle(x: np.ndarray, basis: np.ndarray) -> float:
    """Unoriented angle between a ray and a subspace, accurate near 0."""
    x = x / np.linalg.norm(x)
    inside = basis @ (basis.T @ x)
    return math.atan2(float(np.linalg.norm(x - inside)), float(np.linalg.norm(inside)))


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending principal angles between two subspaces (basis columns)."""
    s = np.linalg.svd(a.T @ b, compute_uv=False)
    return np.sort(np.arccos(np.clip(s, 0.0, 1.0)))


def oriented_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi] between two oriented normals."""
    c = float(u @ v) / float(np.linalg.norm(u) * np.linalg.norm(v))
    return math.acos(max(-1.0, min(1.0, c)))


def circle_terms(r: np.ndarray, p: np.ndarray) -> Tuple[float, float]:
    """(c, amplitude) of the weight c + a cos t + b sin t on an El2 orbit.

    The orbit of the ray p around the ray r is
    (p.r) r + cos t (p - (p.r) r) + sin t (r x p); its first component is
    the chart weight (the e12 coefficient).
    """
    r, p = r / np.linalg.norm(r), p / np.linalg.norm(p)
    along = (p @ r) * r
    return float(along[0]), math.hypot((p - along)[0], np.cross(r, p)[0])
