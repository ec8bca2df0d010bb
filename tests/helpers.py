"""Shared factories and assertion helpers for the test suite."""

import math

import numpy as np

from elga import el2
from elga.algebra import (
    Multivector,
    Space,
    as_multivector,
    coeff_norm,
    epsilon,
    exp_bivector,
    geometric_product,
    grade,
    inner,
    inverse_blade,
    normalized,
    orbit,
    regressive,
)

def rand_mv(space, rng, scale=1.0):
    return Multivector(space, scale * rng.standard_normal(space.size))


def rand_blade_coeffs(space, k, rng):
    """Random element of pure grade k (not necessarily a blade for k=2 el3)."""
    full = rand_mv(space, rng)
    return grade(full, k)


def rand_point(space, rng):
    """Random normalised point (top-grade element of the space)."""
    k = {Space.EL1: 1, Space.EL2: 2, Space.EL3: 3}[space]
    return normalized(rand_blade_coeffs(space, k, rng))


def rand_line_el2(rng):
    return normalized(rand_blade_coeffs(Space.EL2, 1, rng))


def rand_plane_el3(rng):
    return normalized(rand_blade_coeffs(Space.EL3, 1, rng))


def rand_line_el3(rng):
    """Random normalised line, as the join of two random points."""
    while True:
        p, q = rand_point(Space.EL3, rng), rand_point(Space.EL3, rng)
        join = regressive(p, q)
        if coeff_norm(join) > 1e-3:
            return normalized(join)


def seed_projection_on_line(line):
    """el3.point_on_line by Multivector products: the projection (P.L) L**-1
    of the first seed P of e123, e320, e130, e210 longer than 1e-6, normalised."""
    for seed in ("e123", "e320", "e130", "e210"):
        foot = geometric_product(inner(Multivector.basis(Space.EL3, seed), line),
                                 inverse_blade(line))
        if coeff_norm(foot) > 1e-6:
            return normalized(foot)


def rand_bivector_el3(rng, max_norm=2.0):
    b = rand_blade_coeffs(Space.EL3, 2, rng)
    return b * (rng.uniform(0.05, max_norm) / coeff_norm(b))


def rand_spinor(space, rng, max_angle=2.0):
    if space is Space.EL1:
        gen = Multivector.from_terms(space, {"e01": rng.uniform(-max_angle, max_angle)})
    elif space is Space.EL2:
        gen = rand_blade_coeffs(space, 2, rng)
        gen = gen * (rng.uniform(0.05, max_angle) / coeff_norm(gen))
    else:
        gen = rand_bivector_el3(rng, max_angle)
    return exp_bivector(gen)


def mv_diff(a, b):
    a, b = as_multivector(a), as_multivector(b)
    return float(np.max(np.abs(a.coeffs - b.coeffs)))


def assert_mv_close(a, b, tol=1e-12):
    d = mv_diff(a, b)
    assert d <= tol, f"multivectors differ by {d:.3e} (> {tol:.1e})"


def assert_mv_close_up_to_sign(a, b, tol=1e-12):
    a, b = as_multivector(a), as_multivector(b)
    d = min(float(np.max(np.abs(a.coeffs - b.coeffs))),
            float(np.max(np.abs(a.coeffs + b.coeffs))))
    assert d <= tol, f"multivectors differ (either sign) by {d:.3e}"


def exp_power_series(b, terms=20):
    """Truncated power-series exponential, the independent oracle."""
    b = as_multivector(b)
    acc = Multivector.scalar(b.space, 1.0)
    term = Multivector.scalar(b.space, 1.0)
    for k in range(1, terms):
        term = geometric_product(term, b) * (1.0 / k)
        acc = acc + term
    return acc


def blade_product_bruteforce(a_indices, b_indices):
    """Sign and index set of e_A e_B by explicit transposition counting.

    Independent of the kernel's popcount tables: bubble-sorts the
    concatenated index sequence, flipping the sign per adjacent swap and
    cancelling equal neighbours with metric +1.
    """
    seq = list(a_indices) + list(b_indices)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(seq) - 1:
            if seq[i] == seq[i + 1]:
                del seq[i:i + 2]
                changed = True
                i = max(i - 1, 0)
            elif seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
                i += 1
            else:
                i += 1
    return sign, tuple(seq)


def bits_of(index):
    return tuple(i for i in range(8) if index >> i & 1)


def classify_circle_by_orbit(r, p):
    """The orbit rule el2.classify_circle used before its two-distance form.

    The e12 coefficient along the trajectory is c + a cos t + b sin t, read
    off the closed-form orbit; |c| against hypot(a, b) counts its roots in
    [0, 2 pi): none elliptic, one (within eps) parabolic, two hyperbolic.
    """
    eps = epsilon()
    rn, pn = normalized(r), normalized(p)
    radius = el2.distance_pp(rn, pn)
    if abs(radius - math.pi / 2) <= eps:
        return el2.CircleKind.LINE
    if radius <= eps:
        return el2.CircleKind.ELLIPTIC
    c, a, b = (term.coeff("e12") for term in orbit(rn, pn))
    amp = math.hypot(a, b)
    if abs(abs(c) - amp) <= eps:
        return el2.CircleKind.PARABOLIC
    return el2.CircleKind.ELLIPTIC if abs(c) > amp else el2.CircleKind.HYPERBOLIC
