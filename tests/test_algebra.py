"""Kernel tests: products against a brute-force oracle, duality, norms,
inverses, exponentials, JSON round-trips."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elga.algebra import (
    AlgebraError,
    Multivector,
    NonInvertible,
    NonSimpleBivector,
    Space,
    SpaceMismatch,
    Spinor,
    ZeroInput,
    canonicalize_sign,
    coeff_norm,
    commutator,
    dual_I,
    exp_bivector,
    from_coeff_dict,
    from_json_dict,
    geometric_product,
    grade,
    inner,
    inverse_blade,
    j_map,
    j_map_inverse,
    norm,
    normalized,
    orbit,
    outer,
    regressive,
    reverse,
    tables,
    to_coeff_dict,
    to_json_dict,
)
from elga import algebra, geometry
from elga.algebra import _parse_indices, axis_split
from helpers import (
    assert_mv_close,
    assert_mv_close_up_to_sign,
    bits_of,
    blade_product_bruteforce,
    exp_power_series,
    rand_blade_coeffs,
    rand_bivector_el3,
    rand_line_el3,
    rand_mv,
    rand_point,
    rand_spinor,
)

SPACES = (Space.EL1, Space.EL2, Space.EL3)
# Plucker residual 1e-4 against squared norm 2: simple at 1e-3, not at 1e-9.
NEAR_LINE = Multivector.from_terms(Space.EL3, {"e10": 1, "e23": 1e-4, "e20": 1})


def basis(space, name):
    return Multivector.basis(space, name)


# ---------------------------------------------------------------------------
# geometric product against the transposition-counting oracle


@pytest.mark.parametrize("space", SPACES)
def test_product_table_matches_bruteforce_oracle(space):
    n = space.size
    for a_idx in range(n):
        for b_idx in range(n):
            ea = Multivector(space, np.eye(n)[a_idx])
            eb = Multivector(space, np.eye(n)[b_idx])
            got = geometric_product(ea, eb)
            sign, result_indices = blade_product_bruteforce(
                bits_of(a_idx), bits_of(b_idx))
            expected_idx = sum(1 << i for i in result_indices)
            expected = np.zeros(n)
            expected[expected_idx] = sign
            assert np.array_equal(got.coeffs, expected), (a_idx, b_idx)


def test_metric_examples():
    e0 = basis(Space.EL1, "e0")
    assert_mv_close(geometric_product(e0, e0), Multivector.scalar(Space.EL1, 1.0))
    e01 = basis(Space.EL1, "e01")
    assert_mv_close(geometric_product(e01, e01), Multivector.scalar(Space.EL1, -1.0))
    # e1 * (-e0 sin a + e1 cos a) = cos a + e01 sin a  at a = pi/3
    alpha = math.pi / 3
    vec = Multivector.from_terms(Space.EL1, {"e0": -math.sin(alpha), "e1": math.cos(alpha)})
    expected = Multivector.from_terms(Space.EL1, {"1": math.cos(alpha), "e01": math.sin(alpha)})
    assert_mv_close(geometric_product(basis(Space.EL1, "e1"), vec), expected)


@pytest.mark.parametrize("space", SPACES)
def test_associativity_random(space, rng):
    for _ in range(100):
        a, b, c = (rand_mv(space, rng) for _ in range(3))
        left = geometric_product(geometric_product(a, b), c)
        right = geometric_product(a, geometric_product(b, c))
        assert_mv_close(left, right, 1e-12)


coeff_lists = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32),
    min_size=8, max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
def test_associativity_hypothesis(a, b, c):
    mva, mvb, mvc = (Multivector(Space.EL2, v) for v in (a, b, c))
    left = geometric_product(geometric_product(mva, mvb), mvc)
    right = geometric_product(mva, geometric_product(mvb, mvc))
    scale = max(coeff_norm(mva) * coeff_norm(mvb) * coeff_norm(mvc), 1.0)
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(a=coeff_lists, b=coeff_lists)
def test_reverse_antihomomorphism_hypothesis(a, b):
    mva, mvb = Multivector(Space.EL2, a), Multivector(Space.EL2, b)
    lhs = reverse(geometric_product(mva, mvb))
    rhs = geometric_product(reverse(mvb), reverse(mva))
    scale = max(coeff_norm(mva) * coeff_norm(mvb), 1.0)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * scale


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatch):
        geometric_product(basis(Space.EL1, "e0"), basis(Space.EL2, "e0"))
    with pytest.raises(SpaceMismatch):
        outer(basis(Space.EL1, "e0"), basis(Space.EL3, "e0"))


def _outer_product_formula(space):
    """Target slots and sign tables of the three products in np.outer layout,
    from the transposition-counting oracle."""
    idx = np.arange(space.size)
    target = idx[:, None] ^ idx
    gp = np.array([[blade_product_bruteforce(bits_of(i), bits_of(j))[0] for j in idx]
                   for i in idx], dtype=float)
    grades = np.array([len(bits_of(i)) for i in idx])
    signs = {
        geometric_product: gp,
        outer: np.where((idx[:, None] & idx) == 0, gp, 0.0),
        inner: np.where(grades[target] == abs(grades[:, None] - grades), gp, 0.0),
    }
    return target, signs


_OUTER_FORMULA = {space: _outer_product_formula(space) for space in SPACES}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_products_equal_the_outer_product_formula_bit_for_bit(data):
    space = data.draw(st.sampled_from(SPACES))
    coeffs = st.lists(st.floats(-1e3, 1e3), min_size=space.size, max_size=space.size)
    a, b = (Multivector(space, data.draw(coeffs)) for _ in range(2))
    target, signs = _OUTER_FORMULA[space]
    for product, sign in signs.items():
        old = np.bincount(target.ravel(), weights=(sign * np.outer(a.coeffs, b.coeffs)).ravel(),
                          minlength=space.size)
        assert product(a, b).coeffs.tobytes() == old.tobytes(), product.__name__


def _dense(product, space, a, b):
    """The dense numpy formula of a product: every blade pair, summed by bincount."""
    target, signs = _OUTER_FORMULA[space]
    return np.bincount(target.ravel(), weights=(signs[product] * np.outer(a, b)).ravel(),
                       minlength=space.size)


def _dense_j(space, a, inverse=False):
    """j_map (a * I**-1) or j_map_inverse (a * I) as a numpy signed permutation."""
    full = space.size - 1
    by_i = np.array([blade_product_bruteforce(bits_of(k), bits_of(full))[0]
                     for k in range(space.size)], dtype=float)
    pseudo_sq = blade_product_bruteforce(bits_of(full), bits_of(full))[0]
    out = np.empty(space.size)
    out[np.arange(space.size) ^ full] = (by_i if inverse else by_i * pseudo_sq) * a
    return out


_DENSE = {
    geometric_product: lambda s, a, b: _dense(geometric_product, s, a, b),
    outer: lambda s, a, b: _dense(outer, s, a, b),
    inner: lambda s, a, b: _dense(inner, s, a, b),
    regressive: lambda s, a, b: _dense_j(
        s, _dense(outer, s, _dense_j(s, a), _dense_j(s, b)), inverse=True),
    commutator: lambda s, a, b: (_dense(geometric_product, s, a, b)
                                 - _dense(geometric_product, s, b, a)) * 0.5,
}


@st.composite
def sparse_operands(draw, space):
    """A multivector whose grades outside a random subset hold signed zeros."""
    keep = draw(st.sets(st.integers(0, space.dim)))
    zero = st.sampled_from([0.0, -0.0])
    value = zero | st.floats(-1e3, 1e3)
    c = [draw(value if bin(k).count("1") in keep else zero) for k in range(space.size)]
    return Multivector(space, c)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_grade_patterns_equal_the_dense_formulas_bit_for_bit(data):
    space = data.draw(st.sampled_from(SPACES))
    a, b = (data.draw(sparse_operands(space)) for _ in range(2))
    for product, dense in _DENSE.items():
        got = product(a, b)
        assert got.coeffs.tobytes() == dense(space, a.coeffs, b.coeffs).tobytes(), product
        # a result's mask comes from the generated code; it must hold in turn
        again = product(got, a)
        assert again.coeffs.tobytes() == dense(space, got.coeffs, a.coeffs).tobytes(), product


def test_op_results_are_frozen_and_share_no_memory(rng):
    for space in SPACES:
        a, b = rand_mv(space, rng), rand_mv(space, rng)
        results = {
            "geometric_product": geometric_product(a, b), "outer": outer(a, b),
            "inner": inner(a, b), "commutator": commutator(a, b),
            "regressive": regressive(a, b), "j_map": j_map(a),
            "j_map_inverse": j_map_inverse(a), "reverse": reverse(a), "grade": grade(a, 1),
            "a + b": a + b, "a + 1": a + 1, "1 + a": 1 + a, "a - b": a - b, "a - 1": a - 1,
            "1 - a": 1 - a, "-a": -a, "2a": a * 2.0, "a2": 2.0 * a, "a / 2": a / 2.0,
            "zero": Multivector.zero(space), "scalar": Multivector.scalar(space, 2.0),
            "basis": Multivector.basis(space, "e1"),
            "from_terms": Multivector.from_terms(space, {"e0": 1.0}),
            "reflect": geometry.reflect(b, rand_blade_coeffs(space, 1, rng)),
        }
        if space is Space.EL3:
            b1, b2, _ = axis_split(rand_bivector_el3(rng))
            results.update({"axis_split b1": b1, "axis_split b2": b2})
        for name, r in results.items():
            assert not r.coeffs.flags.writeable, (space, name)
            assert not np.shares_memory(r.coeffs, a.coeffs), (space, name)
            assert not np.shares_memory(r.coeffs, b.coeffs), (space, name)


def test_public_constructor_copies_its_input():
    arr = np.arange(4.0)
    mv = Multivector(Space.EL1, arr)
    assert not np.shares_memory(mv.coeffs, arr) and not mv.coeffs.flags.writeable
    arr[0] = 9.0
    assert mv.coeffs[0] == 0.0


# ---------------------------------------------------------------------------
# outer / inner / commutator


def test_outer_nilpotent():
    e1 = basis(Space.EL2, "e1")
    assert coeff_norm(outer(e1, e1)) == 0.0


def test_inner_unit_point_value():
    p = normalized(Multivector.from_terms(Space.EL2, {"e12": 1, "e20": 1}))
    q = normalized(Multivector.from_terms(Space.EL2, {"e12": 1, "e01": 2}))
    assert abs(abs(inner(p, q).scalar_part) - 1 / math.sqrt(10)) < 1e-15


def test_commutator_antisymmetric(rng):
    for _ in range(20):
        b = rand_bivector_el3(rng)
        assert coeff_norm(commutator(b, b)) == 0.0


# ---------------------------------------------------------------------------
# regressive product and duality


def test_join_el2_worked_line():
    p = Multivector.from_terms(Space.EL2, {"e12": 1, "e20": 1})
    q = Multivector.from_terms(Space.EL2, {"e12": 1, "e01": 2})
    expected = Multivector.from_terms(Space.EL2, {"e0": -2, "e1": 2, "e2": 1})
    assert_mv_close(regressive(p, q), expected, 1e-14)


def test_join_el3_worked_line():
    p = Multivector.from_terms(Space.EL3, {"e123": 1, "e320": 1})
    q = Multivector.from_terms(Space.EL3, {"e123": 1, "e130": 1, "e210": 1 / 3})
    expected = Multivector.from_terms(Space.EL3, {
        "e20": -1 / 3, "e30": 1, "e23": 1, "e31": -1, "e12": -1 / 3})
    got = regressive(p, q)
    assert_mv_close_up_to_sign(normalized(got), normalized(expected), 1e-14)
    # the implementation reproduces the stated orientation exactly
    assert_mv_close(got, expected, 1e-14)


@pytest.mark.parametrize("space", SPACES)
def test_join_with_self_vanishes(space, rng):
    for _ in range(10):
        p = rand_point(space, rng)
        assert coeff_norm(regressive(p, p)) < 1e-14


def test_dual_examples():
    assert_mv_close(dual_I(basis(Space.EL1, "e0")), basis(Space.EL1, "e1"))
    a = Multivector.from_terms(Space.EL2, {"e0": -2, "e1": 2, "e2": 1})
    expected = Multivector.from_terms(Space.EL2, {"e12": -2, "e20": 2, "e01": 1})
    assert_mv_close(dual_I(a), expected)


def test_dual_involution_el3(rng):
    for _ in range(10):
        a = rand_mv(Space.EL3, rng)
        assert_mv_close(dual_I(dual_I(a)), a, 1e-14)


@pytest.mark.parametrize("space,rel_sign", [(Space.EL2, -1.0), (Space.EL3, 1.0)])
def test_j_map_matches_pseudoscalar_relation(space, rel_sign, rng):
    # el2: J(a) = -aI (since I**-1 = -I); el3: J(a) = aI (I**-1 = I)
    for _ in range(10):
        a = rand_mv(space, rng)
        assert_mv_close(j_map(a), dual_I(a) * rel_sign, 1e-14)


@pytest.mark.parametrize("space", SPACES)
def test_j_roundtrip_sign_is_per_grade_constant(space, rng):
    for k in range(space.dim + 1):
        # pin the sign on a basis blade, then every element of that grade
        # must round-trip with the same sign
        probe = Multivector(space, np.eye(space.size)[(1 << k) - 1])
        twice_probe = j_map(j_map(probe))
        sign = 1.0 if coeff_norm(twice_probe - probe) < 1e-13 else -1.0
        assert coeff_norm(twice_probe - probe * sign) < 1e-13
        for _ in range(10):
            g = grade(rand_mv(space, rng), k)
            twice = j_map(j_map(g))
            assert coeff_norm(twice - g * sign) < 1e-13 * max(coeff_norm(g), 1.0)


@pytest.mark.parametrize("space", SPACES)
def test_regressive_is_j_pullback(space, rng):
    for _ in range(10):
        a, b = rand_mv(space, rng), rand_mv(space, rng)
        direct = regressive(a, b)
        pullback = j_map_inverse(outer(j_map(a), j_map(b)))
        assert_mv_close(direct, pullback, 1e-13)


# ---------------------------------------------------------------------------
# reverse, grade, norm


def test_norm_worked_values():
    a = Multivector.from_terms(Space.EL2, {"e0": -2, "e1": 2, "e2": 1})
    assert abs(norm(a) - 3.0) < 1e-15
    assert abs(norm(basis(Space.EL3, "e123")) - 1.0) < 1e-15
    lam = Multivector.from_terms(Space.EL3, {
        "e20": -1 / 3, "e30": 1, "e23": 1, "e31": -1, "e12": -1 / 3})
    assert abs(norm(lam) - math.sqrt(29) / 3) < 1e-15


@pytest.mark.parametrize("space", SPACES)
def test_norm_equals_coefficient_norm_on_blades(space, rng):
    for k in range(space.dim + 1):
        for _ in range(5):
            b = grade(rand_mv(space, rng), k)
            if space is Space.EL3 and k == 2:
                b = rand_line_el3(rng) * rng.uniform(0.1, 3.0)
            assert abs(norm(b) - coeff_norm(b)) < 1e-12


def test_norm_rejects_nonsimple_bivector():
    bad = Multivector.from_terms(Space.EL3, {"e10": 1, "e23": 1, "e31": 2})
    with pytest.raises(NonSimpleBivector):
        norm(bad)


def test_norm_accepts_clifford_bivector():
    xi = Multivector.from_terms(Space.EL3, {"e10": 1, "e23": 1})
    assert abs(norm(xi) - math.sqrt(2)) < 1e-15


def test_sign_table(rng):
    for space in SPACES:
        for _ in range(30):
            a = normalized(grade(rand_mv(space, rng), 1))
            sq = geometric_product(a, a)
            assert abs(sq.scalar_part - 1.0) < 1e-12
            assert coeff_norm(sq - Multivector.scalar(space, sq.scalar_part)) < 1e-12
    for _ in range(30):
        lam = rand_line_el3(rng)
        assert abs(geometric_product(lam, lam).scalar_part + 1.0) < 1e-12
        p = rand_point(Space.EL3, rng)
        assert abs(geometric_product(p, p).scalar_part + 1.0) < 1e-12


@pytest.mark.parametrize("space", SPACES)
def test_norm_identity_points(space, rng):
    for _ in range(50):
        p, q = rand_point(space, rng), rand_point(space, rng)
        total = inner(p, q).scalar_part ** 2 + coeff_norm(regressive(p, q)) ** 2
        assert abs(total - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# inverses


def test_inverse_examples():
    assert_mv_close(inverse_blade(basis(Space.EL1, "e0")), basis(Space.EL1, "e0"))
    a = Multivector.from_terms(Space.EL3, {"e123": 2})
    inv = inverse_blade(a)
    assert_mv_close(inv, Multivector.from_terms(Space.EL3, {"e123": -0.5}))
    assert_mv_close(geometric_product(a, inv), Multivector.scalar(Space.EL3, 1.0))


def test_inverse_blade_times_blade_is_one(rng):
    for space in SPACES:
        for k in range(space.dim + 1):
            b = grade(rand_mv(space, rng), k)
            if space is Space.EL3 and k == 2:
                b = rand_line_el3(rng) * 2.3
            if coeff_norm(b) < 1e-6:
                continue
            assert_mv_close(
                geometric_product(b, inverse_blade(b)),
                Multivector.scalar(space, 1.0), 1e-12)


def test_one_plus_pseudoscalar_not_invertible():
    one_plus_i = Multivector.from_terms(Space.EL3, {"1": 1, "I": 1})
    with pytest.raises(NonInvertible):
        inverse_blade(one_plus_i)


def test_zero_divisor_identity(rng):
    plus = Multivector.from_terms(Space.EL3, {"1": 1, "I": 1})
    minus = Multivector.from_terms(Space.EL3, {"1": -1, "I": 1})
    assert coeff_norm(geometric_product(plus, minus)) == 0.0
    for _ in range(20):
        x = rand_mv(Space.EL3, rng)
        prod = geometric_product(geometric_product(x, plus), minus)
        assert coeff_norm(prod) < 1e-12 * max(coeff_norm(x), 1.0)


# ---------------------------------------------------------------------------
# exponentials and spinors


def test_exp_trivial_and_quarter_turn():
    s = exp_bivector(Multivector.zero(Space.EL2))
    assert_mv_close(s.mv, Multivector.scalar(Space.EL2, 1.0))
    s = exp_bivector(Multivector.from_terms(Space.EL1, {"e01": math.pi / 2}))
    assert_mv_close(s.mv, Multivector.basis(Space.EL1, "e01"), 1e-15)


def test_exp_matches_power_series(rng):
    worst = 0.0
    for _ in range(100):
        b = rand_bivector_el3(rng, 2.0)
        worst = max(worst, float(np.max(np.abs(
            exp_bivector(b).mv.coeffs - exp_power_series(b, 20).coeffs))))
    assert worst <= 1e-10


def test_exp_reverse_is_exp_of_negative(rng):
    for space in SPACES:
        for _ in range(20):
            s = rand_spinor(space, rng)
            unit = geometric_product(s.mv, reverse(s.mv))
            assert_mv_close(unit, Multivector.scalar(space, 1.0), 1e-12)
    for _ in range(20):
        b = rand_bivector_el3(rng)
        assert_mv_close(reverse(exp_bivector(b).mv), exp_bivector(-b).mv, 1e-12)


def test_spinor_validation():
    with pytest.raises(AlgebraError):
        Spinor(Multivector.basis(Space.EL2, "e0"))       # odd grade
    with pytest.raises(AlgebraError):
        Spinor(Multivector.scalar(Space.EL2, 2.0))       # not unit
    s = Spinor(Multivector.scalar(Space.EL2, 1.0))
    assert s.space is Space.EL2


def test_spinor_product_closure(rng):
    for space in SPACES:
        s = rand_spinor(space, rng)
        t = rand_spinor(space, rng)
        prod = s * t  # constructor re-validates S ~S = 1
        assert prod.space is space


def test_exp_requires_grade_two():
    with pytest.raises(AlgebraError):
        exp_bivector(Multivector.basis(Space.EL2, "e0"))


_GENERATORS = {
    "el2-point": lambda rng: rand_point(Space.EL2, rng),
    "el3-line": rand_line_el3,
    "el3-polar-line": lambda rng: dual_I(rand_line_el3(rng)),
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_GENERATORS)), seed=st.integers(0, 2**32 - 1),
       t=st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
def test_orbit_matches_per_sample_sandwich(kind, seed, t):
    rng = np.random.default_rng(seed)
    b = _GENERATORS[kind](rng)
    x = rand_mv(b.space, rng)
    a0, ac, as_ = orbit(b, x)
    sample = a0 + ac * math.cos(t) + as_ * math.sin(t)
    assert_mv_close(sample, exp_bivector(b * (-0.5 * t)).apply(x), 1e-12)


def test_orbit_rejects_bad_generators(rng):
    for _ in range(50):     # b.b of a normalised point is -1 only up to rounding
        with algebra.tolerance(1e-17):
            orbit(rand_point(Space.EL2, rng), rand_point(Space.EL2, rng))
    x = Multivector.basis(Space.EL3, "e123")
    with pytest.raises(AlgebraError, match="grade 2"):
        orbit(Multivector.basis(Space.EL3, "e1"), x)
    with pytest.raises(AlgebraError, match="unit"):
        orbit(Multivector.basis(Space.EL3, "e12") * 2.0, x)
    with pytest.raises(NonSimpleBivector, match="simple"):
        orbit(Multivector.from_terms(Space.EL3, {"e10": 0.6, "e23": 0.8}), x)


def test_coeff_norm_is_the_root_of_the_slot_order_sum_of_squares(rng):
    for scale in (1.0, 1e-160, 1e-200, 1e150, 1e200):   # 1e200 overflows to inf
        for space in SPACES:
            for _ in range(20):
                a = rand_mv(space, rng, scale)
                squares = 0.0
                for c in a.coeffs.tolist():
                    squares += c * c
                got = coeff_norm(a)
                assert got == math.sqrt(squares)
                with np.errstate(over="ignore"):
                    numpy_norm = float(np.linalg.norm(a.coeffs))
                assert got == numpy_norm or abs(got - numpy_norm) <= 4 * math.ulp(numpy_norm)
                for k in range(space.dim + 1):
                    blade = grade(a, k)
                    if space is Space.EL3 and k == 2:    # a line, within the Plucker check's range
                        blade = rand_line_el3(rng) * min(scale, 1e150)
                    assert norm(blade) == coeff_norm(blade), (space, k)


def test_name_table_holds_every_display_name_with_its_parsed_sign():
    for space in SPACES:
        t = tables(space)
        assert set(t.names) <= set(t.name_to_slot)
        for name, entry in t.name_to_slot.items():
            if name in ("1", "I"):
                continue
            indices, sign = _parse_indices(name, space.dim)
            assert entry == (sum(1 << i for i in indices), sign), (space, name)


# ---------------------------------------------------------------------------
# sign canonicalisation, construction, JSON


def test_canonicalize_sign():
    a = Multivector.from_terms(Space.EL2, {"e0": 3, "e2": -2})
    c = canonicalize_sign(a)
    assert c.coeff("e2") > 0
    assert_mv_close(c, -a)
    assert_mv_close(canonicalize_sign(-a), -a)
    z = Multivector.zero(Space.EL2)
    assert coeff_norm(canonicalize_sign(z)) == 0.0


def test_construction_validation():
    with pytest.raises(ValueError):
        Multivector(Space.EL2, [1, 2, 3])
    with pytest.raises(ValueError):
        Multivector.basis(Space.EL1, "e2")      # index out of range
    with pytest.raises(ValueError):
        Multivector.basis(Space.EL2, "e00")     # repeated index
    with pytest.raises(ValueError):
        Multivector.from_terms(Space.EL2, {"bogus": 1.0})


def test_immutability():
    a = Multivector.basis(Space.EL2, "e0")
    with pytest.raises(AttributeError):
        a.space = Space.EL1
    with pytest.raises(ValueError):
        a.coeffs[0] = 5.0


def test_permuted_names_carry_signs():
    assert_mv_close(Multivector.basis(Space.EL3, "e20"),
                    -Multivector.basis(Space.EL3, "e02"))
    assert_mv_close(Multivector.basis(Space.EL3, "e320"),
                    -Multivector.basis(Space.EL3, "e023"))
    assert_mv_close(Multivector.basis(Space.EL3, "e130"),
                    Multivector.basis(Space.EL3, "e013"))


def test_json_round_trip_bit_identical(rng):
    for space in SPACES:
        for _ in range(20):
            a = rand_mv(space, rng)
            back = from_json_dict(to_json_dict(a))
            assert back.space is space
            assert np.array_equal(back.coeffs, a.coeffs)


def test_json_unknown_keys_rejected():
    with pytest.raises(ValueError):
        from_coeff_dict(Space.EL2, {"e7": 1.0})
    with pytest.raises(ValueError):
        from_coeff_dict(Space.EL2, {"e0": "three"})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "int-1e400"])
def test_json_non_finite_coefficient_rejected_by_name(value):
    with pytest.raises(ValueError, match="'e20' must be a finite number"):
        from_coeff_dict(Space.EL2, {"e12": 1.0, "e20": value})


def test_json_omitted_keys_are_zero():
    mv = from_coeff_dict(Space.EL3, {"e20": -0.25})
    assert mv.coeff("e20") == -0.25
    assert coeff_norm(mv - Multivector.from_terms(Space.EL3, {"e20": -0.25})) == 0.0
    # exact zeros are omitted on output
    assert to_coeff_dict(mv) == {"e20": -0.25}


def test_normalize_zero_raises():
    with pytest.raises(ZeroInput):
        normalized(Multivector.zero(Space.EL2))


def test_tolerance_is_read_only_through_epsilon():
    import elga
    assert not hasattr(elga, "EPSILON") and "EPSILON" not in elga.__all__
    before = algebra.epsilon()
    assert not algebra.is_simple_bivector(NEAR_LINE)
    with algebra.tolerance(1e-3):
        assert algebra.epsilon() == 1e-3
        assert algebra.is_simple_bivector(NEAR_LINE)
    assert algebra.epsilon() == before


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_is_checked_at_the_call(value):
    with pytest.raises(ValueError, match="finite positive"):
        algebra.tolerance(value)           # before any block is entered


def test_tolerance_is_local_to_each_thread():
    rounds = 300
    barrier = threading.Barrier(2, timeout=30)
    seen = {}

    def run(value):
        answers = []
        with algebra.tolerance(value):
            for _ in range(rounds):
                barrier.wait()
                answers.append((algebra.epsilon(), algebra.is_simple_bivector(NEAR_LINE)))
        seen[value] = answers

    threads = [threading.Thread(target=run, args=(v,)) for v in (1e-3, 1e-12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert seen[1e-3] == [(1e-3, True)] * rounds
    assert seen[1e-12] == [(1e-12, False)] * rounds
    fresh = []
    with algebra.tolerance(1e-3):
        worker = threading.Thread(target=lambda: fresh.append(algebra.epsilon()))
        worker.start()
        worker.join(timeout=60)
    assert fresh == [1e-9]


@pytest.mark.parametrize("space", SPACES)
def test_norm_sum_of_squares_equals_the_product_bit_for_bit(space, rng):
    scales = (0.0, 1e-300, 1e-160, 1.0, 1e160, 1e300)
    for i in range(1000):    # one scale for all coefficients, or one for each
        c = rng.standard_normal(space.size) * rng.choice(scales, space.size if i % 2 else None)
        a = Multivector(space, c)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            want = math.sqrt(geometric_product(a, reverse(a)).scalar_part)
        if space is Space.EL3 and a.grades() == (2,):
            continue        # norm refuses non-simple bivectors
        got = norm(a)
        assert got == want, (c, got, want)
    assert norm(Multivector.zero(space)) == 0.0
