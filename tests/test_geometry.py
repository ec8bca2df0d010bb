"""The geometry shared by El1, El2 and El3: one rule per formula."""

import pytest

from elga import el1, el2, el3
from elga.algebra import AlgebraError, Multivector, NonSimpleBivector, Space, coeff_norm

from helpers import (
    assert_mv_close,
    mv_diff,
    rand_line_el2,
    rand_line_el3,
    rand_plane_el3,
    rand_point,
)

S2, S3 = Space.EL2, Space.EL3

BLADES = {
    "el1 point": lambda rng: rand_point(Space.EL1, rng),
    "el2 line": rand_line_el2,
    "el2 point": lambda rng: rand_point(S2, rng),
    "el3 plane": rand_plane_el3,
    "el3 line": rand_line_el3,
    "el3 point": lambda rng: rand_point(S3, rng),
}

# (project, reject, B, A) for every operand pair the ops accept; a line by
# a line goes through axis_split and has its own ops
CASES = [(el1.project, el1.reject, "el1 point", "el1 point")]
CASES += [(el2.project, el2.reject, b, a)
          for b in ("el2 line", "el2 point") for a in ("el2 line", "el2 point")]
CASES += [(proj, rej, b, a)
          for proj, rej, a in ((el3.project_on_plane, el3.reject_by_plane, "el3 plane"),
                               (el3.project_on_line, el3.reject_by_line, "el3 line"),
                               (el3.project_on_point, el3.reject_by_point, "el3 point"))
          for b in ("el3 plane", "el3 line", "el3 point") if (b, a) != ("el3 line", "el3 line")]


@pytest.mark.parametrize("project, reject, b_kind, a_kind", CASES,
                         ids=[f"{b} by {a}" for _, _, b, a in CASES])
def test_project_plus_reject_reconstructs(project, reject, b_kind, a_kind, rng):
    # BA = B.A + (B^A or B x A), so the two parts add back up to B; the
    # el2 point-by-point rejection used to wedge into a missing grade 4
    for _ in range(20):
        b = BLADES[b_kind](rng) * rng.uniform(0.1, 10.0)
        a = BLADES[a_kind](rng) * rng.uniform(0.1, 10.0)
        rest = reject(b, a)
        assert mv_diff(project(b, a) + rest, b) <= 1e-12 * coeff_norm(b)
        if b_kind == a_kind == "el2 point":
            assert coeff_norm(rest) > 1e-3 * coeff_norm(b)


def test_reflection_is_linear_over_grades(rng):
    # the graded sign applies part by part, so a mixed B reflects as the
    # sum of its reflected grades
    for reflect in (el2.reflect_topdown, el2.reflect_bottomup):
        for mirror in (rand_line_el2(rng), rand_point(S2, rng)):
            line, point = rand_line_el2(rng), rand_point(S2, rng)
            assert_mv_close(reflect(line + point, mirror),
                            reflect(line, mirror) + reflect(point, mirror), 1e-12)


VIEWS = [
    (el1.PointEl1, Space.EL1, "e0", "e01"),
    (el2.LineEl2, S2, "e1", "e12"),
    (el2.PointEl2, S2, "e12", "e1"),
    (el3.PlaneEl3, S3, "e1", "e12"),
    (el3.LineEl3, S3, "e12", "e1"),
    (el3.PointEl3, S3, "e123", "e12"),
]


@pytest.mark.parametrize("view, space, good, wrong", VIEWS,
                         ids=[v.__name__ for v, *_ in VIEWS])
def test_blade_views_share_one_check(view, space, good, wrong):
    view(Multivector.basis(space, good))
    with pytest.raises(ValueError):
        view(Multivector.basis(space, wrong))
    with pytest.raises(ValueError):
        view(Multivector.basis(Space.EL1 if space is not Space.EL1 else S2, "e1"))
    with pytest.raises(AlgebraError):
        view(Multivector.basis(space, good) + Multivector.basis(space, wrong))
    if view is not el1.PointEl1:
        with pytest.raises(ValueError):
            view(Multivector.basis(space, good) * 1e-12)


def test_el3_line_arguments_share_the_plucker_check():
    skew = Multivector.from_terms(S3, {"e10": 1, "e23": 1})
    for call in (lambda: el3.LineEl3(skew),
                 lambda: el3.distance_line_point(skew, el3.ORIGIN),
                 lambda: el3.clifford_frame(skew)):
        with pytest.raises(NonSimpleBivector, match="plücker residual"):
            call()
