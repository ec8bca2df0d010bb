"""Correctness gate: independent oracles for eval reports and figure samples.

Every eval op is checked against one of three oracles:

* principal angles between the R^(n+1) subspaces that the operands name
  (distances, angles, line-line metrics, classification);
* the naive blade-by-blade reference product of ``refga`` (products,
  duality, projections, reflections, exponentials, and the motions as
  rotor sandwiches with a power-series exponential), or the Hamilton
  product for the quaternion form of a Clifford translation;
* for the ops in ``NO_ORACLE``, finite coefficients of the right grade.

Figure samples must be finite, unit-norm and keep their defining distance
within 1e-9.  Each checker returns one message per failed operation.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, List, Sequence

import numpy as np

import gen
import refga as R

NO_ORACLE = ("el3.clifford_frame", "el3.project_line_on_line",
             "el3.reject_line_by_line")

NUM_TOL = 1e-10        # relative, on floats emitted at 15 significant digits
FIGURE_TOL = 1e-9      # defining distance and unit norm of figure samples


class Mismatch(Exception):
    """A result disagrees with its oracle."""


def _mv(space: str, value) -> R.MV:
    if not isinstance(value, dict) or value.get("space") != space:
        raise Mismatch(f"expected an {space} multivector, got {value!r}")
    return R.from_coeffs(space, value["coeffs"])


def _same_mv(space: str, value, want: R.MV) -> None:
    got = _mv(space, value)
    if not R.close(got, want):
        raise Mismatch(f"got {R.to_coeffs(space, got)}, want {R.to_coeffs(space, want)}")


def _same_num(value, want: float, tol: float = NUM_TOL) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not abs(value - want) <= tol * max(1.0, abs(want)):
        raise Mismatch(f"got {value!r}, want {want!r}")


def _same_angle(value, want: float) -> None:
    """Angles agree in cosine to 1e-10 and in sine to 1e-7.

    The sine bound is looser because an angle near zero computed through
    an arcsine of a square root keeps only half the working precision.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or abs(math.cos(value) - math.cos(want)) > NUM_TOL \
            or abs(math.sin(value) - math.sin(want)) > 1e-7:
        raise Mismatch(f"angle {value!r}, want {want!r}")


def _separation(space: str, a: R.MV, b: R.MV) -> float:
    """Smallest principal angle between the subspaces two blades name."""
    sa, sb = R.point_set(space, a), R.point_set(space, b)
    if sa.shape[1] == 1:
        return R.ray_angle(sa[:, 0], sb)
    if sb.shape[1] == 1:
        return R.ray_angle(sb[:, 0], sa)
    return float(R.principal_angles(sa, sb)[0])


def _unit_ray(space: str, point: R.MV) -> np.ndarray:
    r = R.ray(space, point)
    return r / np.linalg.norm(r)


def _unit(a: R.MV) -> R.MV:
    return R.scale(a, 1.0 / R.norm(a))


def _spun(p: R.MV, generator: R.MV) -> R.MV:
    """The rotor sandwich S p ~S with S = exp(generator)."""
    s = R.exp(generator)
    return R.gp(R.gp(s, p), R.reverse(s))


def _double_rotation(a: R.MV, alpha: float, beta: float) -> R.MV:
    """Generator -(alpha L + beta L I) / 2 of the unit line L."""
    ln = _unit(a)
    return R.scale(R.add(R.scale(ln, alpha), R.dual_i("el3", ln), beta), -0.5)


def _quat_translate(p: R.MV, origin_line: R.MV, beta: float, side: str) -> R.MV:
    """p q (right) or q p (left), q = cos(beta) - sin(beta) times the line's direction."""
    c = R.to_coeffs("el3", _unit(origin_line))
    q = np.array([math.cos(beta)] + [-math.sin(beta) * c.get(n, 0.0)
                                     for n in ("e23", "e31", "e12")])
    x = R.ray("el3", p)
    return R.point_blade("el3", gen.qmul(x, q) if side == "right" else gen.qmul(q, x))


def _triangle_area(space: str, pts: Sequence[R.MV]) -> float:
    """Spherical excess: tan(E/2) = |det| / (1 + p.q + q.r + r.p)."""
    p, q, r = (_unit_ray(space, x) for x in pts)
    q = q if p @ q >= 0 else -q
    r = r if p @ r >= 0 else -r
    det = abs(np.linalg.det(np.array([p, q, r])))
    return 2.0 * math.atan2(det, 1.0 + p @ q + q @ r + r @ p)


def _graded_top(b: R.MV, x: R.MV) -> R.MV:
    """Planes use the wedge, lines and points the commutator."""
    return R.outer(b, x) if R.grades(b) == (1,) else R.commutator(b, x)


def _reflection_sign(a: R.MV, b: R.MV, topdown: bool) -> float:
    k, ell = R.grades(a)[0], R.grades(b)[0]
    return -1.0 if (k * ell if topdown else k * (ell - 1)) % 2 else 1.0


def _sandwich(a: R.MV, b: R.MV) -> R.MV:
    return R.gp(R.gp(a, b), R.inverse(a))


def _canonical_sign(a: R.MV) -> R.MV:
    """Highest storage index with |c| > 1e-9 * max made positive."""
    top = max(abs(v) for v in a.values())
    order = sorted(a, key=lambda k: sum(1 << i for i in k), reverse=True)
    lead = next(k for k in order if abs(a[k]) > 1e-9 * top)
    return a if a[lead] > 0 else R.scale(a, -1.0)


def _check_mvs(space: str, value, grade: int) -> None:
    """Every multivector inside a result is finite and of one grade."""
    if isinstance(value, dict) and "coeffs" in value:
        mv = _mv(space, value)
        if not all(math.isfinite(v) for v in mv.values()) or R.grades(mv) != (grade,):
            raise Mismatch(f"not a finite grade-{grade} element: {value!r}")
    elif isinstance(value, dict):
        for v in value.values():
            _check_mvs(space, v, grade)
    elif isinstance(value, float) and not math.isfinite(value):
        raise Mismatch("non-finite number")


def _axes(space: str, value, b: R.MV) -> None:
    larger, smaller = _mv(space, value["larger"]), _mv(space, value["smaller"])
    if value["degenerate"] is not False:
        raise Mismatch("unexpected degenerate split")
    if not R.close(R.add(larger, smaller), b):
        raise Mismatch("axes do not sum to the input")
    scale = R.coeff_norm(larger) * R.coeff_norm(smaller)
    for part in (larger, smaller):
        if abs(R.outer(part, part).get((0, 1, 2, 3), 0.0)) > NUM_TOL * R.coeff_norm(part) ** 2:
            raise Mismatch("axis is not a line")
    if R.coeff_norm(R.commutator(larger, smaller)) > NUM_TOL * scale \
            or abs(R.scalar(R.inner(larger, smaller))) > NUM_TOL * scale:
        raise Mismatch("axes are not orthogonal and commuting")
    if R.coeff_norm(larger) < R.coeff_norm(smaller):
        raise Mismatch("larger axis is the smaller one")


def _line_metrics(space: str, value, a: R.MV, b: R.MV) -> None:
    t1, t2 = R.principal_angles(R.point_set(space, a), R.point_set(space, b))
    if t1 < 1e-5:
        relation = "intersecting"
    elif t2 - t1 < 1e-5:
        relation = "clifford_parallel"
    else:
        relation = "generic"
    if value["relation"] != relation:
        raise Mismatch(f"relation {value['relation']!r}, want {relation!r}")
    _same_angle(value["r"], t1)
    _same_angle(value["r1"], t1)
    _same_angle(value["r2"], t2)
    _same_angle(min(value["alpha"], math.pi - value["alpha"]), t2)


def _classify(space: str, r: R.MV, p: R.MV) -> str:
    if abs(_separation(space, r, p) - math.pi / 2) < 1e-6:
        return "line"
    c, amp = R.circle_terms(R.ray(space, r), R.ray(space, p))
    return "elliptic" if abs(c) > amp else "hyperbolic"


Oracle = Callable[..., None]


def _shared(space: str) -> Dict[str, Oracle]:
    return {
        "norm": lambda v, a: _same_num(v, R.norm(a)),
        "dual_I": lambda v, a: _same_mv(space, v, R.dual_i(space, a)),
        "regressive": lambda v, a, b: _same_mv(space, v, R.regressive(space, a, b)),
        "outer": lambda v, a, b: _same_mv(space, v, R.outer(a, b)),
        "inner": lambda v, a, b: _same_mv(space, v, R.inner(a, b)),
        "geometric_product": lambda v, a, b: _same_mv(space, v, R.gp(a, b)),
        "commutator": lambda v, a, b: _same_mv(space, v, R.commutator(a, b)),
        "reverse": lambda v, a: _same_mv(space, v, R.reverse(a)),
        "inverse_blade": lambda v, a: _same_mv(space, v, R.inverse(a)),
        "canonicalize_sign": lambda v, a: _same_mv(space, v, _canonical_sign(a)),
        "exp_bivector": lambda v, b: _same_mv(space, v, R.exp(b)),
    }


def _project(space):
    return lambda v, b, a: _same_mv(space, v, R.gp(R.inner(b, a), R.inverse(a)))


def _reject(space):
    return lambda v, b, a: _same_mv(space, v, R.gp(R.outer(b, a), R.inverse(a)))


def _reject_graded(space):
    return lambda v, b, a: _same_mv(space, v, R.gp(_graded_top(b, a), R.inverse(a)))


def _reflect(space, topdown):
    return lambda v, b, a: _same_mv(
        space, v, R.scale(_sandwich(a, b), _reflection_sign(a, b, topdown)))


def _build_oracles() -> Dict[str, Dict[str, Oracle]]:
    el1 = _shared("el1")
    e01 = {(0, 1): 1.0}
    el1.update({
        "distance": lambda v, a, b: _same_angle(v, _separation("el1", a, b)),
        "polar": lambda v, a: _same_mv("el1", v, R.gp(a, e01)),
        "translate": lambda v, a, lam: _same_mv(
            "el1", v, _spun(a, R.scale(e01, -0.5 * lam))),
        "reflect": lambda v, a, b: _same_mv("el1", v, R.scale(_sandwich(b, a), -1.0)),
        "project": _project("el1"),
        "reject": _reject("el1"),
    })
    el2 = _shared("el2")
    el2.update({
        "distance_pp": lambda v, a, b: _same_angle(v, _separation("el2", a, b)),
        "angle_ll": lambda v, a, b: _same_angle(
            v, R.oriented_angle(R.vector(a, 3), R.vector(b, 3))),
        "distance_lp": lambda v, a, p: _same_angle(v, _separation("el2", a, p)),
        "perpendicular_through": lambda v, a, p: _same_mv("el2", v, R.inner(a, p)),
        "triangle_area": lambda v, *pts: _same_num(v, _triangle_area("el2", pts)),
        "right_triangle_area": lambda v, *pts: _same_num(v, _triangle_area("el2", pts)),
        "project": _project("el2"),
        "reject": _reject("el2"),
        "reflect_topdown": _reflect("el2", True),
        "reflect_bottomup": _reflect("el2", False),
        "rotate": lambda v, p, r, alpha: _same_mv(
            "el2", v, _spun(p, R.scale(_unit(r), -0.5 * alpha))),
        "classify_circle": lambda v, r, p: _same_label(v, _classify("el2", r, p)),
    })
    el3 = _shared("el3")
    el3.update({
        "distance_pp": lambda v, a, b: _same_angle(v, _separation("el3", a, b)),
        "distance_plane_point": lambda v, a, p: _same_angle(v, _separation("el3", a, p)),
        "distance_line_point": lambda v, a, p: _same_angle(v, _separation("el3", a, p)),
        "angle_planes": lambda v, a, b: _same_angle(
            v, R.oriented_angle(R.vector(a, 4), R.vector(b, 4))),
        "angle_line_plane": lambda v, a, b: _same_angle(v, float(R.principal_angles(
            R.point_set("el3", a), R.point_set("el3", b))[1])),
        "axis_decompose": lambda v, b: _axes("el3", v, b),
        "clifford_frame": lambda v, a: _check_mvs("el3", v, 2),
        "clifford_parallel": _clifford_parallel,
        "clifford_bivector": _clifford_bivector,
        "parallel_through_point": lambda v, xi, p: _same_mv(
            "el3", v, R.gp(R.regressive("el3", xi, p), R.inverse(p))),
        "line_line_metrics": lambda v, a, b: _line_metrics("el3", v, a, b),
        "project_on_plane": _project("el3"),
        "reject_by_plane": _reject("el3"),
        "project_on_point": _project("el3"),
        "reject_by_point": _reject_graded("el3"),
        "project_on_line": _project("el3"),
        "reject_by_line": _reject_graded("el3"),
        "project_line_on_line": lambda v, a, b, kind: _check_mvs("el3", v, 2),
        "reject_line_by_line": lambda v, a, b, kind: _check_mvs("el3", v, 2),
        "perpendicular_through": lambda v, a, p: _same_mv(
            "el3", v, R.outer(R.inner(a, p), R.regressive("el3", a, p))),
        "reflect": lambda v, b, a, direction: _reflect("el3", direction == "topdown")(v, b, a),
        "double_rotation": lambda v, p, a, alpha, beta: _same_mv(
            "el3", v, _spun(p, _double_rotation(a, alpha, beta))),
        "clifford_translate": lambda v, p, xi, beta: _same_mv(
            "el3", v, _spun(p, R.scale(xi, -0.5 * beta))),
        "quaternion_bridge": _same_quaternion,
        "clifford_translate_quat": lambda v, p, a, beta, side: _same_mv(
            "el3", v, _quat_translate(p, a, beta, side)),
    })
    return {"el1": el1, "el2": el2, "el3": el3}


def _same_label(value, want: str) -> None:
    if value != want:
        raise Mismatch(f"got {value!r}, want {want!r}")


def _clifford_parallel(value, a: R.MV, family: str, phi: float, theta: float) -> None:
    """The parallel itself, and both its principal angles to the input line."""
    _same_mv("el3", value, gen.predicted_parallel(a, family, phi, theta))
    angles = R.principal_angles(R.point_set("el3", a), R.point_set("el3", _mv("el3", value)))
    for t in angles:
        _same_angle(float(t), abs(math.pi / 2 - theta))


def _clifford_bivector(value, a: R.MV, family: str) -> None:
    _same_label(value["sign"], family)
    want = R.add(R.dual_i("el3", a), a, 1.0 if family == "positive" else -1.0)
    _same_mv("el3", value["value"], want)


def _same_quaternion(value, p: R.MV) -> None:
    want = R.ray("el3", p)
    if not isinstance(value, list) or len(value) != 4:
        raise Mismatch(f"got {value!r}")
    for got, w in zip(value, want):
        _same_num(got, float(w))


ORACLES = _build_oracles()


def check_report(scene: Dict[str, object], report: Dict[str, object]) -> List[str]:
    """One message per query whose result disagrees with its oracle."""
    space = scene["space"]
    entities = {n: R.from_coeffs(space, e["coeffs"]) for n, e in scene["entities"].items()}
    queries = scene["queries"]
    results = report.get("results", []) if report.get("space") == space else []
    failures = [f"{q['name']}: missing result" for q in queries[len(results):]]
    for query, result in zip(queries, results):
        args = [entities.get(a, a) if isinstance(a, str) else a for a in query["args"]]
        try:
            if (result.get("name"), result.get("op")) != (query["name"], query["op"]):
                raise Mismatch(f"result {result.get('name')!r} out of order")
            ORACLES[space][query["op"]](result["value"], *args)
        except (Mismatch, KeyError, TypeError, ValueError, IndexError) as e:
            failures.append(f"{query['name']} ({query['op']}): {type(e).__name__}: {e}")
    return failures


def check_report_text(scene: Dict[str, object], text: str) -> List[str]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"report is not JSON: {e}"] * len(scene["queries"])
    return check_report(scene, report)


# -- figures ------------------------------------------------------------------------

_POINT_NAMES = {"el2": ("e12", "e20", "e01"), "el3": ("e123", "e320", "e130", "e210")}


def _sample_ray(space: str, coeffs: Sequence[float]) -> np.ndarray:
    return R.ray(space, R.from_coeffs(space, dict(zip(_POINT_NAMES[space], coeffs))))


def figure_rows_expected(kind: str, scene: Dict[str, object], samples: int) -> int:
    if kind == "circle-trajectory":
        return samples
    if kind == "clifford-parallels":
        fig = scene["figure"]
        families = 2 if fig.get("family", "both") == "both" else 1
        return (1 + families * fig["parallels"]) * samples
    points = [e for e in scene["entities"].values() if e.get("role") == "point"]
    return len(points) * samples


def check_figure(kind: str, scene: Dict[str, object], samples: int,
                 rows: Sequence[Sequence]) -> List[str]:
    """One message per figure sample that fails its oracle."""
    space = scene["space"]
    ents = {n: R.from_coeffs(space, e["coeffs"]) for n, e in scene["entities"].items()}
    expected = figure_rows_expected(kind, scene, samples)
    failures = [f"{kind}: missing sample"] * max(expected - len(rows), 0)
    if kind == "circle-trajectory":
        centre = R.point_set(space, ents["R"])
        radius = R.ray_angle(R.ray(space, ents["P"]), centre)

        def want(row):
            return centre, radius, row[1:]
    elif kind == "clifford-parallels":
        base = R.point_set(space, ents["line"])
        offset = abs(math.pi / 2 - float(scene["figure"]["theta"]))

        def want(row):
            return base, (0.0 if row[0] == "line" else offset), row[4:]
    else:
        axis = R.point_set(space, ents["axis"])
        radii = {n: R.ray_angle(R.ray(space, ents[n]), axis) for n in ents if n != "axis"}

        def want(row):
            return axis, radii[row[0]], row[2:]
    for i, row in enumerate(rows):
        try:
            subspace, distance, coeffs = want(row)
            x = _sample_ray(space, [float(c) for c in coeffs])
            if not np.all(np.isfinite(x)):
                raise Mismatch("non-finite sample")
            if abs(np.linalg.norm(x) - 1.0) > FIGURE_TOL:
                raise Mismatch(f"sample norm {np.linalg.norm(x)!r}")
            got = R.ray_angle(x, subspace)
            if abs(got - distance) > FIGURE_TOL:
                raise Mismatch(f"distance {got!r}, want {distance!r}")
        except (Mismatch, KeyError, ValueError, IndexError) as e:
            failures.append(f"{kind} row {i}: {e}")
    return failures
