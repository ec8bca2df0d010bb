"""Seeded scene generator for the benchmark workloads.

The program under test receives only the JSON scenes made here.  Every
input is built in R^(n+1) with plain numpy and the reference algebra in
``refga``, and is redrawn until it sits at least 10^3 times away from
each structural threshold the program applies (the Plucker residual, the
Clifford-parallel and intersecting tests of ``line_line_metrics``, the
axis-split branches, the triangle orientation test, circle
classification and the figure chart cutoff).  A later change to a
tolerance or to the rounding of a formula therefore cannot flip an
outcome.  The same seed gives byte-identical scenes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

import refga as R

MARGIN = 1e-3          # relative distance kept from every threshold
CHART_CUTOFF = 1e-6    # figures split polylines where |weight| < this
COEFF_FLOOR = 1e-5     # 10^3 above the 1e-9 sign and 1e-12 grade cutoffs

# Each eval scene issues every registry op of its space once; the entity
# pools give 1-2 queries per entity, as in the bundled scenes.
LINE_PAIR_MODES = ("generic", "clifford_parallel", "intersecting")
CIRCLE_MODES = ("elliptic", "hyperbolic", "line")

EVAL_SCENES_PER_SPACE = 18
FIGURE_REQUESTS_PER_KIND = 3

# Every trajectory is sampled at the `elga figure --samples` default, so the
# per-line costs (clifford_parallel, point_on_line) weigh against the
# per-sample ones as they do in the bundled 32-parallel figure: about 1.2%
# of a clifford-parallels request here against 1.3% there.  Fewer parallels
# only make a request shorter.
SAMPLES = 256
FIGURE_KINDS = ("circle-trajectory", "clifford-parallels", "rotation-flow")
PARALLELS_PER_FAMILY = 2
ROTATION_SEEDS = 3


class _Retry(Exception):
    """A draw fell inside a threshold margin; draw again."""


def _unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _weight(rng) -> float:
    """Random homogeneous scale and sign, so inputs are not pre-normalised."""
    return float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))


def _entity(space: str, mv: R.MV, role: str = None) -> Dict[str, object]:
    coeffs = R.to_coeffs(space, mv)
    top = max(abs(v) for v in coeffs.values())
    if any(abs(v) < COEFF_FLOOR * top for v in coeffs.values()):
        raise _Retry("coefficient near the grade and sign cutoffs")
    return {"coeffs": coeffs} if role is None else {"role": role, "coeffs": coeffs}


def _point(space: str, rng, ray: np.ndarray = None) -> R.MV:
    ray = _unit(rng, R.DIMS[space]) if ray is None else ray
    return R.point_blade(space, ray * _weight(rng))


def _join(p: np.ndarray, q: np.ndarray, rng) -> R.MV:
    return R.regressive("el3", R.point_blade("el3", p * _weight(rng)),
                        R.point_blade("el3", q * _weight(rng)))


def _unit_mv(mv: R.MV) -> R.MV:
    return R.scale(mv, 1.0 / R.coeff_norm(mv))


def _line_pair_stats(a: R.MV, b: R.MV) -> Tuple[float, float]:
    """(|v|, |cs^2 - cv^2| / max(cs^2, 1)) of line_line_metrics' two tests."""
    a, b = _unit_mv(a), _unit_mv(b)
    v = R.scalar(R.regressive("el3", a, b))
    comm = R.commutator(a, b)
    cs = R.scalar(R.inner(comm, comm))
    cv = R.scalar(R.regressive("el3", comm, comm))
    return abs(v), abs(cs * cs - cv * cv) / max(cs * cs, 1.0)


def _axis_split_ok(b: R.MV) -> bool:
    """True when axis_split takes its generic branch with room to spare."""
    s = R.scalar(R.inner(b, b))
    v = R.scalar(R.regressive("el3", b, b))
    if abs(v) < MARGIN * abs(s) or s * s - v * v < MARGIN * s * s:
        return False
    x1 = 0.5 * (s - math.sqrt(s * s - v * v))
    c1 = R.outer(b, b).get((0, 1, 2, 3), 0.0) / 2.0 / x1
    return abs(1.0 - c1 * c1) >= MARGIN


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of [w, x, y, z] quadruples."""
    pw, pv, qw, qv = p[0], p[1:], q[0], q[1:]
    return np.concatenate([[pw * qw - pv @ qv], pw * qv + qw * pv + np.cross(pv, qv)])


def _qconj(p: np.ndarray) -> np.ndarray:
    return np.concatenate([[p[0]], -p[1:]])


def _orthonormal_pair(rng, n: int) -> Tuple[np.ndarray, np.ndarray]:
    q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    return q[:, 0], q[:, 1]


# -- eval scenes ----------------------------------------------------------------


class _Scene:
    """Entity pool plus the query list under construction."""

    def __init__(self, space: str, rng):
        self.space = space
        self.rng = rng
        self.entities: Dict[str, Dict[str, object]] = {}
        self.queries: List[Dict[str, object]] = []

    def add(self, name: str, mv: R.MV, role: str = None) -> str:
        self.entities[name] = _entity(self.space, mv, role)
        return name

    def pick(self, names: List[str], k: int = 1):
        chosen = [names[i] for i in self.rng.choice(len(names), size=k, replace=False)]
        return chosen if k > 1 else chosen[0]

    def mv(self, name: str) -> R.MV:
        return R.from_coeffs(self.space, self.entities[name]["coeffs"])

    def query(self, op: str, *args) -> None:
        self.queries.append({"op": op, "args": list(args)})

    def finish(self) -> Dict[str, object]:
        order = self.rng.permutation(len(self.queries))
        queries = []
        for i in order:
            q = self.queries[int(i)]
            queries.append({"name": f"q{len(queries)}_{q['op']}", **q})
        return {"space": self.space, "entities": self.entities, "queries": queries}


def _angle(rng, lo: float = 0.2, hi: float = 3.0) -> float:
    return float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))


def _scene_el1(rng, index: int) -> Dict[str, object]:
    s = _Scene("el1", rng)
    pts = [s.add(f"a{i}", _point("el1", rng), "point") for i in range(9)]
    turn = s.add("turn", {(0, 1): _angle(rng)})
    a, b = s.pick(pts, 2)
    s.query("norm", s.pick(pts))
    s.query("dual_I", s.pick(pts))
    s.query("regressive", a, b)
    s.query("outer", *s.pick(pts, 2))
    s.query("inner", *s.pick(pts, 2))
    s.query("geometric_product", *s.pick(pts, 2))
    s.query("commutator", *s.pick(pts, 2))
    s.query("reverse", s.pick(pts))
    s.query("inverse_blade", s.pick(pts))
    s.query("canonicalize_sign", s.pick(pts))
    s.query("exp_bivector", turn)
    s.query("distance", a, b)
    s.query("polar", s.pick(pts))
    s.query("translate", s.pick(pts), _angle(rng))
    s.query("reflect", *s.pick(pts, 2))
    s.query("project", *s.pick(pts, 2))
    s.query("reject", *s.pick(pts, 2))
    return s.finish()


def _compact_triangle(rng) -> List[np.ndarray]:
    """Three rays within about 0.5 rad of a centre, well off collinear."""
    centre = _unit(rng, 3)
    while True:
        rays = [centre + 0.35 * rng.standard_normal(3) for _ in range(3)]
        rays = [r / np.linalg.norm(r) for r in rays]
        dots = [rays[0] @ rays[1], rays[0] @ rays[2], rays[1] @ rays[2]]
        if min(dots) > 0.3 and abs(np.linalg.det(np.array(rays))) > 0.02 \
                and max(dots) < 0.995:
            return rays


def _right_triangle(rng) -> List[np.ndarray]:
    """Rays P, Q, R with a right angle at P, exactly by construction."""
    p = _unit(rng, 3)
    while True:
        q = p + 0.5 * rng.standard_normal(3)
        q /= np.linalg.norm(q)
        if 0.5 < p @ q < 0.98:
            break
    m = np.cross(p, q)
    m /= np.linalg.norm(m)
    beta = rng.uniform(0.3, 1.0)
    return [p, q, math.cos(beta) * p + math.sin(beta) * m]


def _circle_pair(rng, mode: str) -> Tuple[np.ndarray, np.ndarray]:
    while True:
        r, p = _unit(rng, 3), _unit(rng, 3)
        if mode == "line":
            p = p - (p @ r) * r
            return r, p / np.linalg.norm(p)
        if not 0.2 < math.acos(min(abs(p @ r), 1.0)) < 1.3:
            continue
        c, amp = R.circle_terms(r, p)
        if mode == "elliptic" and abs(c) > amp + MARGIN:
            return r, p
        if mode == "hyperbolic" and abs(c) < amp - MARGIN:
            return r, p


def _scene_el2(rng, index: int) -> Dict[str, object]:
    s = _Scene("el2", rng)
    pts = [s.add(f"P{i}", _point("el2", rng), "point") for i in range(8)]
    lines = [s.add(f"l{i}", R.vector_blade(_unit(rng, 3) * _weight(rng)), "line")
             for i in range(5)]
    tri = [s.add(f"T{i}", _point("el2", rng, r), "point")
           for i, r in enumerate(_compact_triangle(rng))]
    right = [s.add(f"S{i}", _point("el2", rng, r), "point")
             for i, r in enumerate(_right_triangle(rng))]
    centre, through = _circle_pair(rng, CIRCLE_MODES[index % 3])
    c_r = s.add("CR", _point("el2", rng, centre), "point")
    c_p = s.add("CP", _point("el2", rng, through), "point")

    line, point = s.pick(lines), s.pick(pts)
    a, p = s.mv(line), s.mv(point)
    if R.coeff_norm(R.inner(a, p)) < MARGIN * R.coeff_norm(a) * R.coeff_norm(p):
        raise _Retry("point near the polar point of the line")

    s.query("norm", s.pick(lines))
    s.query("dual_I", s.pick(lines))
    s.query("regressive", *s.pick(pts, 2))
    s.query("outer", *s.pick(lines, 2))
    s.query("inner", *s.pick(pts, 2))
    s.query("geometric_product", s.pick(lines), s.pick(pts))
    s.query("commutator", *s.pick(pts, 2))
    s.query("reverse", s.pick(pts))
    s.query("inverse_blade", s.pick(pts))
    s.query("canonicalize_sign", s.pick(lines))
    s.query("exp_bivector", s.pick(pts))
    s.query("distance_pp", *s.pick(pts, 2))
    s.query("angle_ll", *s.pick(lines, 2))
    s.query("distance_lp", s.pick(lines), s.pick(pts))
    s.query("perpendicular_through", line, point)
    s.query("triangle_area", *tri)
    s.query("right_triangle_area", *right)
    s.query("project", s.pick(pts), s.pick(lines))
    s.query("reject", s.pick(pts), s.pick(lines))
    s.query("reflect_topdown", *s.pick(lines, 2))
    s.query("reflect_bottomup", s.pick(pts), s.pick(lines))
    s.query("rotate", s.pick(pts), s.pick(pts), _angle(rng))
    s.query("classify_circle", c_r, c_p)
    return s.finish()


def _frame_direction(line: R.MV, family: str) -> np.ndarray:
    """Direction of clifford_frame's minus (positive family) or plus line."""
    c = R.to_coeffs("el3", _unit_mv(line))
    p = {k: c.get(k, 0.0) for k in ("e10", "e20", "e30", "e23", "e31", "e12")}
    sign = -1.0 if family == "positive" else 1.0
    return np.array([p["e10"] + sign * p["e23"], p["e20"] + sign * p["e31"],
                     p["e30"] + sign * p["e12"]])


def _frame_ok(line: R.MV) -> bool:
    """clifford_frame's direction vectors are long and off the probe axis."""
    for family in ("positive", "negative"):
        d = _frame_direction(line, family)
        n = np.linalg.norm(d)
        if n < 1e-2 or np.linalg.norm(np.cross(d / n, [1.0, 0.0, 0.0])) < MARGIN:
            return False
    return True


def _line_pair(rng, mode: str) -> Tuple[R.MV, R.MV]:
    if mode == "intersecting":
        p, q, r = (_unit(rng, 4) for _ in range(3))
        a, b = _join(p, q, rng), _join(p, r, rng)
        v, _ = _line_pair_stats(a, b)
        if v > 1e-12:
            raise _Retry("intersecting pair not exact")
        return a, b
    if mode == "clifford_parallel":
        # left translates a*C_n of one great circle C_n are Clifford parallel
        p, q = _orthonormal_pair(rng, 4)
        n = qmul(_qconj(p), q)
        a = _unit(rng, 4)
        first, second = _join(p, q, rng), _join(a, qmul(a, n), rng)
        v, c = _line_pair_stats(first, second)
        if v < MARGIN or c > 1e-12:
            raise _Retry("clifford pair too close or not exact")
        return first, second
    first = _join(_unit(rng, 4), _unit(rng, 4), rng)
    second = _join(_unit(rng, 4), _unit(rng, 4), rng)
    v, c = _line_pair_stats(first, second)
    if v < MARGIN or c < MARGIN:
        raise _Retry("generic pair near a relation threshold")
    return first, second


def _scene_el3(rng, index: int) -> Dict[str, object]:
    s = _Scene("el3", rng)
    pts = [s.add(f"Q{i}", _point("el3", rng), "point") for i in range(6)]
    planes = [s.add(f"A{i}", R.vector_blade(_unit(rng, 4) * _weight(rng)), "plane")
              for i in range(4)]
    lines = [s.add(f"L{i}", _join(_unit(rng, 4), _unit(rng, 4), rng), "line")
             for i in range(4)]
    m0, m1 = _line_pair(rng, LINE_PAIR_MODES[index % 3])
    s.add("M0", m0, "line")
    s.add("M1", m1, "line")
    biv = {k: float(v) for k, v in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
                                       rng.standard_normal(6) * rng.uniform(0.2, 0.6))}
    if not _axis_split_ok(biv):
        raise _Retry("bivector near an axis-split branch")
    s.add("B0", biv, "bivector")
    gen_line = _join(_unit(rng, 4), _unit(rng, 4), rng)
    dual = R.dual_i("el3", gen_line)
    xi = R.add(dual, gen_line, 1.0 if index % 2 == 0 else -1.0)
    s.add("X0", xi, "bivector")
    s.add("O0", {b: float(c) for b, c in zip(((2, 3), (1, 3), (1, 2)),
                                             rng.standard_normal(3))}, "line")

    frame_line = s.pick(lines)
    if not _frame_ok(s.mv(frame_line)):
        raise _Retry("clifford frame direction near degenerate")
    pair = s.pick(lines, 2)
    if not _axis_split_ok(R.commutator(s.mv(pair[0]), s.mv(pair[1]))):
        raise _Retry("line pair commutator near an axis-split branch")

    family = ("positive", "negative")[int(rng.integers(2))]
    s.query("norm", s.pick(lines))
    s.query("dual_I", s.pick(lines))
    s.query("regressive", *s.pick(pts, 2))
    s.query("outer", *s.pick(planes, 2))
    s.query("inner", *s.pick(lines, 2))
    s.query("geometric_product", s.pick(lines), s.pick(pts))
    s.query("commutator", *s.pick(lines, 2))
    s.query("reverse", s.pick(pts))
    s.query("inverse_blade", s.pick(lines))
    s.query("canonicalize_sign", s.pick(planes))
    s.query("exp_bivector", "B0")
    s.query("distance_pp", *s.pick(pts, 2))
    s.query("distance_plane_point", s.pick(planes), s.pick(pts))
    s.query("distance_line_point", s.pick(lines), s.pick(pts))
    s.query("angle_planes", *s.pick(planes, 2))
    s.query("angle_line_plane", s.pick(lines), s.pick(planes))
    s.query("axis_decompose", "B0")
    s.query("clifford_frame", frame_line)
    s.query("clifford_parallel", frame_line, family, float(rng.uniform(0.0, 2 * math.pi)),
            float(rng.uniform(0.2, 2.9)))
    s.query("clifford_bivector", s.pick(lines), family)
    s.query("parallel_through_point", "X0", s.pick(pts))
    s.query("line_line_metrics", "M0", "M1")
    s.query("project_on_plane", s.pick(pts), s.pick(planes))
    s.query("reject_by_plane", s.pick(lines), s.pick(planes))
    s.query("project_on_point", s.pick(planes), s.pick(pts))
    s.query("reject_by_point", s.pick(lines), s.pick(pts))
    s.query("project_on_line", s.pick(pts), s.pick(lines))
    s.query("reject_by_line", s.pick(planes), s.pick(lines))
    s.query("project_line_on_line", pair[0], pair[1], 1 + index % 2)
    s.query("reject_line_by_line", pair[0], pair[1], 2 - index % 2)
    s.query("perpendicular_through", s.pick(lines), s.pick(pts))
    s.query("reflect", s.pick(lines), s.pick(planes),
            ("topdown", "bottomup")[int(rng.integers(2))])
    s.query("double_rotation", s.pick(pts), s.pick(lines), _angle(rng), _angle(rng))
    s.query("clifford_translate", s.pick(pts), "X0", _angle(rng))
    s.query("quaternion_bridge", s.pick(pts))
    s.query("clifford_translate_quat", s.pick(pts), "O0", _angle(rng),
            ("right", "left")[int(rng.integers(2))])
    return s.finish()


_SCENES = {"el1": _scene_el1, "el2": _scene_el2, "el3": _scene_el3}


def _draw(make, *args):
    while True:
        try:
            return make(*args)
        except _Retry:
            continue


def eval_batch(seed: int) -> List[Dict[str, object]]:
    """Scenes interleaved el1, el2, el3, ... for the eval-scenes workload."""
    rng = np.random.default_rng([seed, 1])
    return [_draw(_SCENES[space], rng, i)
            for i in range(EVAL_SCENES_PER_SPACE) for space in ("el1", "el2", "el3")]


# -- figure scenes ----------------------------------------------------------------


def _weights_clear(weights: np.ndarray) -> bool:
    """No sample weight within MARGIN of the chart cutoff, on either side."""
    w = np.abs(weights)
    return not np.any((w > CHART_CUTOFF * MARGIN) & (w < CHART_CUTOFF / MARGIN))


def _circle_scene(rng) -> Dict[str, object]:
    r, p = _circle_pair(rng, ("elliptic", "hyperbolic")[int(rng.integers(2))])
    along = (p @ r) * r
    ts = np.linspace(0.0, 2.0 * math.pi, SAMPLES, endpoint=False)
    w = along[0] + np.cos(ts) * (p - along)[0] + np.sin(ts) * np.cross(r, p)[0]
    if not _weights_clear(w) or abs(r[0]) < CHART_CUTOFF / MARGIN:
        raise _Retry("circle sample near the chart cutoff")
    return {"space": "el2",
            "entities": {"P": _entity("el2", _point("el2", rng, p), "point"),
                         "R": _entity("el2", _point("el2", rng, r), "point")},
            "queries": []}


def _sweep_clear(line: R.MV) -> bool:
    """Replays figures._sample_line's anchor choice and checks the sweep."""
    inv = R.inverse(line)
    for seed in ("e123", "e320", "e130", "e210"):
        cand = R.gp(R.inner(R.from_coeffs("el3", {seed: 1.0}), line), inv)
        ratio = R.coeff_norm(cand) / R.coeff_norm(line)
        if CHART_CUTOFF * MARGIN < ratio < CHART_CUTOFF / MARGIN:
            return False
        if ratio > CHART_CUTOFF:
            break
    basis = R.point_set("el3", line)
    a = R.ray("el3", cand)
    a /= np.linalg.norm(a)
    b = basis[:, 0] - (basis[:, 0] @ a) * a
    if np.linalg.norm(b) < 0.5:
        b = basis[:, 1] - (basis[:, 1] @ a) * a
    b /= np.linalg.norm(b)
    ts = np.linspace(0.0, math.pi, SAMPLES)
    return all(_weights_clear(np.cos(ts) * a[0] + sign * np.sin(ts) * b[0])
               for sign in (-1.0, 1.0))


def predicted_parallel(line: R.MV, family: str, phi: float, theta: float) -> R.MV:
    """el3.clifford_parallel rebuilt on the reference algebra."""
    d = _frame_direction(line, family)

    def origin_line(v):
        return R.from_coeffs("el3", {"e23": v[0], "e31": v[1], "e12": v[2]})

    dn = d / np.linalg.norm(d)
    probe = np.array([1.0, 0.0, 0.0])
    if np.linalg.norm(np.cross(dn, probe)) <= 1e-9:
        probe = np.array([0.0, 1.0, 0.0])
    u = np.cross(dn, probe)
    axis, perp = origin_line(d), origin_line(u / np.linalg.norm(u))
    spin = R.gp(R.exp(R.scale(axis, -0.5 * phi)), R.exp(R.scale(perp, -0.5 * theta)))
    omega = R.gp(R.gp(spin, axis), R.reverse(spin))
    shift = R.add(R.dual_i("el3", omega), omega, -1.0 if family == "positive" else 1.0)
    return R.scale(R.add(_unit_mv(line), shift, -math.cos(theta)), R.coeff_norm(line))


def _parallels_scene(rng) -> Dict[str, object]:
    line = _join(_unit(rng, 4), _unit(rng, 4), rng)
    if not _frame_ok(line):
        raise _Retry("clifford frame direction near degenerate")
    theta = float(rng.uniform(0.3, 1.3))
    lines = [_unit_mv(line)]
    for family in ("positive", "negative"):
        for i in range(PARALLELS_PER_FAMILY):
            phi = 2.0 * math.pi * i / PARALLELS_PER_FAMILY
            lines.append(predicted_parallel(_unit_mv(line), family, phi, theta))
    if not all(_sweep_clear(ln) for ln in lines):
        raise _Retry("parallel sample near the chart cutoff")
    return {"space": "el3", "entities": {"line": _entity("el3", line, "line")},
            "queries": [],
            "figure": {"theta": theta, "parallels": PARALLELS_PER_FAMILY,
                       "family": "both"}}


def _rotation_scene(rng) -> Dict[str, object]:
    axis = _join(_unit(rng, 4), _unit(rng, 4), rng)
    basis = R.point_set("el3", axis)
    comp = np.linalg.svd(np.eye(4) - basis @ basis.T)[0][:, :2]
    ts = np.linspace(0.0, 2.0 * math.pi, SAMPLES, endpoint=False)
    entities = {"axis": _entity("el3", axis, "line")}
    for k in range(ROTATION_SEEDS):
        p = _unit(rng, 4)
        fixed, moving = basis @ (basis.T @ p), comp.T @ p
        turned = comp @ np.array([-moving[1], moving[0]])
        for sign in (-1.0, 1.0):
            w = fixed[0] + np.cos(ts) * (comp @ moving)[0] + sign * np.sin(ts) * turned[0]
            if not _weights_clear(w):
                raise _Retry("orbit sample near the chart cutoff")
        entities[f"s{k}"] = _entity("el3", _point("el3", rng, p), "point")
    return {"space": "el3", "entities": entities, "queries": []}


_FIGURES = {"circle-trajectory": _circle_scene, "clifford-parallels": _parallels_scene,
            "rotation-flow": _rotation_scene}


def figure_batch(seed: int) -> List[Tuple[str, int, Dict[str, object]]]:
    """(kind, samples, scene) requests interleaved over the three kinds."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for _ in range(FIGURE_REQUESTS_PER_KIND):
        for kind in FIGURE_KINDS:
            out.append((kind, SAMPLES, _draw(_FIGURES[kind], rng)))
    return out
