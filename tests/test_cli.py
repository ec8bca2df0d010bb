"""CLI and scene layer: evaluation, validation exits, figures, round-trips."""

import csv
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elga import algebra, el1, el2, el3
from elga.algebra import Multivector, Space, exp_bivector, from_json_dict, normalized
from elga.scene import (
    QueryError,
    SceneError,
    evaluate_scene,
    load_scene,
    load_scene_file,
    op_registry,
    report_to_json,
    round_report,
)
from elga import figures

SCENES = Path(__file__).resolve().parents[1] / "src" / "elga" / "scenes"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "elga", *argv],
        capture_output=True, text=True,
    )


def scene_dict(**overrides):
    base = {
        "space": "el2",
        "entities": {
            "P": {"role": "point", "coeffs": {"e12": 1, "e20": 1}},
            "Q": {"role": "point", "coeffs": {"e12": 1, "e01": 2}},
        },
        "queries": [
            {"name": "r", "op": "distance_pp", "args": ["P", "Q"]},
        ],
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# scene loading and validation


def test_load_and_evaluate_minimal_scene():
    scene = load_scene(scene_dict())
    report = evaluate_scene(scene)
    assert report["space"] == "el2"
    assert abs(report["results"][0]["value"] - math.acos(1 / math.sqrt(10))) < 1e-12


def test_empty_query_list_gives_empty_report():
    scene = load_scene(scene_dict(queries=[]))
    report = evaluate_scene(scene)
    assert report["results"] == []


def test_unknown_entity_rejected():
    with pytest.raises(SceneError):
        load_scene(scene_dict(queries=[
            {"op": "distance_pp", "args": ["P", "missing"]}]))


def test_unknown_op_rejected():
    with pytest.raises(SceneError):
        load_scene(scene_dict(queries=[{"op": "frobnicate", "args": ["P"]}]))


def test_role_grade_mismatch_rejected():
    bad = scene_dict()
    bad["entities"]["P"] = {"role": "line", "coeffs": {"e12": 1}}
    with pytest.raises(SceneError):
        load_scene(bad)


def test_plucker_validation_at_load():
    bad = {
        "space": "el3",
        "entities": {
            "L": {"role": "line",
                  "coeffs": {"e10": 1, "e23": 1e-3, "e20": 1, "e31": 0,
                             "e30": 0, "e12": 0}},
        },
        "queries": [],
    }
    with pytest.raises(SceneError, match="plücker residual"):
        load_scene(bad)


def test_unknown_coeff_key_rejected():
    bad = scene_dict()
    bad["entities"]["P"] = {"coeffs": {"e99": 1}}
    with pytest.raises(SceneError):
        load_scene(bad)


def test_query_error_names_query():
    scene = load_scene({
        "space": "el2",
        "entities": {
            "a": {"role": "line", "coeffs": {"e0": -2, "e1": 2, "e2": 1}},
            "polar": {"role": "point", "coeffs": {"e12": -2, "e20": 2, "e01": 1}},
        },
        "queries": [
            {"name": "boom", "op": "perpendicular_through", "args": ["a", "polar"]},
        ],
    })
    with pytest.raises(QueryError, match="boom"):
        evaluate_scene(scene)


# ---------------------------------------------------------------------------
# CLI process behaviour


def test_cli_eval_bundled_el1_value():
    result = run_cli("eval", str(SCENES / "paper_el1.json"))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    by_name = {r["name"]: r["value"] for r in report["results"]}
    assert abs(by_name["r_ab"] - (math.atan(2) - math.pi / 4)) < 1e-12
    assert abs(by_name["r_ac"] - (math.pi - math.atan(2) - math.atan(3))) < 1e-12


def test_cli_eval_exit_1_on_bad_scene(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "space": "el3",
        "entities": {"L": {"role": "line", "coeffs": {"e10": 1, "e23": 1e-3}}},
        "queries": [],
    }))
    result = run_cli("eval", str(bad))
    assert result.returncode == 1
    assert "plücker residual" in result.stderr


@pytest.mark.parametrize("role, value", [
    ("point", math.nan), ("any", math.nan), ("any", math.inf), ("any", -math.inf)])
def test_cli_eval_exit_1_on_non_finite_coefficient(tmp_path, role, value):
    bad = tmp_path / "non_finite.json"
    bad.write_text(json.dumps(scene_dict(entities={
        "P": {"role": role, "coeffs": {"e12": 1, "e20": value}},
        "Q": {"role": "point", "coeffs": {"e12": 1, "e01": 2}},
    })))
    result = run_cli("eval", str(bad))
    assert result.returncode == 1
    assert result.stdout == ""
    assert "entity 'P'" in result.stderr and "'e20' must be a finite number" in result.stderr


def test_cli_eval_exit_1_on_unparseable(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    result = run_cli("eval", str(bad))
    assert result.returncode == 1


def test_cli_eval_exit_2_on_math_error(tmp_path):
    scene = tmp_path / "domain.json"
    scene.write_text(json.dumps({
        "space": "el3",
        "entities": {
            "bad": {"coeffs": {"1": 1, "e0123": 1}},
        },
        "queries": [{"name": "inv", "op": "inverse_blade", "args": ["bad"]}],
    }))
    result = run_cli("eval", str(scene))
    assert result.returncode == 2
    assert "inv" in result.stderr


def test_cli_distance_of_a_point_whose_squares_overflow(tmp_path):
    scene = tmp_path / "huge.json"
    scene.write_text(json.dumps(scene_dict(
        entities={"P": {"role": "point", "coeffs": {"e12": 1e308, "e20": 1e308}},
                  "Q": {"role": "point", "coeffs": {"e12": 1}}},
    )))
    result = run_cli("eval", str(scene))
    assert result.returncode == 0, result.stderr
    assert abs(json.loads(result.stdout)["results"][0]["value"] - math.pi / 4) < 1e-12


def test_cli_line_whose_squares_overflow_loads(tmp_path):
    line = {"e10": 1, "e20": 2, "e30": 3, "e23": 4, "e31": 5, "e12": -4.666666666666667}
    distances = []
    for scale in (1.0, 1e200):
        scene = tmp_path / "line.json"
        scene.write_text(json.dumps({"space": "el3", "entities": {
            "L": {"role": "line", "coeffs": {k: v * scale for k, v in line.items()}},
            "P": {"role": "point", "coeffs": {"e123": 1}},
        }, "queries": [{"name": "r", "op": "distance_line_point", "args": ["L", "P"]}]}))
        result = run_cli("eval", str(scene))
        assert result.returncode == 0, result.stderr
        distances.append(json.loads(result.stdout)["results"][0]["value"])
    assert abs(distances[1] - distances[0]) <= 1e-12


@pytest.mark.parametrize("a, b", [
    ({"e0": 1e200, "e1": 1}, {"e0": 1e200}),                  # the scalar part is inf
    ({"e0": 1e200, "e1": 1e200}, {"e0": 1e200, "e1": -1e200}),  # ... and inf - inf
], ids=["overflow", "nan"])
def test_cli_eval_exit_2_on_a_non_finite_result(tmp_path, a, b):
    scene = tmp_path / "non_finite.json"
    scene.write_text(json.dumps({
        "space": "el2",
        "entities": {"a": {"coeffs": a}, "b": {"coeffs": b}},
        "queries": [{"name": "ab", "op": "geometric_product", "args": ["a", "b"]}],
    }))
    result = run_cli("eval", str(scene))
    assert result.returncode == 2
    assert "query 'ab'" in result.stderr and "not finite" in result.stderr
    assert "Infinity" not in result.stdout and "NaN" not in result.stdout


def test_cli_tolerance_override(tmp_path):
    scene = tmp_path / "loose.json"
    scene.write_text(json.dumps({
        "space": "el3",
        "entities": {"L": {"role": "line",
                           "coeffs": {"e10": 1, "e23": 1e-3, "e20": 1}}},
        "queries": [],
    }))
    assert run_cli("eval", str(scene)).returncode == 1
    assert run_cli("eval", str(scene), "--tolerance", "1e-2").returncode == 0


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_cli_tolerance_must_be_finite_and_positive(value):
    result = run_cli("eval", str(SCENES / "paper_el1.json"), "--tolerance", value)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "tolerance must be a finite positive number" in result.stderr


def test_cli_tolerance_does_not_outlive_the_call(capsys):
    from elga import cli
    assert cli.main(["eval", str(SCENES / "paper_el3.json"), "--tolerance", "1e-2"]) == 0
    assert algebra.epsilon() == 1e-9


def test_report_multivectors_round_trip():
    scene = load_scene_file(str(SCENES / "paper_el2.json"))
    report = evaluate_scene(scene)
    text = report_to_json(report)
    parsed = json.loads(text)
    for record in parsed["results"]:
        value = record["value"]
        if isinstance(value, dict) and "coeffs" in value:
            mv = from_json_dict(value)
            again = json.loads(json.dumps({"space": mv.space.value,
                                           "coeffs": dict(value["coeffs"])}))
            back = from_json_dict(again)
            assert np.array_equal(mv.coeffs, back.coeffs)


# ---------------------------------------------------------------------------
# figures


def test_figure_circle_trajectory_closed_convex():
    scene = load_scene_file(str(SCENES / "paper_el2.json"))
    fig = figures.build_figure(scene, "circle-trajectory", 256)
    # elliptic circle: never leaves the chart, one closed polyline
    assert len(fig.polylines) == 1
    pts = np.array(fig.polylines[0][1])
    assert len(pts) == 256
    assert np.all(np.isfinite(pts))
    # closed-ish: last sample is near the first
    assert np.linalg.norm(pts[0] - pts[-1]) < np.ptp(pts) * 0.2


def test_figure_parallels_constant_distance():
    scene = load_scene_file(str(SCENES / "paper_el3.json"))
    fig = figures.build_figure(scene, "clifford-parallels", 24)
    lam = normalized(scene.entities["line"])
    rows = [r for r in fig.csv_rows if r[0] != "line"]
    assert {r[0] for r in rows} == {"positive", "negative"}
    assert len({(r[0], r[1]) for r in rows}) == 64
    for row in rows[:200]:
        point = Multivector.from_terms(Space.EL3, {
            "e123": row[4], "e320": row[5], "e130": row[6], "e210": row[7]})
        assert abs(el3.distance_line_point(lam, point) - math.pi / 10) < 1e-9


def test_figure_chart_crossing_splits_polyline():
    # a hyperbolic circle leaves the affine chart twice per period, so the
    # trajectory must arrive as several polylines, all with finite points
    scene = load_scene({
        "space": "el2",
        "entities": {
            "R": {"role": "point", "coeffs": {"e20": 1}},
            "P": {"role": "point", "coeffs": {"e12": 1, "e20": 0.6666666666666666}},
        },
        "queries": [],
    })
    fig = figures.build_figure(scene, "circle-trajectory", 512)
    assert len(fig.polylines) >= 2
    for _, run in fig.polylines:
        assert np.all(np.isfinite(np.array(run)))


def test_figure_rotation_flow_requires_seeds():
    scene = load_scene(scene_dict(space="el3", entities={
        "axis": {"role": "line", "coeffs": {"e23": 1}},
    }, queries=[]))
    with pytest.raises(SceneError):
        figures.build_figure(scene, "rotation-flow", 16)


def test_figure_missing_entity_exit_1(tmp_path):
    scene = tmp_path / "nofig.json"
    scene.write_text(json.dumps({"space": "el2", "entities": {}, "queries": []}))
    result = run_cli("figure", str(scene), "--kind", "circle-trajectory",
                     "--out", str(tmp_path / "fig"))
    assert result.returncode == 1


def test_figure_zero_samples_exit_1(tmp_path):
    result = run_cli("figure", str(SCENES / "paper_el2.json"),
                     "--kind", "circle-trajectory", "--samples", "0",
                     "--out", str(tmp_path / "fig"))
    assert result.returncode == 1


def test_figure_clifford_bivector_axis_exit_2(tmp_path):
    scene = tmp_path / "clifford_axis.json"
    scene.write_text(json.dumps({"space": "el3", "entities": {
        "axis": {"coeffs": {"e10": 1, "e23": 1}},
        "s": {"role": "point", "coeffs": {"e123": 1}},
    }, "queries": []}))
    result = run_cli("figure", str(scene), "--kind", "rotation-flow",
                     "--out", str(tmp_path / "fig"))
    assert result.returncode == 2
    assert "must be simple" in result.stderr


@pytest.mark.parametrize("theta", [4.0, -0.1, math.nan])
def test_figure_theta_outside_range_exit_1(tmp_path, theta):
    data = json.loads((SCENES / "paper_el3.json").read_text())
    data["figure"]["theta"] = theta
    scene = tmp_path / "theta.json"
    scene.write_text(json.dumps(data))
    result = run_cli("figure", str(scene), "--kind", "clifford-parallels",
                     "--out", str(tmp_path / "fig"))
    assert result.returncode == 1
    assert "figure.theta" in result.stderr and "Traceback" not in result.stderr


def test_figure_writes_svg_and_csv(tmp_path):
    out = tmp_path / "flow"
    result = run_cli("figure", str(SCENES / "paper_el3.json"),
                     "--kind", "rotation-flow", "--samples", "32",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    svg = (tmp_path / "flow.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    with open(tmp_path / "flow.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "t", "e123", "e320", "e130", "e210"]
    assert len(rows) > 32


def test_figure_unwritable_out_exit_1(tmp_path):
    out = tmp_path / "missing_dir" / "fig"
    result = run_cli("figure", str(SCENES / "paper_el2.json"),
                     "--kind", "circle-trajectory", "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: cannot write {out}.svg: ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


def _report_values(name):
    scene = load_scene_file(str(SCENES / f"{name}.json"))
    return {r["name"]: r["value"] for r in evaluate_scene(scene)["results"]}


def mv_of(value):
    return from_json_dict(value)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol


def mv_close(value, space, terms, tol=1e-12):
    got = mv_of(value)
    want = Multivector.from_terms(space, terms)
    return float(np.max(np.abs(got.coeffs - want.coeffs))) <= tol


def test_bundled_el1_scene_reproduces_worked_values():
    v = _report_values("paper_el1")
    assert close(v["r_ab"], math.atan(2) - math.pi / 4)
    assert close(v["r_ac"], math.pi - math.atan(2) - math.atan(3))
    assert close(v["r_origin_e0"], math.pi / 2)
    assert mv_close(v["polar_e0"], Space.EL1, {"e1": 1})
    assert mv_close(v["polar_origin"], Space.EL1, {"e0": -1})
    assert mv_close(v["translate_origin_half"], Space.EL1,
                    {"e0": -math.sin(0.5), "e1": math.cos(0.5)})
    assert mv_close(v["translate_a_pi"], Space.EL1, {"e0": 2, "e1": -1})
    assert mv_close(v["project_polar_b_on_b"], Space.EL1, {})
    assert mv_close(v["dual_e0"], Space.EL1, {"e1": 1})
    alpha = math.pi / 3
    assert mv_close(v["product_param"], Space.EL1,
                    {"1": math.cos(alpha), "e01": math.sin(alpha)})
    assert mv_close(v["exp_quarter"], Space.EL1, {"e01": 1})
    assert close(v["norm_a"], math.sqrt(5))


def test_bundled_el2_scene_reproduces_worked_values():
    v = _report_values("paper_el2")
    assert close(v["r_P1Q1"], math.acos(1 / math.sqrt(10)))
    assert abs(abs(mv_of(v["inner_unit"]).scalar_part) - 1 / math.sqrt(10)) < 1e-12
    assert mv_close(v["join_P1Q1"], Space.EL2, {"e0": -2, "e1": 2, "e2": 1})
    assert close(v["norm_a"], 3.0)
    assert close(v["r_a_Pd"], math.asin(2.4 / (3 * math.sqrt(2))))
    assert close(v["r_e0_origin"], math.pi / 2)
    assert mv_close(v["polar_a"], Space.EL2, {"e12": -2, "e20": 2, "e01": 1})
    assert close(v["area_equilateral"], math.pi / 2)
    assert close(v["area_equilateral_right"], math.pi / 2)
    assert close(v["area_triangle"], v["area_triangle_wrapped"], 1.0)  # both defined
    assert v["circle_elliptic"] == "elliptic"
    assert v["circle_hyperbolic"] == "hyperbolic"
    assert v["circle_line"] == "line"


def test_bundled_el3_scene_reproduces_worked_values():
    v = _report_values("paper_el3")
    assert mv_close(v["join_line"], Space.EL3, {
        "e20": -1 / 3, "e30": 1, "e23": 1, "e31": -1, "e12": -1 / 3})
    assert close(v["norm_line"], math.sqrt(29) / 3)
    assert close(v["dist_origin_P0"], math.pi / 4)
    assert close(v["dist_line_P0"], 0.0)
    assert close(v["dist_line_polar_point"], math.pi / 2)
    m = v["metrics_commutator_pair"]
    assert close(math.sin(m["r1"]), math.sqrt((22 - 5 * math.sqrt(17)) / 59))
    assert close(math.sin(m["r2"]), math.sqrt((22 + 5 * math.sqrt(17)) / 59))
    polar = v["metrics_line_polar"]
    assert polar["relation"] == "clifford_parallel"
    assert close(polar["r"], math.pi / 2)
    own = v["metrics_line_self"]
    assert close(own["r"], 0.0) and close(own["alpha"], 0.0, 1e-6)
    assert close(v["angle_line_in_plane"], 0.0)
    assert close(v["angle_line_thru_polar"], math.pi / 2)
    # theta = 0 parallel is the polar line, scaled by the input weight
    assert np.allclose(
        mv_of(v["parallel_theta_zero"]).coeffs, mv_of(v["line_dual"]).coeffs,
        atol=1e-12)
    assert mv_close(v["translate_origin_quarter"], Space.EL3,
                    {"e320": -1}, 1e-12)
    assert np.allclose(mv_of(v["translate_Pt"]).coeffs,
                       mv_of(v["translate_Pt_quat"]).coeffs, atol=1e-12)
    assert v["quat_Pt"] == [0.5, 0.5, 0.5, 0.5]
    # a point of the axis line stays on it under the double rotation
    from elga.algebra import regressive, coeff_norm
    moved = mv_of(v["double_rotate_on_line"])
    axis = Multivector.from_terms(Space.EL3, {
        "e20": -1 / 3, "e30": 1, "e23": 1, "e31": -1, "e12": -1 / 3})
    assert coeff_norm(regressive(axis, moved)) < 1e-12


def test_round_report_rounds_recursively():
    obj = {"a": 0.1234567890123456789, "b": [1.0, {"c": math.pi}], "s": "x"}
    rounded = round_report(obj, 5)
    assert rounded["a"] == 0.12346
    assert rounded["b"][1]["c"] == 3.1416
    assert rounded["s"] == "x"


# ---------------------------------------------------------------------------
# op registry and query args

_SHARED = {"norm": ("mv",), "dual_I": ("mv",), "regressive": ("mv", "mv"),
           "outer": ("mv", "mv"), "inner": ("mv", "mv"),
           "geometric_product": ("mv", "mv"), "commutator": ("mv", "mv"),
           "reverse": ("mv",), "inverse_blade": ("mv",),
           "canonicalize_sign": ("mv",), "exp_bivector": ("mv",)}
_MV2 = ("mv", "mv")
OP_TABLE = {
    "el1": {**_SHARED, "distance": _MV2, "polar": ("mv",), "translate": ("mv", "num"),
            "reflect": _MV2, "project": _MV2, "reject": _MV2},
    "el2": {**_SHARED, "distance_pp": _MV2, "angle_ll": _MV2, "distance_lp": _MV2,
            "perpendicular_through": _MV2, "triangle_area": ("mv", "mv", "mv"),
            "right_triangle_area": ("mv", "mv", "mv"), "project": _MV2, "reject": _MV2,
            "reflect_topdown": _MV2, "reflect_bottomup": _MV2,
            "rotate": ("mv", "mv", "num"), "classify_circle": _MV2},
    "el3": {**_SHARED, "distance_pp": _MV2, "distance_plane_point": _MV2,
            "distance_line_point": _MV2, "angle_planes": _MV2, "angle_line_plane": _MV2,
            "axis_decompose": ("mv",), "clifford_frame": ("mv",),
            "clifford_parallel": ("mv", "family", "num", "num"),
            "clifford_bivector": ("mv", "family"), "parallel_through_point": ("xi", "mv"),
            "line_line_metrics": _MV2, "project_on_plane": _MV2, "reject_by_plane": _MV2,
            "project_on_point": _MV2, "reject_by_point": _MV2, "project_on_line": _MV2,
            "reject_by_line": _MV2, "project_line_on_line": ("mv", "mv", "kind"),
            "reject_line_by_line": ("mv", "mv", "kind"), "perpendicular_through": _MV2,
            "reflect": ("mv", "mv", "direction"), "double_rotation": ("mv", "mv", "num", "num"),
            "clifford_translate": ("mv", "xi", "num"), "quaternion_bridge": ("mv",),
            "clifford_translate_quat": ("mv", "mv", "num", "side")},
}


def test_registry_derived_from_annotations_matches_op_table():
    derived = {space.value: {op: spec.arg_kinds for op, spec in op_registry(space).items()}
               for space in Space}
    assert derived == OP_TABLE


def test_every_op_parameter_is_a_scene_arg():
    # a per-call override (say a tolerance) would be a parameter no scene can set
    for space in Space:
        for op, spec in op_registry(space).items():
            params = inspect.signature(spec.func).parameters
            assert len(spec.arg_kinds) == len(params), f"{space.value}.{op}"
    assert not hasattr(algebra, "set_epsilon") and not hasattr(algebra, "_EPSILON")


def test_names_used_by_readme_and_bench_resolve():
    root = SCENES.parents[2]
    modules = {"el1": el1, "el2": el2, "el3": el3}
    sources = [root / "README.md", *sorted((root / "bench").rglob("*.py"))]
    used = set()
    for path in sources:
        text = path.read_text(encoding="utf-8")
        imported = re.search(r"from elga import ([^\n]*)", text)
        for mod in (imported.group(1).replace(",", " ").split() if imported else ()):
            if mod in modules:
                used |= {(mod, name) for name in re.findall(rf"\b{mod}\.(\w+)", text)}
    assert {"rotate", "sweep_line_point", "LineEl3"} <= {name for _, name in used}
    missing = [f"{mod}.{name}" for mod, name in used if not hasattr(modules[mod], name)]
    assert not missing


@pytest.mark.parametrize("space, entities, query, code", [
    ("el3", {"L": {"role": "line", "coeffs": {"e23": 1}}},
     {"name": "par", "op": "clifford_parallel", "args": ["L", "sideways", 0.0, 1.0]}, 1),
    ("el2", {"P": {"role": "point", "coeffs": {"e12": 1}},
             "R": {"role": "point", "coeffs": {"e12": 1, "e20": 0.5}}},
     {"name": "rot", "op": "rotate", "args": ["P", "R", "0.5"]}, 1),
    ("el3", {"L": {"role": "line", "coeffs": {"e23": 1}},
             "P": {"role": "point", "coeffs": {"e123": 1}}},
     {"name": "ptp", "op": "parallel_through_point", "args": ["L", "P"]}, 2),
    ("el2", {"P": {"role": "point", "coeffs": {"e12": 1}},
             "R": {"role": "point", "coeffs": {"e12": 1, "e20": 0.5}}},
     {"name": "rot", "op": "rotate", "args": ["P", "R", math.nan]}, 1),
], ids=["bad-family", "string-angle", "non-clifford-xi", "nan-angle"])
def test_bad_query_arg_exits_cleanly(tmp_path, space, entities, query, code):
    path = tmp_path / "bad_arg.json"
    path.write_text(json.dumps({"space": space, "entities": entities, "queries": [query]}))
    result = run_cli("eval", str(path))
    assert result.returncode == code
    assert query["name"] in result.stderr
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# figure rows against the per-sample motions


def _assert_rows(rows, expected):
    """Each row ends in (t, coefficients), equal to its expected sample."""
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        got = np.array(row[-len(want):], dtype=float)
        assert np.max(np.abs(got - np.array(want))) <= 1e-12, row


def _coeffs(mv, names):
    return [mv.coeff(n) for n in names]


def test_figure_rows_match_per_sample_motions():
    samples = 7
    el2_scene = load_scene_file(str(SCENES / "paper_el2.json"))
    p, r = (normalized(el2_scene.entities[n]) for n in ("P", "R"))
    fig = figures.build_figure(el2_scene, "circle-trajectory", samples)
    ts = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    _assert_rows(fig.csv_rows, [[t, *_coeffs(el2.rotate(p, r, t), ("e12", "e20", "e01"))]
                                for t in ts])

    point_names = ("e123", "e320", "e130", "e210")
    raw = json.loads((SCENES / "paper_el3.json").read_text())
    count = raw["figure"]["parallels"] = 2
    el3_scene = load_scene(raw)
    fig = figures.build_figure(el3_scene, "clifford-parallels", samples)
    line = normalized(el3_scene.entities["line"])
    theta = raw["figure"]["theta"]
    lines = [(("line", -1), line)] + [
        ((fam, i), el3.clifford_parallel(line, fam, 2.0 * math.pi * i / count, theta))
        for fam in ("positive", "negative") for i in range(count)]
    expected, keys = [], []
    for key, ln in lines:
        anchor = el3.point_on_line(ln)
        for t in np.linspace(0.0, math.pi, samples):
            keys.append(key)
            expected.append([t, *_coeffs(el3.sweep_line_point(ln, anchor, t), point_names)])
    assert [tuple(row[:2]) for row in fig.csv_rows] == keys
    _assert_rows(fig.csv_rows, expected)

    fig = figures.build_figure(el3_scene, "rotation-flow", samples)
    axis = normalized(el3_scene.entities["axis"])
    seeds = sorted(n for n, role in el3_scene.roles.items() if role == "point")
    ts = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    expected = [[t, *_coeffs(exp_bivector(axis * (-0.5 * t)).apply(
        normalized(el3_scene.entities[n])), point_names)] for n in seeds for t in ts]
    assert [row[0] for row in fig.csv_rows] == [n for n in seeds for _ in ts]
    _assert_rows(fig.csv_rows, expected)


def test_figures_make_no_spinor_per_sample(monkeypatch):
    # loading first builds the op registries from the unpatched functions
    el2_scene = load_scene_file(str(SCENES / "paper_el2.json"))
    el3_scene = load_scene_file(str(SCENES / "paper_el3.json"))
    calls = []
    spinor_init, exp = algebra.Spinor.__init__, algebra.exp_bivector

    def counted_init(self, mv):
        calls.append("Spinor")
        spinor_init(self, mv)

    def counted_exp(*args, **kwargs):
        calls.append("exp_bivector")
        return exp(*args, **kwargs)

    monkeypatch.setattr(algebra.Spinor, "__init__", counted_init)
    for module in (algebra, el2, el3):               # each binds the name
        monkeypatch.setattr(module, "exp_bivector", counted_exp)
    for scn, kind in ((el2_scene, "circle-trajectory"), (el3_scene, "clifford-parallels"),
                      (el3_scene, "rotation-flow")):
        counts = []
        for samples in (8, 256):
            calls.clear()
            figures.build_figure(scn, kind, samples)
            counts.append(len(calls))
        assert counts[0] == counts[1], (kind, counts)


def test_clifford_parallels_figure_builds_one_frame(monkeypatch):
    scn = load_scene_file(str(SCENES / "paper_el3.json"))
    assert scn.figure["family"] == "both" and scn.figure["parallels"] == 32
    calls = []
    frame = el3.clifford_frame

    def counted(line):
        calls.append(line)
        return frame(line)

    monkeypatch.setattr(el3, "clifford_frame", counted)
    fig = figures.build_figure(scn, "clifford-parallels", 4)
    assert len({tuple(row[:2]) for row in fig.csv_rows}) == 1 + 2 * 32
    assert len(calls) == 1


def test_eval_path_makes_no_copying_multivector(monkeypatch):
    # the copying public constructor is for callers' own arrays; the kernel
    # freezes what it allocates without a copy
    calls = []
    init = Multivector.__init__

    def counted(self, space, coeffs):
        calls.append(space)
        init(self, space, coeffs)

    monkeypatch.setattr(Multivector, "__init__", counted)
    for n in (1, 2, 3):
        report_to_json(evaluate_scene(load_scene_file(str(SCENES / f"paper_el{n}.json"))))
    assert calls == []
    Multivector(Space.EL1, np.zeros(4))
    assert calls == [Space.EL1]


def test_product_code_is_generated_on_first_use_only():
    # each generated product costs an exec, which a cold `elga eval` pays
    # and the eval path runs on float tuples, so it never imports numpy
    code = (
        "import sys\n"
        "import elga.cli\n"
        "from elga import algebra, scene\n"
        "print(sum(map(len, algebra._KERNELS.values())), 'numpy' in sys.modules)\n"
        "for n in (1, 2, 3):\n"
        "    scene.evaluate_scene(scene.load_scene_file(f'{sys.argv[1]}/paper_el{n}.json'))\n"
        "print(sum(map(len, algebra._KERNELS.values())), 'numpy' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code, str(SCENES)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    at_import, numpy_at_import, after_eval, numpy_after_eval = result.stdout.split()
    assert int(at_import) == 0
    assert 0 < int(after_eval) <= 60
    assert numpy_at_import == numpy_after_eval == "False"


json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300]),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@example({"\"\n\t\u2603\x00": [-0.0, 1e-300, math.nan, -math.inf], "": {}, "x": [], "é": None})
@given(json_trees)
def test_report_writer_matches_json_dumps(tree):
    assert report_to_json(tree) == json.dumps(tree, indent=2) + "\n"


def test_report_writer_matches_json_dumps_on_bundled_reports():
    for n in (1, 2, 3):
        report = evaluate_scene(load_scene_file(str(SCENES / f"paper_el{n}.json")))
        text = report_to_json(report)
        assert text == json.dumps(report, indent=2) + "\n"
        assert text == (SCENES / f"paper_el{n}.report.json").read_text(encoding="utf-8")
