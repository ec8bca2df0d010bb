"""CLI and scene layer: evaluation, validation exits, figures, round-trips."""

import collections
import copy
import csv
import hashlib
import inspect
import json
import math
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path
from typing import Literal, Union

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elga import algebra, el1, el2, el3
from elga.algebra import Multivector, Space, exp_bivector, from_json_dict, normalized
from elga.scene import (
    OpSpec,
    Query,
    QueryError,
    Scene,
    SceneError,
    evaluate_scene,
    load_scene,
    load_scene_file,
    op_registry,
    report_to_json,
    round_report,
    serialize_value,
)
from elga import figures
from elga import scene as scene_mod
from helpers import assert_mv_close

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


NON_FINITE_CASES = [("point", math.nan), ("any", math.nan), ("any", math.inf), ("any", -math.inf)]


def non_finite_scene(role, value):
    return scene_dict(entities={
        "P": {"role": role, "coeffs": {"e12": 1, "e20": value}},
        "Q": {"role": "point", "coeffs": {"e12": 1, "e01": 2}},
    })


@pytest.mark.parametrize("role, value", NON_FINITE_CASES)
def test_cli_eval_exit_1_on_non_finite_coefficient(tmp_path, role, value):
    bad = tmp_path / "non_finite.json"
    bad.write_text(json.dumps(non_finite_scene(role, value)))
    result = run_cli("eval", str(bad))
    assert result.returncode == 1
    assert result.stdout == ""
    assert "entity 'P'" in result.stderr and "'e20' must be a finite number" in result.stderr


NORM_P = {"op": "norm", "args": ["P"]}


NOT_A_STRING_CASES = [
    ({"role": ["x"]}, [NORM_P], "entity 'P'"),
    ({"role": {"point": 1}}, [NORM_P], "entity 'P'"),
    ({}, [{"op": ["norm"], "args": ["P"]}], "query #0"),
    ({}, [{"op": {"norm": 1}, "args": ["P"]}], "query #0"),
    ({}, [{"name": ["x"], **NORM_P}], "query #0: name must be a string"),
    ({}, [{"name": 3, **NORM_P}], "query #0: name must be a string"),
    ({}, [{"name": "n", **NORM_P}, NORM_P, {"name": "n", **NORM_P}],
     "query #2: name 'n' is already used by query #0"),
    ({}, [{"name": "q1", **NORM_P}, NORM_P], "query #1: name 'q1' is already used by query #0"),
]


def not_a_string_scene(entity, queries):
    return {"space": "el2", "queries": queries, "entities": {"P": {"coeffs": {"e12": 1}, **entity}}}


@pytest.mark.parametrize("entity, queries, named", NOT_A_STRING_CASES, ids=[
    "list-role", "object-role", "list-op", "object-op", "list-name", "number-name",
    "repeated-name", "name-of-an-unnamed-query"])
def test_cli_eval_exit_1_on_a_role_or_op_that_is_not_a_string(tmp_path, entity, queries, named):
    bad = tmp_path / "unhashable.json"
    bad.write_text(json.dumps(not_a_string_scene(entity, queries)))
    result = run_cli("eval", str(bad))
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]


UNKNOWN_KEY_CASES = [
    ({"spaec": "el2"}, "scene: unknown key 'spaec'"),
    ({"entities": {"P": {"coeffs": {"e12": 1}, "rol": "point"}}}, "entity 'P': unknown key 'rol'"),
    ({"queries": [{"op": "norm", "args": ["P"], "nmae": "x"}]}, "query #0: unknown key 'nmae'"),
    ({"figure": {"theta": 1.0, "parallel": 2, "familly": "positive"}},
     "figure: unknown key 'parallel'"),
]


@pytest.mark.parametrize("overrides, named", UNKNOWN_KEY_CASES,
                         ids=["scene", "entity", "query", "figure"])
def test_cli_eval_exit_1_on_an_unknown_key(tmp_path, overrides, named):
    # a misspelt key would otherwise leave its default in force unnoticed
    bad = tmp_path / "misspelt.json"
    bad.write_text(json.dumps(scene_dict(**overrides)))
    result = run_cli("eval", str(bad))
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {named} (expected ")


def test_cli_norm_of_an_element_whose_squares_overflow(tmp_path):
    scene = tmp_path / "huge.json"
    scene.write_text(json.dumps({
        "space": "el2", "entities": {"a": {"coeffs": {"e12": 1e308, "e20": 1e308}}},
        "queries": [{"name": "n", "op": "norm", "args": ["a"]}]}))
    result = run_cli("eval", str(scene))
    assert result.returncode == 0, result.stderr
    value = json.loads(result.stdout)["results"][0]["value"]
    assert value == round_report(math.hypot(1e308, 1e308), 15) == 1.4142135623731e308


def test_cli_norm_of_an_element_whose_squares_underflow(tmp_path):
    scene = tmp_path / "tiny.json"
    scene.write_text(json.dumps({
        "space": "el2", "entities": {"a": {"coeffs": {"e12": 2.4e-181, "e20": 1.2e-181}}},
        "queries": [{"name": "n", "op": "norm", "args": ["a"]}]}))
    result = run_cli("eval", str(scene))
    assert result.returncode == 0, result.stderr
    value = json.loads(result.stdout)["results"][0]["value"]
    assert value == round_report(math.hypot(2.4e-181, 1.2e-181), 15) == 2.68328157299975e-181


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


@pytest.mark.parametrize("space, coeffs, angle", [
    ("el3", {"e10": 1.5e308, "e23": 1.2e308, "e12": 1e308}, "2|C|"),
    ("el2", {"e12": 1.5e308, "e20": 1.5e308}, "|b|"),
])
def test_cli_exponential_whose_angle_overflows_names_the_angle(tmp_path, space, coeffs, angle):
    # the angle is inf, which math.cos refused as "math domain error"
    scene = tmp_path / "overflow.json"
    scene.write_text(json.dumps({
        "space": space, "entities": {"B": {"coeffs": coeffs}},
        "queries": [{"name": "x", "op": "exp_bivector", "args": ["B"]}],
    }))
    result = run_cli("eval", str(scene))
    assert result.returncode == 2
    assert f"query 'x': exp_bivector: the rotation angle {angle} overflows" in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_right_triangle_with_coincident_vertices_names_the_query(tmp_path):
    # P v P = 0 passes the right-angle check, and the area was 0.0 with exit 0
    scene = tmp_path / "coincident.json"
    scene.write_text(json.dumps(scene_dict(queries=[
        {"name": "s", "op": "right_triangle_area", "args": ["P", "P", "Q"]},
    ])))
    result = run_cli("eval", str(scene))
    assert result.returncode == 2
    assert "query 's': degenerate triangle: collinear or coincident vertices" in result.stderr
    assert "Traceback" not in result.stderr


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


INVARIANT_OPS = ("distance", "angle", "triangle_area", "right_triangle_area", "classify_circle",
                 "line_line_metrics")


def test_invariant_queries_of_the_bundled_scenes_are_scale_free():
    # each entity argument of each invariant query, times 2**k: the answer
    # is the unscaled one; below about 2**-30 normalized refused it as zero
    cases, failures = 0, []
    for n in (1, 2, 3):
        scene = load_scene_file(SCENES / f"paper_el{n}.json")
        for query in scene.queries:
            if not query.op.startswith(INVARIANT_OPS):
                continue
            want = report_to_json(evaluate_scene(Scene(scene.space, scene.entities, {}, (query,))))
            for i, arg in enumerate(query.args):
                for k in (-1000, -540, -300, 300, 540, 1000):
                    scaled = scene.entities[arg] * 2.0 ** k
                    assert all(x == 0.0 or sys.float_info.min <= abs(x) <= sys.float_info.max
                               for x in scaled._c)
                    args = query.args[:i] + ("scaled",) + query.args[i + 1:]
                    one = Scene(scene.space, {**scene.entities, "scaled": scaled}, {},
                                (Query(query.name, query.op, args),))
                    cases += 1
                    try:
                        got = report_to_json(evaluate_scene(one))
                    except QueryError as e:
                        got = str(e)
                    if got != want:
                        failures.append((n, query.name, i, k, got))
    assert cases == 312 and failures == []


def _answer_kind(value):
    """A report value with every number and coefficient object reduced to its
    type; decisions (flags, families, kinds) are kept as they are."""
    if isinstance(value, dict):
        if set(value) == {"space", "coeffs"}:
            return f"{value['space']} multivector"
        return {k: _answer_kind(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_answer_kind(v) for v in value]
    return "number" if isinstance(value, float) else value


def _outcome(scene, entities, query):
    """The answer kind of one query, or the type of its refusal."""
    try:
        report = evaluate_scene(Scene(scene.space, entities, {}, (query,)))
    except QueryError as e:
        return type(e.cause)
    return _answer_kind(report["results"][0]["value"])


def test_every_query_of_the_bundled_scenes_ends_the_same_way_at_every_scale():
    # each entity argument of each query, times 2**k, gets the unscaled
    # query's kind of answer or its kind of refusal; an absolute zero test in
    # polar and axis_decompose refused the small ones
    cases, failures = 0, []
    for n in (1, 2, 3):
        scene = load_scene_file(SCENES / f"paper_el{n}.json")
        for query in scene.queries:
            want = _outcome(scene, scene.entities, query)
            for i, arg in enumerate(query.args):
                if not isinstance(arg, str) or arg not in scene.entities:
                    continue
                for k in (-300, -40, 40, 300):
                    args = query.args[:i] + ("scaled",) + query.args[i + 1:]
                    entities = {**scene.entities, "scaled": scene.entities[arg] * 2.0 ** k}
                    cases += 1
                    got = _outcome(scene, entities, Query(query.name, query.op, args))
                    if got != want:
                        failures.append((n, query.name, i, k, got, want))
    assert cases == 444 and failures == []


def eval_el3(tmp_path, entities, op, *args):
    """Value of one el3 query through `elga eval`; entities map name -> (role, coeffs)."""
    scene = tmp_path / "el3.json"
    scene.write_text(json.dumps({
        "space": "el3",
        "entities": {n: {"role": role, "coeffs": c} for n, (role, c) in entities.items()},
        "queries": [{"name": "q", "op": op, "args": list(args)}],
    }))
    result = run_cli("eval", str(scene))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)["results"][0]["value"]


def test_cli_parallel_of_a_line_at_3e160_is_finite(tmp_path):
    # the weight was the line's sum of squares, inf past about 1e154: exit 2,
    # "result has a coefficient that is not finite"
    coeffs = {"e20": 3e160, "e23": 3e160, "e12": 1e160}
    value = eval_el3(tmp_path, {"L": ("line", coeffs)},
                     "clifford_parallel", "L", "positive", 0.3, 1.1)
    want = el3.clifford_parallel(Multivector.from_terms(Space.EL3, coeffs), "positive", 0.3, 1.1)
    assert from_json_dict(value) == want
    assert all(math.isfinite(x) for x in value["coeffs"].values())
    assert max(map(abs, value["coeffs"].values())) > 1e160


def test_cli_nearly_opposite_lines_are_generic_not_clifford_parallel(tmp_path):
    # their commutator is small, and an absolute Clifford test on it passed
    lines = {"L": {"e12": 1},
             "M": {"e20": -0.001, "e30": 1e-07, "e23": 0.0007, "e31": -0.0001, "e12": -1}}
    m = eval_el3(tmp_path, {n: ("line", c) for n, c in lines.items()},
                 "line_line_metrics", "L", "M")
    assert m["relation"] == "generic"
    ln, mn = (normalized(Multivector.from_terms(Space.EL3, c)) for c in lines.values())
    sines = abs(algebra.regressive(ln, mn).scalar_part)
    cosines = abs(algebra.inner(ln, mn).scalar_part)
    # 1e-10, as for other derived quantities: 1 - u**2 cancels for |u| near 1
    assert math.isclose(math.sin(m["r1"]) * math.sin(m["r2"]), sines, rel_tol=1e-10)
    assert math.isclose(math.cos(m["r1"]) * math.cos(m["r2"]), cosines, rel_tol=1e-12)
    # the separations come from the commutator's halves, which do not cancel there
    assert math.isclose(math.sin(m["r1"]) * math.sin(m["r2"]), sines, rel_tol=1e-14)


def test_cli_a_bivector_within_sqrt_tolerance_of_clifford(tmp_path):
    # d/c = 1e-6: norm answered and is_clifford_bivector held, while
    # clifford_translate refused it; now both refuse, and the split is still degenerate
    entities = {"B": {"role": "bivector", "coeffs": {"e10": 1 + 1e-6, "e23": 1 - 1e-6}},
                "P": {"role": "point", "coeffs": {"e123": 1}}}
    for op, args in (("norm", ["B"]), ("clifford_translate", ["P", "B", 0.5])):
        scene = tmp_path / f"{op}.json"
        scene.write_text(json.dumps({"space": "el3", "entities": entities,
                                     "queries": [{"name": op, "op": op, "args": args}]}))
        result = run_cli("eval", str(scene))
        assert result.returncode == 2, (op, result.stdout)
        assert f"query {op!r}" in result.stderr and "Traceback" not in result.stderr
    dec = eval_el3(tmp_path, {"B": ("bivector", entities["B"]["coeffs"])}, "axis_decompose", "B")
    assert dec["degenerate"]


@pytest.mark.parametrize("coeffs, want", [
    ({"e10": 1e200, "e23": 1e197}, -1e-3 / (1 + 1e-6)),          # printed -inf
    # the halves' lengths overflow too; printed nan
    ({"e10": 1.7e308, "e20": -1.7e308, "e30": 0.85e308, "e23": 1.7e308, "e31": 1.7e308,
      "e12": 1.7e308}, -0.5 / 5.25),
], ids=["squares", "halves"])
def test_cli_plucker_message_of_a_line_whose_squares_overflow(tmp_path, coeffs, want):
    # the message printed the residual of the unscaled element; now the residual over |b|**2
    bad = tmp_path / "huge_line.json"
    bad.write_text(json.dumps({
        "space": "el3", "entities": {"L": {"role": "line", "coeffs": coeffs}}, "queries": [],
    }))
    result = run_cli("eval", str(bad))
    assert result.returncode == 1
    residual = re.search(r"plücker residual (\S+) exceeds tolerance", result.stderr).group(1)
    assert math.isclose(float(residual), want, rel_tol=1e-3)


def test_cli_axis_decompose_of_a_bivector_whose_squares_overflow(tmp_path):
    # (b.b)**2 overflowed, and the input came back whole as the larger axis
    b = {"e23": 1.0, "e10": 2.0, "e12": 0.5}
    dec = eval_el3(tmp_path, {"B": ("bivector", {k: v * 1e200 for k, v in b.items()})},
                   "axis_decompose", "B")
    unit = el3.axis_decompose(Multivector.from_terms(Space.EL3, b))
    assert not dec["degenerate"] and not unit.degenerate
    for key, want in (("larger", unit.larger), ("smaller", unit.smaller)):
        assert_mv_close(from_json_dict(dec[key]) * 1e-200, want, 1e-12 * algebra.coeff_norm(want))


def test_cli_norm_of_a_clifford_bivector_whose_squares_overflow(tmp_path):
    # exited 2 with "plucker residual -inf": neither structure test survived the overflow
    line = from_json_dict({"space": "el3", "coeffs": {
        "e20": -1 / 3, "e30": 1, "e23": 1, "e31": -1, "e12": -1 / 3}})
    xi = el3.clifford_bivector(line, "positive").value
    n = eval_el3(tmp_path, {"X": ("bivector", algebra.to_coeff_dict(xi * 1e200))}, "norm", "X")
    assert math.isclose(n, 1e200 * algebra.norm(xi), rel_tol=1e-12)


def test_cli_axis_decompose_of_a_line_that_loaded_as_simple(tmp_path):
    # the load check and axis_split's own simplicity test differed by a factor of 2
    dec = eval_el3(tmp_path, {"L": ("line", {"e23": 1, "e10": 8e-10})}, "axis_decompose", "L")
    assert dec["smaller"]["coeffs"] == {} and not dec["degenerate"]
    assert dec["larger"]["coeffs"] == {"e10": 8e-10, "e23": 1.0}


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


def _run_parallels_figure(tmp_path, **params):
    data = json.loads((SCENES / "paper_el3.json").read_text())
    data["figure"].update(params)
    scene = tmp_path / "figure.json"
    scene.write_text(json.dumps(data))
    return run_cli("figure", str(scene), "--kind", "clifford-parallels",
                   "--out", str(tmp_path / "fig"))


@pytest.mark.parametrize("theta", [4.0, -0.1, math.nan, "1.0", True])
def test_figure_theta_outside_range_exit_1(tmp_path, theta):
    result = _run_parallels_figure(tmp_path, theta=theta)
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "figure.theta" in lines[0]


@pytest.mark.parametrize("count", [True, 1.0, 0])
def test_figure_parallels_not_a_positive_integer_exit_1(tmp_path, count):
    result = _run_parallels_figure(tmp_path, parallels=count)
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "figure.parallels" in lines[0]


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


# sha256 of the (CSV, SVG) files of each bundled figure at the default 256
# samples, on x86-64
FIGURE_DIGESTS = {
    ("paper_el2", "circle-trajectory"):
        ("42cb317a9d62a1f67747af13b1c0dea3560720eb5980df93abeec8f2c0e49347",
         "8c0680c16583688f95a7a6047faf57cc4647092cb64da29c5b9acd6fe093e48b"),
    ("paper_el3", "clifford-parallels"):
        ("798458575a8cd4c2be1665e5f3fc1f27642280c34301651302c769fd63734d62",
         "b410dfb1e36b2f3fc3d88420dbde676a4fb0b0b7f94e72b61d017e4d6698c32c"),
    ("paper_el3", "rotation-flow"):
        ("4b15f4cbf3b021dad5170c7edfc07902e8862cdd103c86577b1eaf3b54e09d81",
         "98ce1a2f04cf8f290ab469a71527567580f3e3bf2ee95d2181905fe7ee303d13"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name, kind", list(FIGURE_DIGESTS))
def test_bundled_figure_files_are_pinned(tmp_path, name, kind):
    fig = figures.build_figure(load_scene_file(str(SCENES / f"{name}.json")), kind, 256)
    figures.write_csv(fig, str(tmp_path / "fig.csv"))
    figures.write_svg(fig, str(tmp_path / "fig.svg"))
    assert (_sha256(tmp_path / "fig.csv"), _sha256(tmp_path / "fig.svg")) == FIGURE_DIGESTS[name, kind]


def test_figure_and_eval_run_with_numpy_blocked(tmp_path):
    # numpy is an optional extra: with its import blocked, `elga figure`
    # writes the pinned files and `elga eval` the golden reports
    code = ("import runpy, sys\n"
            "sys.modules['numpy'] = None\n"
            "sys.argv = ['elga', *sys.argv[1:]]\n"
            "runpy.run_module('elga', run_name='__main__', alter_sys=True)\n")
    for (name, kind), digests in FIGURE_DIGESTS.items():
        out = tmp_path / kind
        result = subprocess.run([sys.executable, "-c", code, "figure", str(SCENES / f"{name}.json"),
                                 "--kind", kind, "--out", str(out)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert (_sha256(out.with_suffix(".csv")), _sha256(out.with_suffix(".svg"))) == digests
    for n in (1, 2, 3):
        result = subprocess.run([sys.executable, "-c", code, "eval", str(SCENES / f"paper_el{n}.json")],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == (SCENES / f"paper_el{n}.report.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("samples", [1, 2, 3, 255, 256, 1000])
@pytest.mark.parametrize("stop, endpoint", [(math.pi, True), (2.0 * math.pi, False)],
                         ids=["endpoint", "no-endpoint"])
def test_sample_table_is_numpy_linspace_bit_for_bit(stop, endpoint, samples):
    ts = np.linspace(0.0, stop, samples, endpoint=endpoint).tolist()     # samples=1: [0.0]
    expected = (ts, [math.cos(t) for t in ts], [math.sin(t) for t in ts])
    assert figures._sample_table(stop, samples, endpoint) == expected


def _figure_data(header, t, traces):
    fig = figures.FigureData("table", csv_header=header, t=t)
    fig.traces.extend(traces)
    return fig


def _reference_csv(fig, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fig.csv_header)
        writer.writerows(fig.csv_rows)


# prefix cells csv must quote, or that a %-format or a lookup table could get
# wrong (1, 1.0 and True are equal), and the edge floats for t and the columns
ODD_PREFIXES = [("a,b", 0), ('say "hi"', -3), ("two\nlines", 10 ** 20), ("cr\rhere", 7),
                ("", 1), (None, 2), (True, 3), ("plain", 1.0), ("100%", "%s"), ('""', "")]
EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1]


@pytest.mark.parametrize("header, t, traces", [
    (("label", "n", "t", "x", "y"), EDGE_FLOATS,
     [(prefix, [EDGE_FLOATS[::-1], EDGE_FLOATS[3:] + EDGE_FLOATS[:3]]) for prefix in ODD_PREFIXES]),
    (("label", "t"), [1.0], [((v,), []) for v in ("", None, "a", "x\r\ny", "")]),
    (("t",), EDGE_FLOATS, [((), [])]),
    (("t", "x"), [], [((), [[]])]),
    (("t", "x"), [0.5], []),
    ((), [], []),
], ids=["odd-cells", "one-label-column", "one-float-column", "no-rows", "no-traces", "no-columns"])
def test_write_csv_matches_csv_writer(tmp_path, header, t, traces):
    fig = _figure_data(header, t, traces)
    assert len(fig.csv_rows) == len(t) * len(traces)
    figures.write_csv(fig, str(tmp_path / "fast.csv"))
    _reference_csv(fig, str(tmp_path / "reference.csv"))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# seed names csv must quote, or that a %-format would read as its own
ODD_NAMES = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "100%", "%s", '""']


def _odd_figure(kind):
    if kind == "circle-trajectory":
        return figures.build_figure(load_scene_file(str(SCENES / "paper_el2.json")), kind, 9)
    raw = json.loads((SCENES / "paper_el3.json").read_text())
    raw["figure"]["parallels"] = 3
    for i, name in enumerate(ODD_NAMES):
        raw["entities"][name] = {"role": "point", "coeffs": {"e123": 1, "e320": i, "e130": -0.5}}
    return figures.build_figure(load_scene(raw), kind, 9)


@pytest.mark.parametrize("kind", scene_mod.FIGURE_KINDS)
def test_write_csv_of_built_figures_matches_csv_writer(tmp_path, kind):
    fig = _odd_figure(kind)
    assert len(fig.csv_rows) == len(fig.t) * len(fig.traces) > 0
    if kind == "rotation-flow":
        assert set(ODD_NAMES) <= {row[0] for row in fig.csv_rows}
    figures.write_csv(fig, str(tmp_path / "fast.csv"))
    _reference_csv(fig, str(tmp_path / "reference.csv"))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_csv_rows_is_a_copy_that_edits_do_not_reach(tmp_path):
    fig = _odd_figure("rotation-flow")
    figures.write_csv(fig, str(tmp_path / "before.csv"))
    rows = fig.csv_rows
    row = rows[12]
    rows[12] = (row[0], row[1], row[2] + 1.0, *row[3:])
    rows.append(row)
    figures.write_csv(fig, str(tmp_path / "after.csv"))
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()
    assert fig.csv_rows == rows[:12] + [row] + rows[13:-1]


SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
            'viewBox="0 0 640 640">\n<rect width="640" height="640" fill="white"/>\n')


@pytest.mark.parametrize("markers, body", [
    ([], ""),
    ([("R", (0.25, -0.5)), ("S", (-1, 2))],
     '<circle cx="320.00" cy="610.91" r="3" fill="black"><title>R</title></circle>\n'
     '<circle cx="29.09" cy="29.09" r="3" fill="black"><title>S</title></circle>\n'),
], ids=["empty", "markers-only"])
def test_write_svg_without_polylines(tmp_path, markers, body):
    fig = figures.FigureData("markers")
    fig.markers.extend(markers)
    figures.write_svg(fig, str(tmp_path / "fig.svg"))
    assert (tmp_path / "fig.svg").read_text() == SVG_HEAD + body + "</svg>\n"


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


# the annotation each arg kind is spelled as, evaluated
_KIND_OF_TYPE = {
    algebra.MultivectorLike: "mv", el3.CliffordLike: "xi", float: "num",
    Union[el3.Family, str]: "family", Union[el3.Side, str]: "side",
    Union[el3.Direction, str]: "direction", Literal[1, 2]: "kind",
}


def test_arg_kinds_read_from_annotation_strings_match_the_evaluated_annotations():
    # the registry reads the annotations as written; a respelled one must fail here
    for space in Space:
        for op, spec in op_registry(space).items():
            params = inspect.signature(spec.func, eval_str=True).parameters.values()
            want = tuple(_KIND_OF_TYPE[p.annotation] for p in params)
            assert spec.arg_kinds == want, f"{space.value}.{op}"


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


BAD_QUERY_ARG_CASES = [
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
]


@pytest.mark.parametrize("space, entities, query, code", BAD_QUERY_ARG_CASES,
                         ids=["bad-family", "string-angle", "non-clifford-xi", "nan-angle"])
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


def test_cold_eval_loads_only_its_scenes_space_module():
    # `python -m elga eval`, with the loaded modules printed at exit
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
        "sys.argv = ['elga', 'eval', sys.argv[1]]\n"
        "runpy.run_module('elga', run_name='__main__', alter_sys=True)\n"
    )
    for n in (1, 2, 3):
        result = subprocess.run([sys.executable, "-c", code, str(SCENES / f"paper_el{n}.json")],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["space"] == f"el{n}"
        loaded = set(result.stderr.split())
        assert not loaded & {"dataclasses", "inspect", "numpy"}
        assert {m for m in loaded if re.fullmatch(r"elga\.el\d", m)} == {f"elga.el{n}"}


def test_space_modules_are_package_attributes():
    code = ("import sys, elga\n"
            "assert 'elga.el3' not in sys.modules\n"
            "assert elga.el3.LineEl3 is sys.modules['elga.el3'].LineEl3\n"
            "from elga import el1, el2\n"
            "assert el1.distance and el2.rotate and elga.el2 is el2\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    import elga
    with pytest.raises(AttributeError):
        elga.el4


# ---------------------------------------------------------------------------
# immutable records


_S3 = Space.EL3
_LINE = Multivector.from_terms(_S3, {"e10": 1, "e20": 1, "e23": 1, "e31": -1})


def _xi():
    return el3.clifford_bivector(_LINE, "positive")


# class: (build a fresh instance, a field, hashable, a construction that must raise)
RECORDS = {
    el1.PointEl1: (lambda: el1.PointEl1.from_coeffs(0.5, 1.0), "mv", False,
                   lambda: el1.PointEl1(Multivector.basis(Space.EL1, "e01"))),
    el2.LineEl2: (lambda: el2.LineEl2.from_coeffs(1, 2, 3), "mv", False,
                  lambda: el2.LineEl2(Multivector.zero(Space.EL2))),
    el2.PointEl2: (lambda: el2.PointEl2.from_xy(0.5, 2), "mv", False,
                   lambda: el2.PointEl2(Multivector.basis(Space.EL2, "e1"))),
    el3.PlaneEl3: (lambda: el3.PlaneEl3.from_coeffs(1, 2, 3, 4), "mv", False,
                   lambda: el3.PlaneEl3(Multivector.basis(_S3, "e123"))),
    el3.LineEl3: (lambda: el3.LineEl3(_LINE), "mv", False,
                  lambda: el3.LineEl3(Multivector.from_terms(_S3, {"e10": 1, "e23": 1}))),
    el3.PointEl3: (lambda: el3.PointEl3.from_xyz(1, 2, 3), "mv", False,
                   lambda: el3.PointEl3(Multivector.basis(_S3, "e12"))),
    el3.AxisDecomposition: (lambda: el3.axis_decompose(Multivector.from_terms(
                                _S3, {"e23": 1, "e10": 2, "e12": 0.5})), "larger", False, None),
    el3.CliffordFrame: (lambda: el3.clifford_frame(_LINE), "plus_perp", False, None),
    el3.CliffordBivector: (_xi, "sign", False,
                           lambda: el3.CliffordBivector(_xi().value, el3.Family.NEGATIVE)),
    el3.LineLineMetrics: (lambda: el3.line_line_metrics(_LINE, Multivector.basis(_S3, "e12")),
                          "relation", True, None),
    Query: (lambda: Query("q", "norm", ("P",)), "args", True, None),
    Scene: (lambda: load_scene(scene_dict()), "queries", False, None),
    OpSpec: (lambda: OpSpec(algebra.norm, ("mv",)), "func", True, None),
    figures.FigureData: (lambda: figures.FigureData("rotation-flow", csv_header=("t",)),
                         "kind", False, None),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_equality_hash_immutability_and_checks(cls):
    build, field, hashable, invalid = RECORDS[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != object() and repr(a) == repr(b)
    assert repr(a).startswith(f"{cls.__name__}({cls.__slots__[0]}=")
    if hashable:
        assert hash(a) == hash(b)
    else:                 # a Multivector, dict or list field, as with frozen dataclasses
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    assert copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == b
    if invalid is not None:
        with pytest.raises((ValueError, algebra.AlgebraError)):
            invalid()


def test_record_fields_keep_their_order_and_keywords():
    metrics = el3.LineLineMetrics(r=0.1, alpha=0.2, r1=0.1, r2=0.3,
                                  relation=el3.LineRelation.GENERIC)
    assert metrics == el3.LineLineMetrics(0.1, 0.2, 0.1, 0.3, el3.LineRelation.GENERIC)
    assert metrics != el3.LineLineMetrics(0.1, 0.2, 0.1, 0.4, el3.LineRelation.GENERIC)
    assert Query(name="q", op="norm", args=()) == Query("q", "norm", ())
    assert load_scene(scene_dict()).figure == {}
    with pytest.raises(TypeError):
        Query("q", "norm")
    with pytest.raises(algebra.NonSimpleBivector):
        el3.LineEl3(Multivector.from_terms(_S3, {"e10": 1, "e23": 1}))


def test_serialized_records_keep_the_key_order():
    orders = {
        el3.LineLineMetrics: ["r", "alpha", "r1", "r2", "relation"],
        el3.AxisDecomposition: ["larger", "smaller", "degenerate"],
        el3.CliffordFrame: ["line", "minus", "plus", "minus_perp", "plus_perp"],
        el3.CliffordBivector: ["sign", "value"],
    }
    for cls, keys in orders.items():
        value = serialize_value(RECORDS[cls][0]())
        assert list(value) == keys, cls.__name__
    xi = serialize_value(_xi())
    assert xi["sign"] == "positive" and set(xi["value"]) == {"space", "coeffs"}


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


def _bundled_values():
    return [r["value"] for n in (1, 2, 3)
            for r in evaluate_scene(load_scene_file(str(SCENES / f"paper_el{n}.json")))["results"]]


# evaluate_scene's report shape, which report_to_json writes directly, with
# every kind of value and some names and ops that send it to the generic walk
report_values = json_trees | st.deferred(lambda: st.sampled_from(_bundled_values()))
report_shaped_trees = st.fixed_dictionaries({
    "space": st.text() | st.none(),
    "results": st.lists(st.fixed_dictionaries({
        "name": st.text() | st.integers(), "op": st.text(),
        "value": report_values | st.lists(report_values, max_size=3)}), max_size=6),
})


@settings(max_examples=100, deadline=None)
@example({"space": "el2", "results": [{"name": "n", "op": "norm", "value": v}
                                      for v in (math.nan, -math.inf, -0.0, 2.5)]})
@given(report_shaped_trees)
def test_report_writer_matches_json_dumps_on_report_shaped_trees(tree):
    assert report_to_json(tree) == json.dumps(tree, indent=2) + "\n"


def test_report_writer_matches_json_dumps_on_bundled_reports():
    for n in (1, 2, 3):
        report = evaluate_scene(load_scene_file(str(SCENES / f"paper_el{n}.json")))
        text = report_to_json(report)
        assert text == json.dumps(report, indent=2) + "\n"
        assert text == (SCENES / f"paper_el{n}.report.json").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# the scene boundary: a load that takes exact dicts and lists first, and a
# report writer with a format cached per (space, blade names, indent)


@pytest.mark.parametrize("space, coeffs, first, second", [
    ("el2", {"e21": 1, "e12": 1}, "e21", "e12"),
    ("el3", {"e0123": 1, "I": -1}, "e0123", "I"),
], ids=["el2-transposed", "el3-pseudoscalar"])
def test_cli_eval_exit_1_on_a_blade_named_twice(tmp_path, space, coeffs, first, second):
    # the two spellings were summed: {"e21": 1, "e12": 1} loaded as zero and norm printed 0.0
    bad = tmp_path / "twice.json"
    bad.write_text(json.dumps({"space": space, "entities": {"P": {"coeffs": coeffs}},
                               "queries": [NORM_P]}))
    result = run_cli("eval", str(bad))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error: entity 'P': '{first}' and '{second}' name the same blade\n"


# queries that, with the bundled scene's own, issue every op of the space's registry
EVERY_OP_EXTRA = {
    "el1": [("canonicalize_sign", ["a"]), ("commutator", ["a", "b"]), ("inner", ["a", "b"]),
            ("inverse_blade", ["a"]), ("outer", ["a", "b"]), ("reverse", ["quarter_turn"])],
    "el2": [("canonicalize_sign", ["a"]), ("commutator", ["P1", "Q1"]), ("exp_bivector", ["P1n"]),
            ("geometric_product", ["P1", "Q1"]), ("inverse_blade", ["a"]),
            ("outer", ["a", "mirror"]), ("project", ["Pd", "a"]),
            ("reflect_bottomup", ["Pd", "mirror"]), ("reject", ["Pd", "a"]), ("reverse", ["P1"])],
    "el3": [("angle_planes", ["wall", "wall"]), ("canonicalize_sign", ["line"]),
            ("clifford_bivector", ["line", "positive"]), ("clifford_frame", ["line"]),
            ("commutator", ["lam_c", "phi_c"]), ("distance_plane_point", ["wall", "probe"]),
            ("exp_bivector", ["comm"]), ("geometric_product", ["P0", "Q0"]),
            ("inner", ["line", "lineI"]), ("inverse_blade", ["line"]), ("outer", ["wall", "probe"]),
            ("project_line_on_line", ["line", "beam", 1]), ("project_on_line", ["probe", "line"]),
            ("project_on_point", ["wall", "probe"]), ("reject_by_line", ["probe", "line"]),
            ("reject_by_point", ["wall", "probe"]), ("reject_line_by_line", ["line", "beam", 2]),
            ("reverse", ["line"])],
}


def every_op_scene(n):
    obj = json.loads((SCENES / f"paper_el{n}.json").read_text(encoding="utf-8"))
    obj["queries"] += [{"name": f"every_{op}", "op": op, "args": args}
                       for op, args in EVERY_OP_EXTRA[obj["space"]]]
    return obj


def every_op_report(n):
    """The every-op scene's report, with two more results: its first entity,
    and the same entity one and two lists deeper."""
    scn = load_scene(every_op_scene(n))
    assert {q.op for q in scn.queries} == set(op_registry(scn.space))
    report = evaluate_scene(scn)
    mv = next(iter(scn.entities.values()))
    report["results"] += [{"name": "flat", "op": "dual_I", "value": serialize_value(mv)},
                          {"name": "nested", "op": "dual_I", "value": serialize_value([mv, [mv]])}]
    return report


def test_report_writer_is_the_same_from_a_cold_and_a_warm_cache(monkeypatch):
    # a format keyed on less than (space, blade names, indent) would write
    # one coefficient object in the shape of another
    texts = {}
    reports = {n: every_op_report(n) for n in (1, 2, 3)}
    for n, report in reports.items():
        monkeypatch.setattr(scene_mod, "_FORMATS", {})
        cold = report_to_json(report)
        assert cold == json.dumps(report, indent=2) + "\n"
        assert report_to_json(report) == cold
        texts[n] = cold
    for n in (3, 1, 2):
        assert report_to_json(reports[n]) == texts[n]
    depths = {len(line) - len(line.lstrip()) for line in texts[3].splitlines()
              if line.lstrip().startswith('"coeffs"')}
    assert {8, 10, 12} <= depths


def test_report_writer_format_cache_stays_bounded(rng, monkeypatch):
    monkeypatch.setattr(scene_mod, "_FORMATS", {})
    names = algebra.tables(Space.EL3).names
    for pattern in rng.permutation(1 << 16)[:scene_mod._FORMATS_MAX + 100]:
        mv = Multivector(Space.EL3, [float(pattern >> i & 1) * (i + 0.5) for i in range(16)])
        value = serialize_value(mv)
        assert list(value["coeffs"]) == [n for i, n in enumerate(names) if pattern >> i & 1]
        report = {"space": "el3", "results": [{"name": "q", "op": "norm", "value": value}]}
        assert report_to_json(report) == json.dumps(report, indent=2) + "\n"
        assert len(scene_mod._FORMATS) <= scene_mod._FORMATS_MAX


def test_cli_eval_prints_the_text_written_in_process_after_the_other_scenes(monkeypatch):
    monkeypatch.setattr(scene_mod, "_FORMATS", {})
    for n in (1, 2):
        report_to_json(evaluate_scene(load_scene_file(str(SCENES / f"paper_el{n}.json"))))
    text = report_to_json(evaluate_scene(load_scene_file(str(SCENES / "paper_el3.json"))))
    result = run_cli("eval", str(SCENES / "paper_el3.json"))
    assert result.returncode == 0, result.stderr
    assert result.stdout == text


def general_form(obj, mapping):
    """The scene with each of its objects a `mapping` and its queries and args
    tuples; every other value, a bad one included, is left as it is."""
    def as_mapping(x, convert=lambda key, value: value):
        return mapping({k: convert(k, v) for k, v in x.items()}) if isinstance(x, dict) else x

    def entity(_, spec):
        return as_mapping(spec, lambda k, v: as_mapping(v) if k == "coeffs" else v)

    def query(q):
        return as_mapping(q, lambda k, v: tuple(v) if k == "args" and isinstance(v, list) else v)

    def part(key, value):
        if key == "entities":
            return as_mapping(value, entity)
        if key == "queries" and isinstance(value, list):
            return tuple(map(query, value))
        return as_mapping(value) if key == "figure" else value
    return as_mapping(obj, part)


MAPPINGS = [types.MappingProxyType, collections.OrderedDict]


@pytest.mark.parametrize("mapping", MAPPINGS, ids=lambda m: m.__name__)
def test_a_general_mapping_loads_to_the_scene_a_dict_loads_to(mapping):
    for n in (1, 2, 3):
        obj = every_op_scene(n)
        general = general_form(obj, mapping)
        assert type(general) is mapping and type(general["queries"]) is tuple
        assert load_scene(general) == load_scene(obj)


def refusal_scenes():
    """The scenes the tests above expect load_scene to refuse, and one more
    for each of its other refusals."""
    twice = {"space": "el2", "entities": {"P": {"coeffs": {"e21": 1, "e12": 1}}},
             "queries": [NORM_P]}
    bad_entities = [{"role": "line", "coeffs": {"e12": 1}}, {"coeffs": {"e99": 1}},
                    {"coeffs": [1, 2]}, {"role": "point"}, 3]
    yield from [
        scene_dict(queries=[{"op": "distance_pp", "args": ["P", "missing"]}]),
        scene_dict(queries=[{"op": "frobnicate", "args": ["P"]}]),
        scene_dict(queries=[{"op": "distance_pp", "args": "PQ"}]),
        scene_dict(queries=[{"op": "distance_pp", "args": ["P"]}]),
        scene_dict(queries={"op": "norm"}), scene_dict(queries=["norm"]),
        scene_dict(entities=[]), scene_dict(figure=[]), scene_dict(space="el4"), [], twice,
        {"space": "el3", "entities": {"L": {"role": "line", "coeffs": {"e10": 1, "e23": 1e-3}}}},
    ]
    for spec in bad_entities:
        yield scene_dict(entities={"P": spec, "Q": {"coeffs": {"e12": 1}}})
    yield from (non_finite_scene(role, value) for role, value in NON_FINITE_CASES)
    yield from (not_a_string_scene(entity, queries) for entity, queries, _ in NOT_A_STRING_CASES)
    yield from (scene_dict(**overrides) for overrides, _ in UNKNOWN_KEY_CASES)
    yield from ({"space": space, "entities": entities, "queries": [query]}
                for space, entities, query, code in BAD_QUERY_ARG_CASES if code == 1)


@pytest.mark.parametrize("mapping", MAPPINGS, ids=lambda m: m.__name__)
def test_a_general_mapping_is_refused_with_the_message_a_dict_is(mapping):
    cases = list(refusal_scenes())
    for obj in cases:
        with pytest.raises(SceneError) as plain:
            load_scene(obj)
        with pytest.raises(SceneError) as general:
            load_scene(general_form(obj, mapping))
        assert str(general.value) == str(plain.value)
    assert len(cases) == 36
