"""The benchmark's own tests: seeded inputs, the correctness gate, metric names.

Run from the repository root:  python -m pytest bench/tests
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import gen
from elga import figures, scene
from elga.algebra import Space

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace, seconds="1", seed="5"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", seed,
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _report(s):
    return json.loads(scene.report_to_json(scene.evaluate_scene(scene.load_scene(s))))


def test_same_seed_gives_byte_identical_scenes():
    first = [json.dumps(s) for s in gen.eval_batch(7)]
    figs = [json.dumps(s) for _, _, s in gen.figure_batch(7)]
    assert first == [json.dumps(s) for s in gen.eval_batch(7)]
    assert figs == [json.dumps(s) for _, _, s in gen.figure_batch(7)]
    assert first != [json.dumps(s) for s in gen.eval_batch(8)]
    code = ("import gen, json; print(json.dumps(gen.eval_batch(7)[-1]), "
            "json.dumps(gen.figure_batch(7)[-1][2]))")
    other = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench",
                           env=dict(os.environ, PYTHONHASHSEED="123"),
                           capture_output=True, text=True, check=True)
    assert other.stdout == f"{first[-1]} {figs[-1]}\n"


@pytest.mark.parametrize("space", list(Space))
def test_each_eval_batch_covers_every_registry_op(space):
    issued = {q["op"] for s in gen.eval_batch(3) if s["space"] == space.value
              for q in s["queries"]}
    assert issued == set(scene.op_registry(space))


def _perturbed(value):
    """The same result, wrong by a relative 1e-6 (or a different label)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return value * (1 + 1e-6) + 1e-6
    if isinstance(value, str):
        return {"elliptic": "hyperbolic"}.get(value, "elliptic")
    if isinstance(value, list):
        return [_perturbed(value[0])] + value[1:]
    if "coeffs" in value:
        coeffs = dict(value["coeffs"])
        name = next(iter(coeffs))
        coeffs[name] = _perturbed(float(coeffs[name]))
        return dict(value, coeffs=coeffs)
    key = next(k for k in ("r", "value", "larger") if k in value)
    return dict(value, **{key: _perturbed(value[key])})


@pytest.mark.parametrize("index", [0, 1, 2, 3, 4, 5])
def test_oracle_rejects_each_perturbed_result(index):
    s = gen.eval_batch(11)[index]
    report = _report(s)
    assert check.check_report(s, report) == []
    for i, result in enumerate(report["results"]):
        if f"{s['space']}.{result['op']}" in check.NO_ORACLE:
            continue
        bad = copy.deepcopy(report)
        bad["results"][i]["value"] = _perturbed(result["value"])
        failures = check.check_report(s, bad)
        assert len(failures) == 1 and failures[0].startswith(result["name"]), result


def _negated(x):
    return -x


def _other(x):
    return {"right": "left", "left": "right",
            "positive": "negative", "negative": "positive"}[x]


# Wrong arguments that keep every invariant of a motion (weight, grade,
# distance moved): a mirrored angle, the other side, the other family.
MIRRORS = {
    "el1.translate": [(1, _negated)],
    "el2.rotate": [(2, _negated)],
    "el3.double_rotation": [(2, _negated), (3, _negated)],
    "el3.clifford_translate": [(2, _negated)],
    "el3.clifford_translate_quat": [(2, _negated), (3, _other)],
    "el3.clifford_parallel": [(1, _other), (2, lambda phi: phi + 1.0)],
}


def test_oracle_rejects_a_mirrored_motion():
    seen = set()
    for s in gen.eval_batch(11)[:6]:
        report = _report(s)
        for i, query in enumerate(s["queries"]):
            op = f"{s['space']}.{query['op']}"
            for index, change in MIRRORS.get(op, []):
                wrong = copy.deepcopy(s)
                wrong["queries"][i]["args"][index] = change(query["args"][index])
                failures = check.check_report(wrong, report)
                assert len(failures) == 1 and failures[0].startswith(query["name"]), \
                    (op, index)
                seen.add(op)
    assert seen == set(MIRRORS)


def test_no_oracle_ops_still_need_finite_coefficients():
    s = next(s for s in gen.eval_batch(11) if s["space"] == "el3")
    report = _report(s)
    i = next(i for i, r in enumerate(report["results"]) if r["op"] == "clifford_frame")
    report["results"][i]["value"]["plus"]["coeffs"]["e23"] = math.nan
    assert len(check.check_report(s, report)) == 1


def test_figure_oracle_rejects_a_perturbed_sample():
    for kind, samples, s in gen.figure_batch(4)[:3]:
        fig = figures.build_figure(scene.load_scene(s), kind, samples)
        rows = list(fig.csv_rows)
        assert check.check_figure(kind, s, samples, rows) == []
        assert len(check.check_figure(kind, s, samples, rows[:-2])) == 2
        rows[3] = rows[3][:-1] + (rows[3][-1] + 1e-7,)
        assert len(check.check_figure(kind, s, samples, rows)) == 1


def _copy_bench(dst: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", dst / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_wrong_program_fails_the_gate_and_the_run(tmp_path):
    _copy_bench(tmp_path, with_src=True)
    el3 = tmp_path / "src" / "elga" / "el3.py"
    source = el3.read_text(encoding="utf-8")
    wrong = source.replace(
        "return math.atan2(coeff_norm(regressive(pn, qn)), abs(inner(pn, qn).scalar_part))",
        "return 1.000001 * math.atan2(coeff_norm(regressive(pn, qn)), "
        "abs(inner(pn, qn).scalar_part))")
    assert wrong != source
    el3.write_text(wrong, encoding="utf-8")
    proc = _run(tmp_path, "eval-scenes", 0)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False and 0 < result["failed"] < result["attempted"]


def test_run_without_program_exits_nonzero_without_result(tmp_path):
    _copy_bench(tmp_path, with_src=False)
    proc = _run(tmp_path, "eval-scenes", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_runner_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and value["value"] > 0
