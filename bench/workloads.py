"""One workload run, in a fresh interpreter of its own.

    python bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

run.py starts this with PYTHONPATH at the checkout's src/ and every
numpy/BLAS thread pool pinned to one thread, so set-up, peak memory and
lazily filled caches are charged to the workload that caused them.  The
last line of stdout is one JSON object: operations attempted and failed,
the first failure messages, the metrics and the run context.

Untraced runs (--trace 0) measure the end-to-end metrics.  Traced runs
(--trace 1) time the workload with and without spans to get the tracing
overhead, then time every layer from outside: spans around the
benchmark's own calls into scene, el1/el2/el3, figures and algebra, and
fresh interpreters for the cli layer.  Nothing under src/ is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import check
import gen
from spans import NullRecorder, Recorder

from elga import algebra, el2, el3, figures, scene

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ("paper_el1", "paper_el2", "paper_el3")
SETUP_PROBES = 10
NULL = NullRecorder()

Result = Tuple[float, int, List[str]]   # (seconds, items, failure messages)


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _failure(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


_COERCE = {
    "mv": lambda scn, raw: scn.entities[raw],
    "xi": lambda scn, raw: el3.CliffordBivector.from_bivector(scn.entities[raw]),
    "num": lambda scn, raw: float(raw),
    "family": lambda scn, raw: el3.Family(raw),
    "side": lambda scn, raw: el3.Side(raw),
    "direction": lambda scn, raw: el3.Direction(raw),
    "kind": lambda scn, raw: int(raw),
}


class EvalScenes:
    """eval-scenes: load -> evaluate -> serialise generated scenes, in-process."""

    def __init__(self, seed: int, out_dir: str):
        self.scenes = gen.eval_batch(seed)
        self.loaded = [scene.load_scene(s) for s in self.scenes]
        self.expected: List[str] = []

    def __len__(self) -> int:
        return len(self.scenes)

    def gate(self) -> Tuple[int, List[str]]:
        failures: List[str] = []
        for i, s in enumerate(self.scenes):
            try:
                text = scene.report_to_json(scene.evaluate_scene(scene.load_scene(s)))
            except Exception as e:          # counted, and the run goes on
                failures += [f"scene {i}: {_failure(e)}"] * len(s["queries"])
                text = ""
            else:
                failures += [f"scene {i}: {m}" for m in check.check_report_text(s, text)]
            self.expected.append(text)
        return sum(len(s["queries"]) for s in self.scenes), failures

    def request(self, i: int, rec) -> Result:
        s = self.scenes[i % len(self)]
        queries = len(s["queries"])
        start = time.perf_counter()
        try:
            with rec.span("request"):
                with rec.span("scene.load_scene", len(s["entities"])):
                    scn = scene.load_scene(s)
                with rec.span("scene.evaluate_scene", queries):
                    report = scene.evaluate_scene(scn)
                with rec.span("scene.report_to_json", queries):
                    text = scene.report_to_json(report)
        except Exception as e:
            return time.perf_counter() - start, queries, [_failure(e)] * queries
        elapsed = time.perf_counter() - start
        if text == self.expected[i % len(self)]:
            return elapsed, queries, []
        return elapsed, queries, (check.check_report_text(s, text)
                                  or ["report differs from the gated report"])

    def replay(self, i: int, rec) -> None:
        """Each query's op again, through the registry, one span per call."""
        scn = self.loaded[i % len(self)]
        ops = scene.op_registry(scn.space)
        with rec.span("replay"):
            for q in scn.queries:
                spec = ops[q.op]
                args = [_COERCE[k](scn, raw) for k, raw in zip(spec.arg_kinds, q.args)]
                with rec.span(f"{scn.space.value}.{q.op}"):
                    spec.func(*args)


class FigureSweep:
    """figure-sweep: build_figure + write_csv + write_svg over generated scenes."""

    def __init__(self, seed: int, out_dir: str):
        self.requests = [(kind, samples, s, scene.load_scene(s),
                          check.figure_rows_expected(kind, s, samples))
                         for kind, samples, s in gen.figure_batch(seed)]
        self.csv = os.path.join(out_dir, "figure.csv")
        self.svg = os.path.join(out_dir, "figure.svg")
        self.expected: List[Tuple[str, str]] = []

    def __len__(self) -> int:
        return len(self.requests)

    def _read(self) -> Tuple[str, str]:
        with open(self.csv, encoding="utf-8") as c, open(self.svg, encoding="utf-8") as s:
            return c.read(), s.read()

    def gate(self) -> Tuple[int, List[str]]:
        failures: List[str] = []
        attempted = 0
        for kind, samples, s, scn, rows in self.requests:
            attempted += rows
            try:
                fig = figures.build_figure(scn, kind, samples)
                figures.write_csv(fig, self.csv)
                figures.write_svg(fig, self.svg)
            except Exception as e:
                failures += [f"{kind}: {_failure(e)}"] * rows
                self.expected.append(("", ""))
                continue
            failures += check.check_figure(kind, s, samples, fig.csv_rows)
            written = self._read()
            if written[0].count("\n") != len(fig.csv_rows) + 1 \
                    or written[1].count("<polyline") != len(fig.polylines):
                failures += [f"{kind}: written files do not match the figure"] * rows
            self.expected.append(written)
        return attempted, failures

    def request(self, i: int, rec) -> Result:
        kind, samples, s, scn, rows = self.requests[i % len(self)]
        start = time.perf_counter()
        try:
            with rec.span("request"):
                with rec.span(f"figures.build_figure.{kind}", rows):
                    fig = figures.build_figure(scn, kind, samples)
                with rec.span("figures.write_csv", len(fig.csv_rows)):
                    figures.write_csv(fig, self.csv)
                points = sum(len(run) for _, run in fig.polylines) + len(fig.markers)
                with rec.span("figures.write_svg", points):
                    figures.write_svg(fig, self.svg)
        except Exception as e:
            return time.perf_counter() - start, rows, [_failure(e)] * rows
        elapsed = time.perf_counter() - start
        if self._read() == self.expected[i % len(self)]:
            return elapsed, rows, []
        return elapsed, rows, (check.check_figure(kind, s, samples, fig.csv_rows)
                               or ["figure files differ from the gated files"])

    def replay(self, i: int, rec) -> None:
        """The per-sample geometry calls the figure kinds make."""
        kind, _, _, scn, _ = self.requests[i % len(self)]
        ts = (0.3, 1.1, 2.0, 2.9)
        if kind == "clifford-parallels":
            line = algebra.normalized(scn.entities["line"])
            with rec.span("el3.point_on_line"):
                anchor = el3.point_on_line(line)
            for t in ts:
                with rec.span("el3.sweep_line_point"):
                    el3.sweep_line_point(line, anchor, t)
        elif kind == "circle-trajectory":
            p = algebra.normalized(scn.entities["P"])
            r = algebra.normalized(scn.entities["R"])
            for t in ts:
                with rec.span("el2.rotate"):
                    el2.rotate(p, r, t)


class CliCold:
    """cli-cold: one fresh `python -m elga eval` at a time over the bundled scenes."""

    def __init__(self, seed: int, out_dir: str):
        start = seed % len(BUNDLED)
        self.scenes = []
        for name in BUNDLED[start:] + BUNDLED[:start]:
            path = os.path.join("src", "elga", "scenes", f"{name}.json")
            with open(ROOT / "src" / "elga" / "scenes" / f"{name}.report.json",
                      encoding="utf-8") as fh:
                golden = scene.round_report(json.load(fh))
            with open(ROOT / path, encoding="utf-8") as fh:
                queries = len(json.load(fh)["queries"])
            self.scenes.append((path, golden, queries))
        self.stderr = os.path.join(out_dir, "cli.stderr")
        self.rss_mb: List[float] = []

    def __len__(self) -> int:
        return len(self.scenes)

    def gate(self) -> Tuple[int, List[str]]:
        failures: List[str] = []
        for i in range(len(self)):
            failures += self.request(i, NULL)[2]
        return len(self), failures

    def request(self, i: int, rec) -> Result:
        path, golden, queries = self.scenes[i % len(self)]
        with open(self.stderr, "wb") as err:
            start = time.perf_counter()
            with rec.span("request"):
                proc = subprocess.Popen([sys.executable, "-m", "elga", "eval", path],
                                        cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
                try:
                    out = proc.stdout.read()
                finally:
                    proc.stdout.close()
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
            elapsed = time.perf_counter() - start
        self.rss_mb.append(usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            return elapsed, queries, [f"{path}: exit {proc.returncode}"]
        try:
            same = scene.round_report(json.loads(out)) == golden
        except json.JSONDecodeError:
            same = False
        return elapsed, queries, [] if same else [f"{path}: report differs from golden"]


WORKLOADS = {"eval-scenes": EvalScenes, "figure-sweep": FigureSweep, "cli-cold": CliCold}


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add(self, attempted: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.messages += failures[: max(0, 20 - len(self.messages))]


def setup_probe() -> float:
    """Wall time from spawning a fresh interpreter until `import elga.cli` returns."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import os, elga.cli; os.write(1, b'.')"],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    mark = proc.stdout.read(1)
    elapsed = time.perf_counter() - start
    _, err = proc.communicate(timeout=60)
    if proc.returncode != 0 or mark != b".":
        raise RuntimeError(f"import elga.cli failed: {err.decode(errors='replace')[-500:]}")
    return elapsed


def closed_loop(workload, seconds: float, tally: Tally):
    """Whole cycles of requests, one after another, for `seconds`.

    Returns per-request latencies, per-cycle times, set-up times and the
    items in one cycle.  The set-up probes are spread evenly over the run,
    between cycles, so that they see the same machine as the requests do.
    """
    latencies: List[float] = []
    cycles: List[float] = []
    setup: List[float] = []
    items = 0
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        if len(setup) < SETUP_PROBES and \
                time.perf_counter() >= start + len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe())
        cycle, items = 0.0, 0
        for i in range(len(workload)):
            elapsed, n, failures = workload.request(i, NULL)
            latencies.append(elapsed)
            cycle += elapsed
            items += n
            tally.add(n, failures)
        cycles.append(cycle)
    return latencies, cycles, setup, items


def overhead_ratio(workload, seconds: float, tally: Tally) -> float:
    """Traced over untraced time, alternating whole cycles of requests."""
    spent = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + seconds
    while True:
        for traced in (False, True):
            rec = Recorder() if traced else NULL
            for i in range(len(workload)):
                elapsed, n, failures = workload.request(i, rec)
                spent[traced] += elapsed
                tally.add(n, failures)
        if time.perf_counter() >= deadline:
            return spent[True] / spent[False]


def algebra_probes(ev: EvalScenes, fs: FigureSweep) -> List[Tuple[str, object, List[tuple]]]:
    """Kernel calls with operands drawn from the two in-process workloads."""
    def role(space: str, name: str) -> List[algebra.Multivector]:
        return [scn.entities[n] for scn in ev.loaded if scn.space.value == space
                for n, r in scn.roles.items() if r == name]

    def pairs(a: list, b: list) -> List[tuple]:
        return list(zip(a, b[1:] + b[:1]))

    el3_all = [mv for scn in ev.loaded if scn.space.value == "el3"
               for mv in scn.entities.values()]
    el3_json = [(algebra.Space.EL3, e["coeffs"]) for s in ev.scenes if s["space"] == "el3"
                for e in s["entities"].values()]
    pts1, pts2, lines2 = role("el1", "point"), role("el2", "point"), role("el2", "line")
    pts3, planes3, lines3 = role("el3", "point"), role("el3", "plane"), role("el3", "line")
    nonsimple = [scn.entities["B0"] for scn in ev.loaded if "B0" in scn.entities]
    fig_lines = [algebra.normalized(scn.entities[n]) for _, _, _, scn, _ in fs.requests
                 for n in ("line", "axis") if n in scn.entities]
    simple = [algebra.dual_I(ln) * (-0.5 * t) for ln in fig_lines for t in (0.4, 1.3)]
    spinors = [algebra.exp_bivector(b) for b in simple]
    names = ("e123", "e320", "e130", "e210")
    return [
        ("algebra.geometric_product.el1", algebra.geometric_product, pairs(pts1, pts1)),
        ("algebra.geometric_product.el2", algebra.geometric_product, pairs(lines2, pts2)),
        ("algebra.geometric_product.el3", algebra.geometric_product, pairs(lines3, pts3)),
        ("algebra.inner.el3", algebra.inner, pairs(lines3, lines3)),
        ("algebra.outer.el3", algebra.outer, pairs(planes3, planes3)),
        ("algebra.commutator.el3", algebra.commutator, pairs(lines3, lines3)),
        ("algebra.regressive.el2", algebra.regressive, pairs(pts2, pts2)),
        ("algebra.regressive.el3", algebra.regressive, pairs(pts3, pts3)),
        ("algebra.normalized.el3", algebra.normalized, [(x,) for x in lines3]),
        ("algebra.inverse_blade.el3", algebra.inverse_blade, [(x,) for x in lines3]),
        ("algebra.Multivector.el3", algebra.Multivector,
         [(algebra.Space.EL3, np.array(x.coeffs)) for x in el3_all]),
        ("algebra.exp_bivector.el3-simple", algebra.exp_bivector, [(b,) for b in simple]),
        ("algebra.exp_bivector.el3-nonsimple", algebra.exp_bivector,
         [(b,) for b in nonsimple]),
        ("algebra.Spinor.apply.el3", algebra.Spinor.apply, pairs(spinors, pts3)),
        ("algebra.Multivector.coeff", algebra.Multivector.coeff,
         [(p, names[i % 4]) for i, p in enumerate(pts3)]),
        ("algebra.from_coeff_dict.el3", algebra.from_coeff_dict, el3_json),
        ("algebra.to_json_dict.el3", algebra.to_json_dict, [(x,) for x in el3_all]),
    ]


def cli_probes(tally: Tally) -> Dict[str, float]:
    """cli.* metrics: one fresh interpreter per bundled scene, averaged."""
    runs = []
    for name in BUNDLED:
        path = os.path.join("src", "elga", "scenes", f"{name}.json")
        proc = subprocess.run([sys.executable, os.path.join("bench", "cli_probe.py"), path],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        tally.add(1, [] if proc.returncode == 0 else [f"cli probe {path}: {proc.stderr[-300:]}"])
        if proc.returncode == 0:
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return {f"cli.{k}": statistics.fmean(r[k] for r in runs)
            for k in ("import_s", "first_main_ms", "main_ms")} if runs else {}


def layer_metrics(seed: int, seconds: float, out_dir: str, tally: Tally) -> Dict[str, float]:
    """Every per-layer metric, whichever workload this run is for."""
    ev, fs = EvalScenes(seed, out_dir), FigureSweep(seed, out_dir)
    tally.add(*ev.gate())
    tally.add(*fs.gate())
    rec = Recorder()
    eval_self: List[float] = []
    for workload, share in ((ev, 0.35), (fs, 0.3)):
        deadline = time.perf_counter() + share * seconds
        i = 0
        while time.perf_counter() < deadline or i < len(workload):
            first = len(rec.spans)
            elapsed, n, failures = workload.request(i, rec)
            tally.add(n, failures)
            replay_from = len(rec.spans)
            workload.replay(i, rec)
            if workload is ev:
                evaluate = next(sp for sp in rec.spans[first:replay_from]
                                if sp[0] == "scene.evaluate_scene")
                ops_ns = sum(end - start for name, start, end, parent, _
                             in rec.spans[replay_from + 1:])
                eval_self.append((evaluate[2] - evaluate[1] - ops_ns) / 1e3 / n)
            i += 1
    probes = algebra_probes(ev, fs)
    deadline = time.perf_counter() + 0.35 * seconds
    rounds = 0
    while time.perf_counter() < deadline or rounds < 5:
        for name, func, calls in probes:
            with rec.span(name, len(calls)):
                for args in calls:
                    func(*args)
        rounds += 1
    rec.write(os.path.join(out_dir, "spans.jsonl"))

    medians = rec.medians_us()
    metrics = {f"{k}.us": v for k, v in medians.items()
               if k.startswith(("el1.", "el2.", "el3.", "algebra."))}
    for kind in gen.FIGURE_KINDS:
        metrics[f"figures.build_figure.{kind}.us_per_sample"] = \
            medians[f"figures.build_figure.{kind}"]
    metrics["figures.write_csv.us_per_row"] = medians["figures.write_csv"]
    metrics["figures.write_svg.us_per_point"] = medians["figures.write_svg"]
    metrics["scene.load_scene.us_per_entity"] = medians["scene.load_scene"]
    metrics["scene.report_to_json.us_per_query"] = medians["scene.report_to_json"]
    metrics["scene.evaluate_scene.self_us_per_query"] = statistics.median(eval_self)
    metrics.update(cli_probes(tally))
    return metrics


def calibrate() -> Dict[str, float]:
    """Fixed pure-Python and numpy-only loops; their drift shows machine speed."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    mid = time.perf_counter()
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(3000):
        a = np.sqrt(a * a + 1.0) - 1.0
    end = time.perf_counter()
    return {"python_loop_ms": (mid - start) * 1e3, "numpy_loop_ms": (end - mid) * 1e3}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    calibration = {"start": calibrate()}
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, args.out)
    tally.add(*workload.gate())
    context: Dict[str, object] = {"numpy": np.__version__,
                                  "no_oracle_ops": list(check.NO_ORACLE)}
    if args.trace:
        metrics = {"trace.overhead_ratio": overhead_ratio(workload, 0.3 * args.seconds, tally)}
        metrics.update(layer_metrics(args.seed, args.seconds, args.out, tally))
    else:
        latencies, cycles, setup, items = closed_loop(workload, args.seconds, tally)
        if isinstance(workload, CliCold):
            rss = statistics.median(workload.rss_mb)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        p90 = _percentile(latencies, 90)
        metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "request_ms_p50": _percentile(latencies, 50) * 1e3,
            "request_ms_p90": p90 * 1e3,
            "items_per_s": items / statistics.median(cycles),
        }
        context.update(requests=len(latencies), cycles=len(cycles), setup_probes=len(setup),
                       requests_beyond_p90=sum(1 for x in latencies if x > p90))
    calibration["end"] = calibrate()
    context["calibration"] = calibration
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "failures": tally.messages, "metrics": metrics,
                      "context": context}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
