"""Figure data: sampled trajectories in affine-chart coordinates.

Three kinds are supported:

* ``circle-trajectory`` (el2): orbit of entity ``P`` under rotation around
  entity ``R``, sampled over a full period.
* ``clifford-parallels`` (el3): the parallels of entity ``line`` at the
  scene's ``figure.theta``, ``figure.parallels`` many per requested
  family, each swept along its length.
* ``rotation-flow`` (el3): orbits of every point-role entity under simple
  rotation around entity ``axis``.

Every trajectory is the orbit of a point under exp(-t/2 * b) for a unit
simple generator b (R, the polar line of the swept line, or ``axis``),
sampled from its closed form A0 + Ac cos t + As sin t (``algebra.orbit``)
in plain Python, on one table of (t, cos t, sin t) per figure.
``el2.rotate``, ``el3.sweep_line_point`` and ``exp_bivector`` give the
same points one sandwich at a time.

Chart coordinates divide by the weight coefficient (e12 in el2, e123 in
el3); samples with |weight| < 1e-6 leave the chart and split the
polyline, so emitted polylines contain only finite coordinates.  The CSV
carries the raw normalised coefficients of every sample.

Each trajectory is kept once, as the columns it was sampled into
(``FigureData.traces``); write_csv formats them one trajectory at a time,
with the bytes csv.writer would give.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import chain
from typing import Sequence, Tuple

from . import el3
from .algebra import Multivector, Record, Space, coeff_norm, dual_I, normalized, orbit, tables
from .scene import FIGURE_KINDS, Scene, SceneError, _number

CHART_CUTOFF = 1e-6


class FigureData(Record):
    """Polylines (already projected to 2D) and the sampled trajectories:
    lists of (label, points), (label, point) and traces, which build_figure
    extends.  A trace is (row prefix, [weight column, chart columns...]),
    sampled at every value of the figure's one column ``t``."""

    __slots__ = ("kind", "polylines", "markers", "csv_header", "t", "traces")

    def __init__(self, kind: str, csv_header: Tuple[str, ...] = (), t: Sequence[float] = ()):
        self._fill(kind, [], [], csv_header, t, [])

    @property
    def csv_rows(self) -> list:
        """Every sample's CSV row, prefix + (t, weight, chart coefficients),
        trace after trace.  Rebuilt from the traces on each access, so the
        list is the caller's: editing it changes nothing in the figure."""
        t = self.t
        return [prefix + row for prefix, cols in self.traces for row in zip(t, *cols)]


def _entity(scene: Scene, name: str) -> Multivector:
    try:
        return scene.entities[name]
    except KeyError:
        raise SceneError(f"figure requires an entity named {name!r}")


# fixed orthographic camera for el3 charts (yaw then pitch, drop depth)
_YAW, _PITCH = -0.9, -0.45
_CY, _SY = math.cos(_YAW), math.sin(_YAW)
_CP, _SP = math.cos(_PITCH), math.sin(_PITCH)


def _project3(ws: list, xs: list, ys: list, zs: list) -> list:
    """(u, v) of each chart point (x/w, y/w, z/w): u = cy x + sy y and
    v = cp z - sp depth, with depth = -sy x + cy y."""
    return [(_CY * (xw := x / w) + _SY * (yw := y / w),
             _CP * (z / w) - _SP * (-_SY * xw + _CY * yw)) for w, x, y, z in zip(ws, xs, ys, zs)]


# weight blade then chart blades, and the 2D view of their columns, per space
_CHARTS = {
    Space.EL2: (("e12", "e20", "e01"),
                lambda ws, xs, ys: [(x / w, y / w) for w, x, y in zip(ws, xs, ys)]),
    Space.EL3: (("e123", "e320", "e130", "e210"), _project3),
}


def _sample_table(stop: float, samples: int, endpoint: bool) -> Tuple[list, list, list]:
    """Columns t, cos t and sin t, with t as np.linspace(0.0, stop, samples,
    endpoint) gives it bit for bit: one table serves every trace of a figure."""
    div = samples - 1 if endpoint else samples
    step = stop / div if div else 0.0
    ts = [i * step for i in range(samples)]
    if endpoint and samples > 1:
        ts[-1] = stop
    return ts, list(map(math.cos, ts)), list(map(math.sin, ts))


def _add_trace(fig: FigureData, label: str, prefix: Tuple, table: Tuple[list, list, list],
               b: Multivector, x: Multivector) -> None:
    """Coefficient columns, chart coordinates and polylines of the orbit of x under b.

    The orbit is sampled at every t of the table, the figure's t column,
    from its closed form A0 + Ac cos t + As sin t (algebra.orbit), one
    weight or chart column at a time; fig.traces keeps the columns with the
    row prefix.  A sample whose weight is below CHART_CUTOFF leaves the
    chart and ends the current run; runs are labelled label.0, label.1, ...
    in order, and single-point runs are dropped.
    """
    _, coss, sins = table
    a0, ac, as_ = orbit(b, x)
    names, view = _CHARTS[x.space]
    cols = []
    for slot, sign in map(tables(x.space).name_to_slot.__getitem__, names):
        p, c, s = a0._c[slot], ac._c[slot], as_._c[slot]
        cols.append([((p + cos * c) + sin * s) * sign for cos, sin in zip(coss, sins)])
    fig.traces.append((prefix, cols))
    cuts = [i for i, w in enumerate(cols[0]) if not abs(w) >= CHART_CUTOFF]
    bounds = [-1, *cuts, len(coss)]
    runs = [(i + 1, j) for i, j in zip(bounds, bounds[1:]) if j > i + 1]
    fig.polylines.extend([(f"{label}.{n}", view(*[col[i:j] for col in cols]))
                          for n, (i, j) in enumerate(runs) if j - i >= 2])


def _figure_circle(scene: Scene, samples: int) -> FigureData:
    if scene.space is not Space.EL2:
        raise SceneError("circle-trajectory requires an el2 scene")
    p = normalized(_entity(scene, "P"))
    r = normalized(_entity(scene, "R"))
    table = _sample_table(2.0 * math.pi, samples, False)
    fig = FigureData(kind="circle-trajectory", csv_header=("t", "e12", "e20", "e01"), t=table[0])
    _add_trace(fig, "trajectory", (), table, r, p)
    if abs(r.coeff("e12")) >= CHART_CUTOFF:
        fig.markers.append(("R", (r.coeff("e20") / r.coeff("e12"),
                                  r.coeff("e01") / r.coeff("e12"))))
    return fig


def _sample_line(fig: FigureData, label: str, line: Multivector, table: Tuple[list, list, list],
                 row_prefix: Tuple) -> None:
    """Sweep a point of the line along it: rotation around its polar line."""
    _add_trace(fig, label, row_prefix, table,
               dual_I(normalized(line)), el3.point_on_line(line))


def _figure_parallels(scene: Scene, samples: int) -> FigureData:
    if scene.space is not Space.EL3:
        raise SceneError("clifford-parallels requires an el3 scene")
    line = _entity(scene, "line")
    params = scene.figure
    try:
        theta = _number(params.get("theta"))
    except ValueError as e:
        raise SceneError(f"figure.theta: {e}")
    if not 0.0 <= theta <= math.pi:
        raise SceneError("figure.theta must be a finite number in [0, pi]")
    count = params.get("parallels", 32)
    if type(count) is not int or count < 1:           # a JSON true is no count
        raise SceneError("figure.parallels must be a positive integer")
    family = params.get("family", "both")
    if family not in ("positive", "negative", "both"):
        raise SceneError("figure.family must be positive, negative or both")
    families = ("positive", "negative") if family == "both" else (family,)
    table = _sample_table(math.pi, samples, True)
    fig = FigureData(kind="clifford-parallels", t=table[0],
                     csv_header=("family", "index", "phi", "t", "e123", "e320", "e130", "e210"))
    unit = normalized(line)
    _sample_line(fig, "line", unit, table, ("line", -1, math.nan))
    frame, weight = el3.clifford_frame(unit), coeff_norm(unit)
    for fam in families:
        for i in range(count):
            phi = 2.0 * math.pi * i / count
            par = frame.parallel(fam, phi, theta) * weight    # el3.clifford_parallel
            _sample_line(fig, f"{fam}.{i}", par, table, (fam, i, phi))
    return fig


def _figure_rotation(scene: Scene, samples: int) -> FigureData:
    if scene.space is not Space.EL3:
        raise SceneError("rotation-flow requires an el3 scene")
    axis = normalized(_entity(scene, "axis"))
    seeds = [(name, mv) for name, mv in sorted(scene.entities.items())
             if scene.roles.get(name) == "point"]
    if not seeds:
        raise SceneError("rotation-flow needs at least one point-role entity")
    table = _sample_table(2.0 * math.pi, samples, False)
    fig = FigureData(kind="rotation-flow",
                     csv_header=("seed", "t", "e123", "e320", "e130", "e210"), t=table[0])
    for name, seed in seeds:
        _add_trace(fig, name, (name,), table, axis, normalized(seed))
    return fig


def build_figure(scene: Scene, kind: str, samples: int) -> FigureData:
    if samples < 1:
        raise SceneError("sample count must be a positive integer")
    if kind == "circle-trajectory":
        return _figure_circle(scene, samples)
    if kind == "clifford-parallels":
        return _figure_parallels(scene, samples)
    if kind == "rotation-flow":
        return _figure_rotation(scene, samples)
    raise SceneError(f"unknown figure kind {kind!r} (expected one of {', '.join(FIGURE_KINDS)})")


# ---------------------------------------------------------------------------
# output


def _csv_cell(value) -> str:
    """What csv.writer writes for value as one cell of a row of several."""
    buf = io.StringIO()
    csv.writer(buf).writerow((value, ""))
    return buf.getvalue()[:-3]


def write_csv(fig: FigureData, path: str) -> None:
    """The header, then csv_rows as csv.writer writes them, one trace at a
    time: a single %-format per trace of its prefix cells (with % escaped),
    the figure's t column, formatted once, and its columns by %r."""
    t_text = list(map(float.__repr__, fig.t))
    blocks = [("".join([_csv_cell(v).replace("%", "%%") + "," for v in prefix])
               + "%s" + ",%r" * len(cols) + "\r\n") * len(t_text)
              % tuple(chain.from_iterable(zip(t_text, *cols)))
              for prefix, cols in fig.traces]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(fig.csv_header)
        fh.writelines(blocks)


def write_svg(fig: FigureData, path: str) -> None:
    """Plain polyline rendering of the figure's chart data, 640 px square."""
    size = 640
    xs, ys = [], []                  # each run's and marker's extremes
    for _, run in fig.polylines:
        if run:
            rx, ry = zip(*run)
            xs += min(rx), max(rx)
            ys += min(ry), max(ry)
    for _, (x, y) in fig.markers:
        xs.append(x)
        ys.append(y)
    if not xs:
        xs, ys = (-1.0, 1.0), (-1.0, 1.0)
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = 0.05 * span
    lx, ly = min(xs) - pad, min(ys) - pad
    scale = size / (span + 2 * pad)

    def to_px(run):
        return tuple([c for x, y in run for c in ((x - lx) * scale, size - (y - ly) * scale)])

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for label, run in fig.polylines:
        path_pts = " ".join(["%.2f,%.2f"] * len(run)) % to_px(run)
        lines.append(
            f'<polyline fill="none" stroke="black" stroke-width="1" '
            f'points="{path_pts}"><title>{label}</title></polyline>'
        )
    for label, p in fig.markers:
        x, y = to_px([p])
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="black">'
                     f'<title>{label}</title></circle>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
