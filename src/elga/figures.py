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

write_csv formats one trajectory at a time from the columns it was sampled
into (``FigureData.traces``), with the bytes csv.writer would give.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from itertools import chain
from typing import Tuple

from . import el3
from .algebra import Multivector, Record, Space, coeff_norm, dual_I, normalized, orbit, tables
from .scene import FIGURE_KINDS, Scene, SceneError, _number

CHART_CUTOFF = 1e-6


class FigureData(Record):
    """Polylines (already projected to 2D) plus the raw sample table: lists
    of (label, points), (label, point) and rows, which build_figure extends.

    ``traces`` holds, per trajectory, the columns its rows were zipped from:
    (row prefix, t column, coefficient columns, the rows it appended to
    csv_rows).  write_csv formats from them while csv_rows still holds
    exactly those rows."""

    __slots__ = ("kind", "polylines", "markers", "csv_header", "csv_rows", "traces")

    def __init__(self, kind: str, csv_header: Tuple[str, ...] = ()):
        self._fill(kind, [], [], csv_header, [], [])


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
    """CSV rows, chart coordinates and polylines of the orbit of x under b.

    The orbit is sampled at every t of the table from its closed form
    A0 + Ac cos t + As sin t (algebra.orbit), one weight or chart column at
    a time.  Each sample adds the row prefix + (t, weight, chart
    coefficients), and fig.traces keeps the columns they were zipped from.
    A sample whose weight is below CHART_CUTOFF leaves the chart and ends
    the current run; runs are labelled label.0, label.1, ... in order, and
    single-point runs are dropped.
    """
    ts, coss, sins = table
    a0, ac, as_ = orbit(b, x)
    names, view = _CHARTS[x.space]
    cols = []
    for slot, sign in map(tables(x.space).name_to_slot.__getitem__, names):
        p, c, s = a0._c[slot], ac._c[slot], as_._c[slot]
        cols.append([((p + cos * c) + sin * s) * sign for cos, sin in zip(coss, sins)])
    rows = [prefix + row for row in zip(ts, *cols)]
    fig.csv_rows.extend(rows)
    fig.traces.append((prefix, ts, cols, rows))
    cuts = [i for i, w in enumerate(cols[0]) if not abs(w) >= CHART_CUTOFF]
    bounds = [-1, *cuts, len(ts)]
    runs = [(i + 1, j) for i, j in zip(bounds, bounds[1:]) if j > i + 1]
    fig.polylines.extend([(f"{label}.{n}", view(*[col[i:j] for col in cols]))
                          for n, (i, j) in enumerate(runs) if j - i >= 2])


def _figure_circle(scene: Scene, samples: int) -> FigureData:
    if scene.space is not Space.EL2:
        raise SceneError("circle-trajectory requires an el2 scene")
    p = normalized(_entity(scene, "P"))
    r = normalized(_entity(scene, "R"))
    fig = FigureData(kind="circle-trajectory",
                     csv_header=("t", "e12", "e20", "e01"))
    _add_trace(fig, "trajectory", (), _sample_table(2.0 * math.pi, samples, False), r, p)
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
    fig = FigureData(
        kind="clifford-parallels",
        csv_header=("family", "index", "phi", "t", "e123", "e320", "e130", "e210"),
    )
    unit = normalized(line)
    table = _sample_table(math.pi, samples, True)
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
    fig = FigureData(kind="rotation-flow",
                     csv_header=("seed", "t", "e123", "e320", "e130", "e210"))
    table = _sample_table(2.0 * math.pi, samples, False)
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


def _csv_text(value, width: int) -> str:
    """What csv.writer writes for value as one cell of a width-wide row
    (a lone empty cell is quoted, one among others is not)."""
    buf, pad = io.StringIO(), ("",) if width > 1 else ()
    csv.writer(buf).writerow((value, *pad))
    return buf.getvalue()[:-2 - len(pad)]


def _trace_blocks(fig: FigureData, width: int):
    """The CSV body of each trace, or None unless csv_rows is still, row for
    row and by identity, the rows the traces appended at this width.

    Each trace is one %-format: its prefix cells as csv.writer writes them
    (with % escaped), then the figure's t column, formatted once, and its
    coefficient columns by %r."""
    traces = fig.traces
    written = list(chain.from_iterable([rows for *_, rows in traces]))
    if len(written) != len(fig.csv_rows) or not all(map(operator.is_, written, fig.csv_rows)) \
            or any(len(prefix) + 1 + len(cols) != width for prefix, _, cols, _ in traces):
        return None
    t_text = {}                                     # by id of the t column
    for _, ts, _, _ in traces:
        if id(ts) not in t_text:
            t_text[id(ts)] = list(map(float.__repr__, ts))
    return [("".join([_csv_text(v, width).replace("%", "%%") + "," for v in prefix])
             + "%s" + ",%r" * len(cols) + "\r\n") * len(ts)
            % tuple(chain.from_iterable(zip(t_text[id(ts)], *cols)))
            for prefix, ts, cols, _ in traces]


def write_csv(fig: FigureData, path: str) -> None:
    """The header, then every row as csv.writer writes it: one block per
    trace while csv_rows holds exactly the traces' rows (_trace_blocks),
    csv.writer itself for any other rows."""
    width, rows = len(fig.csv_header), fig.csv_rows
    blocks = _trace_blocks(fig, width)
    if blocks is None and rows and set(map(len, rows)) != {width}:
        raise ValueError(f"every CSV row must have {width} cells, as the header has")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fig.csv_header)
        if blocks is None:
            writer.writerows(rows)
        else:
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
