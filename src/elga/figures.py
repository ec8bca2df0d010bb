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
sampled at all t at once from its closed form A0 + Ac cos t + As sin t
(``algebra.orbit``).  ``el2.rotate``, ``el3.sweep_line_point`` and
``exp_bivector`` give the same points one sandwich at a time.

Chart coordinates divide by the weight coefficient (e12 in el2, e123 in
el3); samples with |weight| < 1e-6 leave the chart and split the
polyline, so emitted polylines contain only finite coordinates.  The CSV
carries the raw normalised coefficients of every sample.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from . import el3
from .algebra import Multivector, Space, coeff_norm, dual_I, normalized, orbit, tables
from .scene import FIGURE_KINDS, Scene, SceneError

CHART_CUTOFF = 1e-6


@dataclass
class FigureData:
    """Polylines (already projected to 2D) plus the raw sample table."""

    kind: str
    polylines: List[Tuple[str, List[Tuple[float, float]]]] = field(default_factory=list)
    markers: List[Tuple[str, Tuple[float, float]]] = field(default_factory=list)
    csv_header: Tuple[str, ...] = ()
    csv_rows: List[Tuple] = field(default_factory=list)


def _entity(scene: Scene, name: str) -> Multivector:
    try:
        return scene.entities[name]
    except KeyError:
        raise SceneError(f"figure requires an entity named {name!r}")


# fixed orthographic camera for el3 charts (yaw then pitch, drop depth)
_YAW, _PITCH = -0.9, -0.45
_CY, _SY = math.cos(_YAW), math.sin(_YAW)
_CP, _SP = math.cos(_PITCH), math.sin(_PITCH)


def _project3(x: float, y: float, z: float) -> Tuple[float, float]:
    u = _CY * x + _SY * y
    depth = -_SY * x + _CY * y
    v = _CP * z - _SP * depth
    return u, v


# weight blade then chart blades, and the 2D view of the chart, per space
_CHARTS = {
    Space.EL2: (("e12", "e20", "e01"), lambda x, y: (x, y)),
    Space.EL3: (("e123", "e320", "e130", "e210"), _project3),
}


def _add_trace(fig: FigureData, label: str, prefix: Tuple, ts: np.ndarray,
               b: Multivector, x: Multivector) -> None:
    """CSV rows, chart coordinates and polylines of the orbit of x under b.

    The orbit is sampled at every t in ts from its closed form
    A0 + Ac cos t + As sin t (algebra.orbit).  Each sample adds the row
    prefix + (t, weight, chart coefficients).  A sample whose weight is
    below CHART_CUTOFF leaves the chart and ends the current run; runs are
    labelled label.0, label.1, ... in order, and single-point runs are
    dropped.
    """
    a0, ac, as_ = orbit(b, x)
    names, view = _CHARTS[x.space]
    xs = a0.coeffs + np.outer(np.cos(ts), ac.coeffs) + np.outer(np.sin(ts), as_.coeffs)
    slots, signs = zip(*(tables(x.space).name_to_slot[n] for n in names))
    cols = xs[:, list(slots)] * signs
    fig.csv_rows += [prefix + (t,) + tuple(row)
                     for t, row in zip(ts.tolist(), cols.tolist())]
    inside = np.flatnonzero(np.abs(cols[:, 0]) >= CHART_CUTOFF)
    chart = cols[inside, 1:] / cols[inside, :1]
    points = list(zip(*(c.tolist() for c in view(*chart.T))))
    ends = [0, *(np.flatnonzero(np.diff(inside) > 1) + 1).tolist(), len(inside)]
    runs = [points[i:j] for i, j in zip(ends, ends[1:])]
    fig.polylines += [(f"{label}.{i}", r) for i, r in enumerate(runs) if len(r) >= 2]


def _figure_circle(scene: Scene, samples: int) -> FigureData:
    if scene.space is not Space.EL2:
        raise SceneError("circle-trajectory requires an el2 scene")
    p = normalized(_entity(scene, "P"))
    r = normalized(_entity(scene, "R"))
    fig = FigureData(kind="circle-trajectory",
                     csv_header=("t", "e12", "e20", "e01"))
    ts = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    _add_trace(fig, "trajectory", (), ts, r, p)
    if abs(r.coeff("e12")) >= CHART_CUTOFF:
        fig.markers.append(("R", (r.coeff("e20") / r.coeff("e12"),
                                  r.coeff("e01") / r.coeff("e12"))))
    return fig


def _sample_line(fig: FigureData, label: str, line: Multivector, samples: int,
                 row_prefix: Tuple) -> None:
    """Sweep a point of the line along it: rotation around its polar line."""
    ts = np.linspace(0.0, math.pi, samples)
    _add_trace(fig, label, row_prefix, ts,
               dual_I(normalized(line)), el3.point_on_line(line))


def _figure_parallels(scene: Scene, samples: int) -> FigureData:
    if scene.space is not Space.EL3:
        raise SceneError("clifford-parallels requires an el3 scene")
    line = _entity(scene, "line")
    params = scene.figure
    try:
        theta = float(params["theta"])
    except (KeyError, TypeError, ValueError):
        raise SceneError("clifford-parallels needs a numeric figure.theta")
    if not 0.0 <= theta <= math.pi:
        raise SceneError("figure.theta must be a finite number in [0, pi]")
    count = params.get("parallels", 32)
    if not isinstance(count, int) or count < 1:
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
    _sample_line(fig, "line", unit, samples, ("line", -1, math.nan))
    frame, weight = el3.clifford_frame(unit), coeff_norm(unit)
    for fam in families:
        for i in range(count):
            phi = 2.0 * math.pi * i / count
            par = frame.parallel(fam, phi, theta) * weight    # el3.clifford_parallel
            _sample_line(fig, f"{fam}.{i}", par, samples, (fam, i, phi))
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
    ts = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    for name, seed in seeds:
        _add_trace(fig, name, (name,), ts, axis, normalized(seed))
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


def write_csv(fig: FigureData, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fig.csv_header)
        writer.writerows(fig.csv_rows)


def write_svg(fig: FigureData, path: str, size: int = 640) -> None:
    """Plain polyline rendering of the figure's chart data."""
    pts = [p for _, run in fig.polylines for p in run]
    pts += [p for _, p in fig.markers]
    if not pts:
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    else:
        arr = np.array(pts)
        lo, hi = arr.min(axis=0), arr.max(axis=0)
    span = max(float(np.max(hi - lo)), 1e-9)
    pad = 0.05 * span
    lo = lo - pad
    span = span + 2 * pad
    scale = size / span

    def to_px(p):
        return ((p[0] - lo[0]) * scale, size - (p[1] - lo[1]) * scale)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for label, run in fig.polylines:
        path_pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(to_px, run))
        lines.append(
            f'<polyline fill="none" stroke="black" stroke-width="1" '
            f'points="{path_pts}"><title>{label}</title></polyline>'
        )
    for label, p in fig.markers:
        x, y = to_px(p)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="black">'
                     f'<title>{label}</title></circle>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
