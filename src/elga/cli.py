"""Command-line front end: evaluate scene queries and emit figure data.

Usage::

    elga eval <scene.json> [--tolerance EPS]
    elga figure <scene.json> --kind KIND [--samples N] --out PATH [--tolerance EPS]

``eval`` prints a JSON report (one record per query, in file order) to
stdout.  ``figure`` writes PATH.svg and PATH.csv (PATH may carry either
extension or none).  Exit codes: 0 success, 1 parse/validation failure,
2 math-domain failure (the diagnostic names the offending query).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import algebra, figures, scene as scene_mod


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elga",
        description="Elliptic geometric algebra scene evaluator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run scene queries, print a JSON report")
    p_eval.add_argument("scene", help="scene JSON file")
    p_eval.add_argument("--tolerance", type=float, default=None,
                        help="override the structural tolerance (default 1e-9)")

    p_fig = sub.add_parser("figure", help="sample trajectories, write SVG + CSV")
    p_fig.add_argument("scene", help="scene JSON file")
    p_fig.add_argument("--kind", required=True, choices=figures.FIGURE_KINDS)
    p_fig.add_argument("--samples", type=int, default=256,
                       help="samples per trajectory (default 256)")
    p_fig.add_argument("--out", required=True, help="output path (SVG + CSV)")
    p_fig.add_argument("--tolerance", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scope = (contextlib.nullcontext() if args.tolerance is None
                 else algebra.tolerance(args.tolerance))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    with scope:
        return _run(args)


def _run(args) -> int:
    try:
        scn = scene_mod.load_scene_file(args.scene)
    except scene_mod.SceneError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.command == "eval":
        try:
            report = scene_mod.evaluate_scene(scn)
        except scene_mod.QueryError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        sys.stdout.write(scene_mod.report_to_json(report))
        return 0

    # figure
    try:
        fig = figures.build_figure(scn, args.kind, args.samples)
    except scene_mod.SceneError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except algebra.AlgebraError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    base, ext = os.path.splitext(args.out)
    if ext.lower() in (".svg", ".csv"):
        svg_path, csv_path = base + ".svg", base + ".csv"
    else:
        svg_path, csv_path = args.out + ".svg", args.out + ".csv"
    figures.write_svg(fig, svg_path)
    figures.write_csv(fig, csv_path)
    print(f"wrote {svg_path} and {csv_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
