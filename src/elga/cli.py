"""Command-line front end: evaluate scene queries and emit figure data.

Usage::

    elga eval <scene.json> [--tolerance EPS]
    elga figure <scene.json> --kind KIND [--samples N] --out PATH [--tolerance EPS]

``eval`` prints a JSON report (one record per query, in file order) to
stdout.  ``figure`` writes PATH.svg and PATH.csv (PATH may carry either
extension or none).  Exit codes: 0 success, 1 parse/validation failure
or an output file that cannot be written, 2 math-domain failure (the
diagnostic names the offending query).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import algebra, scene as scene_mod


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elga",
        description="Elliptic geometric algebra scene evaluator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scene", help="scene JSON file")
    common.add_argument("--tolerance", type=float, default=None,
                        help="override the structural tolerance (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("eval", parents=[common], help="run scene queries, print a JSON report")

    p_fig = sub.add_parser("figure", parents=[common],
                           help="sample trajectories, write SVG + CSV")
    p_fig.add_argument("--kind", required=True, choices=scene_mod.FIGURE_KINDS)
    p_fig.add_argument("--samples", type=int, default=256,
                       help="samples per trajectory (default 256)")
    p_fig.add_argument("--out", required=True, help="output path (SVG + CSV)")
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

    from . import figures      # it imports el3, which `elga eval` loads only for el3 scenes
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
    for write, path in ((figures.write_svg, svg_path), (figures.write_csv, csv_path)):
        try:
            write(fig, path)
        except OSError as e:
            print(f"error: cannot write {path}: {e.strerror or e}", file=sys.stderr)
            return 1
    print(f"wrote {svg_path} and {csv_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
