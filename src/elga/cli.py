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
        with (contextlib.nullcontext() if args.tolerance is None
              else algebra.tolerance(args.tolerance)):
            return _run(args)
    except (ValueError, scene_mod.SceneError) as e:         # a bad tolerance, scene or figure
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (scene_mod.QueryError, algebra.AlgebraError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _run(args) -> int:
    scn = scene_mod.load_scene_file(args.scene)
    if args.command == "eval":
        sys.stdout.write(scene_mod.report_to_json(scene_mod.evaluate_scene(scn)))
        return 0
    from . import figures      # it imports el3, which `elga eval` loads only for el3 scenes
    fig = figures.build_figure(scn, args.kind, args.samples)
    base, ext = os.path.splitext(args.out)
    if ext.lower() not in (".svg", ".csv"):
        base = args.out
    svg_path, csv_path = base + ".svg", base + ".csv"
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
