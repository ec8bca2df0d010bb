"""Cold-start probe of the cli layer, run in a fresh interpreter.

    python bench/cli_probe.py SCENE

Prints one JSON object: the time ``import elga.cli`` takes, the first
``main(["eval", SCENE])`` call, and the median of the WARM_CALLS warm
calls after it.
"""

import contextlib
import io
import json
import statistics
import sys
import time

WARM_CALLS = 5


def _main_ms(cli, scene: str) -> float:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["eval", scene])
    elapsed = (time.perf_counter() - start) * 1e3
    if code != 0:
        raise SystemExit(f"elga eval {scene} exited {code}")
    return elapsed


def main() -> None:
    scene = sys.argv[1]
    start = time.perf_counter()
    import elga.cli as cli
    import_s = time.perf_counter() - start
    first = _main_ms(cli, scene)
    warm = [_main_ms(cli, scene) for _ in range(WARM_CALLS)]
    print(json.dumps({"import_s": import_s, "first_main_ms": first,
                      "main_ms": statistics.median(warm)}))


if __name__ == "__main__":
    main()
