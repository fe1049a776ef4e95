"""Set-up probe: ``import invcert`` plus one warm-up call, in a fresh interpreter.

    python3 bench/probe.py WORKLOAD

Started by ``bench/run.py`` with ``PYTHONPATH`` set to the checkout's
``src``. Prints one JSON object: the time and the number of modules that
``import invcert`` takes, and the set-up time (the import plus the
workload's first warm-up call). Nothing but ``sys`` and ``time`` is
imported before the clock starts, so the module count is what invcert
itself pulls in.
"""

import sys
import time


def import_invcert():
    """Import invcert and make sure it is the checkout's ``src/invcert``."""
    import os

    import invcert

    expected = os.path.realpath(os.path.join(os.getcwd(), "src", "invcert"))
    if os.path.dirname(os.path.realpath(invcert.__file__)) != expected:
        raise SystemExit(f"invcert was imported from {invcert.__file__}, not from ./src")
    return invcert


_WARM_DOC = ('{"mode": "bb-patch", "dimension": 2, "degrees": [1, 1], '
             '"control_points": [[[0, 0], [0, 1]], [[1, 0], [2, 2]]]}')


def warm_up(invcert, workload: str) -> None:
    """The workload's first call, on a tiny input."""
    if workload == "cli-small":
        import invcert.cli as cli

        cli.emit_report(cli.run(cli.parse_input(_WARM_DOC)))
    elif workload == "bilinear-sweep":
        points = [[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 2.0]]]
        invcert.certify_map(invcert.ControlNet((1, 1), points))
    else:
        invcert.certify_matrix_family([invcert.GeneratorSet(0, [[1.0, 0.0], [0.9, 0.2]]),
                                       invcert.GeneratorSet(1, [[0.0, 1.0]])])


if __name__ == "__main__":
    start = time.perf_counter()
    before = len(sys.modules)
    package = import_invcert()
    imported = time.perf_counter()
    modules = len(sys.modules) - before
    warm_up(package, sys.argv[1])
    done = time.perf_counter()

    import json

    print(json.dumps({"import_s": imported - start, "modules": modules,
                      "setup_s": done - start}))
