"""Child interpreters started by ``run.py``.

    child.py setup <workload> <seed>
        Time a fresh ``import`` of dctscale plus the workload's set-up and
        print the seconds.
    child.py cli <spans.json> <dctscale arguments...>
        Run the dctscale CLI with tracing on; stdout is the CLI's own, and
        the spans are written to ``spans.json``.
"""
from __future__ import annotations

import importlib
import json
import sys

from common import WORKLOADS, perf


def _setup(workload: str, seed: int) -> int:
    start = perf()
    import dctscale  # noqa: F401  (numpy and scipy load here)

    imported = perf()
    module = importlib.import_module(WORKLOADS[workload])  # benchmark code, untimed
    resumed = perf()
    module.setup(seed)
    print(repr((imported - start) + (perf() - resumed)))
    return 0


def _cli(spans_file: str, argv: list[str]) -> int:
    from spans import Recorder

    recorder = Recorder()
    with recorder.span("cli.import"):
        import dctscale.cli
    try:
        with recorder.installed():
            code = dctscale.cli.run(argv)
    finally:
        with open(spans_file, "w") as f:
            json.dump(recorder.spans, f)
    sys.stdout.flush()
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        return _setup(argv[1], int(argv[2]))
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return _cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
