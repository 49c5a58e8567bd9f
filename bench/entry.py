"""Traced one-shot entry: ``python bench/entry.py SPANS_JSON ARGV...``.

Installs the span recorder, runs ``qccsim.cli.main(ARGV)`` exactly as
``python -m qccsim.cli ARGV...`` would, and writes the spans, counters
and the wall time of ``main`` to SPANS_JSON. Needs ``src`` on PYTHONPATH.
"""

import json
import sys
from time import perf_counter

from tracer import Recorder

import qccsim.cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    t0 = perf_counter()
    try:
        code = qccsim.cli.main(argv)
    finally:
        wall = perf_counter() - t0
        recorder.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"wall": wall, "spans": recorder.spans, "counters": recorder.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
