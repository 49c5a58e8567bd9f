"""Set-up probe: ``python bench/probe.py WORKLOAD SEED OUTDIR``.

Imports ``qccsim.cli``, generates the workload's first operation and
prints ``time.perf_counter()`` and ``time.process_time()`` at that
moment. The caller subtracts its own perf_counter reading taken just
before the spawn; both read the same system-wide monotonic clock. The
process time is the CPU this interpreter has used since it started.
Needs ``src`` on PYTHONPATH.
"""

import sys
from pathlib import Path
from time import perf_counter, process_time

import qccsim.cli  # noqa: F401
from workloads import cycles

next(cycles(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))[0]
print(repr(perf_counter()), repr(process_time()))
