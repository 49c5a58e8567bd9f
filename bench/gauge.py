"""Machine-speed gauge for the benchmark's CPU-time metrics.

On a shared virtual machine the CPU time of identical work moves by up
to 1.6x within minutes, as neighbours come and go. The gauge is fixed
interpreter work that does not touch qccsim, run in the benchmark's
process just before each in-process operation. That operation's CPU
time is scaled by ``GAUGE_S / gauge``: it reads as CPU seconds on a
machine where the gauge takes ``GAUGE_S``. A change to qccsim moves it
in full; a change of machine speed cancels out.
"""

from time import process_time

GAUGE_S = 0.025


def gauge_cpu() -> float:
    """CPU seconds this process spends on the gauge work."""
    c0 = process_time()
    total, seen = 0, {}
    for i in range(150_000):
        total += i * 3 % 7
        seen[i & 255] = total
    return process_time() - c0
