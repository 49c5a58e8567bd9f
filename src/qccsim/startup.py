"""Start-up of a ``qccsim`` CLI process, before numpy is imported.

numpy starts an OpenBLAS thread pool at import, and a CLI run never
uses it: its matrices are at most 4x4. Unless the user chose a thread
count, the process asks for one BLAS thread. Importing qccsim as a
library leaves the environment alone. Only ``sweep``, ``montecarlo``
and a ``weak-value --csv`` grid import numpy at all; ``qcc``,
``qcc-joint``, ``weak-value`` and the two neutron scenarios never do.
"""

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def single_thread_blas() -> None:
    """Set ``OPENBLAS_NUM_THREADS=1`` unless a thread variable is already set.

    Takes effect only when called before numpy's first import."""
    if not any(name in os.environ for name in THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main() -> int:
    """The ``qccsim`` console script: ``cli.main`` under the CLI's thread default."""
    single_thread_blas()
    from .cli import main as cli_main

    return cli_main()
