"""``python -m bb84eve``: the command line, through report_cli.cli.

Before main, cli sets OPENBLAS_NUM_THREADS to 1 unless the caller set it,
so numpy loads with no BLAS worker to compete with the --jobs threads.
It also turns the cyclic garbage collector off before main, since a run's
cyclic garbage does not grow with its work, and freezes the collector's
objects after main returns, so the exit's collection skips them.
"""

from .report_cli import cli

cli()
