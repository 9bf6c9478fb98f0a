"""``python -m bb84eve``: the command line, through report_cli.cli.

Before main, cli sets OPENBLAS_NUM_THREADS to 1 unless the caller set it,
so numpy loads with no BLAS worker to compete with the --jobs threads.
After main returns, it freezes the collector's objects, so the exit skips
finalization's collections while every run still has a working collector.
"""

from .report_cli import cli

cli()
