"""``python -m bb84eve``: the command line, through report_cli.cli.

cli freezes the collector's objects only after main returns, so the exit
skips finalization's collections while every run still has a working
collector.
"""

from .report_cli import cli

cli()
