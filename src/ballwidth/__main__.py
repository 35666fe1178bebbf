"""Run the command-line interface as ``python -m ballwidth``."""

from .cli import entry

entry()
