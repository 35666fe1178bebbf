"""Widths, antichains and chain certificates for two-sided subset balls.

The package root exports only `__version__`; import everything else from
its module, e.g. `from ballwidth.poset import build_ball`.
"""

__version__ = "0.1.0"
