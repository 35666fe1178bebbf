"""Spans around the calls into each ballwidth layer, recorded from outside.

While installed, a Tracer replaces every binding site of each name in
WRAPPED (the defining module, every ballwidth module that imported it, and
the class for methods) with a wrapper that keeps a span (name, start, end,
parent) in memory.  Uninstalling puts the originals back.  A wrapped name
that no longer exists raises LookupError, so a refactor cannot silently
zero a layer.

A span's self time is its duration minus the durations of its direct
children; the self times of all spans add up to the time their root spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from contextlib import contextmanager
from time import perf_counter

# (module of ballwidth, attribute path); spans are named "<module>.<last part>"
WRAPPED = (
    ("combinatorics", "build_table"),
    ("combinatorics", "layer_profile"),
    ("poset", "quotient_dag"),
    ("poset", "build_ball"),
    ("poset", "build_sphere"),
    ("poset", "PosetInstance.up_masks"),
    ("reports", "ball_profile"),
    ("reports", "emit_sweep_csv"),
    ("matching", "hopcroft_karp"),
    ("antichains", "width"),
    ("antichains", "flow_width"),
    ("antichains", "check_klym"),
    ("antichains", "is_unique_max_antichain"),
    ("flows", "FlowNetwork.max_flow"),
    ("certificates", "certified_width"),
    ("certificates", "certificate_search"),
    ("certificates", "theorem_bound"),
    ("sweep", "verify_instance"),
    ("sweep", "sweep_range"),
)

# max_flow self time is split by the nearest of these among its ancestors
FLOW_CALLERS = (
    "antichains.flow_width",
    "antichains.check_klym",
    "certificates.certificate_search",
)


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.rsplit('.', 1)[-1]}"


def _resolve(module: str, path: str):
    """(owner, attribute, original) of a wrapped name, or LookupError."""
    owner = importlib.import_module(f"ballwidth.{module}")
    *outer, attribute = path.split(".")
    try:
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attribute)
    except AttributeError:
        raise LookupError(
            f"ballwidth.{module}.{path} no longer exists; "
            "update perfbench/tracing.py so its layer is still measured"
        ) from None
    return owner, attribute, original


def _binding_sites(owner, attribute: str, original) -> list[tuple[object, str]]:
    if isinstance(owner, type):
        return [(owner, attribute)]
    return [
        (mod, name)
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "ballwidth" or mod_name.startswith("ballwidth.")
        for name, value in vars(mod).items()
        if value is original
    ]


class Tracer:
    """Spans and work counters of the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.comparable_pairs = 0  # summed over distinct closed instances
        self.arcs = 0  # summed over max_flow calls
        self.granted = 0  # certified_width verdicts that are CERTIFIED*
        self._stack: list[int] = []
        self._closed_instances: weakref.WeakSet = weakref.WeakSet()

    @contextmanager
    def installed(self):
        patches = []
        try:
            for module, path in WRAPPED:
                owner, attribute, original = _resolve(module, path)
                traced = self._wrap(span_name(module, path), original)
                for site, name in _binding_sites(owner, attribute, original):
                    patches.append((site, name, original))
                    setattr(site, name, traced)
            yield self
        finally:
            for site, name, original in reversed(patches):
                setattr(site, name, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = {
            "poset.up_masks": self._count_up_masks,
            "flows.max_flow": self._count_max_flow,
            "certificates.certified_width": self._count_certified_width,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(args, result)
            return result

        return traced

    def _count_up_masks(self, args, masks) -> None:
        instance = args[0]
        if instance not in self._closed_instances:  # closure is cached per instance
            self._closed_instances.add(instance)
            self.comparable_pairs += sum(m.bit_count() for m in masks)

    def _count_max_flow(self, args, _value) -> None:
        self.arcs += len(args[0].to) // 2

    def _count_certified_width(self, _args, result) -> None:
        self.granted += result[0].status.startswith("CERTIFIED")

    def self_ms(self) -> list[float]:
        """Self time of every span, in span order."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return [
            (end - start - kids) * 1000
            for (_, start, end, _), kids in zip(self.spans, children)
        ]

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self times and counters of the recorded spans."""
        out: dict[str, float] = {}
        for module, path in WRAPPED:
            name = span_name(module, path)
            out[f"{name}.calls"] = 0
            out[f"{name}.self_ms"] = 0.0
        for caller in FLOW_CALLERS:
            out[f"flows.max_flow.self_ms.by_{caller.rsplit('.', 1)[-1]}"] = 0.0
        for (name, _, _, parent), own in zip(self.spans, self.self_ms()):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += own
            if name == "flows.max_flow":
                while parent >= 0 and self.spans[parent][0] not in FLOW_CALLERS:
                    parent = self.spans[parent][3]
                if parent >= 0:
                    caller = self.spans[parent][0].rsplit(".", 1)[-1]
                    out[f"flows.max_flow.self_ms.by_{caller}"] += own
        out["poset.up_masks.comparable_pairs"] = self.comparable_pairs
        out["flows.max_flow.arcs"] = self.arcs
        attempts = out["certificates.certified_width.calls"]
        out["certificates.granted_ratio"] = self.granted / attempts if attempts else 0.0
        return out
