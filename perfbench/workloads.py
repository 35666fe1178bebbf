"""The benchmark's workloads: item generation, one timed pass, output checks.

Every workload drives ballwidth only through stable public calls:
``sweep.sweep_range``, ``sweep.verify_instance``,
``certificates.certified_width(params, strict=True)`` and
``reports.emit_sweep_csv``.  Calls go through the module attribute, so the
tracer's wrappers see them.

Expected outputs come from ``reference_layer``, which counts the ball's
height layers with ``math.comb`` and shares no code with the package.  The
self-tests pin it to the values measured when the benchmark was defined.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses a ``ballwidth`` loaded from anywhere else, so the benchmark always
measures the source tree it sits in.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import ballwidth  # noqa: E402
from ballwidth import certificates, combinatorics, reports, sweep  # noqa: E402

if not Path(ballwidth.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"ballwidth was imported from {ballwidth.__file__}, not {SRC}")

DEFAULT_SEED = 0

# canonical CSV of sweep_range(11, 11, n_max=12)
DESK_CSV_SHA256 = "a6cb77aca9b63feb19735724e1fa857945ee94585b1bb07a694c3ae9db372f20"


def reference_layer(p: int, q: int, r: int) -> tuple[int, bool]:
    """Largest height layer of B_r[p, q] for r <= min(p, q), and whether it ties.

    The sublayer (i, j) drops i center and adds j far elements, has
    C(p, i) * C(q, j) members and sits at height r - i + j.
    """
    by_height: dict[int, int] = {}
    for i in range(r + 1):
        for j in range(r + 1 - i):
            h = r - i + j
            by_height[h] = by_height.get(h, 0) + math.comb(p, i) * math.comb(q, j)
    best = max(by_height.values())
    return best, sum(v == best for v in by_height.values()) > 1


def _guarded(call, *args, **kwargs):
    """The call's result, or the exception it raised, which fails its item."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # any raise is a failed item; the run goes on
        traceback.print_exc(file=sys.stderr)
        return exc


def _record_ok(key: tuple[int, int, int], record) -> bool:
    """Is `record` the sweep record of `key`, with the reference width and status?"""
    if record is None or isinstance(record, Exception):
        return False
    if (record.p, record.q, record.r) != key:
        return False
    best, tie = reference_layer(*key)
    expected = sweep.TIE if tie else sweep.VERIFIED_UNIQUE
    return record.width == str(best) and record.status == expected


class SweepDesk:
    """``sweep_range`` with a fresh JSON-lines log, then the canonical CSV.

    Items are the tuples the sweep must cover, plus the CSV itself as one
    more item.  The sweep fixes its own tuple order, so the seed changes
    nothing here.
    """

    def __init__(self, p_max=11, q_max=11, n_max=12, csv_sha256=DESK_CSV_SHA256):
        self.p_max, self.q_max, self.n_max = p_max, q_max, n_max
        self.csv_sha256 = csv_sha256

    def generate(self, seed: int) -> list[tuple[int, int, int]]:
        return [
            (p, q, r)
            for p in range(1, self.p_max + 1)
            for q in range(1, self.q_max + 1)
            if p + q <= self.n_max
            for r in range(1, min(p, q) + 1)
        ]

    def _sweep(self, log: Path):
        records, _ = sweep.sweep_range(
            self.p_max, self.q_max, n_max=self.n_max, out_path=log
        )
        return records, reports.emit_sweep_csv(records)

    def run_pass(self, items, scratch: Path):
        return _guarded(self._sweep, scratch / "sweep.jsonl")

    def check(self, items, outcome) -> tuple[int, int]:
        attempted = len(items) + 1
        if isinstance(outcome, Exception):
            return attempted, attempted
        records, csv = outcome
        by_key = {(rec.p, rec.q, rec.r): rec for rec in records}
        failed = sum(not _record_ok(t, by_key.get(t)) for t in items)
        if hashlib.sha256(csv.encode()).hexdigest() != self.csv_sha256:
            failed += 1
        return attempted, failed


class ElementLadder:
    """``verify_instance`` on a few large tuples, one after another.

    Other seeds than the default permute the tuples.
    """

    def __init__(self, tuples=((9, 9, 5), (12, 12, 4))):
        self.tuples = list(tuples)

    def generate(self, seed: int) -> list[tuple[int, int, int]]:
        items = list(self.tuples)
        if seed != DEFAULT_SEED:
            random.Random(seed).shuffle(items)
        return items

    def run_pass(self, items, scratch: Path):
        return [_guarded(sweep.verify_instance, *t) for t in items]

    def check(self, items, outcome) -> tuple[int, int]:
        return len(items), sum(not _record_ok(t, rec) for t, rec in zip(items, outcome))


class QuotientCertify:
    """``certified_width(params, strict=True)`` over a grid of tuples.

    The default seed takes every 1 <= p, q <= pq_max and 1 <= r <= min(p, q),
    in order.  Other seeds draw, for each r, as many distinct (p, q) from
    r..pq_draw as the default grid has, and shuffle them: the search's cost
    grows with r, so equal counts per radius keep a pass's work steady
    across seeds.
    """

    def __init__(self, pq_max=20, pq_draw=30):
        self.pq_max, self.pq_draw = pq_max, pq_draw

    def generate(self, seed: int) -> list:
        n = self.pq_max
        tuples = [
            (p, q, r)
            for p in range(1, n + 1)
            for q in range(1, n + 1)
            for r in range(1, min(p, q) + 1)
        ]
        if seed != DEFAULT_SEED:
            rng = random.Random(seed)
            tuples = []
            for r in range(1, n + 1):
                side = range(r, self.pq_draw + 1)
                pairs = [(p, q) for p in side for q in side]
                tuples += [(p, q, r) for p, q in rng.sample(pairs, (n + 1 - r) ** 2)]
            rng.shuffle(tuples)
        return [combinatorics.GroundParams(*t) for t in tuples]

    def run_pass(self, items, scratch: Path):
        return [_guarded(certificates.certified_width, gp, strict=True) for gp in items]

    def check(self, items, outcome) -> tuple[int, int]:
        failed = 0
        for gp, result in zip(items, outcome):
            if isinstance(result, Exception):
                failed += 1
                continue
            verdict, max_size = result
            best, tie = reference_layer(gp.p, gp.q, gp.r)
            expected = certificates.NOT_APPLICABLE if tie else certificates.CERTIFIED_STRICT
            failed += verdict.status != expected or max_size != best
        return len(items), failed


WORKLOADS = {
    "sweep_desk": SweepDesk(),
    "element_ladder": ElementLadder(),
    "quotient_certify": QuotientCertify(),
}
