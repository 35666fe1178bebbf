"""Exhaustive verification over parameter ranges, with resumable logs.

One record per (p, q, r): the ball is built, the width is computed by two
independent engines, the largest layer is compared against it, uniqueness
is decided from the flow cuts and rechecked against the tie count of the
heaviest chain on the sublayer grid, and the certificate, normalized-weight
and theorem-bound checks are run where they apply.

Records append to a JSON-lines file as they finish, so an interrupted
sweep resumes by skipping tuples already on disk.  Each record states the
budgets it ran under, so a resumed run re-verifies OVER_BUDGET records made
under smaller ones.  Timings and budgets are logged but never take part in
canonical reports.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .antichains import (
    DEFAULT_MATCHING_BUDGET,
    check_klym,
    flow_width,
    is_unique_max_antichain,
    width,
)
from .certificates import NOT_APPLICABLE, certificate_search, theorem_bound
from .combinatorics import Ball, GroundParams, heaviest_sublayer_chain, layer_profile
from .errors import BudgetExceededError, InternalConsistencyError
from .poset import DEFAULT_ELEMENT_BUDGET, build_ball, build_sphere, quotient_dag
from .reports import status_tally

VERIFIED_UNIQUE = "VERIFIED_UNIQUE"
TIE = "TIE"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
OVER_BUDGET = "OVER_BUDGET"

SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class SweepRecord:
    p: int
    q: int
    r: int
    ball_size: str
    largest_layer_height: int
    largest_layer_size: str
    tie: bool
    width: str | None
    unique: bool | None
    certificate: str
    klym_sphere: bool | None
    theorem_bound_ok: bool | None
    status: str
    elapsed_ms: int
    # None in logs written before records stated their budgets
    element_budget: int | None = None
    matching_budget: int | None = None

    def to_line(self) -> str:
        return json.dumps(vars(self))

    @classmethod
    def from_line(cls, line: str) -> "SweepRecord":
        return cls(**json.loads(line))

    def key(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)


def verify_instance(
    p: int,
    q: int,
    r: int,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
    matching_budget: int = DEFAULT_MATCHING_BUDGET,
) -> SweepRecord:
    """The record of one tuple; an internal error names the tuple."""
    try:
        return _verify(p, q, r, element_budget, matching_budget)
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(f"at ({p}, {q}, {r}): {exc}") from exc


def _verify(
    p: int, q: int, r: int, element_budget: int, matching_budget: int
) -> SweepRecord:
    params = GroundParams(p, q, r)
    start = time.perf_counter()
    try:  # within both budgets: the ball's own diagram serves the record
        instance = build_ball(params, min(element_budget, matching_budget))
        dag = instance.dag
    except BudgetExceededError:
        instance, dag = None, quotient_dag(params, Ball())
    profile = layer_profile(dag)
    ball_size = dag.table.total
    in_regime = r <= min(p, q)

    width_value: int | None = None
    unique: bool | None = None
    cert_status = SKIPPED
    klym: bool | None = None
    bound_ok: bool | None = None

    if instance is not None:
        width_value, _ = width(instance, matching_budget)
        flow_value, _ = flow_width(instance)
        grid_value, grid_count = heaviest_sublayer_chain(dag.table)
        if not width_value == flow_value == grid_value:
            raise InternalConsistencyError(
                f"matching width {width_value} vs flow width {flow_value} "
                f"vs sublayer chain weight {grid_value}"
            )
        if width_value == profile.max_size and not profile.tie:
            layer = [
                k
                for k in range(len(instance))
                if instance.height_of[k] == profile.argmax[0]
            ]
            unique = is_unique_max_antichain(instance, layer, matching_budget)
            if unique != (grid_count == 1):
                raise InternalConsistencyError("uniqueness engines disagree")
        if in_regime:
            cert_status = NOT_APPLICABLE
            if not profile.tie:
                cert_status = certificate_search(dag, profile.argmax[0]).status
            bound_ok = width_value <= theorem_bound(params)
        # the top shell of a ball within budget fits it too; build_sphere checks
        klym = check_klym(build_sphere(params, min(r, p + q), element_budget)).holds

    if width_value is None:
        status = OVER_BUDGET
    elif width_value != profile.max_size:
        status = COUNTEREXAMPLE
    elif profile.tie:
        status = TIE
    else:
        status = VERIFIED_UNIQUE if unique else COUNTEREXAMPLE

    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return SweepRecord(
        p=p,
        q=q,
        r=r,
        ball_size=str(ball_size),
        largest_layer_height=profile.argmax[0],
        largest_layer_size=str(profile.max_size),
        tie=profile.tie,
        width=None if width_value is None else str(width_value),
        unique=unique,
        certificate=cert_status,
        klym_sphere=klym,
        theorem_bound_ok=bound_ok,
        status=status,
        elapsed_ms=elapsed_ms,
        element_budget=element_budget,
        matching_budget=matching_budget,
    )


def sweep_tuples(
    p_max: int,
    q_max: int,
    r_max: int | None = None,
    n_max: int | None = None,
    general: bool = False,
) -> list[tuple[int, int, int]]:
    """All (p, q, r) in range, radii capped at min(p, q) unless general."""
    out: list[tuple[int, int, int]] = []
    for p in range(1, p_max + 1):
        for q in range(0, q_max + 1):
            if n_max is not None and p + q > n_max:
                continue
            cap = p + q if general else min(p, q)
            if r_max is not None:
                cap = min(cap, r_max)
            for r in range(1, cap + 1):
                out.append((p, q, r))
    return out


def _load_records(path: Path) -> dict[tuple[int, int, int], SweepRecord]:
    """The records of a log about to be resumed.

    Every record is written with its newline, so every whole line must be
    a record, and bytes after the last newline are a line torn by an
    interrupted run: they are cut from the file, so the next record starts
    a line of its own.  A tail that does not start like a record is no
    torn line, and the file is refused untouched.
    """
    data = path.read_bytes()
    whole = data.rfind(b"\n") + 1
    lines = data[:whole].decode().splitlines()
    if not b'{"p": '.startswith(data[whole : whole + 6]):  # how every record starts
        raise ValueError(f"{path}:{len(lines) + 1}: unreadable sweep record")
    done: dict[tuple[int, int, int], SweepRecord] = {}
    for pos, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = SweepRecord.from_line(line)
        except (json.JSONDecodeError, TypeError):
            raise ValueError(f"{path}:{pos + 1}: unreadable sweep record")
        done[record.key()] = record
    if whole < len(data):
        os.truncate(path, whole)
    return done


def _still_valid(
    record: SweepRecord, element_budget: int, matching_budget: int
) -> bool:
    """Would this run compute the logged record too?

    Only OVER_BUDGET depends on the budgets: it stands if both budgets it
    states are at least this run's, and is re-verified otherwise.
    """
    return record.status != OVER_BUDGET or (
        record.element_budget is not None
        and record.matching_budget is not None
        and record.element_budget >= element_budget
        and record.matching_budget >= matching_budget
    )


def _verify_args(args: tuple[int, int, int, int, int]) -> SweepRecord:
    p, q, r, element_budget, matching_budget = args
    return verify_instance(p, q, r, element_budget, matching_budget)


def _pooled(pool, work: list) -> Iterator[SweepRecord]:
    """Records in the order they finish, then the first failure, if any.

    A failing tuple waits for the others, so no finished record is lost;
    of several failures, the one earliest in sweep order is raised.
    """
    futures = {pool.submit(_verify_args, args): k for k, args in enumerate(work)}
    errors: dict[int, BaseException] = {}
    for future in as_completed(futures):
        exc = future.exception()
        if exc is None:
            yield future.result()
        else:
            errors[futures[future]] = exc
    if errors:
        raise errors[min(errors)]


def sweep_range(
    p_max: int,
    q_max: int,
    r_max: int | None = None,
    n_max: int | None = None,
    general: bool = False,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
    matching_budget: int = DEFAULT_MATCHING_BUDGET,
    out_path: str | Path | None = None,
    resume: bool = False,
    jobs: int = 1,
) -> tuple[list[SweepRecord], dict]:
    """Verify every tuple in range; returns (records, summary).

    With out_path, each record is appended to the JSON-lines file as soon
    as it exists; with resume, tuples already in that file are kept as-is
    and skipped, except OVER_BUDGET records made under smaller budgets,
    which are verified again and appended (the last line per tuple wins).
    Without resume, a non-empty out_path is refused with ValueError and
    left untouched, so no run duplicates a log.  `jobs` and both budgets
    must be at least 1; the pool never outnumbers the CPUs or the tuples
    left to verify.  A parallel run raises a tuple's error only once the
    others are logged.
    """
    budgets = {"element_budget": element_budget, "matching_budget": matching_budget}
    for name, value in {"jobs": jobs, **budgets}.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    wanted = sweep_tuples(p_max, q_max, r_max, n_max, general)
    done: dict[tuple[int, int, int], SweepRecord] = {}
    path = Path(out_path) if out_path is not None else None
    if path is not None and path.exists() and path.stat().st_size:
        if not resume:
            raise ValueError(
                f"{path} already holds a sweep log; resume it or pick a new file"
            )
        done = {
            key: record
            for key, record in _load_records(path).items()
            if _still_valid(record, element_budget, matching_budget)
        }
    todo = [t for t in wanted if t not in done]

    work = [(p, q, r, element_budget, matching_budget) for p, q, r in todo]
    workers = min(jobs, os.cpu_count() or 1, len(work))
    with ExitStack() as stack:
        handle = stack.enter_context(path.open("a")) if path is not None else None
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = _pooled(pool, work)
        else:
            results = map(_verify_args, work)
        for record in results:
            done[record.key()] = record
            if handle is not None:
                handle.write(record.to_line() + "\n")
                handle.flush()

    records = [done[t] for t in sorted(wanted)]
    summary = {
        "total": len(records),
        "by_status": status_tally(records),
        "counterexamples": [
            list(r.key()) for r in records if r.status == COUNTEREXAMPLE
        ],
    }
    return records, summary
