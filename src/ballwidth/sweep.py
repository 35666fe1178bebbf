"""Exhaustive verification over parameter ranges, with resumable logs.

One record per (p, q, r).  The diagram stage reads the ball's layer profile
on every tuple.  Within both budgets, the element stage compares the
largest layer with the width from two independent engines and the heaviest
sublayer chain, decides uniqueness by flow cuts and that chain's tie count,
and runs the certificate and theorem-bound checks where they apply; the
sphere stage then checks the top sphere's normalized weights.

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
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import starmap
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
    """One tuple's verdict, each field from the stage deciding it: the diagram
    stage the four up to tie, the sphere stage klym_sphere, the element stage
    the rest up to status.  A stage or check that did not run leaves its default.
    """

    p: int
    q: int
    r: int
    ball_size: str
    largest_layer_height: int
    largest_layer_size: str
    tie: bool
    width: str | None = None
    unique: bool | None = None
    certificate: str = SKIPPED
    klym_sphere: bool | None = None
    theorem_bound_ok: bool | None = None
    status: str = OVER_BUDGET
    elapsed_ms: int = 0
    # None in logs written before records stated their budgets
    element_budget: int | None = None
    matching_budget: int | None = None

    def to_line(self) -> str:
        return json.dumps(vars(self))

    @classmethod
    def from_line(cls, line: str) -> "SweepRecord":
        fields = json.loads(line)
        missing = set(cls.__dataclass_fields__) - set(fields)
        if not missing <= {"element_budget", "matching_budget"}:  # older logs lack them
            raise TypeError(f"a sweep record without {sorted(missing)}")
        return cls(**fields)

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
    """The record of one tuple, from the stages its budget band runs: past
    either budget the diagram stage alone; within both, then the element
    stage and, once the ball and its closure are dropped, the sphere stage,
    so a tuple peaks at its matching, not at the sum of its stages.
    """
    params = GroundParams(p, q, r)
    start = time.perf_counter()
    try:  # within both budgets: the ball's own diagram serves the record
        ball = build_ball(params, min(element_budget, matching_budget))
    except BudgetExceededError:
        _, fields = _diagram_stage(quotient_dag(params, Ball()))
    else:
        profile, fields = _diagram_stage(ball.dag)
        fields.update(_element_stage(params, ball, profile, matching_budget))
        del ball  # nothing of it is held while the top sphere is built
        fields.update(_sphere_stage(params, element_budget))
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    budgets = {"element_budget": element_budget, "matching_budget": matching_budget}
    return SweepRecord(p, q, r, **fields, elapsed_ms=elapsed_ms, **budgets)


def _diagram_stage(dag) -> tuple:
    """The ball's layer profile, and the record fields it decides."""
    profile = layer_profile(dag)
    return profile, {
        "ball_size": str(dag.table.total),
        "largest_layer_height": profile.argmax[0],
        "largest_layer_size": str(profile.max_size),
        "tie": profile.tie,
    }


def _element_stage(params: GroundParams, ball, profile, matching_budget: int) -> dict:
    """The ball's element fields; its three widths are compared here alone."""
    width_value, _ = width(ball, matching_budget)
    flow_value, _ = flow_width(ball)
    grid_value, grid_count = heaviest_sublayer_chain(ball.dag.table)
    if not width_value == flow_value == grid_value:
        raise InternalConsistencyError(
            f"matching width {width_value} vs flow width {flow_value} "
            f"vs sublayer chain weight {grid_value}"
        )
    fields = {"width": str(width_value)}
    if width_value != profile.max_size:
        status = COUNTEREXAMPLE
    elif profile.tie:
        status = TIE
    else:
        layer = [k for k, h in enumerate(ball.height_of) if h == profile.argmax[0]]
        unique = is_unique_max_antichain(ball, layer)
        if unique != (grid_count == 1):
            raise InternalConsistencyError("uniqueness engines disagree")
        fields["unique"] = unique
        status = VERIFIED_UNIQUE if unique else COUNTEREXAMPLE
    if params.r <= min(params.p, params.q):  # truncated radii keep the defaults
        certificate = NOT_APPLICABLE
        if not profile.tie:
            certificate = certificate_search(ball.dag, profile.argmax[0]).status
        bound_ok = width_value <= theorem_bound(params)
        fields.update(certificate=certificate, theorem_bound_ok=bound_ok)
    return {**fields, "status": status}


def _sphere_stage(params: GroundParams, element_budget: int) -> dict:
    """klym_sphere of the top shell, in budget if the ball is; build_sphere checks."""
    top = build_sphere(params, min(params.r, params.p + params.q), element_budget)
    return {"klym_sphere": check_klym(top).holds}


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


def _pooled(pool, work: list) -> Iterator[SweepRecord]:
    """Records in the order they finish, then the first failure, if any.

    A failing tuple waits for the others, so no finished record is lost;
    of several failures, the one earliest in sweep order is raised.
    """
    from concurrent.futures import as_completed  # only a pool needs it
    futures = {pool.submit(verify_instance, *args): k for k, args in enumerate(work)}
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
    left untouched, so no run duplicates a log; resume without out_path is
    refused too.  `jobs` and both budgets must be at least 1; the pool
    never outnumbers the CPUs or the tuples left to verify.  A serial run
    (jobs=1, one CPU or one tuple left) never imports the pool.  A
    parallel run raises a tuple's error only once the others are logged.
    """
    budgets = {"element_budget": element_budget, "matching_budget": matching_budget}
    for name, value in {"jobs": jobs, **budgets}.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if resume and out_path is None:
        raise ValueError("resume needs a log to read, and none was given")
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
            # imported here, so a serial run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = _pooled(pool, work)
        else:
            results = starmap(verify_instance, work)
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
