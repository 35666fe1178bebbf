import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import Future
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballwidth
from ballwidth.combinatorics import profile_from_sizes
from ballwidth.errors import InternalConsistencyError
from ballwidth.poset import PosetInstance
from ballwidth.reports import emit_sweep_csv
from ballwidth.sweep import SweepRecord, sweep_range, sweep_tuples, verify_instance

from helpers import counting


def canonical(records):
    return [dataclasses.replace(r, elapsed_ms=0) for r in records]


class InProcessPool:
    """A stand-in process pool that runs every call in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class TestVerifyInstance:
    def test_reference_instance(self):
        record = verify_instance(5, 8, 4)
        assert record.status == "VERIFIED_UNIQUE"
        assert record.ball_size == "1093"
        assert record.largest_layer_height == 4
        assert record.largest_layer_size == "321"
        assert record.width == "321"
        assert record.tie is False
        assert record.unique is True
        assert record.certificate == "CERTIFIED"
        assert record.klym_sphere is True
        assert record.theorem_bound_ok is True

    def test_tie_instance(self):
        record = verify_instance(2, 2, 1)
        assert record.status == "TIE"
        assert record.tie is True
        assert record.width == "2"
        assert record.unique is None
        assert record.certificate == "NOT_APPLICABLE"

    def test_over_budget_instance(self):
        record = verify_instance(5, 8, 4, element_budget=10)
        assert record.status == "OVER_BUDGET"
        assert record.ball_size == "1093"  # counting needs no enumeration
        assert record.width is None
        assert record.unique is None
        assert record.klym_sphere is None
        assert record.certificate == "SKIPPED"
        assert record.theorem_bound_ok is None

    def test_matching_budget_also_counts(self):
        record = verify_instance(2, 3, 2, matching_budget=3)
        assert record.status == "OVER_BUDGET"
        assert record.width is None

    def test_truncated_regime_instance(self):
        record = verify_instance(2, 5, 4)
        assert record.status == "VERIFIED_UNIQUE"
        assert record.ball_size == "99"
        assert record.width == "30"
        assert record.certificate == "SKIPPED"
        assert record.theorem_bound_ok is None  # bound needs r <= min(p, q)
        assert record.klym_sphere is True

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_instance(0, 2, 1)
        with pytest.raises(ValueError):
            verify_instance(2, 2, -1)


class TestSweepRecordSerialization:
    @given(st.data())
    @settings(max_examples=30)
    def test_round_trip(self, data):
        record = SweepRecord(
            p=data.draw(st.integers(1, 30)),
            q=data.draw(st.integers(0, 30)),
            r=data.draw(st.integers(0, 30)),
            ball_size=str(data.draw(st.integers(0, 10**40))),
            largest_layer_height=data.draw(st.integers(0, 60)),
            largest_layer_size=str(data.draw(st.integers(0, 10**40))),
            tie=data.draw(st.booleans()),
            width=data.draw(st.none() | st.integers(0, 10**40).map(str)),
            unique=data.draw(st.none() | st.booleans()),
            certificate=data.draw(
                st.sampled_from(
                    ["CERTIFIED", "CERTIFIED_STRICT", "NOT_APPLICABLE", "SKIPPED"]
                )
            ),
            klym_sphere=data.draw(st.none() | st.booleans()),
            theorem_bound_ok=data.draw(st.none() | st.booleans()),
            status=data.draw(st.sampled_from(["TIE", "VERIFIED_UNIQUE"])),
            elapsed_ms=data.draw(st.integers(0, 10**6)),
        )
        assert SweepRecord.from_line(record.to_line()) == record
        assert record.key() == (record.p, record.q, record.r)

    def test_line_is_the_dataclass_as_json(self):
        # over budget, so width, unique, klym_sphere and theorem_bound_ok are
        # None; so are the budgets of a record from an older log
        record = dataclasses.replace(
            verify_instance(2, 2, 2, element_budget=5),
            element_budget=None,
            matching_budget=None,
        )
        assert record.width is None and record.unique is None
        assert record.to_line() == json.dumps(dataclasses.asdict(record))

    def test_line_is_single_json_object(self):
        line = verify_instance(1, 2, 1).to_line()
        assert "\n" not in line
        assert set(json.loads(line)) == set(SweepRecord.__dataclass_fields__)


class TestSweepTuples:
    def test_default_regime(self):
        tuples = sweep_tuples(3, 3)
        assert len(tuples) == 14
        assert (2, 2, 1) in tuples and (3, 3, 3) in tuples
        assert all(r <= min(p, q) for p, q, r in tuples)
        assert all(r >= 1 for _, _, r in tuples)

    def test_acceptance_domain_size(self):
        assert len(sweep_tuples(11, 11, n_max=12)) == 161

    def test_general_regime_and_caps(self):
        tuples = sweep_tuples(2, 3, general=True)
        assert (1, 3, 4) in tuples  # beyond min(p, q)
        assert max(r for _, _, r in tuples) == 5
        capped = sweep_tuples(3, 3, r_max=1)
        assert all(r == 1 for _, _, r in capped)


class TestSweepRange:
    def test_summary_and_order(self, tmp_path):
        records, summary = sweep_range(3, 3)
        assert summary["total"] == 14 == len(records)
        assert summary["by_status"] == {"TIE": 4, "VERIFIED_UNIQUE": 10}
        assert summary["counterexamples"] == []
        keys = [r.key() for r in records]
        assert keys == sorted(keys)

    def test_parallel_equals_serial(self):
        serial, _ = sweep_range(3, 3)
        parallel, _ = sweep_range(3, 3, jobs=2)
        assert canonical(serial) == canonical(parallel)

    def test_log_file_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records, _ = sweep_range(2, 3, out_path=path)
        lines = path.read_text().splitlines()
        assert [SweepRecord.from_line(s) for s in lines] == records

    def test_resume_skips_finished_tuples(self, tmp_path):
        path = tmp_path / "records.jsonl"
        full, _ = sweep_range(3, 3, out_path=path)
        baseline = path.read_text()

        partial = tmp_path / "partial.jsonl"
        lines = baseline.splitlines()
        # an interrupted run: some whole records plus one torn final line
        partial.write_text("\n".join(lines[:5]) + "\n" + lines[5][: len(lines[5]) // 2])
        resumed, summary = sweep_range(3, 3, out_path=partial, resume=True)
        assert summary["total"] == 14
        assert canonical(resumed) == canonical(full)
        assert emit_sweep_csv(resumed) == emit_sweep_csv(full)

    def test_resume_cuts_a_torn_line_before_appending(self, tmp_path):
        path = tmp_path / "records.jsonl"
        full, _ = sweep_range(3, 3, out_path=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n" + lines[5][: len(lines[5]) // 2])
        first, _ = sweep_range(3, 3, out_path=path, resume=True)
        # the second resume reads every line the first one left
        again, _ = sweep_range(3, 3, out_path=path, resume=True)
        assert canonical(first) == canonical(again) == canonical(full)
        assert again == first
        text = path.read_text()
        assert text.endswith("\n") and text.splitlines()[:5] == lines[:5]
        logged = [SweepRecord.from_line(line) for line in text.splitlines()]
        assert sorted(logged, key=SweepRecord.key) == first

    def test_resume_skips_a_blank_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        full, _ = sweep_range(2, 2, out_path=path)
        lines = path.read_text().splitlines()
        text = "\n".join(lines[:2]) + "\n\n" + "\n".join(lines[2:]) + "\n"
        path.write_text(text)
        again, _ = sweep_range(2, 2, out_path=path, resume=True)
        assert again == full  # every record kept, down to the stored timings
        assert path.read_text() == text  # and none appended

    def test_resume_reuses_stored_records(self, tmp_path):
        path = tmp_path / "records.jsonl"
        first, _ = sweep_range(2, 2, out_path=path)
        again, _ = sweep_range(2, 2, out_path=path, resume=True)
        assert again == first  # identical down to the stored timings

    def test_rerun_without_resume_refuses_and_keeps_the_log(self, tmp_path):
        path = tmp_path / "records.jsonl"
        sweep_range(2, 2, out_path=path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="already holds a sweep log"):
            sweep_range(2, 2, out_path=path)
        assert path.read_bytes() == before
        assert len(before.splitlines()) == 5

    def test_resume_without_a_log_is_refused(self):
        # nothing to resume: the run would silently start afresh
        with pytest.raises(ValueError, match="resume needs a log"):
            sweep_range(1, 1, resume=True)

    def test_empty_log_needs_no_resume(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("")
        records, _ = sweep_range(2, 2, out_path=path)
        assert [SweepRecord.from_line(s) for s in path.read_text().splitlines()] == records

    def test_corrupt_middle_line_is_an_error(self, tmp_path):
        path = tmp_path / "records.jsonl"
        sweep_range(2, 2, out_path=path)
        lines = path.read_text().splitlines()
        lines[1] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unreadable sweep record"):
            sweep_range(2, 2, out_path=path, resume=True)

    def test_line_without_a_stage_field_is_an_error(self, tmp_path):
        # the stage fields have defaults, but a logged line must state them;
        # only the budgets may be missing, as in logs written before them
        path = tmp_path / "records.jsonl"
        sweep_range(2, 2, out_path=path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["status"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unreadable sweep record"):
            sweep_range(2, 2, out_path=path, resume=True)

    @pytest.mark.parametrize("tail", ["{broken\n", "notes, no newline"])
    def test_unreadable_last_line_is_refused_untouched(self, tmp_path, tail):
        # an interrupted append leaves no newline, and a prefix of a record:
        # a whole line is a record, and other text is not cut
        path = tmp_path / "records.jsonl"
        sweep_range(2, 2, out_path=path)
        with path.open("a") as handle:
            handle.write(tail)
        before = path.read_bytes()
        with pytest.raises(ValueError, match=":6: unreadable sweep record"):
            sweep_range(2, 2, out_path=path, resume=True)
        assert path.read_bytes() == before

    def test_resume_reverifies_over_budget_from_smaller_budgets(self, tmp_path):
        path = tmp_path / "records.jsonl"
        _, summary = sweep_range(2, 3, element_budget=5, out_path=path)
        assert summary["by_status"]["OVER_BUDGET"] == 3
        resumed, summary = sweep_range(2, 3, out_path=path, resume=True)
        fresh, fresh_summary = sweep_range(2, 3)
        assert summary["by_status"] == fresh_summary["by_status"]
        assert "OVER_BUDGET" not in summary["by_status"]
        assert emit_sweep_csv(resumed) == emit_sweep_csv(fresh)
        # the re-verified tuples are appended; the last line per tuple wins
        assert len(path.read_text().splitlines()) == len(fresh) + 3
        again, _ = sweep_range(2, 3, out_path=path, resume=True)
        assert again == resumed

    def test_resume_keeps_over_budget_from_budgets_at_least_as_large(self, tmp_path):
        path = tmp_path / "records.jsonl"
        first, summary = sweep_range(2, 3, element_budget=5, out_path=path)
        before = path.read_bytes()
        for element_budget, matching_budget in [(5, 20000), (4, 20000), (5, 3)]:
            again, _ = sweep_range(
                2,
                3,
                element_budget=element_budget,
                matching_budget=matching_budget,
                out_path=path,
                resume=True,
            )
            assert again == first
        assert path.read_bytes() == before
        assert summary["by_status"]["OVER_BUDGET"] == 3

    def test_resume_reverifies_over_budget_lines_without_budgets(self, tmp_path):
        # a log line in the older format, which did not state its budgets
        path = tmp_path / "records.jsonl"
        stale = json.loads(verify_instance(2, 2, 2, element_budget=5).to_line())
        assert stale["status"] == "OVER_BUDGET"
        stale.pop("element_budget", None)
        stale.pop("matching_budget", None)
        path.write_text(json.dumps(stale) + "\n")
        resumed, summary = sweep_range(2, 2, out_path=path, resume=True)
        assert "OVER_BUDGET" not in summary["by_status"]
        assert canonical(resumed) == canonical(sweep_range(2, 2)[0])

    def test_records_state_their_budgets(self):
        record = verify_instance(2, 3, 2, element_budget=50, matching_budget=40)
        assert (record.element_budget, record.matching_budget) == (50, 40)
        old_line = json.dumps(
            {k: v for k, v in json.loads(record.to_line()).items() if "budget" not in k}
        )
        old = SweepRecord.from_line(old_line)
        assert old.element_budget is None and old.matching_budget is None

    def test_over_budget_status_is_not_a_counterexample(self):
        records, summary = sweep_range(2, 3, element_budget=5)
        assert summary["counterexamples"] == []
        assert set(summary["by_status"]) <= {"OVER_BUDGET", "TIE", "VERIFIED_UNIQUE"}
        assert "OVER_BUDGET" in summary["by_status"]

    def test_counterexample_surfaces_in_summary(self, monkeypatch):
        import ballwidth.sweep as sweep_module

        genuine = sweep_module.verify_instance

        def planted(p, q, r, element_budget, matching_budget):
            record = genuine(p, q, r, element_budget, matching_budget)
            if (p, q, r) == (2, 2, 2):
                record = dataclasses.replace(record, status="COUNTEREXAMPLE")
            return record

        monkeypatch.setattr(sweep_module, "verify_instance", planted)
        records, summary = sweep_range(2, 2)
        assert summary["counterexamples"] == [[2, 2, 2]]
        assert summary["by_status"]["COUNTEREXAMPLE"] == 1


class TestJobs:
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_below_one_is_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            sweep_range(2, 2, jobs=jobs)

    @pytest.mark.parametrize("budget", [0, -5])
    @pytest.mark.parametrize("name", ["element_budget", "matching_budget"])
    def test_budgets_below_one_are_rejected(self, name, budget, tmp_path):
        log = tmp_path / "log.jsonl"
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            sweep_range(2, 2, out_path=log, **{name: budget})
        assert not log.exists()

    @pytest.mark.parametrize(
        "cpus,jobs,expect",
        [(3, 64, [3]), (64, 64, [5]), (8, 2, [2]), (1, 4, [])],
    )
    def test_pool_size_is_clamped(self, monkeypatch, cpus, jobs, expect):
        # sweep_range(2, 2) has 5 tuples; a stub pool runs them in-process
        import ballwidth.sweep as sweep_module

        started = []

        class RecordingPool(InProcessPool):
            def __init__(self, max_workers):
                started.append(max_workers)

        # sweep_range imports the pool from here when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: cpus)
        records, _ = sweep_range(2, 2, jobs=jobs)
        assert started == expect
        assert canonical(records) == canonical(sweep_range(2, 2)[0])

    def test_serial_run_never_imports_the_pool(self):
        # a fresh interpreter, since this one has multiprocessing loaded
        src = str(Path(ballwidth.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import sys, ballwidth.cli\n"
            "from ballwidth.sweep import sweep_range\n"
            "sweep_range(2, 2)\n"
            "names = ('multiprocessing', 'concurrent.futures.process')\n"
            "print(sorted(n for n in names if n in sys.modules))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


class TestErrorsNameTheirTuple:
    @pytest.fixture
    def broken_klym(self, monkeypatch):
        import ballwidth.sweep as sweep_module

        def broken(instance):
            raise InternalConsistencyError("planted disagreement")

        monkeypatch.setattr(sweep_module, "check_klym", broken)

    def test_direct_call(self, broken_klym):
        with pytest.raises(InternalConsistencyError, match=r"\(2, 3, 2\)") as err:
            verify_instance(2, 3, 2)
        assert "planted disagreement" in str(err.value)
        assert isinstance(err.value.__cause__, InternalConsistencyError)

    def test_through_sweep_range(self, broken_klym):
        with pytest.raises(InternalConsistencyError, match=r"\(1, 1, 1\)"):
            sweep_range(1, 1)


class TestPlantedDisagreement:
    # (3, 4, 2) is VERIFIED_UNIQUE: width 13, one maximum antichain
    @pytest.fixture
    def sweep_module(self):
        import ballwidth.sweep as sweep_module

        return sweep_module

    def check(self):
        with pytest.raises(InternalConsistencyError, match=r"at \(3, 4, 2\): "):
            verify_instance(3, 4, 2)

    def test_grid_count(self, sweep_module, monkeypatch):
        genuine = sweep_module.heaviest_sublayer_chain
        monkeypatch.setattr(
            sweep_module, "heaviest_sublayer_chain", lambda t: (genuine(t)[0], 2)
        )
        self.check()

    def test_grid_weight(self, sweep_module, monkeypatch):
        genuine = sweep_module.heaviest_sublayer_chain
        monkeypatch.setattr(
            sweep_module,
            "heaviest_sublayer_chain",
            lambda t: (genuine(t)[0] + 1, genuine(t)[1]),
        )
        self.check()

    @pytest.mark.parametrize("name", ["width", "flow_width"])
    def test_element_width(self, sweep_module, monkeypatch, name):
        # the sweep's cross-check is the one place these widths are compared
        genuine = getattr(sweep_module, name)

        def planted(*args):
            value, witness = genuine(*args)
            return value + 1, witness

        monkeypatch.setattr(sweep_module, name, planted)
        self.check()

    def test_widths_agreeing_off_the_largest_layer(self, sweep_module, monkeypatch):
        # all three widths still agree; a largest layer one element larger
        # than the width is a counterexample, not an internal error
        genuine = sweep_module.layer_profile

        def planted(dag):
            profile = genuine(dag)
            top = profile.argmax[0]
            return profile_from_sizes({**profile.heights, top: profile.max_size + 1})

        monkeypatch.setattr(sweep_module, "layer_profile", planted)
        record = verify_instance(3, 4, 2)
        assert record.width == "13" and record.largest_layer_size == "14"
        assert record.tie is False and record.unique is None
        assert record.status == "COUNTEREXAMPLE"

    def test_cut_uniqueness(self, sweep_module, monkeypatch):
        monkeypatch.setattr(
            sweep_module, "is_unique_max_antichain", lambda *args: False
        )
        self.check()


class TestParallelFailureKeepsFinishedRecords:
    # (1, 2, 1) is the second of the 14 tuples of sweep_range(3, 3)
    @pytest.fixture
    def planted(self, monkeypatch):
        import ballwidth.sweep as sweep_module

        genuine = sweep_module._verify

        def planted(p, q, r, element_budget, matching_budget):
            if (p, q, r) == (1, 2, 1):
                raise InternalConsistencyError("planted")
            return genuine(p, q, r, element_budget, matching_budget)

        monkeypatch.setattr(sweep_module, "_verify", planted)
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
        return sweep_module

    def check_log(self, tmp_path):
        log = tmp_path / "records.jsonl"
        with pytest.raises(InternalConsistencyError, match=r"\(1, 2, 1\): planted"):
            sweep_range(3, 3, jobs=2, out_path=log)
        keys = [SweepRecord.from_line(s).key() for s in log.read_text().splitlines()]
        assert sorted(keys) == [t for t in sweep_tuples(3, 3) if t != (1, 2, 1)]

    def test_in_process_pool(self, planted, monkeypatch, tmp_path):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        self.check_log(tmp_path)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the planted failure only when forked",
    )
    def test_process_pool(self, planted, tmp_path):
        self.check_log(tmp_path)


class TestBuildsPerTuple:
    @pytest.mark.parametrize("key", [(3, 4, 2), (2, 2, 1)], ids=["strict", "tied"])
    def test_one_diagram_per_family(self, monkeypatch, key):
        # one diagram each for the ball and its top sphere: the record reads
        # the ball's diagram off its instance, and each diagram holds the
        # family's only table
        from ballwidth import combinatorics, poset

        calls = {"quotient_dag": 0, "build_table": 0}
        for owner, name in ((poset, "quotient_dag"), (combinatorics, "build_table")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "ballwidth":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        verify_instance(*key)
        assert calls == {"quotient_dag": 2, "build_table": 2}

    def test_each_min_flow_builds_its_lower_covers_once(self, monkeypatch):
        # a tie: the ball's flow width and its sphere's check each run one
        # element min-flow, their grids' flows coming from route B with no
        # min-flow, and nothing keeps the lower covers
        import ballwidth.antichains as antichains_module

        calls = {"lower_covers": 0, "_min_flow": 0}
        monkeypatch.setattr(
            PosetInstance,
            "lower_covers",
            counting(calls, "lower_covers", PosetInstance.lower_covers),
        )
        monkeypatch.setattr(
            antichains_module,
            "_min_flow",
            counting(calls, "_min_flow", antichains_module._min_flow),
        )
        assert verify_instance(9, 9, 5).status == "TIE"
        assert calls == {"lower_covers": 2, "_min_flow": 2}

    def test_ball_dies_before_its_sphere(self, monkeypatch):
        # the ball's checks keep no reference to the ball or its closure, so
        # the top sphere is built with next to nothing traced since the call
        # began: a tuple peaks at its matching, not at the sum of its stages
        import ballwidth.sweep as sweep_module

        balls, at_sphere = [], []
        build_ball, build_sphere = sweep_module.build_ball, sweep_module.build_sphere

        def ball_spy(*args, **kwargs):
            ball = build_ball(*args, **kwargs)
            balls.append(weakref.ref(ball))
            return ball

        def sphere_spy(*args, **kwargs):
            at_sphere.append((balls[0]() is None, tracemalloc.get_traced_memory()[0]))
            return build_sphere(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "build_ball", ball_spy)
        monkeypatch.setattr(sweep_module, "build_sphere", sphere_spy)
        tracemalloc.start()
        try:
            record = verify_instance(9, 9, 5)  # a ball of 12,616 elements
        finally:
            tracemalloc.stop()
        assert record.status == "TIE" and record.klym_sphere is True
        [(ball_dead, traced)] = at_sphere
        assert ball_dead
        assert traced < 2**20, f"{traced / 2**20:.2f} MB traced at build_sphere"


class TestStageSeams:
    # the general sweep of p, q <= 6 with both budgets at 300: 273 tuples,
    # 66 of them OVER_BUDGET and 207 within budget
    STAGES = ["_diagram_stage", "_element_stage", "_sphere_stage"]
    DEEP = ["build_sphere", "flow_width", "certificate_search"]

    def sweep(self):
        records, _ = sweep_range(
            6, 6, general=True, element_budget=300, matching_budget=300
        )
        return records

    def test_each_stage_wraps_unedited(self, monkeypatch):
        # a pass-through on every stage and on the deep calls behind them,
        # each noting the tuple it runs on, leaves the records as they were
        import ballwidth.sweep as sweep_module
        from ballwidth.flows import FlowNetwork

        unwrapped = self.sweep()
        current, reached = [None], {}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                reached.setdefault(current[0], []).append(name)
                return fn(*args, **kwargs)

            return wrapped

        genuine = sweep_module._verify

        def verify(p, q, r, element_budget, matching_budget):
            current[0] = (p, q, r)
            return genuine(p, q, r, element_budget, matching_budget)

        monkeypatch.setattr(sweep_module, "_verify", verify)
        for name in self.STAGES:
            stage = getattr(sweep_module, name)
            monkeypatch.setattr(sweep_module, name, spy(name, stage))
        for name in self.DEEP:
            original = getattr(sweep_module, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "ballwidth":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, spy(name, original))
        monkeypatch.setattr(FlowNetwork, "max_flow", spy("max_flow", FlowNetwork.max_flow))
        records = self.sweep()

        assert canonical(records) == canonical(unwrapped)
        over = {r.key() for r in records if r.status == "OVER_BUDGET"}
        assert (len(records), len(over)) == (273, 66)
        stages = {
            key: [name for name in names if name in self.STAGES]
            for key, names in reached.items()
        }
        assert stages == {
            r.key(): self.STAGES[:1] if r.key() in over else self.STAGES for r in records
        }
        deep = {key: set(names) - set(self.STAGES) for key, names in reached.items()}
        assert all(not deep[key] for key in over)
        # the spies are live: every deep call is reached within budget
        assert set().union(*deep.values()) == {*self.DEEP, "max_flow"}
