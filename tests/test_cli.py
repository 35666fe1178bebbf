import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ballwidth
from ballwidth.cli import main


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestTable:
    def test_csv_reference_values(self, capsys):
        rc, out, err = run(["table", "-p", "5", "-q", "8", "-r", "4", "--format", "csv"], capsys)
        assert rc == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        got = {(int(r["i"]), int(r["j"])): int(r["size"]) for r in rows}
        assert got[(2, 2)] == 280 and got[(0, 4)] == 70 and len(got) == 15

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        rc, out, _ = run(["table", "-p", "3", "-q", "3", "-r", "2", "--format", "json"], capsys)
        target = tmp_path / "table.json"
        rc2 = main(["table", "-p", "3", "-q", "3", "-r", "2", "--format", "json", "--out", str(target)])
        capsys.readouterr()
        assert rc == rc2 == 0
        assert target.read_text() == out

    def test_text_head_line(self, capsys):
        rc, out, _ = run(["table", "-p", "1", "-q", "1", "-r", "1"], capsys)
        assert rc == 0
        assert out.splitlines()[0] == (
            "ball p=1 q=1 r=1: 3 elements, largest layer 1 at height 0 (tied)"
        )

    def test_tikz(self, capsys):
        rc, out, _ = run(["table", "-p", "5", "-q", "8", "-r", "4", "--format", "tikz"], capsys)
        assert rc == 0
        assert out.count("[red]") == 3
        assert "dotted" in out

    def test_usage_errors(self, capsys):
        rc, _, _ = run(["table", "-p", "5", "-q", "8"], capsys)
        assert rc == 2
        rc, _, err = run(["table", "-p", "0", "-q", "8", "-r", "1"], capsys)
        assert rc == 2 and "error:" in err


class TestWidth:
    def test_text_output(self, capsys):
        rc, out, _ = run(["width", "-p", "2", "-q", "3", "-r", "2"], capsys)
        assert rc == 0
        assert out.splitlines()[0] == "width 7 over 16 elements"

    def test_json_output(self, capsys):
        rc, out, _ = run(["width", "-p", "1", "-q", "2", "-r", "1", "--format", "json"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["width"] == "2"
        assert payload["elements"] == 4
        assert sorted(payload["witness"]) == [[1, 2], [1, 3]]

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "-p 5 -q 8 -r 4 --format json",
                "9d4ca831445729a1246f1401184c3e764d258d717ed6ed4537784f7997f86574",
            ),
            (
                "-p 5 -q 8 -r 4",
                "d4c208d47a1901304c3ef01cd85d971150732ed48d01e45d6629bddc8fbd0af7",
            ),
            (  # r > min(p, q): a truncated ball
                "-p 2 -q 5 -r 4 --format json",
                "cf86a79d20e2424572bdb6f65654f621052150a17e59831e72499ccc3f0c327a",
            ),
        ],
    )
    def test_rendering_is_pinned(self, capsys, argv, digest):
        # the witness's subsets are decoded from the ball's block layout
        rc, out, _ = run(["width", *argv.split()], capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_custom_poset(self, capsys, tmp_path):
        doc = tmp_path / "poset.json"
        doc.write_text(json.dumps({"elements": 3, "relations": [[0, 1]]}))
        rc, out, _ = run(["width", "--custom-poset", str(doc), "--format", "json"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["width"] == "2"
        assert sorted(payload["witness"]) == [1, 2]

    def test_custom_poset_text(self, capsys, tmp_path):
        # a custom poset's members are plain ids, printed as they are
        doc = tmp_path / "poset.json"
        doc.write_text(json.dumps({"elements": 3, "relations": [[0, 1]]}))
        rc, out, _ = run(["width", "--custom-poset", str(doc)], capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "width 2 over 3 elements"
        assert sorted(lines[1:]) == ["  1", "  2"]

    def test_needs_parameters_or_file(self, capsys):
        rc, _, err = run(["width"], capsys)
        assert rc == 2 and "need either" in err

    def test_budget_violation(self, capsys):
        rc, _, err = run(["width", "-p", "2", "-q", "3", "-r", "2", "--budget", "3"], capsys)
        assert rc == 2 and "budget exceeded" in err

    def test_budget_bounds_custom_poset_before_closure(self, capsys, tmp_path):
        # a cycle shows only once the relations are read; the budget speaks first
        doc = tmp_path / "cycle.json"
        doc.write_text(json.dumps({"elements": 3, "relations": [[0, 1], [1, 2], [2, 0]]}))
        rc, _, err = run(["width", "--custom-poset", str(doc), "--budget", "2"], capsys)
        assert rc == 2 and "budget exceeded" in err

    def test_budget_bounds_ball_before_building(self, capsys, monkeypatch):
        # 137,980 elements: within the element budget, past the matching one
        import ballwidth.poset as poset_module

        def planted(*args):
            raise AssertionError("the ball was materialised")

        monkeypatch.setattr(poset_module, "masks_with_popcount", planted)
        rc, _, err = run(["width", "-p", "10", "-q", "10", "-r", "7"], capsys)
        assert rc == 2 and "budget exceeded" in err

    def test_matching_budget_bounds_custom_poset(self, capsys, tmp_path):
        # the relations are only read once the element count is in budget
        doc = tmp_path / "poset.json"
        doc.write_text(json.dumps({"elements": 20001, "relations": "none"}))
        rc, _, err = run(["width", "--custom-poset", str(doc)], capsys)
        assert rc == 2 and "budget exceeded" in err


class TestKlym:
    def test_sphere_json(self, capsys):
        rc, out, _ = run(["klym", "-p", "2", "-q", "3", "-r", "2", "--format", "json"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload == {
            "p": 2,
            "q": 3,
            "sphere": 2,
            "elements": 10,
            "holds": True,
            "max_lym_sum": "1",
            "witness_size": 3,
        }

    def test_custom_poset_text(self, capsys, tmp_path):
        doc = tmp_path / "poset.json"
        doc.write_text(json.dumps({"elements": 3, "relations": [[0, 1]]}))
        rc, out, _ = run(["klym", "--custom-poset", str(doc)], capsys)
        assert rc == 0
        assert out == "normalized antichain bound FAILS: max sum 3/2\n"

    def test_budget_bounds_custom_poset(self, capsys, tmp_path):
        doc = tmp_path / "poset.json"
        doc.write_text(json.dumps({"elements": 5, "relations": [[0, 1]]}))
        rc, out, err = run(["klym", "--custom-poset", str(doc), "--budget", "2"], capsys)
        assert rc == 2 and out == "" and "budget exceeded" in err

    def test_budget_bounds_sphere(self, capsys):
        rc, _, err = run(["klym", "-p", "2", "-q", "3", "-r", "2", "--budget", "9"], capsys)
        assert rc == 2 and "budget exceeded" in err


class TestCertify:
    def test_flow_json(self, capsys):
        rc, out, _ = run(["certify", "-p", "5", "-q", "8", "-r", "4", "--format", "json"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["status"] == "CERTIFIED"
        assert payload["largest_layer_size"] == "321"
        assert payload["target_height"] == 4
        total = sum(int(entry["count"]) for entry in payload["profiles"])
        assert total == 321
        coverage = {(e["i"], e["j"]): int(e["count"]) for e in payload["coverage"]}
        assert coverage[(2, 2)] == 280

    def test_zigzag(self, capsys):
        rc, out, _ = run(["certify", "-p", "5", "-q", "8", "-r", "4", "--method", "zigzag", "--format", "json"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["status"] == "CERTIFIED"
        assert "start (2, 2) routes 321 chains" in payload["diagnostics"]

    def test_strict(self, capsys):
        rc, out, _ = run(["certify", "-p", "1", "-q", "2", "-r", "1", "--strict", "--format", "json"], capsys)
        assert rc == 0
        assert json.loads(out)["status"] == "CERTIFIED_STRICT"

    def test_tie_exits_4(self, capsys):
        rc, out, _ = run(["certify", "-p", "2", "-q", "2", "-r", "1"], capsys)
        assert rc == 4
        assert out == "NOT_APPLICABLE: largest layer is tied between heights [0, 2]\n"

    def test_infeasible_routing_exits_4(self, capsys):
        rc, out, _ = run(["certify", "-p", "6", "-q", "2", "-r", "2", "--method", "zigzag"], capsys)
        assert rc == 4
        assert out.startswith("INFEASIBLE:")

    def test_truncated_regime_is_usage_error(self, capsys):
        rc, _, err = run(["certify", "-p", "2", "-q", "5", "-r", "4"], capsys)
        assert rc == 2 and "untruncated" in err


class TestSweep:
    def test_csv_run(self, capsys):
        rc, out, _ = run(["sweep", "--p-max", "2", "--q-max", "2", "--format", "csv"], capsys)
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["p"], r["q"], r["r"]) for r in rows] == [
            ("1", "1", "1"), ("1", "2", "1"), ("2", "1", "1"),
            ("2", "2", "1"), ("2", "2", "2"),
        ]
        assert {r["status"] for r in rows} == {"TIE", "VERIFIED_UNIQUE"}

    def test_log_and_resume(self, capsys, tmp_path):
        log = tmp_path / "log.jsonl"
        rc, first, _ = run(
            ["sweep", "--p-max", "2", "--q-max", "3", "--format", "csv", "--out", str(log)],
            capsys,
        )
        assert rc == 0
        rc, second, _ = run(
            ["sweep", "--p-max", "2", "--q-max", "3", "--format", "csv", "--out", str(log), "--resume"],
            capsys,
        )
        assert rc == 0
        assert second == first  # canonical report ignores the stored timings

    def test_rerun_without_resume_is_bad_usage(self, capsys, tmp_path):
        log = tmp_path / "log.jsonl"
        argv = ["sweep", "--p-max", "2", "--q-max", "2", "--format", "csv", "--out", str(log)]
        assert run(argv, capsys)[0] == 0
        before = log.read_bytes()
        rc, out, err = run(argv, capsys)
        assert rc == 2 and out == "" and "already holds a sweep log" in err
        assert log.read_bytes() == before

    def test_resume_without_out_is_bad_usage(self, capsys):
        rc, out, err = run(["sweep", "--p-max", "1", "--q-max", "1", "--resume"], capsys)
        assert rc == 2 and out == "" and "resume needs a log" in err

    def test_parallel_jobs(self, capsys):
        rc, serial, _ = run(["sweep", "--p-max", "2", "--q-max", "2", "--format", "csv"], capsys)
        rc2, parallel, _ = run(["sweep", "--p-max", "2", "--q-max", "2", "--format", "csv", "--jobs", "2"], capsys)
        assert rc == rc2 == 0
        assert serial == parallel

    def test_jobs_below_one_is_bad_usage(self, capsys):
        for jobs in ("0", "-3"):
            rc, out, err = run(["sweep", "--p-max", "2", "--q-max", "2", "--jobs", jobs], capsys)
            assert rc == 2 and out == "" and "jobs" in err

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        import ballwidth.sweep as sweep_module

        genuine = sweep_module.verify_instance

        def planted(p, q, r, element_budget, matching_budget):
            record = genuine(p, q, r, element_budget, matching_budget)
            if (p, q, r) == (1, 1, 1):
                record = dataclasses.replace(record, status="COUNTEREXAMPLE")
            return record

        monkeypatch.setattr(sweep_module, "verify_instance", planted)
        rc, _, _ = run(["sweep", "--p-max", "1", "--q-max", "1"], capsys)
        assert rc == 3

    def test_general_flag(self, capsys):
        rc, out, _ = run(["sweep", "--p-max", "1", "--q-max", "2", "--general", "--format", "csv"], capsys)
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert max(int(r["r"]) for r in rows) == 3


class TestChains:
    def test_json(self, capsys):
        rc, out, _ = run(["chains", "-n", "3", "--format", "json"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["n"] == 3 and payload["count"] == 3
        flattened = sorted(tuple(s) for chain in payload["chains"] for s in chain)
        assert len(flattened) == 8  # every subset exactly once

    def test_text(self, capsys):
        rc, out, _ = run(["chains", "-n", "3"], capsys)
        assert rc == 0
        assert out.splitlines()[0] == "3 symmetric chains over {1..3}"

    def test_csv(self, capsys):
        rc, out, _ = run(["chains", "-n", "2", "--format", "csv"], capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "chain,step,subset"
        assert len(lines) == 1 + 4  # one row per subset

    def test_budget_exit(self, capsys):
        rc, _, err = run(["chains", "-n", "23"], capsys)
        assert rc == 2 and "budget exceeded" in err


class TestTheorem:
    def test_text(self, capsys):
        rc, out, _ = run(["theorem", "-p", "5", "-q", "8", "-r", "4"], capsys)
        assert rc == 0
        assert out == "width bound for p=5 q=8 r=4: 321\n"

    def test_json(self, capsys):
        rc, out, _ = run(["theorem", "-p", "5", "-q", "8", "-r", "1", "--format", "json"], capsys)
        assert rc == 0
        assert json.loads(out)["bound"] == "8"


class TestBudgetBelowOne:
    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize(
        "command",
        [
            ["width", "-p", "2", "-q", "3", "-r", "2"],
            ["klym", "-p", "2", "-q", "3", "-r", "2"],
            ["sweep", "--p-max", "2", "--q-max", "2"],
        ],
        ids=["width", "klym", "sweep"],
    )
    def test_refused_before_building(self, capsys, monkeypatch, tmp_path, command, budget):
        import ballwidth.cli as cli_module

        def planted(*args, **kwargs):
            raise AssertionError("work started under a budget below 1")

        for name in ("build_ball", "build_sphere", "load_custom_poset", "sweep_range"):
            monkeypatch.setattr(cli_module, name, planted)
        log = tmp_path / "log.jsonl"
        extra = ["--out", str(log)] if command[0] == "sweep" else []
        rc, out, err = run(command + extra + ["--budget", budget], capsys)
        assert rc == 2 and out == "" and "at least 1" in err
        assert not log.exists()


class TestErrorPaths:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_no_arguments(self, capsys):
        assert run([], capsys)[0] == 2

    def test_missing_custom_poset_file(self, capsys, tmp_path):
        rc, _, err = run(["width", "--custom-poset", str(tmp_path / "absent.json")], capsys)
        assert rc == 2 and "error:" in err

    def test_malformed_custom_poset(self, capsys, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_text("{not json")
        rc, _, err = run(["width", "--custom-poset", str(doc)], capsys)
        assert rc == 2 and "error:" in err
        doc.write_text(json.dumps({"elements": 2, "relations": [[0, 0]]}))
        rc, _, err = run(["width", "--custom-poset", str(doc)], capsys)
        assert rc == 2 and "below itself" in err

    @pytest.mark.parametrize("command", ["width", "klym"])
    @pytest.mark.parametrize("flag", ["-p", "-q", "-r"])
    def test_custom_poset_with_numbers_is_bad_usage(self, capsys, tmp_path, command, flag):
        # a run takes its poset from a file or from numbers, never both
        doc = tmp_path / "poset.json"
        doc.write_text(json.dumps({"elements": 3, "relations": [[0, 1]]}))
        rc, out, err = run([command, flag, "2", "--custom-poset", str(doc)], capsys)
        assert rc == 2 and out == "" and "not both" in err
        argv = [command, "-p", "2", "-q", "3", "-r", "2", "--custom-poset", str(doc)]
        rc, out, err = run(argv, capsys)
        assert rc == 2 and out == "" and "not both" in err

    def test_deterministic_output(self, capsys):
        rc, a, _ = run(["table", "-p", "4", "-q", "4", "-r", "3", "--format", "json"], capsys)
        rc2, b, _ = run(["table", "-p", "4", "-q", "4", "-r", "3", "--format", "json"], capsys)
        assert rc == rc2 == 0 and a == b


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["ballwidth", "ballwidth.cli"])
    def test_python_dash_m_prints_the_verdict(self, module, capsys):
        rc, expected, _ = run(["klym", "-p", "2", "-q", "3", "-r", "2"], capsys)
        src = str(Path(ballwidth.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", module, "klym", "-p", "2", "-q", "3", "-r", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert rc == done.returncode == 0
        assert done.stdout == expected != ""


# sha256 of the canonical documents, pinned so a refactor keeps them byte-identical
GOLDEN = [
    (
        "sweep --p-max 6 --q-max 6 --format json",
        "70774ce2ccd7a01829afca9ee9e31fabe7715c67daf47f70dc9d55d086c1c648",
    ),
    (
        "sweep --p-max 6 --q-max 6 --format text",
        "f04a9e217cf0305b7a4e964b42c2c9ed23b013d5e06a107c8db94700dae78676",
    ),
    (
        "table -p 5 -q 8 -r 4 --format json",
        "9ed7366d01e0eaf70b360918dea0f6caf8368bdad230cd39270d9c9a4c918761",
    ),
    (
        "certify -p 5 -q 8 -r 4 --strict --format json",
        "9578a555f87168936fbd493b3808d877655d9d5a0e0001794768578a9d5693fa",
    ),
    (
        "klym -p 4 -q 5 -r 3 --format json",
        "d5c1066c10e8cce532e1ada58b89f80fe0aacd15e800cc3795a5a1bcbe398a1f",
    ),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_digest(command, digest, capsys):
    rc, out, err = run(command.split(), capsys)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
