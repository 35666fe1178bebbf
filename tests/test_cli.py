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

    def test_strict_zigzag_is_usage_error(self, capsys):
        # the zigzag takes no demand, so a strict verdict cannot come from it
        rc, out, err = run(["certify", "-p", "6", "-q", "9", "-r", "5", "--method", "zigzag", "--strict"], capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "--strict" in err

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


# sha256 and exit code of the canonical documents, pinned so a refactor keeps
# them byte-identical; {poset} names a file holding CUSTOM_POSET
GOLDEN = [
    (
        "table -p 5 -q 8 -r 4 --format json",
        0,
        "9ed7366d01e0eaf70b360918dea0f6caf8368bdad230cd39270d9c9a4c918761",
    ),
    # a tie between heights 0 and 2
    (
        "table -p 2 -q 2 -r 1 --format csv",
        0,
        "2c29ab0b3a44ca86cb91094129a263405a296fd0e3d4f9a1fc2878d14794ae4c",
    ),
    (
        "table -p 2 -q 2 -r 1 --format json",
        0,
        "ccae21ef6e62ab88a713883d4fa11891bcfa489e404b66361774af6899f41d4d",
    ),
    (
        "table -p 2 -q 2 -r 1 --format tikz",
        0,
        "44c5c8997206d76d8bd0a4423bf6936f9ad62aec86ec96661f46da2f9cbdd164",
    ),
    (
        "table -p 2 -q 2 -r 1 --format text",
        0,
        "06a2a14a0a040c9869a7eda57b5f64ff6fabc629d07a3c0f0f7e213d6babf79f",
    ),
    # r > min(p, q): a truncated ball
    (
        "table -p 6 -q 3 -r 5 --format csv",
        0,
        "7ee7b82d5eaf90e422e22162c27e805978dc273fee5568a9b684faceab9657ee",
    ),
    (
        "table -p 6 -q 3 -r 5 --format json",
        0,
        "880691245fcd0eebc16b1f6cd6659adfdced61611d0f82353d0dd60fa4a6eb0b",
    ),
    (
        "table -p 6 -q 3 -r 5 --format tikz",
        0,
        "b06c9d186b4e3131c731167ec592140f751da2e06ea7f86713ba571878edbfac",
    ),
    (
        "table -p 6 -q 3 -r 5 --format text",
        0,
        "d7d61c465c0f43b0c05beee1c5c9a772cffd228477a3795ebf826a49774f9d2c",
    ),
    # a witness of 17 members, 12 of them printed as text
    (
        "width -p 4 -q 4 -r 2 --format json",
        0,
        "be7f7db7b31d1099cb60bc60e9f219af0662aebed946d7b7a8d31b5d6f73098e",
    ),
    (
        "width -p 4 -q 4 -r 2 --format text",
        0,
        "437252b5b9c9df5c29883d7e7a3a73964a56f3de14f75f88bfbc93f49cf9febf",
    ),
    (
        "width --custom-poset {poset} --format json",
        0,
        "86f1ae16021b3a1c0242a4f7793009f8b2b57dfa8f6e79426a0ddeb30fce72bb",
    ),
    (
        "width --custom-poset {poset} --format text",
        0,
        "bdb86d987e82ea0cbed1ca2874150ca1e5b72d3b9fd66825c24b21a147a48eb0",
    ),
    (
        "klym -p 4 -q 5 -r 3 --format json",
        0,
        "d5c1066c10e8cce532e1ada58b89f80fe0aacd15e800cc3795a5a1bcbe398a1f",
    ),
    (
        "klym -p 3 -q 3 -r 2 --format text",
        0,
        "b91fc0d176f4262d361ed207b9e9b90975d505bd3487363ed1cf77b20ebd7290",
    ),
    (
        "klym --custom-poset {poset} --format json",
        0,
        "bcfc348705c5d46125938343e832e35da356d309f0e9b9715668885a77a0c658",
    ),
    (
        "klym --custom-poset {poset} --format text",
        0,
        "c51e4b2eb70c2d2384bdcaa5cc03e904f7c31c1dfb45ee7521e6b414c7a01daa",
    ),
    # a granted certificate in both formats, by both methods
    (
        "certify -p 5 -q 8 -r 4 --format json",
        0,
        "fd018d453ff5d1903e20cb7a197520a352e137a9ac773d9bb1bb8d40874ff13f",
    ),
    (
        "certify -p 5 -q 8 -r 4 --format text",
        0,
        "eaa3bd3996960caba59de509e7a3f381947a45fe178f9af6e2a00d47e3532ed2",
    ),
    (
        "certify -p 5 -q 8 -r 4 --strict --format json",
        0,
        "cd18fb8ca417915cdfb8ba544840ded5be939a3f052f13be4695a625681b8afa",
    ),
    (
        "certify -p 5 -q 8 -r 4 --strict --format text",
        0,
        "e5999d54f693417c7f9e60ebe5991a3ff857b93bce090c09e5bf938a40bc34bc",
    ),
    (
        "certify -p 5 -q 8 -r 4 --method zigzag --format json",
        0,
        "24dc99398f59a579f2d87e986f3428b8ae59ba22fe2ee5f1b6e710c7a8e57910",
    ),
    (
        "certify -p 5 -q 8 -r 4 --method zigzag --format text",
        0,
        "1d30ce3f55eeeeedf765f04f9357f57a95bdcf774bd4812b90d8ecab67858add",
    ),
    # bad usage: the zigzag takes no demand, so --strict is refused unrun
    (
        "certify -p 5 -q 8 -r 4 --method zigzag --strict",
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # refused: a tied largest layer, and a zigzag routing that fails
    (
        "certify -p 2 -q 2 -r 1 --format json",
        4,
        "3a6f05ac8d42a4dc5b650069df05c4ebc9c249ee8900874f1abd5325bfda8cc2",
    ),
    (
        "certify -p 2 -q 2 -r 1 --format text",
        4,
        "0ce829fce6a9c67e96e385671163450e23e84a08c465406bff2f618871d1bae1",
    ),
    (
        "certify -p 6 -q 2 -r 2 --method zigzag --format json",
        4,
        "8afd2d808b45258908abe2151163eb65b3ab1b621dcfc5a733727fcdec1b29ce",
    ),
    (
        "certify -p 6 -q 2 -r 2 --method zigzag --format text",
        4,
        "1bd7eb246665aba4d427aeaa44cb034eb53def4b5d29a05c3f883f2ed06510e6",
    ),
    (
        "chains -n 0 --format csv",
        0,
        "9deb6c9999180b6b4af328c66bb834ad1230706a7037542af486aa67c7b4dbb9",
    ),
    (
        "chains -n 0 --format json",
        0,
        "f455d10e57a2da8675cf0c789d06881e9c0981cd68bcae7a9b2a25d2b1900964",
    ),
    (
        "chains -n 0 --format text",
        0,
        "6a47cf2dc1c10c48deb40061f92bd9396ab52ce3b84d34b207780a6367e4063c",
    ),
    (
        "chains -n 4 --format csv",
        0,
        "c1b02efa4610d92370d0c34dc79ce736069342d3aeb76e33ebc2d0ecbd2fa7d5",
    ),
    (
        "chains -n 4 --format json",
        0,
        "d0b671a2d87214565354247dacc20feb466fefbd662cb75c109cf685ca7f8581",
    ),
    (
        "chains -n 4 --format text",
        0,
        "b9b44a280ab2b3c1d68b7c66c855aa93ea370b06278c77f4a4310181ffb52a84",
    ),
    (
        "theorem -p 5 -q 8 -r 4 --format json",
        0,
        "d8d3353b88f351a13fbe96dfc7427c77d2744d1fc07516ea56dbea2213f213f5",
    ),
    (
        "theorem -p 5 -q 8 -r 4 --format text",
        0,
        "9ee2edfa13a66409edca1e76c84bb36e449d1879678058244581087b46f18488",
    ),
    (
        "sweep --p-max 3 --q-max 3 --format csv",
        0,
        "ab425cdc06d23234480d23217ab6495b7d3657abd97ba232ae1b93f823a7a914",
    ),
    (
        "sweep --p-max 6 --q-max 6 --format json",
        0,
        "70774ce2ccd7a01829afca9ee9e31fabe7715c67daf47f70dc9d55d086c1c648",
    ),
    (
        "sweep --p-max 6 --q-max 6 --format text",
        0,
        "f04a9e217cf0305b7a4e964b42c2c9ed23b013d5e06a107c8db94700dae78676",
    ),
    # radii beyond min(p, q)
    (
        "sweep --p-max 3 --q-max 3 --general --format csv",
        0,
        "a2498ca9d60b60af4cefd338fa0662e2d46083b64da4a59e7de22169c4b676fc",
    ),
    (
        "sweep --p-max 3 --q-max 3 --general --format json",
        0,
        "7152fe45ec12b9252a6550d99b63114d4bae2b0698f0f3ab3f714c361201d566",
    ),
    (
        "sweep --p-max 3 --q-max 3 --general --format text",
        0,
        "9e737affa612732938aeed3b55bee066adc8ad0e372964d9affe6fc3af318f1b",
    ),
]
CUSTOM_POSET = {"elements": 6, "relations": [[0, 2], [1, 2], [2, 3], [2, 4], [4, 5]]}


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_digest(command, code, digest, capsys, tmp_path):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps(CUSTOM_POSET))
    rc, out, err = run(command.replace("{poset}", str(poset)).split(), capsys)
    assert rc == code
    assert err.startswith("error:") if code == 2 else err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# every command whose --out takes its document; sweep's --out is its record log
@pytest.mark.parametrize(
    "command",
    [
        "table -p 3 -q 3 -r 2 --format json",
        "width -p 2 -q 3 -r 2",
        "klym -p 2 -q 3 -r 2 --format json",
        "certify -p 5 -q 8 -r 4",
        "certify -p 2 -q 2 -r 1 --format json",
        "chains -n 3 --format csv",
        "theorem -p 5 -q 8 -r 4",
    ],
)
def test_out_file_matches_stdout(command, capsys, tmp_path):
    rc, out, _ = run(command.split(), capsys)
    target = tmp_path / "document"
    rc2, written, err = run([*command.split(), "--out", str(target)], capsys)
    assert rc == rc2 and written == err == ""
    assert target.read_text() == out != ""
