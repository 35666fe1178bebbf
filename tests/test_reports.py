import csv
import io
import json

from ballwidth.combinatorics import Ball, GroundParams, layer_profile
from ballwidth.poset import quotient_dag
from ballwidth.reports import (
    SWEEP_COLUMNS,
    emit_sweep_csv,
    emit_sweep_json,
    emit_sweep_text,
    emit_table_csv,
    emit_table_json,
    emit_table_text,
    emit_table_tikz,
    record_row,
    table_report,
)
from ballwidth.sweep import verify_instance

REFERENCE_SIZES = {
    (0, 0): 1,
    (1, 0): 5, (0, 1): 8,
    (2, 0): 10, (1, 1): 40, (0, 2): 28,
    (3, 0): 10, (2, 1): 80, (1, 2): 140, (0, 3): 56,
    (4, 0): 5, (3, 1): 80, (2, 2): 280, (1, 3): 280, (0, 4): 70,
}


class TestBallProfile:
    def test_closed_form_regime(self):
        profile = layer_profile(quotient_dag(GroundParams(5, 8, 4), Ball()))
        assert profile.max_size == 321 and profile.argmax == [4]

    def test_truncated_regime_uses_longest_paths(self):
        profile = layer_profile(quotient_dag(GroundParams(2, 5, 4), Ball()))
        # checked by hand: e.g. height 4 holds X(0,2) = 10 plus X(1,3) = 20
        assert profile.heights == {0: 1, 1: 7, 2: 21, 3: 25, 4: 30, 5: 10, 6: 5}
        assert profile.argmax == [4] and profile.max_size == 30


class TestTableReport:
    def test_reference_report(self):
        report = table_report(GroundParams(5, 8, 4))
        assert report["p"] == 5 and report["q"] == 8 and report["r"] == 4
        assert report["ball_size"] == "1093"
        assert report["largest_layer_height"] == 4
        assert report["largest_layer_size"] == "321"
        assert report["tie"] is False
        assert len(report["rows"]) == 15
        got = {(row["i"], row["j"]): int(row["size"]) for row in report["rows"]}
        assert got == REFERENCE_SIZES
        hs = [row["height"] for row in report["rows"]]
        assert hs == sorted(hs)

    def test_numbers_round_trip(self):
        report = table_report(GroundParams(9, 17, 9))
        for row in report["rows"]:
            assert str(int(row["size"])) == row["size"]
        assert str(int(report["ball_size"])) == report["ball_size"]


class TestTableEmitters:
    def test_csv(self):
        document = emit_table_csv(table_report(GroundParams(5, 8, 4)))
        rows = list(csv.DictReader(io.StringIO(document)))
        assert len(rows) == 15
        got = {(int(r["i"]), int(r["j"])): int(r["size"]) for r in rows}
        assert got == REFERENCE_SIZES

    def test_json_round_trips(self):
        report = table_report(GroundParams(5, 8, 4))
        parsed = json.loads(emit_table_json(report))
        assert parsed == report

    def test_text_mentions_every_size(self):
        document = emit_table_text(table_report(GroundParams(2, 2, 1)))
        assert "p=2 q=2 r=1" in document
        for needle in ("1", "2"):
            assert needle in document

    def test_tikz_marks_the_largest_layer(self):
        document = emit_table_tikz(table_report(GroundParams(5, 8, 4)))
        assert document.count("[red]") == 3  # (0,0), (1,1), (2,2)
        # x = i + j, y = j - i
        assert "(4,0)" in document and "{280}" in document
        assert "(4,-2)" in document  # the (3, 1) sublayer
        assert "dotted" in document

    def test_tikz_marks_ties_everywhere(self):
        document = emit_table_tikz(table_report(GroundParams(2, 2, 1)))
        # heights 0 and 2 tie: sublayers (1,0) and (0,1) are both largest
        assert document.count("[red]") == 2

    def test_deterministic(self):
        a = emit_table_csv(table_report(GroundParams(5, 8, 4)))
        b = emit_table_csv(table_report(GroundParams(5, 8, 4)))
        assert a == b


class TestSweepEmitters:
    def setup_method(self):
        self.records = [
            verify_instance(1, 2, 1),
            verify_instance(2, 2, 1),
            verify_instance(2, 2, 2),
        ]

    def test_columns_have_no_timing(self):
        assert "elapsed_ms" not in SWEEP_COLUMNS
        assert SWEEP_COLUMNS[:3] == ["p", "q", "r"]
        assert record_row(self.records[0]).keys() == dict.fromkeys(SWEEP_COLUMNS).keys()

    def test_csv(self):
        document = emit_sweep_csv(self.records)
        rows = list(csv.DictReader(io.StringIO(document)))
        assert [r["status"] for r in rows] == ["VERIFIED_UNIQUE", "TIE", "VERIFIED_UNIQUE"]
        assert rows[0]["width"] == "2"
        assert rows[1]["unique"] == ""  # not decidable for a tied layer
        assert rows[0]["klym_sphere"] == "true"
        assert rows[1]["certificate"] == "NOT_APPLICABLE"

    def test_json_summary(self):
        payload = json.loads(emit_sweep_json(self.records))
        assert payload["summary"]["total"] == 3
        assert payload["summary"]["by_status"] == {"TIE": 1, "VERIFIED_UNIQUE": 2}
        assert [r["p"] for r in payload["records"]] == [1, 2, 2]
        assert all(set(r) == set(SWEEP_COLUMNS) for r in payload["records"])

    def test_text_has_aligned_header_and_tally(self):
        document = emit_sweep_text(self.records)
        lines = document.splitlines()
        assert lines[0].split() == SWEEP_COLUMNS
        assert lines[-1] == "TIE: 1, VERIFIED_UNIQUE: 2"

    def test_text_on_empty_input(self):
        document = emit_sweep_text([])
        assert "no records" in document
