"""Acceptance suite: one test per shipping criterion.

Every test announces its verdict as a single line on the real stdout so
the ledger of criteria survives pytest's capture, then asserts as usual.
"""

import csv
import dataclasses
import io
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ballwidth.antichains import check_klym, flow_width, max_weight_antichain, width
from ballwidth.certificates import (
    certificate_check,
    certified_width,
    gk_partition,
    theorem_bound,
)
from ballwidth.cli import main
from ballwidth.combinatorics import (
    Ball,
    GroundParams,
    binomial,
    check_multiset_ratio_monotone,
    check_ratio_monotone,
    family_coords,
    largest_sphere_sublayer,
    layer_profile,
    sublayer_size,
)
from ballwidth.poset import build_ball, build_sphere, load_custom_poset, quotient_dag
from ballwidth.reports import emit_sweep_csv, emit_sweep_json, emit_sweep_text
from ballwidth.sweep import sweep_range, sweep_tuples

from helpers import sublayers

DOMAIN = sweep_tuples(11, 11, n_max=12)


@pytest.fixture(scope="module")
def criterion(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def announce(num: int, ok: bool, text: str) -> None:
        line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {text}"
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(line)
        else:
            print(line, flush=True)

    @contextmanager
    def check(num: int, text: str):
        try:
            yield
        except BaseException:
            announce(num, False, text)
            raise
        announce(num, True, text)

    return check


@pytest.fixture(scope="module")
def ball_instances():
    return {
        (p, q, r): (GroundParams(p, q, r), build_ball(GroundParams(p, q, r)))
        for p, q, r in DOMAIN
    }


@pytest.fixture(scope="module")
def matching_widths(ball_instances):
    return {key: width(inst)[0] for key, (_, inst) in ball_instances.items()}


@pytest.fixture(scope="module")
def full_sweep():
    start = time.perf_counter()
    records, summary = sweep_range(11, 11, n_max=12)
    return records, summary, time.perf_counter() - start


REFERENCE_TABLE = {
    (0, 0): 1,
    (1, 0): 5,
    (0, 1): 8,
    (2, 0): 10,
    (1, 1): 40,
    (0, 2): 28,
    (3, 0): 10,
    (2, 1): 80,
    (1, 2): 140,
    (0, 3): 56,
    (4, 0): 5,
    (3, 1): 80,
    (2, 2): 280,
    (1, 3): 280,
    (0, 4): 70,
}


def test_criterion_01_reference_table(criterion, capsys):
    with criterion(1, "table p=5 q=8 r=4 emits the 15 known sublayer sizes in under a second"):
        start = time.perf_counter()
        rc = main(["table", "-p", "5", "-q", "8", "-r", "4", "--format", "csv"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        got = {(int(row["i"]), int(row["j"])): int(row["size"]) for row in rows}
        assert got == REFERENCE_TABLE
        order = family_coords(GroundParams(5, 8, 4), Ball())
        assert [got[c] for c in order] == [
            1, 5, 8, 10, 40, 28, 10, 80, 140, 56, 5, 80, 280, 280, 70,
        ]
        assert elapsed < 1.0


def test_criterion_02_large_sphere_spots(criterion):
    with criterion(2, "p=9 q=17 spot sizes match and sphere 10 argmax rounds to (3, 7)"):
        params = GroundParams(9, 17, 9)
        assert sublayer_size(params, (4, 6)) == 1559376
        assert sublayer_size(params, (3, 7)) == 1633632
        assert sublayer_size(params, (3, 5)) == 519792
        assert sublayer_size(params, (2, 6)) == 445536
        argmax, rounded = largest_sphere_sublayer(params, 10)
        assert rounded == (3, 7)
        assert argmax == [(3, 7)]


def test_criterion_03_conjecture_sweep(criterion, full_sweep):
    with criterion(3, "sweep of every p+q <= 12 instance: width is the largest layer, never a counterexample"):
        records, summary, elapsed = full_sweep
        assert summary["total"] == len(DOMAIN) == 161
        assert summary["counterexamples"] == []
        assert "COUNTEREXAMPLE" not in summary["by_status"]
        by_key = {}
        for record in records:
            assert int(record.width) == int(record.largest_layer_size)
            if record.tie:
                assert record.status == "TIE"
            else:
                assert record.status == "VERIFIED_UNIQUE"
                assert record.unique is True
            by_key[record.key()] = record
        assert by_key[(2, 2, 1)].status == "TIE"
        assert elapsed < 600.0


def test_criterion_04_cross_engine_equality(criterion, ball_instances, matching_widths):
    with criterion(4, "matching width equals flow width and unit-weight heaviest antichain everywhere"):
        for key, (_, instance) in ball_instances.items():
            expected = matching_widths[key]
            assert flow_width(instance)[0] == expected
            assert max_weight_antichain(instance, [1] * len(instance))[0] == expected


def test_criterion_05_certificates(criterion, ball_instances, matching_widths):
    with criterion(5, "every strict largest layer is certified, and certificates survive independent rechecks"):
        for key, (params, _) in ball_instances.items():
            if layer_profile(quotient_dag(params, Ball())).tie:
                continue
            verdict, layer_size = certified_width(params)
            assert verdict.status in ("CERTIFIED", "CERTIFIED_STRICT")
            assert layer_size == matching_widths[key]
            assert certificate_check(verdict.certificate, quotient_dag(params, Ball()))
        verdict, _ = certified_width(GroundParams(1, 2, 1))
        assert verdict.status == "CERTIFIED_STRICT"
        assert verdict.certificate.coverage == {(1, 0): 2, (0, 0): 2, (0, 1): 2}


def test_criterion_06_normalized_antichain_bound(criterion):
    with criterion(6, "the normalized antichain bound holds on every small sphere and fails on {a<b; c}"):
        for p, q, r in DOMAIN:
            if r == min(p, q):
                for m in range(0, r + 1):
                    verdict = check_klym(build_sphere(GroundParams(p, q, r), m))
                    assert verdict.holds
                    assert verdict.max_lym_sum <= 1
        two_plus_point = load_custom_poset({"elements": 3, "relations": [[0, 1]]})
        verdict = check_klym(two_plus_point)
        assert not verdict.holds
        assert verdict.max_lym_sum == Fraction(3, 2)


def test_criterion_07_ratio_monotonicity(criterion):
    with criterion(7, "sphere step ratios are non-increasing for all p, q <= 30, checked exactly in under 10 s"):
        start = time.perf_counter()
        for p in range(1, 31):
            for q in range(1, 31):
                params = GroundParams(p, q, min(p, q))
                for radius in range(1, min(p, q) + 1):
                    verdict = check_ratio_monotone(params, radius)
                    assert verdict.holds
                    assert verdict.violation is None
        assert time.perf_counter() - start < 10.0


def test_criterion_08_symmetric_chain_cover(criterion):
    with criterion(8, "subset-lattice chain covers are disjoint, symmetric, and centrally counted up to n=12"):
        for n in range(0, 13):
            chains = gk_partition(n)
            assert len(chains) == binomial(n, n // 2)
            flat = sorted(mask for chain in chains for mask in chain)
            assert flat == list(range(2 ** n))
            for chain in chains:
                assert chain[0].bit_count() + chain[-1].bit_count() == n
                for a, b in zip(chain, chain[1:]):
                    assert a & b == a
                    assert (a ^ b).bit_count() == 1


def test_criterion_09_width_bound(criterion, ball_instances, matching_widths):
    with criterion(9, "the closed-form bound dominates every width and is tight at p=5 q=8 r=4"):
        violations = []
        for key, (params, _) in ball_instances.items():
            if matching_widths[key] > theorem_bound(params):
                violations.append((key, matching_widths[key], theorem_bound(params)))
        assert not violations, f"bound violated at {violations}"
        tight = GroundParams(5, 8, 4)  # just past the sweep domain, known tight
        assert width(build_ball(tight))[0] == 321
        assert theorem_bound(tight) == 321


def _multiplicity_vectors(budget):
    stack = [()]
    while stack:
        prefix = stack.pop()
        if prefix:
            yield prefix
        used = sum(prefix)
        for part in range(1, budget - used + 1):
            stack.append(prefix + (part,))


def test_criterion_10_multiset_ratio_monotonicity(criterion):
    with criterion(10, "multiset layer-size ratios are non-increasing for every multiplicity vector summing to <= 12"):
        count = 0
        for vector in _multiplicity_vectors(12):
            assert check_multiset_ratio_monotone(vector).holds
            count += 1
        assert count == 4095  # ordered positive vectors with sum <= 12


def test_criterion_11_height_formula(criterion, ball_instances):
    with criterion(11, "longest-path heights equal r - i + j and the coordinate diagram runs from (r, 0) to (0, r)"):
        for (p, q, r), (params, instance) in ball_instances.items():
            for coord, h in zip(sublayers(instance), instance.height_of):
                i, j = coord
                assert h == r - i + j
            dag = quotient_dag(params, Ball())
            assert dag.source == (r, 0)
            assert dag.sink == (0, r)
            for (i, j), h in dag.height_of.items():
                assert h == r - i + j


def test_criterion_12_determinism_and_persistence(criterion, tmp_path, full_sweep):
    with criterion(12, "repeat sweeps emit identical reports and a torn log resumes to the same result"):
        baseline, _, _ = full_sweep
        log = tmp_path / "sweep.jsonl"
        records, _ = sweep_range(11, 11, n_max=12, out_path=log)
        assert emit_sweep_csv(records) == emit_sweep_csv(baseline)
        assert emit_sweep_json(records) == emit_sweep_json(baseline)
        assert emit_sweep_text(records) == emit_sweep_text(baseline)

        def canonical(recs):
            return [dataclasses.replace(r, elapsed_ms=0) for r in recs]

        assert canonical(records) == canonical(baseline)
        lines = log.read_text().splitlines()
        torn = tmp_path / "torn.jsonl"
        torn.write_text("\n".join(lines[:5]) + "\n" + lines[5][: len(lines[5]) // 2])
        resumed, _ = sweep_range(11, 11, n_max=12, out_path=torn, resume=True)
        assert canonical(resumed) == canonical(baseline)
        assert emit_sweep_csv(resumed) == emit_sweep_csv(baseline)
