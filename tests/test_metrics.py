"""pass@k exactness, majority voting over stored pools, and report assembly."""

import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from nl2sqlbench.errors import MetricError
from nl2sqlbench.executor import STATUS_OK, STATUS_SQL_ERROR, ExecutionOutcome
from nl2sqlbench.gateway import Candidate
from nl2sqlbench.metrics import (
    assemble_report,
    efficiency_stats,
    execution_accuracy,
    majority_accuracy,
    pass_at_k,
    pass_at_k_over_records,
    single_pass_latency,
)
from nl2sqlbench.pipeline import EvalRecord, PoolEntry


def make_record(
    item_id="0",
    correct=True,
    difficulty="unlabeled",
    pool=None,
    latency=0.0,
    tokens=0,
    first_latency=None,
):
    outcome = ExecutionOutcome(STATUS_OK, [(1,)], 1, None)
    candidates = [Candidate(0, "raw", "SELECT 1", first_latency if first_latency is not None else latency, tokens)]
    return EvalRecord(
        item_id=item_id,
        db_id="db",
        difficulty=difficulty,
        question="q",
        gold_sql="SELECT 1",
        final_sql="SELECT 1",
        candidates=candidates,
        outcome=outcome,
        gold_outcome=outcome,
        correct=correct,
        order_sensitive=False,
        per_stage_trace=[],
        total_latency_seconds=latency,
        total_tokens=tokens,
        pool=pool or [],
    )


def make_pool(flags):
    """Pool entries from a list of correctness flags (True/False) or 'err'/'none'."""
    entries = []
    for i, flag in enumerate(flags):
        if flag == "none":
            entries.append(PoolEntry(i, None, f"sig_none_{i}", True, False, "empty_prediction"))
        elif flag == "err":
            entries.append(PoolEntry(i, f"SELECT bad{i} FROM", "sig_err", True, False, STATUS_SQL_ERROR))
        else:
            sig = "sig_good" if flag else f"sig_wrong"
            entries.append(PoolEntry(i, "SELECT 1", sig, False, bool(flag), STATUS_OK))
    return entries


class TestExecutionAccuracy:
    def test_all_correct(self):
        assert execution_accuracy([make_record(correct=True)] * 4) == 1.0

    def test_fraction_is_exact(self):
        records = [make_record(str(i), correct=i < 3) for i in range(7)]
        assert execution_accuracy(records) == 3 / 7

    def test_paper_style_percentage(self):
        records = [make_record(str(i), correct=i < 587) for i in range(1000)]
        assert f"{100 * execution_accuracy(records):.1f}" == "58.7"

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            execution_accuracy([])


def oracle_pass_at_k(n: int, c: int, k: int) -> Fraction:
    """Exhaustive subset enumeration with rational arithmetic."""
    labels = [True] * c + [False] * (n - c)
    hits = sum(1 for subset in itertools.combinations(labels, k) if any(subset))
    return Fraction(hits, comb(n, k))


class TestPassAtK:
    def test_anchor_case(self):
        assert pass_at_k(8, 3, 2) == pytest.approx(9 / 14)
        assert oracle_pass_at_k(8, 3, 2) == Fraction(9, 14)

    def test_all_correct_and_none_correct(self):
        assert pass_at_k(8, 8, 3) == 1.0
        assert pass_at_k(8, 0, 3) == 0.0

    def test_exhaustive_agreement_up_to_n8(self):
        for n in range(1, 9):
            for c in range(0, n + 1):
                for k in range(1, n + 1):
                    expected = oracle_pass_at_k(n, c, k)
                    assert pass_at_k(n, c, k) == pytest.approx(float(expected), abs=1e-12), (n, c, k)

    def test_monte_carlo_agreement(self):
        rng = random.Random(0)
        for n, c, k in [(8, 3, 2), (8, 5, 4), (6, 2, 3)]:
            labels = [True] * c + [False] * (n - c)
            hits = sum(1 for _ in range(100_000) if any(rng.sample(labels, k)))
            assert abs(pass_at_k(n, c, k) - hits / 100_000) < 0.01

    def test_monotone_in_k_and_c(self):
        for n in range(1, 9):
            for c in range(0, n + 1):
                values = [pass_at_k(n, c, k) for k in range(1, n + 1)]
                assert values == sorted(values)
            for k in range(1, n + 1):
                values = [pass_at_k(n, c, k) for c in range(0, n + 1)]
                assert values == sorted(values)

    def test_domain_errors(self):
        with pytest.raises(MetricError):
            pass_at_k(4, 5, 1)
        with pytest.raises(MetricError):
            pass_at_k(4, 2, 5)
        with pytest.raises(MetricError):
            pass_at_k(4, 2, 0)


class TestMajorityAccuracy:
    def test_k1_equals_first_candidate_accuracy(self):
        records = [
            make_record("0", pool=make_pool([True, False, False])),
            make_record("1", pool=make_pool([False, True, True])),
        ]
        assert majority_accuracy(records, 1) == 0.5

    def test_plurality_fixture(self):
        # {gold-equivalent x2, wrong x1} -> correct at k=3
        records = [make_record(pool=make_pool([True, True, False]))]
        assert majority_accuracy(records, 3) == 1.0

    def test_failure_clusters_discarded(self):
        records = [make_record(pool=make_pool(["err", "err", True]))]
        assert majority_accuracy(records, 3) == 1.0

    def test_pool_too_small_names_item(self):
        records = [make_record("tiny", pool=make_pool([True]))]
        with pytest.raises(MetricError, match="tiny"):
            majority_accuracy(records, 4)

    def test_majority_bounded_by_prefix_hit_rate(self):
        # a plurality winner can only be correct if some candidate in the same
        # k-prefix is correct
        rng = random.Random(3)
        records = []
        for i in range(30):
            flags = [rng.random() < 0.4 for _ in range(8)]
            records.append(make_record(str(i), pool=make_pool(flags)))
        for k in range(1, 9):
            bound = sum(
                1 for r in records if any(e.correct for e in r.pool if e.trajectory_id < k)
            ) / len(records)
            assert majority_accuracy(records, k) <= bound + 1e-12


class TestEfficiency:
    def test_mean_latency(self):
        records = [make_record("0", latency=0.1), make_record("1", latency=0.3)]
        assert efficiency_stats(records) == (pytest.approx(0.2), 0.0)

    def test_mean_tokens(self):
        records = [make_record(str(i), tokens=t) for i, t in enumerate([1000, 3000, 5000])]
        assert efficiency_stats(records)[1] == 3000

    def test_single_pass_latency_uses_first_candidate(self):
        records = [make_record("0", latency=9.0, first_latency=0.5)]
        assert single_pass_latency(records) == 0.5

    def test_table_style_row_formatting(self):
        records = [make_record("0", latency=0.18, tokens=2200, correct=True)] * 10
        report = assemble_report(records, "sampled")
        row = f"{report.mean_latency_seconds:.2f} / {report.mean_tokens / 1000:.1f}K"
        assert row == "0.18 / 2.2K"


class TestAssembleReport:
    def test_difficulty_split_arithmetic(self):
        records = [make_record(str(i), correct=i < 4, difficulty="simple") for i in range(6)]
        records += [make_record(str(10 + i), correct=i < 1, difficulty="challenging") for i in range(4)]
        report = assemble_report(records, "greedy")
        data = report.to_json_dict()
        assert data["ex_by_difficulty"]["simple"]["ex_percent"] == "66.7"
        assert data["ex_by_difficulty"]["challenging"]["ex_percent"] == "25.0"

    def test_one_decimal_rendering(self):
        records = [make_record(str(i), correct=i < 587) for i in range(1000)]
        report = assemble_report(records, "maj")
        data = report.to_json_dict()
        assert data["ex_percent"] == "58.7"
        csv_rows = report.to_csv_rows()
        assert ("maj", "", "ex", "58.7") in csv_rows

    def test_error_distribution_zero_filled(self):
        report = assemble_report([make_record()], "greedy")
        assert report.to_json_dict()["error_distribution"] == {
            "Table": 0, "Value": 0, "Condition": 0, "Function": 0, "Others": 0,
        }

    def test_curves_non_decreasing_and_bounded(self):
        rng = random.Random(11)
        records = []
        for i in range(25):
            flags = [rng.random() < 0.5 for _ in range(8)]
            records.append(make_record(str(i), correct=any(flags), pool=make_pool(flags)))
        report = assemble_report(records, "sql-d1")
        passes = [report.pass_at_k_curve[k] for k in sorted(report.pass_at_k_curve)]
        assert passes == sorted(passes)
        for k in report.maj_at_k_curve:
            bound = sum(
                1 for r in records if any(e.correct for e in r.pool if e.trajectory_id < k)
            ) / len(records)
            assert report.maj_at_k_curve[k] <= bound + 1e-12

    def test_serialization_deterministic(self):
        records = [make_record(str(i), correct=i % 3 == 0, pool=make_pool([True, False])) for i in range(10)]
        one = json.dumps(assemble_report(records, "greedy", {"seed": "1"}).to_json_dict(), sort_keys=True)
        two = json.dumps(assemble_report(records, "greedy", {"seed": "1"}).to_json_dict(), sort_keys=True)
        assert one == two

    def test_greedy_run_has_no_curves(self):
        report = assemble_report([make_record(pool=make_pool([True]))], "greedy")
        assert report.pass_at_k_curve == {}
        assert report.maj_at_k_curve == {}


@given(st.integers(1, 8), st.data())
def test_prefix_bound_holds_on_random_pools(n, data):
    flags_list = data.draw(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=6)
    )
    records = [make_record(str(i), pool=make_pool(flags)) for i, flags in enumerate(flags_list)]
    for k in range(1, n + 1):
        bound = sum(
            1 for r in records if any(e.correct for e in r.pool if e.trajectory_id < k)
        ) / len(records)
        assert majority_accuracy(records, k) <= bound + 1e-12
        assert pass_at_k_over_records(records, k) <= 1.0 + 1e-12
