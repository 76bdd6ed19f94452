"""Acceptance suite: one test per criterion, runnable hermetically with the
scripted backend and bundled fixture databases.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.
"""

import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest

import ablation_suite
from case_studies import CASES, EXPECTED_DISTRIBUTION
from conftest import (
    build_db, database_digest, dump_benchmark, literal_source, run_sql, sql_reply, write_benchmark, GEMS_DB,
    RecordingBackend,
)
from test_executor import COMPARISON_PAIRS, MISC_DB, oracle_compare
from test_gateway import EXTRACTION_FIXTURES
from test_pipeline import SELECTOR_FIXTURE, _evaluate_pool, _no_gold_judge, _pool_candidates

from nl2sqlbench.cli import main
from nl2sqlbench.context import build_prompt, extract_schema
from nl2sqlbench.corpus import BenchmarkItem
from nl2sqlbench.diagnoser import classify_error, count_labels
from nl2sqlbench.executor import (
    STATUS_SQL_ERROR,
    compare_results,
    is_order_sensitive,
)
from nl2sqlbench.gateway import Candidate, MockBackend, MockRule, extract_sql
from nl2sqlbench.metrics import assemble_report, pass_at_k
from nl2sqlbench.pipeline import (
    PipelineConfig,
    build_context,
    run_sql_d1,
    run_verifier,
    select_winner,
)

from test_metrics import make_record


@pytest.fixture(scope="module")
def misc_db(tmp_path_factory):
    return build_db(tmp_path_factory.mktemp("acc") / "misc" / "misc.sqlite", MISC_DB)


def test_c01_execution_comparison_oracle(misc_db):
    """27 hand-built (pred, gold) pairs agree with the brute-force comparator."""
    assert len(COMPARISON_PAIRS) == 27
    agreed = 0
    for pred_sql, gold_sql in COMPARISON_PAIRS:
        gold = run_sql(misc_db, gold_sql)
        pred = run_sql(misc_db, pred_sql)
        sensitive = is_order_sensitive(gold_sql)
        if compare_results(pred, gold, sensitive) == oracle_compare(pred, gold, sensitive):
            agreed += 1
    assert agreed == 27


def test_c02_pass_at_k_exactness():
    """pass@k matches exhaustive rational enumeration and Monte Carlo."""
    for n in range(1, 9):
        for c in range(0, n + 1):
            for k in range(1, n + 1):
                labels = [True] * c + [False] * (n - c)
                hits = sum(1 for s in itertools.combinations(labels, k) if any(s))
                exact = Fraction(hits, comb(n, k))
                assert pass_at_k(n, c, k) == pytest.approx(float(exact), abs=1e-12)
    assert pass_at_k(8, 3, 2) == pytest.approx(9 / 14, abs=1e-12)
    rng = random.Random(0)
    for n, c, k in [(8, 3, 2), (8, 5, 4), (7, 2, 3)]:
        labels = [True] * c + [False] * (n - c)
        hits = sum(1 for _ in range(100_000) if any(rng.sample(labels, k)))
        assert abs(pass_at_k(n, c, k) - hits / 100_000) < 0.01


def test_c03_selector_correctness(gems_db):
    """12 scripted pools match hand-computed plurality clusters."""
    assert len(SELECTOR_FIXTURE) == 12
    matched = 0
    for specs, winner_id in SELECTOR_FIXTURE:
        cfg = PipelineConfig(use_retriever=False, num_candidates=max(2, len(specs)), timeout_seconds=10.0)
        winner = select_winner(_evaluate_pool(_pool_candidates(specs), gems_db, cfg))
        expected = None if winner_id is None else specs[winner_id]
        if (winner.sql if winner else None) == expected:
            matched += 1
    assert matched == 12


def test_c04_verifier_loop(gems_db):
    """Broken->fixed costs exactly one repair; always-broken costs exactly two."""
    item = BenchmarkItem(
        item_id="0", question="Count gems heavier than two carats.",
        db_id="gems", gold_sql="SELECT COUNT(*) FROM gems WHERE carat > 2",
    )
    broken = "SELECT COUNT(*) FROM gemstones WHERE carat > 2"
    fixed = "SELECT COUNT(*) FROM gems WHERE carat > 2"
    cfg = PipelineConfig(
        use_retriever=False, num_candidates=1, verifier_max_iters=2, temperature=0.0, timeout_seconds=10.0,
    )
    prompt = build_prompt(item, build_context(item, extract_schema(gems_db), cfg, literal_source(gems_db))[0])

    backend = RecordingBackend([MockRule(pattern=broken, reply=sql_reply(fixed))])
    candidate = Candidate(0, sql_reply(broken), broken, 0.0, 1)
    repaired = run_verifier(candidate, prompt, cfg, backend, _no_gold_judge(gems_db, cfg), [])
    assert len(backend.calls) == 1
    final = run_sql(gems_db, repaired.extracted_sql, 10.0)
    gold = run_sql(gems_db, item.gold_sql, 10.0)
    assert compare_results(final, gold, is_order_sensitive(item.gold_sql)) is True

    stubborn = RecordingBackend([MockRule(pattern="", reply=sql_reply(broken))])
    candidate = Candidate(0, sql_reply(broken), broken, 0.0, 1)
    run_verifier(candidate, prompt, cfg, stubborn, _no_gold_judge(gems_db, cfg), [])
    assert len(stubborn.calls) == 2


def test_c05_ablation_monotonicity(gems_db):
    """baseline < +retrieval < +verification < full on the 20-item suite."""
    backend_rules = ablation_suite.build_rules()
    items = ablation_suite.build_items()
    assert len(items) == 20

    schema, literals = extract_schema(gems_db), literal_source(gems_db)

    def run(cfg):
        backend = MockBackend(backend_rules + [MockRule(pattern="", reply="no idea")])
        records = [run_sql_d1(item, schema, cfg, backend, gems_db, literals) for item in items]
        return sum(1 for r in records if r.correct) / len(records)

    def cfg(**kwargs):
        base = dict(use_retriever=False, num_candidates=1, verifier_max_iters=0, temperature=0.0, timeout_seconds=10.0)
        base.update(kwargs)
        return PipelineConfig(**base)

    baseline = run(cfg())
    with_retrieval = run(cfg(use_retriever=True))
    with_verifier = run(cfg(use_retriever=True, verifier_max_iters=2))
    full = run(cfg(use_retriever=True, verifier_max_iters=2, num_candidates=3, temperature=0.8))
    assert baseline < with_retrieval < with_verifier < full
    assert (baseline, with_retrieval, with_verifier, full) == (0.4, 0.5, 0.6, 0.7)


def test_c06_error_taxonomy_golden_set(stack_db, schools_db, f1_db):
    """The five post-mortem cases classify to their assigned categories, 5/5."""
    schemas = {
        "stack": extract_schema(stack_db),
        "california_schools": extract_schema(schools_db),
        "formula_1": extract_schema(f1_db),
    }
    labels = []
    correct = 0
    for db_name, _q, pred_sql, gold_sql, category, _subtype in CASES:
        label = classify_error(pred_sql, gold_sql, schemas[db_name])
        labels.append(label)
        if label.category == category:
            correct += 1
    assert correct == 5
    assert count_labels(labels) == EXPECTED_DISTRIBUTION


def test_c07_sql_extraction_suite():
    """10 extraction fixtures, including missing/double fences and fallback."""
    assert len(EXTRACTION_FIXTURES) == 10
    passed = sum(1 for raw, expected in EXTRACTION_FIXTURES if extract_sql(raw) == expected)
    assert passed == 10


def test_c08_determinism(tmp_path):
    """eval -> classify -> report is byte-identical across two seeded runs."""
    db_root = tmp_path / "databases"
    build_db(db_root / "gems" / "gems.sqlite", GEMS_DB)
    benchmark = write_benchmark(
        tmp_path / "bench.json", dump_benchmark(ablation_suite.build_items(), "spider")
    )
    fixture = tmp_path / "mock.json"
    fixture.write_text(json.dumps(ablation_suite.rules_as_json()), encoding="utf-8")
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(
            [
                "eval", "--benchmark", str(benchmark), "--format", "spider",
                "--db-root", str(db_root), "--backend", "mock",
                "--mock-fixture", str(fixture), "--track", "sql-d1", "--k", "3",
                "--seed", "13", "--out", str(out),
            ]
        ) == 0
        assert main(["classify", "--records", str(out / "records.jsonl"), "--db-root", str(db_root)]) == 0
        rep = tmp_path / f"{name}_rep"
        assert main(["report", "--records", str(out / "records.jsonl"), "--out", str(rep)]) == 0
        blobs.append(
            (
                (out / "records.jsonl").read_bytes(),
                (out / "report.json").read_bytes(),
                (out / "report.csv").read_bytes(),
                (out / "labels.jsonl").read_bytes(),
                (rep / "curves.csv").read_bytes(),
                (rep / "scatter.csv").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


def test_c09_safety(gems_db):
    """Mutating predictions are rejected and the database file is unchanged."""
    before = database_digest(gems_db)
    attacks = [
        "INSERT INTO gems VALUES (9, 'Fake', 1.0, 'Nowhere')",
        "UPDATE gems SET carat = 0",
        "DELETE FROM gems",
        "DROP TABLE gems",
        "CREATE TABLE pwned (a)",
        "ALTER TABLE gems ADD COLUMN hacked INTEGER",
        "REPLACE INTO gems VALUES (1, 'X', 0, 'Y')",
        "SELECT 1; DROP TABLE gems",
    ]
    for sql in attacks:
        outcome = run_sql(gems_db, sql, 10.0)
        assert outcome.status == STATUS_SQL_ERROR, sql
    assert database_digest(gems_db) == before


def test_c10_report_formatting():
    """A 587/1000 run renders as the one-decimal percentage 58.7."""
    records = [make_record(str(i), correct=i < 587) for i in range(1000)]
    report = assemble_report(records, "maj")
    data = report.to_json_dict()
    assert data["ex_percent"] == "58.7"
    assert data["n_correct"] == 587 and data["n_items"] == 1000
    assert ("maj", "", "ex", "58.7") in report.to_csv_rows()
