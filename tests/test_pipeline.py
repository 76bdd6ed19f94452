"""Stage orchestration: greedy config, verifier repair loop, selector, ablations, executions."""

import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

import ablation_suite
from conftest import RecordingBackend, build_db, literal_source, run_sql, sql_reply

from nl2sqlbench import pipeline
from nl2sqlbench.context import build_prompt, extract_schema
from nl2sqlbench.corpus import BenchmarkItem, DatabaseHandle
from nl2sqlbench.errors import ConfigError
from nl2sqlbench.executor import (
    NOT_A_QUERY,
    STATUS_EMPTY,
    STATUS_OK,
    STATUS_SQL_ERROR,
    ExecutionOutcome,
    ItemReader,
    compare_results,
    result_signature,
)
from nl2sqlbench.gateway import Candidate, MockBackend, MockRule
from nl2sqlbench.metrics import single_pass_latency
from nl2sqlbench.pipeline import (
    EvalRecord,
    PipelineConfig,
    build_context,
    evaluate_pool,
    item_judge,
    run_sql_d1,
    run_verifier,
    select_winner,
)


def _item(question="How many gems are listed?", gold="SELECT COUNT(*) FROM gems"):
    return BenchmarkItem(item_id="0", question=question, db_id="gems", gold_sql=gold)


def _cfg(**kwargs):
    defaults = dict(
        use_retriever=False,
        num_candidates=1,
        verifier_max_iters=0,
        temperature=0.0,
        timeout_seconds=10.0,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


class TestPipelineConfig:
    def test_negative_verifier_iters_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(verifier_max_iters=-1)

    def test_retrieval_needs_a_positive_top_k(self):
        with pytest.raises(ConfigError):
            PipelineConfig(retrieval_top_k=0)
        assert PipelineConfig(use_retriever=False, retrieval_top_k=0).retrieval_top_k == 0

    @pytest.mark.parametrize(
        "setting",
        [
            {"temperature": -0.1},
            {"temperature": 2.01},
            {"temperature": float("nan")},
            {"max_new_tokens": 0},
            {"timeout_seconds": 0.0},
            {"timeout_seconds": -1.0},
            {"timeout_seconds": float("nan")},
            {"values_per_column": -1},
        ],
    )
    def test_out_of_range_settings_rejected(self, setting):
        with pytest.raises(ConfigError):
            PipelineConfig(**setting)

    def test_settings_at_their_limits_accepted(self):
        PipelineConfig(temperature=0.0, max_new_tokens=1, timeout_seconds=1e-3, values_per_column=0)
        PipelineConfig(temperature=2.0)


class TestRunGreedy:
    """The greedy track is run_sql_d1 with every optional stage off, k=1 and T=0 (``_cfg()``)."""

    def test_oracle_model_is_correct(self, gems_db):
        item = _item()
        cfg = _cfg()
        backend = MockBackend([MockRule(pattern="", reply=sql_reply(item.gold_sql))])
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, literal_source(gems_db))
        assert record.correct is True
        assert record.outcome.status == STATUS_OK
        assert any(tag == "generate" for tag, _ in record.per_stage_trace)

    def test_record_keeps_row_counts_not_rows(self, gems_db):
        item = _item(gold="SELECT name, carat FROM gems")
        cfg = _cfg(num_candidates=3, temperature=0.8)
        backend = MockBackend([MockRule(pattern="", reply=sql_reply("SELECT name FROM gems"))])
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, literal_source(gems_db))
        rows = run_sql(gems_db, item.gold_sql).row_count
        assert rows > 1 and record.correct is False
        assert (record.outcome.status, record.outcome.rows, record.outcome.row_count) == (STATUS_OK, None, rows)
        assert (record.gold_outcome.status, record.gold_outcome.rows, record.gold_outcome.row_count) == (STATUS_OK, None, rows)

    def test_broken_prediction_is_incorrect_sql_error(self, schools_db):
        item = BenchmarkItem(
            item_id="0",
            question="Which active district has the highest average score in Reading?",
            db_id="california_schools",
            gold_sql="SELECT T1.District FROM schools AS T1 INNER JOIN satscores AS T2 "
            "ON T1.CDSCode = T2.cds WHERE T1.StatusType = 'Active' "
            "ORDER BY T2.AvgScrRead DESC LIMIT 1",
        )
        broken = (
            "SELECT s.District FROM satscores s JOIN schools sch ON s.cds = sch.CDSCode "
            "WHERE sch.StatusType = 'Active' GROUP BY s.District "
            "ORDER BY AVG(s.AvgScrRead) DESC LIMIT 1"
        )
        cfg = _cfg()
        backend = MockBackend([MockRule(pattern="", reply=sql_reply(broken))])
        record = run_sql_d1(
            item, extract_schema(schools_db), cfg, backend, schools_db, literal_source(schools_db)
        )
        assert record.correct is False
        assert record.outcome.status == STATUS_SQL_ERROR

    def test_permutation_equivalent_query_counts(self, gems_db):
        item = _item(question="names", gold="SELECT name FROM gems")
        cfg = _cfg()
        backend = MockBackend([MockRule(pattern="", reply=sql_reply("SELECT name FROM gems ORDER BY name DESC"))])
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, literal_source(gems_db))
        assert record.correct is True  # gold has no ORDER BY


class TestBuildContext:
    """run_sql_d1 builds the item's context; value retrieval scores the question plus evidence."""

    def _item(self):
        return BenchmarkItem(
            item_id="0",
            question="What is the carat of the gem named in the evidence?",
            db_id="gems",
            gold_sql="SELECT carat FROM gems WHERE name = 'Golden Citrine'",
            evidence="the gem is Golden Citrine",
        )

    def test_evidence_literal_retrieved(self, gems_db):
        cfg = _cfg(use_retriever=True)
        ddl, matched = build_context(self._item(), extract_schema(gems_db), cfg, literal_source(gems_db))
        assert matched == {("gems", "name"): ["Golden Citrine"]}
        assert "examples: 'Golden Citrine'" in ddl

    def test_run_sql_d1_prompts_with_evidence_literal(self, gems_db):
        item = self._item()
        cfg = _cfg(use_retriever=True)
        rules = [MockRule(pattern="examples: 'Golden Citrine'", reply=sql_reply(item.gold_sql))]
        backend = MockBackend(rules + [MockRule(pattern="", reply=sql_reply("SELECT 0"))])
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, literal_source(gems_db))
        assert record.correct is True
        assert ("retrieve", "1 matched values over 1 columns") in record.per_stage_trace


class TestRunGenerator:
    def test_pool_of_eight_distinct_replies(self, gems_db):
        from nl2sqlbench.pipeline import run_generator

        item = _item()
        cfg = _cfg(num_candidates=8, temperature=0.8)
        rules = [
            MockRule(pattern="gems", trajectory_id=i, reply=sql_reply(f"SELECT {i} FROM gems"))
            for i in range(8)
        ]
        ddl, _matched = build_context(item, extract_schema(gems_db), cfg, literal_source(gems_db))
        pool = run_generator(build_prompt(item, ddl), cfg, MockBackend(rules), [])
        assert len(pool) == 8
        extracted = [c.extracted_sql for c in pool]
        assert len(set(extracted)) == 8
        assert extracted == [f"SELECT {i} FROM gems" for i in range(8)]

    def test_k1_degenerates_to_single_pass(self, gems_db):
        from nl2sqlbench.pipeline import run_generator

        item = _item()
        cfg = _cfg(num_candidates=1, temperature=0.8)
        ddl, _matched = build_context(item, extract_schema(gems_db), cfg, literal_source(gems_db))
        backend = MockBackend([MockRule(pattern="", reply=sql_reply("SELECT 1"))])
        pool = run_generator(build_prompt(item, ddl), cfg, backend, [])
        assert len(pool) == 1


def _no_gold_judge(db, cfg):
    """An item judge whose gold query failed, so it judges every result incorrect; each call reads on a fresh reader."""
    no_gold = ExecutionOutcome(STATUS_EMPTY, None, 0, "no gold query")

    def judge(sql):
        with ItemReader(db) as reader:
            return item_judge(reader, "", no_gold, False, cfg.timeout_seconds)(sql)

    return judge


class TestRunVerifier:
    def _setup(self, rules, max_iters=2):
        item = _item(question="Count gems heavier than two carats.", gold="SELECT COUNT(*) FROM gems WHERE carat > 2")
        cfg = _cfg(verifier_max_iters=max_iters)
        backend = RecordingBackend(rules)
        return item, cfg, backend

    def test_ok_candidate_untouched_no_calls(self, gems_db):
        item, cfg, backend = self._setup([])
        candidate = Candidate(0, sql_reply("SELECT 1"), "SELECT 1", 0.0, 2)
        ddl, _matched = build_context(item, extract_schema(gems_db), cfg, literal_source(gems_db))
        out = run_verifier(candidate, build_prompt(item, ddl), cfg, backend, _no_gold_judge(gems_db, cfg), [])
        assert out is candidate
        assert backend.calls == []

    def test_broken_then_fixed_single_repair(self, gems_db):
        broken = "SELECT COUNT(*) FROM gemstones WHERE carat > 2"
        fixed = "SELECT COUNT(*) FROM gems WHERE carat > 2"
        item, cfg, backend = self._setup([MockRule(pattern=broken, reply=sql_reply(fixed))])
        candidate = Candidate(0, sql_reply(broken), broken, 0.0, 5)
        ddl, _matched = build_context(item, extract_schema(gems_db), cfg, literal_source(gems_db))
        out = run_verifier(candidate, build_prompt(item, ddl), cfg, backend, _no_gold_judge(gems_db, cfg), [])
        assert len(backend.calls) == 1  # exactly one repair generation
        assert out.extracted_sql == fixed
        assert out.token_count > candidate.token_count  # accumulates

    def test_always_broken_exactly_two_repairs(self, gems_db):
        broken = "SELECT COUNT(*) FROM gemstones WHERE carat > 2"
        item, cfg, backend = self._setup([], max_iters=2)
        backend.rules.append(MockRule(pattern="", reply=sql_reply(broken)))
        candidate = Candidate(0, sql_reply(broken), broken, 0.0, 5)
        ddl, _matched = build_context(item, extract_schema(gems_db), cfg, literal_source(gems_db))
        out = run_verifier(candidate, build_prompt(item, ddl), cfg, backend, _no_gold_judge(gems_db, cfg), [])
        assert len(backend.calls) == 2
        assert out.extracted_sql == broken

    def test_zero_iters_is_pass_through(self, gems_db):
        broken = "SELECT nope FROM nowhere"
        item, cfg, backend = self._setup([], max_iters=0)
        candidate = Candidate(0, sql_reply(broken), broken, 0.0, 5)
        ddl, _matched = build_context(item, extract_schema(gems_db), cfg, literal_source(gems_db))
        judge = _no_gold_judge(gems_db, cfg)
        assert run_verifier(candidate, build_prompt(item, ddl), cfg, backend, judge, []) is candidate
        assert backend.calls == []

    def test_repair_prompt_contains_sql_and_error(self, gems_db):
        broken = "SELECT COUNT(*) FROM gemstones WHERE carat > 2"
        item, cfg, backend = self._setup([], max_iters=1)
        candidate = Candidate(0, sql_reply(broken), broken, 0.0, 5)
        ddl, _matched = build_context(item, extract_schema(gems_db), cfg, literal_source(gems_db))
        run_verifier(candidate, build_prompt(item, ddl), cfg, backend, _no_gold_judge(gems_db, cfg), [])
        prompt = backend.calls[0][0]
        assert broken in prompt
        assert "no such table" in prompt
        assert "Fix the query" in prompt

    def test_a_repair_is_requested_as_trajectory_0(self, gems_db):
        # trajectory 3's repair is a one-candidate generation, so the trajectory-0 rule answers it
        broken = "SELECT COUNT(*) FROM gemstones WHERE carat > 2"
        fixed = "SELECT COUNT(*) FROM gems WHERE carat > 2"
        rules = [
            MockRule(pattern=broken, trajectory_id=3, reply=sql_reply("SELECT 3")),
            MockRule(pattern=broken, trajectory_id=0, reply=sql_reply(fixed)),
        ]
        item, cfg, backend = self._setup(rules, max_iters=1)
        candidate = Candidate(3, sql_reply(broken), broken, 0.0, 5)
        ddl, _matched = build_context(item, extract_schema(gems_db), cfg, literal_source(gems_db))
        out = run_verifier(candidate, build_prompt(item, ddl), cfg, backend, _no_gold_judge(gems_db, cfg), [])
        assert [trajectory for _prompt, trajectory in backend.calls] == [0]
        assert out.trajectory_id == 3 and out.extracted_sql == fixed

    def test_single_pass_latency_includes_trajectory_0s_repairs(self, gems_db):
        # a repaired candidate carries its generation's latency plus its repairs', and single_pass_latency
        # reads candidate 0, so a repaired trajectory 0 counts its repairs as single-pass time
        broken = "SELECT COUNT(*) FROM gemstones WHERE carat > 2"
        fixed = "SELECT COUNT(*) FROM gems WHERE carat > 2"
        item = _item(question="Count gems heavier than two carats.", gold=fixed)
        rules = [
            MockRule(pattern=broken, reply=sql_reply(fixed), latency=0.5),  # only a repair prompt holds broken
            MockRule(pattern=item.question, trajectory_id=0, reply=sql_reply(broken), latency=0.25),
            MockRule(pattern=item.question, reply=sql_reply(fixed), latency=0.125),
        ]
        cfg = _cfg(verifier_max_iters=2, num_candidates=2, temperature=0.8)
        record = run_sql_d1(item, extract_schema(gems_db), cfg, MockBackend(rules), gems_db, literal_source(gems_db))
        assert [c.latency_seconds for c in record.candidates] == [0.75, 0.125]
        assert single_pass_latency([record]) == 0.75


def _pool_candidates(specs):
    return [Candidate(i, sql_reply(sql) if sql else "", sql, 0.0, 1) for i, sql in enumerate(specs)]


def _evaluate_pool(candidates, db, cfg):
    """evaluate_pool without a gold result to judge against: every entry comes out incorrect."""
    return evaluate_pool(candidates, _no_gold_judge(db, cfg))


# 12 scripted pools with hand-computed plurality winners (by trajectory id)
SELECTOR_FIXTURE = [
    (["SELECT 1", "SELECT 1", "SELECT 2"], 0),  # {A,A,B} -> A
    (["SELECT 7"], 0),  # singleton
    (["SELECT broken FROM", "SELECT oops FROM", "SELECT 3"], 2),  # {error,error,ok} -> ok
    (["SELECT 1", "SELECT 2", "SELECT 1", "SELECT 2"], 0),  # 2-2 tie -> lowest trajectory
    (["SELECT broken FROM", "SELECT broken FROM", "SELECT also bad FROM"], 0),  # all errors -> largest cluster
    ([None, None, None], None),  # nothing extracted
    (["SELECT 2", "SELECT 1", "SELECT 1"], 1),  # winner cluster excludes trajectory 0
    (["SELECT 2 - 1", "SELECT 1", "SELECT 5"], 0),  # equivalent results cluster together
    (["SELECT broken FROM", "SELECT 4", "SELECT 4"], 1),
    (["SELECT 6", "SELECT broken FROM", "SELECT 6", "SELECT 8"], 0),
    ([None, "SELECT broken FROM", "SELECT 9"], 2),  # missing + error -> ok wins
    ([None, None, "SELECT 10"], 2),
]


class TestRunSelector:
    @pytest.mark.parametrize("specs,winner_id", SELECTOR_FIXTURE, ids=range(len(SELECTOR_FIXTURE)))
    def test_hand_computed_plurality(self, gems_db, specs, winner_id):
        cfg = _cfg(num_candidates=max(2, len(specs)))
        winner = select_winner(_evaluate_pool(_pool_candidates(specs), gems_db, cfg))
        if winner_id is None:
            assert winner is None
        else:
            assert winner.sql == specs[winner_id]

    def test_twelve_pools(self):
        assert len(SELECTOR_FIXTURE) == 12

    def test_permutation_invariant_choice(self, gems_db):
        cfg = _cfg(num_candidates=3)
        specs = ["SELECT 2", "SELECT 1", "SELECT 1"]
        entries = _evaluate_pool(_pool_candidates(specs), gems_db, cfg)
        winner = select_winner(entries)
        for rotation in range(3):
            rotated = entries[rotation:] + entries[:rotation]
            assert select_winner(rotated).signature == winner.signature


def _mk_backend():
    return RecordingBackend(ablation_suite.build_rules() + [MockRule(pattern="", reply="no idea")])


def _run_suite(gems_db, cfg):
    backend = _mk_backend()
    schema, literals = extract_schema(gems_db), literal_source(gems_db)
    items = ablation_suite.build_items()
    return [run_sql_d1(item, schema, cfg, backend, gems_db, literals) for item in items]


class TestAblation:
    def test_monotone_stage_contributions(self, gems_db):
        configs = {
            "baseline": _cfg(),
            "retriever": _cfg(use_retriever=True),
            "retriever+verifier": _cfg(use_retriever=True, verifier_max_iters=2),
            "full": _cfg(use_retriever=True, verifier_max_iters=2, num_candidates=3, temperature=0.8),
        }
        accuracy = {}
        for name, cfg in configs.items():
            records = _run_suite(gems_db, cfg)
            accuracy[name] = sum(1 for r in records if r.correct) / len(records)
        assert accuracy["baseline"] == pytest.approx(8 / 20)
        assert accuracy["retriever"] == pytest.approx(10 / 20)
        assert accuracy["retriever+verifier"] == pytest.approx(12 / 20)
        assert accuracy["full"] == pytest.approx(14 / 20)
        assert (
            accuracy["baseline"]
            < accuracy["retriever"]
            < accuracy["retriever+verifier"]
            < accuracy["full"]
        )

    def test_every_backend_call_traced(self, gems_db):
        cfg = _cfg(use_retriever=True, verifier_max_iters=2, num_candidates=3, temperature=0.8)
        backend = _mk_backend()
        item = ablation_suite.build_items()[16]  # a verifier-repaired item
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, literal_source(gems_db))
        generate_lines = [d for tag, d in record.per_stage_trace if tag == "generate" and d.startswith("trajectory")]
        verify_lines = [d for tag, d in record.per_stage_trace if tag == "verify" and "iter" in d]
        assert len(generate_lines) + len(verify_lines) == len(backend.calls)

    def test_pool_preserved_for_scaling_metrics(self, gems_db):
        cfg = _cfg(use_retriever=True, num_candidates=3, temperature=0.8)
        backend = _mk_backend()
        item = ablation_suite.build_items()[18]  # selection-fixed item
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, literal_source(gems_db))
        assert len(record.pool) == 3
        assert [e.correct for e in record.pool] == [False, True, True]
        assert record.correct is True


class TestRecordSerialization:
    def test_round_trip(self, gems_db):
        cfg = _cfg()
        backend = MockBackend([MockRule(pattern="", reply=sql_reply("SELECT COUNT(*) FROM gems"))])
        item = _item()
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, literal_source(gems_db))
        data = record.to_dict()
        back = EvalRecord.from_dict(data)
        assert back.item_id == record.item_id
        assert back.correct == record.correct
        assert back.to_dict() == data

    def test_serialized_form_has_no_wall_clock_fields(self, gems_db):
        cfg = _cfg()
        backend = MockBackend([MockRule(pattern="", reply=sql_reply("SELECT 1"))])
        item = _item()
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, literal_source(gems_db))
        data = record.to_dict()
        assert "elapsed_seconds" not in data["outcome"]
        assert data["total_latency_seconds"] == 0.0  # scripted mock latency


    def test_absent_optional_keys_take_defaults_unknown_keys_ignored(self, gems_db):
        cfg = _cfg(num_candidates=2, temperature=0.8)
        backend = MockBackend([MockRule(pattern="", reply=sql_reply("SELECT 1"))])
        record = run_sql_d1(_item(), extract_schema(gems_db), cfg, backend, gems_db, literal_source(gems_db))
        data = record.to_dict()
        data["written_by"] = "an older or newer harness"
        for candidate in data["candidates"]:
            del candidate["tokens_approximate"], candidate["error"]
            candidate["unknown"] = 1
        for entry in data["pool"]:
            del entry["status"]
            entry["unknown"] = 1
        back = EvalRecord.from_dict(data)
        assert [(c.tokens_approximate, c.error) for c in back.candidates] == [(False, None)] * 2
        assert [e.status for e in back.pool] == [STATUS_EMPTY] * 2
        assert [e.signature for e in back.pool] == [e["signature"] for e in data["pool"]]
        del data["pool"]
        assert EvalRecord.from_dict(data).pool == []

    def test_rows_are_dropped_on_write_and_read_back_as_none(self, gems_db):
        backend = MockBackend([MockRule(pattern="", reply=sql_reply("SELECT name FROM gems"))])
        record = run_sql_d1(_item(), extract_schema(gems_db), _cfg(), backend, gems_db, literal_source(gems_db))
        data = record.to_dict()
        assert set(data["outcome"]) == {"status", "column_count", "row_count", "error_message"}
        row_count = data["outcome"]["row_count"]
        assert row_count > 0
        data["outcome"]["rows"] = [["crafted"]]
        back = EvalRecord.from_dict(data)
        assert (back.outcome.rows, back.outcome.row_count) == (None, row_count)
        del data["outcome"]["rows"]
        assert back.to_dict() == data


class TestPoolEntry:
    def test_failure_cluster_marking(self, gems_db):
        cfg = _cfg(num_candidates=2)
        entries = _evaluate_pool(_pool_candidates(["SELECT 1", "SELECT broken FROM"]), gems_db, cfg)
        assert [e.failure for e in entries] == [False, True]
        assert entries[0].status == STATUS_OK
        assert entries[1].status == STATUS_SQL_ERROR


class TestExecutionsPerItem:
    """Each distinct compiled program of an item, the gold query's included, is executed once.

    Strings that differ only in aliases, layout and the like share a program
    (``ItemReader.program``); a string with no program is executed once.
    """

    @pytest.fixture()
    def executed(self, monkeypatch):
        calls = []
        real = pipeline.execute_sql

        def counting(db, sql, timeout_seconds):
            calls.append(sql)
            return real(db, sql, timeout_seconds)

        monkeypatch.setattr(pipeline, "execute_sql", counting)
        return calls

    @pytest.fixture()
    def opened(self, monkeypatch):
        """Every connection opened through ``DatabaseHandle.connect``; each records whether it was closed, and
        the statements run with its ``execute``: program listings, since queries run on a cursor."""
        connections = []
        connect = DatabaseHandle.connect

        class Tracked:
            def __init__(self, conn):
                self._conn, self.closed, self.statements = conn, False, []

            def execute(self, sql, *args):
                self.statements.append(sql)
                return self._conn.execute(sql, *args)

            def close(self):
                self.closed = True
                self._conn.close()

            def __getattr__(self, name):
                return getattr(self._conn, name)

        def tracked(handle):
            connections.append(Tracked(connect(handle)))
            return connections[-1]

        monkeypatch.setattr(DatabaseHandle, "connect", tracked)
        return connections

    def _repair_item(self):
        gold = "SELECT COUNT(*) FROM gems WHERE carat > 2"
        broken = "SELECT COUNT(*) FROM gemstones WHERE carat > 2"
        fixed = "SELECT COUNT(*) FROM gems WHERE carat > 2.0"
        item = _item(question="Count gems heavier than two carats.", gold=gold)
        replies = [broken] * 3 + [fixed] * 3 + ["SELECT 2"] * 2
        rules = [MockRule(pattern=broken, reply=sql_reply(fixed))] + [
            MockRule(pattern=item.question, trajectory_id=i, reply=sql_reply(sql)) for i, sql in enumerate(replies)
        ]
        cfg = _cfg(verifier_max_iters=2, num_candidates=8, temperature=0.8)
        return item, rules, cfg, (gold, broken, fixed)

    @pytest.fixture()
    def judged(self, monkeypatch):
        """The outcomes passed to ``compare_results`` and ``result_signature``, per function."""
        calls = {"compare_results": [], "result_signature": []}
        for name, outcomes in calls.items():
            real = getattr(pipeline, name)

            def counting(outcome, *args, real=real, seen=outcomes, **kwargs):
                seen.append(outcome)
                return real(outcome, *args, **kwargs)

            monkeypatch.setattr(pipeline, name, counting)
        return calls

    def test_each_distinct_sql_is_executed_compared_and_signed_once(self, gems_db, executed, judged):
        item, rules, cfg, (gold, broken, fixed) = self._repair_item()
        record = run_sql_d1(item, extract_schema(gems_db), cfg, MockBackend(rules), gems_db, literal_source(gems_db))
        assert len(record.pool) == 8 and record.correct is True
        assert sorted(executed) == sorted([gold, broken, fixed, "SELECT 2"])
        # no candidate's SQL is the gold SQL, so the gold result is executed but neither compared nor signed
        for outcomes in judged.values():
            assert len(outcomes) == 3 and len({id(o) for o in outcomes}) == 3

    def test_judge_reuses_the_gold_outcome(self, gems_db, executed, judged):
        gold = "SELECT COUNT(*) FROM gems"
        gold_outcome = run_sql(gems_db, gold, 10.0)
        with ItemReader(gems_db) as reader:
            judge = item_judge(reader, gold, gold_outcome, False, 10.0)
            verdict = judge(gold)
            # the verdict is gold's outcome without its rows, which the judge keeps for the comparisons
            assert verdict.outcome == replace(gold_outcome, rows=None) and verdict.correct is True
            assert judge(gold) is verdict
            assert executed == [] and len(judged["compare_results"]) == len(judged["result_signature"]) == 1
            broken = "SELECT nope FROM gems"
            assert item_judge(reader, broken, run_sql(gems_db, broken, 10.0), False, 10.0)(broken).correct is False

    def test_a_judged_result_keeps_no_rows(self, db_factory):
        # the item holds gold's rows, and the rows of a result only while it is judged
        db = db_factory([
            "CREATE TABLE t (x INTEGER, y REAL)",
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 300) "
            "INSERT INTO t SELECT n, n * 0.25 FROM r",
        ])
        gold = "SELECT x, y FROM t"
        gold_outcome = run_sql(db, gold, 10.0)
        distinct = [
            "SELECT x, y FROM t ORDER BY y DESC",  # gold's rows in another order: correct
            "SELECT x, y + 0.0 FROM t",  # correct
            "SELECT x, y FROM t WHERE x > 1",
            "SELECT y, x FROM t",
            "SELECT x, y * 2 FROM t",
            "SELECT x FROM t",
            "SELECT x, y FROM t LIMIT 5",
            "SELECT nope FROM t",
        ]
        with ItemReader(db) as reader:
            judge = item_judge(reader, gold, gold_outcome, False, 10.0)
            verdicts = [judge(sql) for sql in [gold, *distinct]]
            later = [judge("SELECT x, y FROM t ORDER BY x DESC"), judge("SELECT x, y FROM t WHERE x <> 7 OR y > 99")]
        assert len(gold_outcome.rows) == 300  # the reference is left whole
        for sql, verdict in zip([gold, *distinct], verdicts):
            full = run_sql(db, sql, 10.0)
            assert verdict.outcome.rows is None and verdict.outcome.row_count == full.row_count, sql
            assert verdict.outcome == replace(full, rows=None), sql
            assert verdict.correct == compare_results(full, gold_outcome, False), sql
            assert verdict.signature == result_signature(full), sql
        assert [v.correct for v in verdicts] == [True, True, True] + [False] * 6
        assert [v.outcome.row_count for v in verdicts[:4]] == [300, 300, 300, 299]
        # SQL judged after the others still meets gold's rows: one equal to gold, one a row short
        assert [v.correct for v in later] == [True, False] and later[1].outcome.row_count == 299

    def test_verifier_and_pool_read_one_stored_verdict(self, gems_db, executed):
        item, rules, cfg, (gold, broken, fixed) = self._repair_item()
        seen = []
        with ItemReader(gems_db) as reader:
            judge = item_judge(reader, gold, run_sql(gems_db, gold, 10.0), False, cfg.timeout_seconds)

            def recording(sql):
                seen.append((sql, judge(sql)))
                return seen[-1][1]

            candidate = Candidate(0, sql_reply(broken), broken, 0.0, 1)
            repaired = run_verifier(candidate, "the prompt", cfg, MockBackend(rules), recording, [])
            entry, = evaluate_pool([repaired], recording)
        assert [sql for sql, _verdict in seen] == [broken, fixed, fixed]
        assert seen[2][1] is seen[1][1]  # the pool's verdict for the repaired SQL is the verifier's
        assert executed == [broken, fixed]
        assert entry.correct is True and entry.signature == seen[1][1].signature

    def test_pool_with_repair(self, gems_db, executed, opened):
        item, rules, cfg, (gold, broken, fixed) = self._repair_item()
        backend = RecordingBackend(rules)
        schema, literals = extract_schema(gems_db), literal_source(gems_db)
        opened.clear()
        record = run_sql_d1(item, schema, cfg, backend, gems_db, literals)
        assert len(backend.calls) == 8 + 3  # one repair per broken trajectory
        assert [e.sql for e in record.pool] == [fixed] * 6 + ["SELECT 2"] * 2
        assert record.final_sql == fixed and record.correct is True
        assert sorted(executed) == sorted([gold, broken, fixed, "SELECT 2"])
        # the four executions share one connection, closed when the item returns
        assert len(opened) == 1 and opened[0].closed

    def test_each_item_opens_and_closes_its_own_connection(self, gems_db, opened):
        item, rules, cfg, _sql = self._repair_item()
        schema, literals = extract_schema(gems_db), literal_source(gems_db)
        opened.clear()
        for n in (1, 2):
            run_sql_d1(item, schema, cfg, MockBackend(rules), gems_db, literals)
            assert len(opened) == n and opened[-1].closed

    def test_connection_closes_when_the_item_raises(self, gems_db, opened):
        item, rules, cfg, (_gold, broken, _fixed) = self._repair_item()

        class FailingRepairs(MockBackend):
            def complete(self, request, trajectory_id):
                if broken in request.prompt:  # only a repair prompt holds the broken SQL
                    raise RuntimeError("backend crashed")
                return super().complete(request, trajectory_id)

        schema, literals = extract_schema(gems_db), literal_source(gems_db)
        opened.clear()
        with pytest.raises(RuntimeError, match="backend crashed"):
            run_sql_d1(item, schema, cfg, FailingRepairs(rules), gems_db, literals)
        assert len(opened) == 1 and opened[0].closed

    def test_greedy(self, gems_db, executed):
        item = _item()
        cfg = _cfg()
        backend = MockBackend([MockRule(pattern="", reply=sql_reply("SELECT COUNT(id) FROM gems"))])
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, literal_source(gems_db))
        assert record.correct is True
        assert sorted(executed) == sorted([item.gold_sql, "SELECT COUNT(id) FROM gems"])

    def test_prediction_equal_to_gold_reuses_gold_outcome(self, gems_db, executed):
        item = _item()
        cfg = _cfg()
        backend = MockBackend([MockRule(pattern="", reply=sql_reply(item.gold_sql))])
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, literal_source(gems_db))
        assert record.correct is True
        assert executed == [item.gold_sql]

    # gold, then rewrites of it that keep its compiled program: aliases, JOIN or INNER JOIN, the operands of = swapped,
    # keyword case, whitespace and comments
    PAIRS = "SELECT a.name, b.name FROM gems AS a JOIN gems AS b ON a.origin = b.origin WHERE a.id < b.id"
    PAIR_REWRITES = [
        "select T1.name, T2.name from gems T1 inner join gems T2 on T2.origin = T1.origin where T1.id < T2.id",
        "SELECT x.name,\n  y.name -- pair\nFROM gems x JOIN gems y ON y.origin = x.origin /* same */ WHERE x.id < y.id",
        "SELECT p.name, q.name   FROM gems AS p INNER JOIN gems AS q ON p.origin = q.origin WHERE p.id < q.id",
    ]

    def _pool_item(self, gold, replies):
        item = _item(question="Which gems share an origin?", gold=gold)
        rules = [
            MockRule(pattern=item.question, trajectory_id=i, reply=sql_reply(sql)) for i, sql in enumerate(replies)
        ]
        return item, MockBackend(rules), _cfg(num_candidates=len(replies), temperature=0.8)

    def test_a_pool_of_alias_rewrites_of_gold_executes_gold_alone(self, gems_db, executed):
        item, backend, cfg = self._pool_item(self.PAIRS, self.PAIR_REWRITES * 2)
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, None)
        assert executed == [self.PAIRS]
        assert record.correct is True and all(e.correct for e in record.pool)
        assert len({e.signature for e in record.pool}) == 1

    def test_k_rewrites_of_one_wrong_query_execute_once(self, gems_db, executed):
        wrong = [sql.replace("<", ">") for sql in self.PAIR_REWRITES]
        item, backend, cfg = self._pool_item(self.PAIRS, wrong + wrong[:1])
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, None)
        assert executed == [self.PAIRS, wrong[0]]
        assert record.correct is False and not any(e.correct for e in record.pool)

    def test_a_string_that_fails_to_prepare_carries_sqlites_message(self, gems_db, executed):
        broken = "SELECT T1.nope FROM gems AS T1"
        rewrite = "select t2.nope from gems t2"
        item, backend, cfg = self._pool_item(self.PAIRS, [broken, rewrite, broken])
        record = run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, None)
        # EXPLAIN fails, so each string is judged by itself and reports SQLite's message with its own alias
        assert executed == [self.PAIRS, broken, rewrite]
        assert record.outcome.status == STATUS_SQL_ERROR and record.outcome.error_message == "no such column: T1.nope"
        assert [e.status for e in record.pool] == [STATUS_SQL_ERROR] * 3

    def test_a_non_query_opens_no_connection_and_runs_no_explain(self, gems_db, executed, opened):
        gold_outcome = run_sql(gems_db, self.PAIRS, 10.0)
        opened.clear()
        non_queries = [None, "", "  ", "-- a comment alone", "PRAGMA table_info(gems)", "EXPLAIN SELECT 1"]
        with ItemReader(gems_db) as reader:
            judge = item_judge(reader, self.PAIRS, gold_outcome, False, 10.0)
            assert [reader.program(sql) for sql in non_queries] == [None] * len(non_queries)
            verdicts = [judge(sql) for sql in non_queries]
        assert opened == [] and executed == non_queries
        assert [v.outcome.error_message for v in verdicts[3:]] == [NOT_A_QUERY] * 3
        # within an item, whose connection is open for gold, a non-query still lists no program
        item, backend, cfg = self._pool_item(self.PAIRS, ["PRAGMA table_info(gems)", self.PAIR_REWRITES[0]])
        run_sql_d1(item, extract_schema(gems_db), cfg, backend, gems_db, None)
        assert sorted(opened[-1].statements) == sorted("EXPLAIN " + sql for sql in (self.PAIRS, self.PAIR_REWRITES[0]))


# a REAL cell that prints as 0.1 to 16 digits, blobs that print alike once cut at their first NUL, and 64-bit
# integers one apart
KEYED_DB = [
    "CREATE TABLE item (id INTEGER PRIMARY KEY, name TEXT, weight REAL, tag BLOB, big INTEGER, kind_id INTEGER)",
    "CREATE TABLE kind (id INTEGER PRIMARY KEY, label TEXT)",
    "INSERT INTO item VALUES (1, 'a', 0.10000000000000002, X'0001', 9007199254740993, 1), "
    "(2, 'b', 0.1, X'0002', 9007199254740992, 2), (3, 'c', 2.5, X'01', 9223372036854775806, 1), "
    "(4, 'd', NULL, X'02', 9223372036854775807, 3), (5, 'e', 0.2, NULL, -7, 2)",
    "INSERT INTO kind VALUES (1, 'x'), (2, 'y'), (3, 'z')",
]
# queries over KEYED_DB with slots for the rewrites ({a}, {b} aliases, {join}) and for a literal ({lit})
KEYED_QUERIES = [
    "SELECT {a}.name, {b}.label FROM item AS {a} {join} kind AS {b} ON {a}.kind_id = {b}.id WHERE {a}.id > 1",
    "SELECT {b}.label, COUNT(*), SUM({a}.big) FROM item AS {a} {join} kind AS {b} ON {a}.kind_id = {b}.id "
    "GROUP BY {b}.label",
    # a join on an unindexed column: its program builds an automatic index with a Bloom filter
    "SELECT {a}.name, {b}.name FROM item AS {a} {join} item AS {b} ON {a}.kind_id = {b}.kind_id WHERE {a}.id < {b}.id",
    "SELECT {a}.id FROM item AS {a} WHERE {a}.weight > {lit}",
    "SELECT {a}.id, {a}.name FROM item AS {a} WHERE {a}.tag = {lit}",
    "SELECT {a}.name FROM item AS {a} WHERE {a}.big = {lit}",
    "SELECT {a}.nope FROM item AS {a}",
]
# near-misses that must not share a verdict, by query ({lit} is unused by the others)
KEYED_LITERALS = {
    3: ["0.1", "0.10000000000000002", "0.2"],
    4: ["X'0001'", "X'0002'", "X'01'", "X'02'"],
    5: ["9007199254740993", "9007199254740992", "9223372036854775806", "9223372036854775807"],
}


@st.composite
def keyed_sql(draw, indexes):
    """One of KEYED_QUERIES, by an index drawn from ``indexes``, with a drawn literal, as written by a model:
    aliases, JOIN or INNER JOIN, the operands of = in either order, keyword case, whitespace and comments all vary."""
    index = draw(st.sampled_from(indexes))
    a, b = draw(st.sampled_from([("T1", "T2"), ("i", "k"), ("x", "y"), ("it", "kd")]))
    sql = KEYED_QUERIES[index].format(
        a=a, b=b, join=draw(st.sampled_from(["JOIN", "INNER JOIN"])),
        lit=draw(st.sampled_from(KEYED_LITERALS.get(index, [""]))),
    )
    if draw(st.booleans()):
        sql = re.sub(r"ON (\S+) = (\S+)", r"ON \2 = \1", sql)
    sql = draw(st.sampled_from([str, str.lower, str.upper]))(sql)
    sql = sql.replace(" ", draw(st.sampled_from([" ", "  ", "\n", " \t"])))
    return draw(st.sampled_from(["{}", "-- the query\n{}", "{} /* done */", "{};"])).format(sql)


@st.composite
def keyed_item(draw):
    """A gold query and up to 8 strings, all drawn from one or two of KEYED_QUERIES, so that rewrites and literal
    near-misses of one query meet in an item."""
    indexes = draw(st.lists(st.integers(0, len(KEYED_QUERIES) - 1), min_size=1, max_size=2))
    return draw(keyed_sql(indexes)), draw(st.lists(keyed_sql(indexes), min_size=1, max_size=8))


class TestProgramKeys:
    """Strings judged by one keyed judge get the verdicts they get when judged alone."""

    @pytest.fixture(scope="class")
    def keyed_db(self, tmp_path_factory):
        return build_db(tmp_path_factory.mktemp("keyed") / "keyed.sqlite", KEYED_DB)

    @staticmethod
    def _fields(verdict):
        outcome = verdict.outcome
        return (outcome.status, outcome.error_message, outcome.row_count, outcome.column_count,
                verdict.signature, verdict.correct)

    @settings(max_examples=150, deadline=None)
    @given(item=keyed_item())
    # each near-miss pair of KEYED_LITERALS runs on every run, as well as among the drawn items
    @example(item=(KEYED_QUERIES[3].format(a="T1", lit="0.1"),
                   [KEYED_QUERIES[3].format(a="x", lit="0.10000000000000002")]))
    @example(item=(KEYED_QUERIES[4].format(a="T1", lit="X'0001'"), [KEYED_QUERIES[4].format(a="x", lit="X'0002'")]))
    @example(item=(KEYED_QUERIES[4].format(a="T1", lit="X'01'"), [KEYED_QUERIES[4].format(a="x", lit="X'02'")]))
    @example(item=(KEYED_QUERIES[5].format(a="T1", lit="9007199254740993"),
                   [KEYED_QUERIES[5].format(a="x", lit="9007199254740992")]))
    def test_keyed_verdicts_equal_verdicts_alone(self, keyed_db, item):
        gold, strings = item
        gold_outcome = run_sql(keyed_db, gold)
        with ItemReader(keyed_db) as reader:
            judge = item_judge(reader, gold, gold_outcome, False, 10.0)
            keyed = [self._fields(judge(sql)) for sql in strings]
        # the reference: each string executed by itself on a fresh connection, compared with gold and signed
        for sql, verdict in zip(strings, keyed):
            alone = run_sql(keyed_db, sql)
            correct = gold_outcome.ok and compare_results(alone, gold_outcome, False)
            expected = (alone.status, alone.error_message, alone.row_count, alone.column_count,
                        result_signature(alone), correct)
            assert verdict == expected, sql

    @pytest.mark.parametrize("index, literals", [(3, ("0.1", "0.10000000000000002")), (4, ("X'0001'", "X'0002'"))])
    def test_literals_listed_alike_are_not_keyed(self, keyed_db, index, literals):
        query = KEYED_QUERIES[index].format(a="T1", lit="{}")
        with ItemReader(keyed_db) as reader:
            assert [reader.program(query.format(lit)) for lit in literals] == [None, None]
            # the same statements differ in their results
            judge = item_judge(reader, query.format(literals[0]), run_sql(keyed_db, query.format(literals[0])),
                               False, 10.0)
            assert [judge(query.format(lit)).correct for lit in literals] == [True, False]

    def test_a_bloom_filter_blob_is_keyed(self, keyed_db):
        query = KEYED_QUERIES[2].format(a="T1", b="T2", join="JOIN")
        with ItemReader(keyed_db) as reader:
            program = reader.program(query)
        # a Blob opcode with no P4 operand is a zero-filled buffer of P1 bytes, listed exactly
        assert program is not None and ("Blob", None) in {(op[1], op[5]) for op in program}
