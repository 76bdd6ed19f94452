"""Error-taxonomy classification rules and their invariants."""

import sqlite3
from contextlib import closing

import pytest
from hypothesis import given, settings, strategies as st

from case_studies import CASES, EXPECTED_DISTRIBUTION
from conftest import pathological_queries, run_sql
from test_metrics import make_record

from nl2sqlbench.context import extract_schema
from nl2sqlbench.diagnoser import (
    CATEGORIES,
    CATEGORY_BY_SUBTYPE,
    SUBTYPES_BY_CATEGORY,
    ErrorLabel,
    classify_error,
)
from nl2sqlbench.executor import compare_results, is_order_sensitive
from nl2sqlbench.metrics import assemble_report


@pytest.fixture(scope="module")
def schemas(stack_db, schools_db, f1_db):
    return {
        "stack": extract_schema(stack_db),
        "california_schools": extract_schema(schools_db),
        "formula_1": extract_schema(f1_db),
    }


@pytest.fixture(scope="module")
def dbs(stack_db, schools_db, f1_db):
    return {"stack": stack_db, "california_schools": schools_db, "formula_1": f1_db}


class TestCaseStudies:
    def test_all_cases_are_actually_incorrect(self, schemas, dbs):
        # sanity: the golden set only makes sense if every pred is wrong
        for db_name, _q, pred_sql, gold_sql, _cat, _sub in CASES:
            db = dbs[db_name]
            gold = run_sql(db, gold_sql)
            assert gold.ok, gold_sql
            pred = run_sql(db, pred_sql)
            assert not compare_results(pred, gold, is_order_sensitive(gold_sql)), pred_sql

    @pytest.mark.parametrize("case", CASES, ids=[f"case{i + 1}" for i in range(len(CASES))])
    def test_paper_assigned_categories(self, case, schemas):
        db_name, _question, pred_sql, gold_sql, category, subtype = case
        label = classify_error(pred_sql, gold_sql, schemas[db_name])
        assert label.category == category, label
        assert label.subtype == subtype, label

    def test_distribution_over_cases(self, schemas):
        labels = [
            classify_error(pred, gold, schemas[db]) for db, _q, pred, gold, _c, _s in CASES
        ]
        assert assemble_report([make_record()], "greedy", labels=labels).error_distribution == EXPECTED_DISTRIBUTION

    def test_case4_rationale_notes_missing_condition(self, schemas):
        db_name, _q, pred_sql, gold_sql, _c, _s = CASES[3]
        label = classify_error(pred_sql, gold_sql, schemas[db_name])
        assert "missing condition" in label.rationale
        assert "name" in label.rationale


class TestRules:
    def test_table_missing(self, schemas):
        # pure omission: joins are a subset, one gold table absent
        pred = "SELECT COUNT(*) FROM users AS T1 INNER JOIN posts AS T2 ON T1.Id = T2.OwnerUserId"
        gold = (
            "SELECT COUNT(*) FROM users AS T1 INNER JOIN posts AS T2 ON T1.Id = T2.OwnerUserId "
            "INNER JOIN comments AS T3 ON T2.Id = T3.PostId"
        )
        label = classify_error(pred, gold, schemas["stack"])
        assert (label.category, label.subtype) == ("Table", "table_missing")

    def test_hallucinated_table_is_mismatch(self, schemas):
        label = classify_error(
            "SELECT COUNT(*) FROM gemstones", "SELECT COUNT(*) FROM users", schemas["stack"]
        )
        assert label.subtype == "table_mismatch"

    def test_operator_error(self, schemas):
        pred = "SELECT sname FROM satscores WHERE NumGE1500 < 5"
        gold = "SELECT sname FROM satscores WHERE NumGE1500 > 5"
        label = classify_error(pred, gold, schemas["california_schools"])
        assert (label.category, label.subtype) == ("Condition", "operator_error")

    def test_and_vs_or_is_operator_error(self, schemas):
        pred = "SELECT sname FROM satscores WHERE NumGE1500 > 5 OR AvgScrRead > 500"
        gold = "SELECT sname FROM satscores WHERE NumGE1500 > 5 AND AvgScrRead > 500"
        label = classify_error(pred, gold, schemas["california_schools"])
        assert label.subtype == "operator_error"

    def test_boundary_inclusive_variant_is_not_operator_error(self, schemas):
        # >= vs > reads as the same comparison direction; the literal decides
        pred = "SELECT sname FROM satscores WHERE NumGE1500 >= 10"
        gold = "SELECT sname FROM satscores WHERE NumGE1500 > 5"
        label = classify_error(pred, gold, schemas["california_schools"])
        assert label.subtype == "value_mismatch"

    def test_string_literal_formatting_matters(self, schemas):
        pred = "SELECT Id FROM users WHERE DisplayName = 'neil mcguigan'"
        gold = "SELECT Id FROM users WHERE DisplayName = 'Neil McGuigan'"
        label = classify_error(pred, gold, schemas["stack"])
        assert label.subtype == "value_mismatch"

    @pytest.mark.parametrize(
        "pred_literal, gold_literal, sqlite_equal",
        [
            ("9007199254740993", "9007199254740992", 0),  # one float apart: past 2^53 only the exact values differ
            ("1.0", "1", 1),
            ("X'41'", "'A'", 0),
        ],
        ids=["past_2_53", "int_and_real", "blob_and_text"],
    )
    def test_literals_differ_where_sqlite_compares_them_unequal(self, schemas, pred_literal, gold_literal, sqlite_equal):
        pred = f"SELECT Id FROM users WHERE Reputation = {pred_literal}"
        gold = f"SELECT Id FROM users WHERE Reputation = {gold_literal}"
        with closing(sqlite3.connect(":memory:")) as conn:
            equal, = conn.execute(f"SELECT {pred_literal} = {gold_literal}").fetchone()
        assert equal == sqlite_equal
        label = classify_error(pred, gold, schemas["stack"])
        assert (label.category == "Value") == (not equal)

    def test_values_prediction_gets_a_rule_label(self, schemas):
        # a bare VALUES parses, so the rules compare it with gold: it reads none of gold's tables
        label = classify_error("VALUES (1), (2)", "SELECT Id FROM users", schemas["stack"])
        assert (label.subtype, label.rationale) == ("table_missing", "required tables absent: users")

    def test_missing_aggregate(self, schemas):
        pred = "SELECT Score FROM comments"
        gold = "SELECT SUM(Score) FROM comments"
        label = classify_error(pred, gold, schemas["stack"])
        assert (label.category, label.subtype) == ("Function", "aggregation_error")

    def test_clause_missing(self, schemas):
        pred = "SELECT Score FROM comments"
        gold = "SELECT Score FROM comments ORDER BY Score DESC LIMIT 1"
        label = classify_error(pred, gold, schemas["stack"])
        assert (label.category, label.subtype) == ("Others", "clause_missing")
        assert "ORDER BY" in label.rationale and "LIMIT" in label.rationale

    def test_constant_instead_of_subquery_is_a_value_error(self, schemas):
        pred = "SELECT Id FROM users WHERE Reputation = 100"
        gold = "SELECT Id FROM users WHERE Reputation = (SELECT MAX(Reputation) FROM users)"
        label = classify_error(pred, gold, schemas["stack"])
        assert label.subtype == "value_mismatch"

    def test_structural_nesting_difference(self, schemas):
        # identical predicates, one side wrapped in a set operation
        pred = "SELECT Id FROM users WHERE Reputation > 0"
        gold = (
            "SELECT Id FROM users WHERE Reputation > 0 "
            "UNION SELECT Id FROM users WHERE Reputation > 0"
        )
        label = classify_error(pred, gold, schemas["stack"])
        assert (label.category, label.subtype) == ("Others", "structural_error")

    def test_unparseable_prediction(self, schemas):
        label = classify_error("SELECT FROM WHERE", "SELECT 1", schemas["stack"])
        assert (label.category, label.subtype) == ("Others", "structural_error")
        assert "unparseable" in label.rationale

    def test_absent_prediction(self, schemas):
        label = classify_error(None, "SELECT 1", schemas["stack"])
        assert label.subtype == "structural_error"
        label = classify_error("   ", "SELECT 1", schemas["stack"])
        assert label.subtype == "structural_error"

    def test_fallback_is_total(self, schemas):
        # structurally identical queries that differ only in projection column
        pred = "SELECT Title FROM posts"
        gold = "SELECT Id FROM posts"
        label = classify_error(pred, gold, schemas["stack"])
        assert label.category in CATEGORIES


class TestInvariants:
    def test_subtype_category_pairing_table(self):
        for category, subtypes in SUBTYPES_BY_CATEGORY.items():
            for subtype in subtypes:
                assert CATEGORY_BY_SUBTYPE[subtype] == category
        with pytest.raises(ValueError):
            ErrorLabel("Table", "value_mismatch", "bad pairing")

    def test_deterministic(self, schemas):
        for db_name, _q, pred, gold, _c, _s in CASES:
            first = classify_error(pred, gold, schemas[db_name])
            second = classify_error(pred, gold, schemas[db_name])
            assert first == second

    def test_alias_rewrite_invariance(self, schemas):
        variants = [
            "SELECT COUNT(*) FROM comments c JOIN users u ON c.UserId = u.Id "
            "WHERE c.Score < 60 AND u.DisplayName = 'Neil McGuigan'",
            "SELECT COUNT(*) FROM comments zzz JOIN users qqq ON zzz.UserId = qqq.Id "
            "WHERE zzz.Score < 60 AND qqq.DisplayName = 'Neil McGuigan'",
        ]
        gold = CASES[0][3]
        labels = {classify_error(v, gold, schemas["stack"]) for v in variants}
        assert len({(l.category, l.subtype) for l in labels}) == 1

    _POOL = [
        "SELECT Id FROM users",
        "SELECT DisplayName FROM users WHERE Reputation > 100",
        "SELECT COUNT(*) FROM posts",
        "SELECT u.DisplayName FROM users u JOIN posts p ON u.Id = p.OwnerUserId",
        "SELECT Score FROM comments ORDER BY Score DESC LIMIT 3",
        "SELECT nonexistent FROM users",
        "not sql at all",
        "SELECT AVG(Score) FROM comments WHERE PostId IN (SELECT Id FROM posts)",
    ]

    @given(st.integers(0, len(_POOL) - 1), st.integers(0, len(_POOL) - 1))
    def test_every_emitted_label_respects_taxonomy(self, schemas, i, j):
        label = classify_error(self._POOL[i], self._POOL[j], schemas["stack"])
        assert CATEGORY_BY_SUBTYPE[label.subtype] == label.category
        assert label.rationale


_GOLD = "SELECT Id FROM users WHERE Reputation > 100"
_PATHOLOGICAL = pathological_queries("users", "Reputation")

# nested parentheses or scalar subqueries, AND/OR/+ chains, and decimal or hex literals, each 1 to thousands long
_DEEP = st.builds(
    lambda opener, n: opener * n + "Reputation" + ")" * n, st.sampled_from(["(", "(SELECT "]), st.integers(1, 150)
)
_CHAIN = st.builds(
    lambda op, n: op.join(["Reputation"] * n), st.sampled_from([" AND ", " OR ", " + "]), st.integers(1, 3000)
)
_DECIMAL = st.builds(
    lambda lead, fill, n: lead + fill * (n - 1), st.sampled_from("123456789"), st.sampled_from("0123456789"),
    st.integers(1, 6000),
)
_HEX = st.builds(
    lambda lead, fill, n: "0x" + lead + fill * (n - 1), st.sampled_from("123456789abcdef"),
    st.sampled_from("0123456789abcdefABCDEF"), st.integers(1, 400),
)


class TestTotality:
    """classify_error labels any text: deep nesting, long chains and oversized literals cost a label, not a raise."""

    @pytest.mark.parametrize("name", list(_PATHOLOGICAL))
    def test_each_reproduction_gets_a_label(self, schemas, name):
        sql = _PATHOLOGICAL[name]
        label = classify_error(sql, _GOLD, schemas["stack"])
        assert CATEGORY_BY_SUBTYPE[label.subtype] == label.category
        if name in ("500_parens", "300_digit_hex"):
            reason = "nesting too deep" if name == "500_parens" else "hex literal too big: 0xfff"
            assert label.subtype == "structural_error" and label.rationale.startswith(f"unparseable: {reason}")
        else:
            assert not label.rationale.startswith("unparseable")
        assert classify_error(_GOLD, sql, schemas["stack"]).category in CATEGORIES

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_DEEP, _CHAIN, _DECIMAL, _HEX), st.booleans(), st.booleans())
    def test_pathological_sql_gets_a_label(self, schemas, expr, in_where, as_gold):
        sql = f"SELECT Id FROM users WHERE {expr}" if in_where else f"SELECT {expr} FROM users"
        pred, gold = (_GOLD, sql) if as_gold else (sql, _GOLD)
        label = classify_error(pred, gold, schemas["stack"])
        assert isinstance(label, ErrorLabel)
        assert CATEGORY_BY_SUBTYPE[label.subtype] == label.category and label.rationale


def _error_distribution(records, schemas):
    """The classify command's loop: label every incorrect record, then let the report count the labels."""
    labels = [classify_error(r.final_sql, r.gold_sql, schemas[r.db_id]) for r in records if not r.correct]
    return assemble_report([make_record()], "greedy", labels=labels).error_distribution


class TestErrorDistribution:
    def test_all_correct_run_is_all_zeros(self, schemas):
        class R:
            correct = True
            final_sql = "SELECT 1"
            gold_sql = "SELECT 1"
            db_id = "stack"

        counts = _error_distribution([R(), R()], schemas)
        assert counts == {c: 0 for c in CATEGORIES}

    def test_synthetic_labelled_fixture(self, schemas):
        class R:
            def __init__(self, pred, gold):
                self.correct = False
                self.final_sql = pred
                self.gold_sql = gold
                self.db_id = "stack"

        records = [
            R("SELECT COUNT(*) FROM ghosts", "SELECT COUNT(*) FROM users"),  # Table
            R("SELECT Id FROM users WHERE Reputation = 2", "SELECT Id FROM users WHERE Reputation = 1"),  # Value
            R("SELECT Id FROM users WHERE Reputation > 1", "SELECT Id FROM users WHERE Reputation < 1"),  # Condition
            R("SELECT Score FROM comments", "SELECT MAX(Score) FROM comments"),  # Function
            R("gibberish", "SELECT 1"),  # Others
        ] * 2
        counts = _error_distribution(records, schemas)
        assert counts == {"Table": 2, "Value": 2, "Condition": 2, "Function": 2, "Others": 2}
