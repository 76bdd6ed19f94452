"""Sandboxed execution, result comparison, and signature consistency.

The comparison oracle here is deliberately independent of the implementation:
cell equality via math.isclose and multiset matching via greedy O(n^2)
pairing, against the implementation's canonical-sort approach.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import database_digest
from test_sqlast import CORPUS

from nl2sqlbench.diagnoser import parse_sql
from nl2sqlbench.executor import (
    STATUS_EMPTY,
    STATUS_OK,
    STATUS_SQL_ERROR,
    STATUS_TIMEOUT,
    ExecutionOutcome,
    cells_equal,
    compare_results,
    execute_sql,
    is_order_sensitive,
    result_signature,
)

MISC_DB = [
    "CREATE TABLE t_nums (x INTEGER, y REAL)",
    "INSERT INTO t_nums VALUES (1, 1.5), (2, 2.5), (3, 3.5)",
    "CREATE TABLE t_dup (v INTEGER)",
    "INSERT INTO t_dup VALUES (1), (1), (2)",
    "CREATE TABLE t_null (n INTEGER)",
    "INSERT INTO t_null VALUES (1), (NULL), (2)",
]


@pytest.fixture(scope="module")
def misc_db(tmp_path_factory):
    from conftest import build_db

    return build_db(tmp_path_factory.mktemp("misc") / "misc" / "misc.sqlite", MISC_DB)


# --- independent oracle -----------------------------------------------------


def oracle_cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)  # noqa: E731
    if numeric(a) and numeric(b):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6)
    if isinstance(a, str) and isinstance(b, str):
        return a.rstrip() == b.rstrip()
    return a == b


def oracle_rows_equal(a, b) -> bool:
    return len(a) == len(b) and all(oracle_cells_equal(x, y) for x, y in zip(a, b))


def oracle_compare(pred: ExecutionOutcome, gold: ExecutionOutcome, order_sensitive: bool) -> bool:
    if pred.status != STATUS_OK:
        return False
    if pred.column_count != gold.column_count:
        return False
    if len(pred.rows) != len(gold.rows):
        return False
    if order_sensitive:
        return all(oracle_rows_equal(p, g) for p, g in zip(pred.rows, gold.rows))
    unused = list(gold.rows)
    for row in pred.rows:
        for i, candidate in enumerate(unused):
            if oracle_rows_equal(row, candidate):
                del unused[i]
                break
        else:
            return False
    return True


# (pred_sql, gold_sql) pairs covering permutations, duplicates, float division,
# NULLs, ORDER BY, extra columns, reals off the tolerance grid (±inf, 1e303) and
# integers from 2^52 on, exact among themselves and tolerant against reals
COMPARISON_PAIRS = [
    ("SELECT x FROM t_nums ORDER BY x", "SELECT x FROM t_nums ORDER BY x"),
    ("SELECT x FROM t_nums ORDER BY x DESC", "SELECT x FROM t_nums ORDER BY x"),
    ("SELECT x FROM t_nums ORDER BY x DESC", "SELECT x FROM t_nums"),
    ("SELECT v FROM t_dup", "SELECT v FROM t_dup"),
    ("SELECT DISTINCT v FROM t_dup", "SELECT v FROM t_dup"),
    ("SELECT 1.0 / 3.0", "SELECT 1.0 / 3"),
    ("SELECT 0.3333333", "SELECT 1.0 / 3"),
    ("SELECT 0.33", "SELECT 1.0 / 3"),
    ("SELECT n FROM t_null", "SELECT n FROM t_null"),
    ("SELECT NULL", "SELECT 0"),
    ("SELECT x, y FROM t_nums", "SELECT x FROM t_nums"),
    ("SELECT y, x FROM t_nums", "SELECT x, y FROM t_nums"),
    ("SELECT x AS renamed FROM t_nums", "SELECT x FROM t_nums"),
    ("SELECT x FROM", "SELECT x FROM t_nums"),
    ("", "SELECT x FROM t_nums"),
    ("SELECT 'a '", "SELECT 'a'"),
    ("SELECT ' a'", "SELECT 'a'"),
    ("SELECT 1", "SELECT 1.0"),
    ("SELECT v FROM t_dup ORDER BY v DESC", "SELECT v FROM t_dup"),
    ("SELECT x FROM t_nums WHERE x < 0", "SELECT x FROM t_nums WHERE x > 1000"),
    ("SELECT 1e999", "SELECT 1e999"),
    ("SELECT -1e999", "SELECT 1e999"),
    ("SELECT 1e999", "SELECT 5.0"),
    ("SELECT 1.0000001e303", "SELECT 1e303"),
    ("SELECT 1e999", "SELECT 1e303"),
    ("SELECT 1152921504606846977", "SELECT 1152921504606846976"),  # 2^60 + 1 vs 2^60
    ("SELECT 1152921504606846976 UNION ALL SELECT 'a'", "SELECT 1152921504606846976.0 UNION ALL SELECT 'a'"),
]


class TestCompareOracle:
    def test_twenty_pairs_agree_with_bruteforce(self, misc_db):
        assert len(COMPARISON_PAIRS) == 27
        agreements = 0
        for pred_sql, gold_sql in COMPARISON_PAIRS:
            gold = execute_sql(misc_db, gold_sql)
            assert gold.status == STATUS_OK
            pred = execute_sql(misc_db, pred_sql)
            sensitive = is_order_sensitive(gold_sql)
            got = compare_results(pred, gold, sensitive)
            expected = oracle_compare(pred, gold, sensitive)
            assert got == expected, (pred_sql, gold_sql)
            agreements += 1
        assert agreements == 27

    def test_known_verdicts(self, misc_db):
        def verdict(pred_sql, gold_sql):
            gold = execute_sql(misc_db, gold_sql)
            pred = execute_sql(misc_db, pred_sql)
            return compare_results(pred, gold, is_order_sensitive(gold_sql))

        assert verdict("SELECT x FROM t_nums ORDER BY x DESC", "SELECT x FROM t_nums") is True
        assert verdict("SELECT x FROM t_nums ORDER BY x DESC", "SELECT x FROM t_nums ORDER BY x") is False
        assert verdict("SELECT 0.3333333", "SELECT 1.0 / 3") is True
        assert verdict("SELECT 0.33", "SELECT 1.0 / 3") is False
        assert verdict("SELECT x, y FROM t_nums", "SELECT x FROM t_nums") is False
        assert verdict("SELECT DISTINCT v FROM t_dup", "SELECT v FROM t_dup") is False

    def test_non_finite_reals_equal_only_themselves(self):
        inf = math.inf
        assert cells_equal(inf, inf) and cells_equal(-inf, -inf)
        assert not cells_equal(inf, -inf)
        assert not cells_equal(inf, 5) and not cells_equal(5.0, inf)
        assert not cells_equal(inf, 1e303)
        assert cells_equal(1e303, 1.0000001e303)  # finite: within tolerance


class TestExecuteSql:
    def test_select_one(self, misc_db):
        outcome = execute_sql(misc_db, "SELECT 1")
        assert outcome.status == STATUS_OK
        assert outcome.rows == [(1,)]
        assert outcome.column_count == 1

    def test_unknown_column_is_sql_error(self, schools_db):
        outcome = execute_sql(
            schools_db,
            "SELECT s.District FROM satscores s JOIN schools sch ON s.cds = sch.CDSCode "
            "WHERE sch.StatusType = 'Active' GROUP BY s.District "
            "ORDER BY AVG(s.AvgScrRead) DESC LIMIT 1",
        )
        assert outcome.status == STATUS_SQL_ERROR
        assert "District" in outcome.error_message

    def test_runaway_query_times_out(self, misc_db):
        sql = "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r) SELECT * FROM r"
        outcome = execute_sql(misc_db, sql, timeout_seconds=0.5)
        assert outcome.status in (STATUS_TIMEOUT, STATUS_SQL_ERROR)
        assert outcome.status == STATUS_TIMEOUT

    def test_empty_prediction(self, misc_db):
        assert execute_sql(misc_db, None).status == STATUS_EMPTY
        assert execute_sql(misc_db, "   ").status == STATUS_EMPTY

    def test_writes_rejected_and_file_unchanged(self, misc_db):
        before = database_digest(misc_db)
        for sql in (
            "INSERT INTO t_dup VALUES (9)",
            "UPDATE t_nums SET x = 0",
            "DELETE FROM t_dup",
            "DROP TABLE t_nums",
            "CREATE TABLE evil (a)",
            "ALTER TABLE t_dup ADD COLUMN w INTEGER",
        ):
            outcome = execute_sql(misc_db, sql)
            assert outcome.status == STATUS_SQL_ERROR, sql
        assert database_digest(misc_db) == before

    def test_multiple_statements_rejected(self, misc_db):
        outcome = execute_sql(misc_db, "SELECT 1; DROP TABLE t_nums")
        assert outcome.status == STATUS_SQL_ERROR

    def test_row_cap(self, misc_db):
        # 3 * 3 * 3 * ... cross joins quickly exceed the cap? keep it direct:
        sql = (
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r LIMIT 200000) "
            "SELECT * FROM r"
        )
        outcome = execute_sql(misc_db, sql, timeout_seconds=30.0)
        assert outcome.status == STATUS_SQL_ERROR
        assert "too large" in outcome.error_message

    def test_blobs_digested(self, misc_db):
        outcome = execute_sql(misc_db, "SELECT x'00ff'")
        assert outcome.status == STATUS_OK
        cell = outcome.rows[0][0]
        assert isinstance(cell, bytes) and len(cell) == 16


# ORDER BY, parentheses and comment markers inside literals, quoted identifiers and comments
QUOTED_ORDER_BY = [
    'SELECT "order by" FROM t',
    "SELECT `order by` FROM t",
    "SELECT [order by] FROM t",
    'SELECT "x""order by" FROM t',
    "SELECT 'order by' FROM t",
    "SELECT a FROM t -- order by a",
    "SELECT a FROM t /* ORDER BY a */",
    "SELECT a FROM t ORDER/**/BY a",
    'SELECT "(" FROM t ORDER BY a',
    "SELECT [(] FROM t ORDER BY a",
    "SELECT a FROM t -- (\nORDER BY a",
]


class TestOrderSensitivity:
    def test_plain_order_by(self):
        assert is_order_sensitive("SELECT a FROM t ORDER BY a") is True

    def test_no_order_by(self):
        assert is_order_sensitive("SELECT a FROM t") is False

    def test_inner_order_by_only(self):
        assert is_order_sensitive("SELECT * FROM (SELECT a FROM t ORDER BY a)") is False

    def test_fallback_on_unparseable_text(self):
        assert is_order_sensitive("SELECT ?? garbled ORDER BY x") is True
        assert is_order_sensitive("?? (ORDER BY x)") is False

    @pytest.mark.parametrize("query", QUOTED_ORDER_BY)
    def test_quoted_text_is_not_a_clause(self, query):
        assert is_order_sensitive(query) is bool(parse_sql(query).order_by)

    def test_agrees_with_parser_on_corpus(self):
        disagree = [q for q in CORPUS if is_order_sensitive(q) is not bool(parse_sql(q).order_by)]
        assert len(CORPUS) >= 250 and disagree == []


class TestSignatures:
    def test_permuted_multisets_share_signature(self):
        a = ExecutionOutcome(STATUS_OK, [(1,), (2,), (1,)], 1, None, 0.0)
        b = ExecutionOutcome(STATUS_OK, [(2,), (1,), (1,)], 1, None, 0.0)
        assert result_signature(a, False) == result_signature(b, False)
        assert result_signature(a, True) != result_signature(b, True)

    def test_failure_statuses_distinguished(self):
        err = ExecutionOutcome(STATUS_SQL_ERROR, None, 0, "boom", 0.0)
        timeout = ExecutionOutcome(STATUS_TIMEOUT, None, 0, "slow", 0.0)
        empty = ExecutionOutcome(STATUS_EMPTY, None, 0, None, 0.0)
        digests = {result_signature(o, False).digest for o in (err, timeout, empty)}
        assert len(digests) == 3

    def test_big_integers_one_apart_differ(self):
        # 2^60 / REL_TOL and (2^60 + 1) / REL_TOL round to one float
        a = ExecutionOutcome(STATUS_OK, [(2**60,)], 1, None, 0.0)
        b = ExecutionOutcome(STATUS_OK, [(2**60 + 1,)], 1, None, 0.0)
        assert not compare_results(a, b, False)
        assert result_signature(a, False) != result_signature(b, False)

    def test_signature_agrees_with_compare_on_random_pairs(self):
        # randomized oracle cross-check: 1000 generated pairs, mixing exact
        # permutations (equal) with mutated copies (unequal)
        rng = random.Random(42)
        values = [None, 0, 1, 2, -3, 0.5, 1.25, "a", "b", "ab"]
        agreements = 0
        for _ in range(1000):
            n_rows, n_cols = rng.randint(0, 4), rng.randint(1, 3)
            rows = [tuple(rng.choice(values) for _ in range(n_cols)) for _ in range(n_rows)]
            if rng.random() < 0.5:
                other = list(rows)
                rng.shuffle(other)
            else:
                other = [tuple(rng.choice(values) for _ in range(n_cols)) for _ in range(n_rows)]
            a = ExecutionOutcome(STATUS_OK, rows, n_cols, None, 0.0)
            b = ExecutionOutcome(STATUS_OK, other, n_cols, None, 0.0)
            sig_equal = result_signature(a, False) == result_signature(b, False)
            cmp_equal = compare_results(a, b, False)
            assert sig_equal == cmp_equal
            agreements += 1
        assert agreements == 1000


_cell = st.one_of(
    st.none(),
    st.integers(min_value=-50, max_value=50),
    st.sampled_from([2**60, 2**60 + 1]),  # one grid point apart when divided as floats
    # the last four are off the tolerance grid; the two finite ones are within tolerance
    st.sampled_from([0.0, 0.5, 1.25, -2.75, 100.0, math.inf, -math.inf, 1e303, 1.0000001e303]),
    st.text(alphabet="abc ", max_size=4),
)


def _outcome_from_rows(rows, n_cols):
    return ExecutionOutcome(STATUS_OK, rows, n_cols, None, 0.0)


@st.composite
def _outcomes(draw, n_cols=2):
    n_rows = draw(st.integers(min_value=0, max_value=4))
    rows = [tuple(draw(_cell) for _ in range(n_cols)) for _ in range(n_rows)]
    return _outcome_from_rows(rows, n_cols)


class TestComparisonProperties:
    @given(_outcomes())
    def test_reflexive(self, outcome):
        assert compare_results(outcome, outcome, False)
        assert compare_results(outcome, outcome, True)

    @given(_outcomes(), _outcomes())
    def test_symmetric(self, a, b):
        for sensitive in (False, True):
            assert compare_results(a, b, sensitive) == compare_results(b, a, sensitive)

    @settings(max_examples=60)
    @given(_outcomes(), _outcomes(), _outcomes())
    def test_transitive(self, a, b, c):
        for sensitive in (False, True):
            if compare_results(a, b, sensitive) and compare_results(b, c, sensitive):
                assert compare_results(a, c, sensitive)

    @given(_outcomes(), _outcomes())
    def test_signature_equality_implies_compare(self, a, b):
        for sensitive in (False, True):
            if result_signature(a, sensitive) == result_signature(b, sensitive):
                assert compare_results(a, b, sensitive)
