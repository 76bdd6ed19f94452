"""Sandboxed execution, result comparison, and signature consistency.

The comparison oracle here is deliberately independent of the implementation:
cell equality via math.isclose and multiset matching via greedy O(n^2)
pairing, against the implementation's canonical-sort approach.
"""

import hashlib
import json
import math
import os
import random
import sqlite3
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import database_digest, run_sql
from test_sqlast import CORPUS

from nl2sqlbench import executor
from nl2sqlbench.corpus import DatabaseHandle
from nl2sqlbench.diagnoser import parse_sql
from nl2sqlbench.executor import (
    STATUS_EMPTY,
    STATUS_OK,
    STATUS_SQL_ERROR,
    STATUS_TIMEOUT,
    REL_TOL,
    _FORMAT_CHUNK_ROWS,
    ROW_CAP,
    NOT_A_QUERY,
    ExecutionOutcome,
    ItemReader,
    _canonical_cell,
    _sorted_rows,
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


@pytest.fixture(scope="module")
def big_db(tmp_path_factory):
    from conftest import build_db

    return build_db(
        tmp_path_factory.mktemp("big") / "big" / "big.sqlite",
        [
            "CREATE TABLE big (id INTEGER PRIMARY KEY, g INTEGER, v REAL)",
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 20000) "
            "INSERT INTO big SELECT n, n % 97, n * 0.5 FROM r",
            "CREATE TABLE t3k (n INTEGER)",
            "INSERT INTO t3k SELECT id FROM big WHERE id <= 3000",
        ],
    )


# --- independent oracle -----------------------------------------------------


def oracle_cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)  # noqa: E731
    if numeric(a) and numeric(b):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        if a != a or b != b:  # NaN equals only NaN
            return a != a and b != b
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6)
    if isinstance(a, str) and isinstance(b, str):
        return a.rstrip() == b.rstrip()
    return a == b


def _row_key(row):
    """Reference canonical key of a row: the tuple of its cells' canonical keys."""
    return tuple(_canonical_cell(c) for c in row)


def sort_and_walk(pred: ExecutionOutcome, gold: ExecutionOutcome, order_sensitive: bool) -> bool:
    """Reference compare_results: sort both sides by row key and compare every cell, with no fast path."""
    if pred.column_count != gold.column_count or len(pred.rows) != len(gold.rows):
        return False
    pred_rows, gold_rows = pred.rows, gold.rows
    if not order_sensitive:
        pred_rows, gold_rows = sorted(pred_rows, key=_row_key), sorted(gold_rows, key=_row_key)
    return all(len(p) == len(g) and all(map(cells_equal, p, g)) for p, g in zip(pred_rows, gold_rows))


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
            gold = run_sql(misc_db, gold_sql)
            assert gold.status == STATUS_OK
            pred = run_sql(misc_db, pred_sql)
            sensitive = is_order_sensitive(gold_sql)
            got = compare_results(pred, gold, sensitive)
            expected = oracle_compare(pred, gold, sensitive)
            assert got == expected, (pred_sql, gold_sql)
            agreements += 1
        assert agreements == 27

    def test_known_verdicts(self, misc_db):
        def verdict(pred_sql, gold_sql):
            gold = run_sql(misc_db, gold_sql)
            pred = run_sql(misc_db, pred_sql)
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
        assert cells_equal(math.nan, math.nan) and cells_equal(math.nan, float("nan"))
        assert not cells_equal(math.nan, inf) and not cells_equal(0.0, math.nan) and not cells_equal(math.nan, None)


class TestExecuteSql:
    def test_select_one(self, misc_db):
        outcome = run_sql(misc_db, "SELECT 1")
        assert outcome.status == STATUS_OK
        assert outcome.rows == [(1,)]
        assert outcome.column_count == 1

    def test_unknown_column_is_sql_error(self, schools_db):
        outcome = run_sql(
            schools_db,
            "SELECT s.District FROM satscores s JOIN schools sch ON s.cds = sch.CDSCode "
            "WHERE sch.StatusType = 'Active' GROUP BY s.District "
            "ORDER BY AVG(s.AvgScrRead) DESC LIMIT 1",
        )
        assert outcome.status == STATUS_SQL_ERROR
        assert "District" in outcome.error_message

    def test_long_values_are_bounded(self, misc_db):
        # SQLite's default would build these 300 MB values (about 600 MB of peak RSS for the blob); past
        # MAX_VALUE_BYTES the blob fails at once, and printf returns NULL. Run apart, so the peak RSS is theirs
        code = (
            "import json, resource, sys; from pathlib import Path\n"
            "from nl2sqlbench.corpus import DatabaseHandle\n"
            "from nl2sqlbench.executor import ItemReader, execute_sql\n"
            "with ItemReader(DatabaseHandle('misc', Path(sys.argv[1]))) as reader:\n"
            "    outcomes = [execute_sql(reader, sql) for sql in sys.argv[2:]]\n"
            "rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // (1024 if sys.platform == 'darwin' else 1)\n"
            "print(json.dumps([[o.status, o.rows, o.error_message] for o in outcomes] + [rss_kib]))\n"
        )
        queries = ["SELECT randomblob(300000000)", "SELECT printf('%.*c', 300000000, 'x')"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code, str(misc_db.path), *queries], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        blob, text, rss_kib = json.loads(result.stdout)
        assert blob == [STATUS_SQL_ERROR, None, "string or blob too big"]
        assert text == [STATUS_OK, [[None]], None]
        assert rss_kib < 100 * 1024

    def test_runaway_query_times_out(self, misc_db):
        # it streams rows until its limit, staying far under the row cap
        outcome = run_sql(misc_db, _STREAMING_RUNAWAY, timeout_seconds=0.5)
        assert outcome.status == STATUS_TIMEOUT
        assert outcome.error_message == "timed out after 0.5s"

    def test_runaway_query_streaming_no_rows_times_out(self, misc_db):
        # the VM runs without returning a row, so only the progress-handler tick can stop it
        sql = "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r) SELECT count(*) FROM r"
        start = time.monotonic()
        outcome = run_sql(misc_db, sql, timeout_seconds=0.5)
        assert outcome.status == STATUS_TIMEOUT
        assert time.monotonic() - start < 1.0

    def test_short_query_rarely_calls_the_progress_handler(self, big_db, monkeypatch):
        # each call takes the GIL; a GROUP BY over 20k rows ran about 3 ticks at the current step
        # and 341 at a step of 1,000 instructions
        calls = []
        connect = DatabaseHandle.connect

        class CountingConnection:
            def __init__(self, conn):
                self._conn = conn

            def set_progress_handler(self, handler, n):
                def counted():
                    calls.append(n)
                    return handler()

                self._conn.set_progress_handler(counted, n)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        monkeypatch.setattr(DatabaseHandle, "connect", lambda handle: CountingConnection(connect(handle)))
        outcome = run_sql(big_db, "SELECT g, count(*), sum(v) FROM big GROUP BY g")
        assert outcome.status == STATUS_OK and outcome.row_count == 97
        assert len(calls) <= 10

    def test_empty_prediction(self, misc_db):
        assert run_sql(misc_db, None).status == STATUS_EMPTY
        assert run_sql(misc_db, "   ").status == STATUS_EMPTY

    def test_writes_rejected_and_file_unchanged(self, misc_db):
        before = database_digest(misc_db)
        for sql in (
            "INSERT INTO t_dup VALUES (9)",
            "UPDATE t_nums SET x = 0",
            "DELETE FROM t_dup",
            "DROP TABLE t_nums",
            "CREATE TABLE evil (a)",
            "ALTER TABLE t_dup ADD COLUMN w INTEGER",
            # these start as queries, so the read-only connection is what refuses them
            "WITH v(n) AS (VALUES (9)) INSERT INTO t_dup SELECT n FROM v",
            "WITH v(n) AS (VALUES (1)) DELETE FROM t_dup WHERE v IN (SELECT n FROM v)",
        ):
            outcome = run_sql(misc_db, sql)
            assert outcome.status == STATUS_SQL_ERROR, sql
            assert (outcome.error_message == NOT_A_QUERY) == (not sql.startswith("WITH")), sql
        assert database_digest(misc_db) == before

    def test_multiple_statements_rejected(self, misc_db):
        outcome = run_sql(misc_db, "SELECT 1; DROP TABLE t_nums")
        assert outcome.status == STATUS_SQL_ERROR

    def test_row_cap(self, misc_db):
        sql = (
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r LIMIT 200000) "
            "SELECT * FROM r"
        )
        outcome = run_sql(misc_db, sql, timeout_seconds=30.0)
        assert _result(outcome) == _TOO_LARGE

    @pytest.mark.parametrize("limit", [1.0, 30.0])
    def test_an_oversized_result_fails_at_the_cap_whatever_the_limit(self, big_db, limit):
        # 9M rows: fetching them all takes seconds, so a fetch that went on past the cap would time out at 1 s
        sql = "SELECT a.n, b.n FROM t3k a, t3k b"
        outcome = run_sql(big_db, sql, timeout_seconds=limit)
        assert _result(outcome) == _TOO_LARGE

    def test_blobs_digested(self, misc_db):
        # the result holds the blob's bytes, and its canonical key holds their digest
        outcome = run_sql(misc_db, "SELECT x'00ff' UNION ALL SELECT 1")
        assert outcome.status == STATUS_OK
        assert outcome.rows == [(b"\x00\xff",), (1,)]
        assert type(outcome.rows[1][0]) is int
        assert _canonical_cell(outcome.rows[0][0]) == (3, hashlib.sha256(b"\x00\xff").hexdigest()[:32])

    def test_cells_without_blobs_come_back_unchanged(self, misc_db):
        outcome = run_sql(misc_db, "SELECT x, y, 'a ', NULL FROM t_nums ORDER BY x")
        assert outcome.rows == [(1, 1.5, "a ", None), (2, 2.5, "a ", None), (3, 3.5, "a ", None)]
        assert [type(c) for c in outcome.rows[0]] == [int, float, str, type(None)]


def _result(outcome: ExecutionOutcome):
    """An outcome without its wall time, which differs from run to run."""
    return outcome.status, outcome.rows, outcome.column_count, outcome.error_message


_TOO_LARGE = (STATUS_SQL_ERROR, None, 0, f"result too large (more than {ROW_CAP} rows)")


@pytest.fixture()
def connects(monkeypatch):
    """Every connection opened through ``DatabaseHandle.connect``, in order."""
    opened = []
    connect = DatabaseHandle.connect

    def counted(handle):
        opened.append(connect(handle))
        return opened[-1]

    monkeypatch.setattr(DatabaseHandle, "connect", counted)
    return opened


# unbounded recursions that return rows: one streams them, a row per 100 recursions, which keeps it under the row
# cap until a limit of some seconds (about 16k rows in 1 s on one Xeon core); the other returns its first row at
# once and then one row per million recursions, so that each later step runs many progress-handler ticks without a row
_STREAMING_RUNAWAY = "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r) SELECT n FROM r WHERE n % 100 = 1"
_SPARSE_RUNAWAY = "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r) SELECT n FROM r WHERE n % 1000000 = 1"
# an unbounded count that never returns a row: only the progress handler can stop it
_RUNAWAY = "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r) SELECT count(*) FROM r"
# a finite count of some millions of VM instructions, far more than one progress-handler step
_SLOW = "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r WHERE n < 300000) SELECT count(*) FROM r"
# 1,024 rows come back before abs() overflows on row 1,500
_FAILS_MID_FETCH = (
    "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r LIMIT 2000) "
    "SELECT abs(-9223372036854775807 - (n >= 1500)) FROM r"
)


class TestItemReader:
    """Queries share the reader's connection; anything else runs on no connection, and no failure changes it."""

    @pytest.mark.parametrize(
        "sql",
        [
            "select x from t_nums",
            "  -- leading comment\nSELECT x FROM t_nums",
            "/* leading\ncomment */ SELECT x FROM t_nums",
            "/**/--\n\tWITH a(v) AS (SELECT 1) SELECT v FROM a",
            "VALUES (1), (2)",
        ],
    )
    def test_queries_share_one_connection(self, misc_db, connects, sql):
        with ItemReader(misc_db) as reader:
            outcomes = [execute_sql(reader, sql) for _ in range(3)]
        assert len(connects) == 1
        assert [_result(o) for o in outcomes] == [_result(run_sql(misc_db, sql))] * 3

    @pytest.mark.parametrize(
        "sql",
        [
            "EXPLAIN SELECT x FROM t_nums",
            "PRAGMA case_sensitive_like = 1",
            "ATTACH ':memory:' AS m",
            "-- SELECT\nPRAGMA reverse_unordered_selects = 1",
            "/* SELECT */ BEGIN",
            "SAVEPOINT s",
            "selected",
        ],
    )
    def test_other_statements_get_a_fresh_connection(self, misc_db, connects, sql):
        # refused before any connection opens, and again once the reader's is open
        refused = (STATUS_SQL_ERROR, None, 0, NOT_A_QUERY)
        with ItemReader(misc_db) as reader:
            assert _result(execute_sql(reader, sql)) == refused
            assert connects == []
            execute_sql(reader, "SELECT 1")
            assert _result(execute_sql(reader, sql)) == refused
        assert len(connects) == 1  # the reader's, opened by the query

    @pytest.mark.parametrize(
        "statement, query",
        [
            ("PRAGMA case_sensitive_like = 1", "SELECT 'a' LIKE 'A', x FROM t_nums WHERE 'ab' LIKE 'A%'"),
            ("PRAGMA reverse_unordered_selects = 1", "SELECT x FROM t_nums"),
            ("ATTACH ':memory:' AS m", "SELECT * FROM m.sqlite_master"),
            ("BEGIN", "BEGIN"),
            ("SAVEPOINT s", "RELEASE s"),
        ],
    )
    def test_state_changes_do_not_reach_later_queries(self, misc_db, statement, query):
        # the statement is refused, so the later query answers as on a fresh reader
        fresh = _result(run_sql(misc_db, query))
        with ItemReader(misc_db) as reader:
            execute_sql(reader, "SELECT 1")
            assert _result(execute_sql(reader, statement)) == (STATUS_SQL_ERROR, None, 0, NOT_A_QUERY)
            assert _result(execute_sql(reader, query)) == fresh
            assert not reader.connection().in_transaction
            # the shared connection itself still answers as a fresh one would
            conn = reader.connection()
            assert conn.execute("SELECT 'a' LIKE 'A'").fetchone() == (1,)
            assert conn.execute("SELECT x FROM t_nums").fetchall() == [(1,), (2,), (3,)]
            assert conn.execute("SELECT count(*) FROM pragma_database_list").fetchone() == (1,)

    @pytest.mark.parametrize(
        "failing, timeout, status",
        [
            (_RUNAWAY, 0.5, STATUS_TIMEOUT),
            (f"WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r LIMIT {ROW_CAP + 1}) SELECT n FROM r",
             30.0, STATUS_SQL_ERROR),
            ("SELECT missing FROM t_nums", 30.0, STATUS_SQL_ERROR),
            (_FAILS_MID_FETCH, 30.0, STATUS_SQL_ERROR),
        ],
    )
    def test_connection_is_reusable_after_a_failure(self, misc_db, connects, failing, timeout, status):
        follow_up = "SELECT v, count(*) FROM t_dup GROUP BY v"
        with ItemReader(misc_db) as reader:
            assert execute_sql(reader, failing, timeout_seconds=timeout).status == status
            # no handler is left on the connection; after the timeout, its deadline has passed
            assert reader.connection().execute(_SLOW).fetchone() == (300000,)
            assert not reader.connection().in_transaction
            assert _result(execute_sql(reader, follow_up)) == _result(run_sql(misc_db, follow_up))
            slow = execute_sql(reader, _SLOW, timeout_seconds=30.0)
            assert slow.status == STATUS_OK and slow.rows == [(300000,)]
        assert len(connects) == 2  # the reader's, and the fresh one the follow-up is compared against

    def test_mid_fetch_failure_comes_after_rows(self, misc_db):
        # the failure the test above runs comes after rows have been fetched, not at the first step
        conn = misc_db.connect()
        try:
            cursor = conn.execute(_FAILS_MID_FETCH)
            assert len(cursor.fetchmany(1024)) == 1024
            with pytest.raises(sqlite3.OperationalError, match="integer overflow"):
                cursor.fetchmany(1024)
        finally:
            conn.close()

    def test_connection_closes_with_the_reader(self, misc_db, connects):
        with ItemReader(misc_db) as reader:
            pass
        assert connects == []
        with pytest.raises(RuntimeError):
            with ItemReader(misc_db) as reader:
                execute_sql(reader, "SELECT 1")
                raise RuntimeError
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            connects[0].execute("SELECT 1")


# statement heads, and whether each is a query
_HEADS = {
    "SELECT 1": True,
    "WITH a(v) AS (SELECT 1) SELECT v FROM a": True,
    "VALUES (1)": True,
    "PRAGMA table_info(t_nums)": False,
    "BEGIN": False,
    "EXPLAIN SELECT 1": False,
    "": False,
}
# comment texts that hold a query keyword, a lone star, or another comment's opener
_COMMENT_TEXTS = st.sampled_from(["", " x ", "SELECT", "PRAGMA", "*", "/*", "--", "'"])
_LEAD = st.one_of(
    st.sampled_from([" ", "\n", "\t", "\r\n"]),
    _COMMENT_TEXTS.map(lambda text: f"--{text}\n"),
    _COMMENT_TEXTS.map(lambda text: f"/*{text}*/"),
)


class TestQueryGate:
    """Only text that whitespace and comments lead into SELECT, WITH or VALUES runs."""

    @given(
        lead=st.lists(_LEAD, max_size=4),
        head=st.sampled_from(list(_HEADS)),
        trail=st.sampled_from(["", " ", "\n", "-- done", "/* done */"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_only_queries_run(self, misc_db, lead, head, trail):
        text = "".join(lead) + head + trail
        with mock.patch.object(DatabaseHandle, "connect", autospec=True, side_effect=DatabaseHandle.connect) as connect:
            with ItemReader(misc_db) as reader:
                outcome = execute_sql(reader, text)
        assert outcome.ok == _HEADS[head], text
        if outcome.ok:
            assert outcome.column_count >= 1
        if not executor._QUERY_START.match(text):
            assert connect.call_count == 0
            refused = (STATUS_SQL_ERROR, NOT_A_QUERY) if text.strip() else (STATUS_EMPTY, "empty prediction")
            assert (outcome.status, outcome.error_message) == refused


_TWENTY_K_ROWS = (
    "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r LIMIT 20000) SELECT n, n * 7919 % 10007, n % 5 FROM r"
)


class TestFetchLock:
    """Chunks are fetched under one lock, which no outcome leaves held and no long step keeps."""

    # a 1 s limit keeps the streaming runaway under the row cap on a host up to 6 times faster than its note's
    @pytest.mark.parametrize(
        "runaway, limit", [(_STREAMING_RUNAWAY, 1.0), (_SPARSE_RUNAWAY, 3.0)], ids=["streaming", "sparse_rows"]
    )
    def test_a_runaway_query_holds_up_no_other_fetch(self, misc_db, runaway, limit):
        # held across a whole fetch loop, or across a chunk through the runaway's progress ticks, the lock would stall
        # the other fetch until the runaway's limit
        outcomes = []
        runner = threading.Thread(target=lambda: outcomes.append(run_sql(misc_db, runaway, timeout_seconds=limit)))
        runner.start()
        try:
            time.sleep(0.3)  # the runaway is fetching by now
            start = time.monotonic()
            fetched = run_sql(misc_db, _TWENTY_K_ROWS)
            elapsed = time.monotonic() - start
        finally:
            runner.join(timeout=limit + 10)
        assert not runner.is_alive()
        assert [o.status for o in outcomes] == [STATUS_TIMEOUT]
        assert fetched.status == STATUS_OK and fetched.row_count == 20_000
        assert elapsed < limit / 3

    @pytest.mark.parametrize(
        "sql, timeout, status",
        [
            (_TWENTY_K_ROWS, 30.0, STATUS_OK),
            ("SELECT missing FROM t_nums", 30.0, STATUS_SQL_ERROR),
            (_STREAMING_RUNAWAY, 0.5, STATUS_TIMEOUT),
            (_SPARSE_RUNAWAY, 0.5, STATUS_TIMEOUT),
            (f"WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r LIMIT {ROW_CAP + 1}) SELECT n FROM r",
             30.0, STATUS_SQL_ERROR),
            (_FAILS_MID_FETCH, 30.0, STATUS_SQL_ERROR),
        ],
        ids=["ok", "sql_error", "timeout_streaming", "timeout_sparse_rows", "row_cap", "error_mid_fetch"],
    )
    def test_no_outcome_leaves_the_lock_held(self, misc_db, sql, timeout, status):
        assert run_sql(misc_db, sql, timeout_seconds=timeout).status == status
        assert not executor._FETCH_LOCK.locked()

    def test_threads_fetching_at_once_each_get_their_own_result(self, misc_db):
        # more threads than cores, switching as often as the interpreter allows
        queries = [
            (_TWENTY_K_ROWS, 30.0), (_FAILS_MID_FETCH, 30.0), (_STREAMING_RUNAWAY, 0.3), ("SELECT x FROM t_nums", 30.0)
        ]
        alone = [_result(run_sql(misc_db, sql, timeout_seconds=timeout)) for sql, timeout in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run_sql, misc_db, *query) for _ in range(3) for query in queries]
                together = [_result(future.result(timeout=60)) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert together == alone * 3
        assert not executor._FETCH_LOCK.locked()


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

    def test_unterminated_block_comment_runs_to_the_end(self):
        # SQLite reads a block comment with no closing */ to the end of the input, so this query runs unordered
        query = "SELECT a FROM t /* ORDER BY a"
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (3), (1), (2)")
        assert conn.execute(query).fetchall() == [(3,), (1,), (2,)]
        conn.close()
        assert is_order_sensitive(query) is False
        assert is_order_sensitive("SELECT a FROM t ORDER BY a /* (") is True

    @pytest.mark.parametrize("query", QUOTED_ORDER_BY)
    def test_quoted_text_is_not_a_clause(self, query):
        assert is_order_sensitive(query) is bool(parse_sql(query).order_by)

    def test_agrees_with_parser_on_corpus(self):
        disagree = [q for q in CORPUS if is_order_sensitive(q) is not bool(parse_sql(q).order_by)]
        assert len(CORPUS) >= 250 and disagree == []


class TestSignatures:
    def test_permuted_multisets_share_signature(self):
        a = ExecutionOutcome(STATUS_OK, [(1,), (2,), (1,)], 1, None)
        b = ExecutionOutcome(STATUS_OK, [(2,), (1,), (1,)], 1, None)
        assert result_signature(a) == result_signature(b)

    def test_failure_statuses_distinguished(self):
        err = ExecutionOutcome(STATUS_SQL_ERROR, None, 0, "boom")
        timeout = ExecutionOutcome(STATUS_TIMEOUT, None, 0, "slow")
        empty = ExecutionOutcome(STATUS_EMPTY, None, 0, None)
        digests = {result_signature(o) for o in (err, timeout, empty)}
        assert len(digests) == 3

    def test_big_integers_one_apart_differ(self):
        # 2^60 / REL_TOL and (2^60 + 1) / REL_TOL round to one float
        a = ExecutionOutcome(STATUS_OK, [(2**60,)], 1, None)
        b = ExecutionOutcome(STATUS_OK, [(2**60 + 1,)], 1, None)
        assert not compare_results(a, b, False)
        assert result_signature(a) != result_signature(b)

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
            a = ExecutionOutcome(STATUS_OK, rows, n_cols, None)
            b = ExecutionOutcome(STATUS_OK, other, n_cols, None)
            sig_equal = result_signature(a) == result_signature(b)
            cmp_equal = compare_results(a, b, False)
            assert sig_equal == cmp_equal
            agreements += 1
        assert agreements == 1000


_cell = st.one_of(
    st.none(),
    st.integers(min_value=-50, max_value=50),
    st.sampled_from([2**60, 2**60 + 1]),  # one grid point apart when divided as floats
    # the last five are off the tolerance grid; the two finite ones are within tolerance
    st.sampled_from([0.0, 0.5, 1.25, -2.75, 100.0, math.inf, -math.inf, 1e303, 1.0000001e303, math.nan]),
    st.text(alphabet="abc ", max_size=4),
)


def _outcome_from_rows(rows, n_cols):
    return ExecutionOutcome(STATUS_OK, rows, n_cols, None)


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

    @settings(max_examples=300)
    @given(st.data())
    def test_equals_the_sort_and_walk(self, data):
        # pairs of one multiset in two orders, with cells nudged within tolerance, and unrelated pairs
        a = data.draw(_outcomes())
        if data.draw(st.booleans()):
            rows = data.draw(st.permutations(a.rows))
            nudge = data.draw(st.sampled_from([0.0, 1e-7, -1e-7]))
            rows = [tuple(c + nudge if type(c) is float else c for c in row) for row in rows]
            b = _outcome_from_rows(rows, a.column_count)
        else:
            b = data.draw(_outcomes())
        for sensitive in (False, True):
            assert compare_results(a, b, sensitive) == sort_and_walk(a, b, sensitive)

    @given(_outcomes(), _outcomes())
    def test_signature_equality_implies_compare(self, a, b):
        if result_signature(a) == result_signature(b):
            assert compare_results(a, b, False)

    @pytest.mark.parametrize("nan", [lambda: math.nan, lambda: float("nan")], ids=["one_nan_object", "fresh_nans"])
    def test_nan_rows_at_the_chunk_size(self, nan):
        # found by hypothesis: with one NaN object the equal-keys fast path passed on identity while a cell-by-cell
        # walk said unequal; with fresh NaN objects the signatures were equal while compare_results said unequal
        rows = [(nan(),) if i % 2 else (0.0,) for i in range(_FORMAT_CHUNK_ROWS)]
        a = _outcome_from_rows(rows, 1)
        b = _outcome_from_rows(random.Random(3).sample(rows, len(rows)), 1)
        assert result_signature(a) == result_signature(b)
        for sensitive in (False, True):
            assert compare_results(b, a, sensitive) == sort_and_walk(b, a, sensitive)
        assert compare_results(b, a, False) and compare_results(a, a, True)
        # NaN sorts apart from ±inf, against which it does not order, so a multiset of both equals its permutations
        c, d = _outcome_from_rows([(nan(),), (math.inf,)], 1), _outcome_from_rows([(math.inf,), (nan(),)], 1)
        assert compare_results(c, d, False) and result_signature(c) == result_signature(d)
        assert not compare_results(c, d, True)


# digests computed by the cell-at-a-time canonical form that preceded the column-wise one;
# a change to any of them changes every recorded pool signature. The two cases with blob cells
# are re-pinned since blobs are digested inside their canonical key: each is the digest the old
# form gave once execute_sql had replaced every blob by its 16-byte sha256 prefix, which is
# what a recorded result of a real query held (TestBlobIdentity pins that the two agree)
_BLOB_A = bytes(range(16))
_BLOB_B = bytes(range(255, 239, -1))
PINNED_SIGNATURES = {
    "int": (
        [(3,), (-1,), (2**52 - 1,), (0,), (3,)],
        "a05eac54a643bb2c89c30a3af979a192ab3236acbf5834f2f8e7e1490d71a34b",
    ),
    "real": (
        [(0.5,), (-0.0,), (1.25,), (3.3333333,), (1e-7,)],
        "2fec99ab3f5fb18c74ac1e91a3c8fb485e8ab302db7f4d2bb789a8fbb7d4cf05",
    ),
    "text": (
        [("b ",), ("a'\"\\",), ("é",), ("",), (" a",)],
        "c0fb4a6de2d905d40a15969ec6b56319551f7b745c07023fae6a0cfe82940cb6",
    ),
    "null_and_blob": (
        [(None, _BLOB_B), (None, _BLOB_A)],
        "e7ba31b375941159fd44753f2635a2a364fb8402b88ce336a8d7d2f893235552",
    ),
    "int_beyond_2_52": (
        [(2**60 + 1,), (2**52,), (-(2**52),), (2**60,)],
        "33ade901affa56c24bf0dceccdd55baa5a4cdb9473598cd835e9c5804d62f650",
    ),
    "off_grid_real": (
        [(math.inf,), (1e303,), (-math.inf,)],
        "a40f86a4ad80b48a3c4c756e3bfd35c7033d34fde63d6f95326fc45c29dfabe4",
    ),
    "mixed": (
        [(1,), (0.5,), ("a ",), (None,), (2**60,), (math.inf,), (_BLOB_A,)],
        "5177b0769a56da19cd96a118390c1fe574934b27dad655bf398bed7f0b39f55c",
    ),
    "three_columns": (
        [(2, 0.25, "x"), (1, 0.5, "y "), (2, 0.25, "x")],
        "bea60434ae6ed7f218d19c6121f8235c2970e8d15e1b220332ec4a0f5eb987c5",
    ),
}


@pytest.mark.parametrize("name", PINNED_SIGNATURES)
def test_pinned_signatures(name):
    rows, digest = PINNED_SIGNATURES[name]
    assert result_signature(_outcome_from_rows(rows, len(rows[0]))) == digest


class TestBlobIdentity:
    """Real queries with blob cells sign, sort and compare as when execute_sql replaced each blob by a digest.

    The values were computed by that code, which digested blobs after the fetch and keyed the digest's hex.
    """

    BLOB_DB = [
        "CREATE TABLE t_blob (k INTEGER, b BLOB)",
        "INSERT INTO t_blob VALUES (1, x'00ff'), (2, x''), (3, x'0a0b0c'), (4, x'00ff'), (5, NULL), (6, x'ff')",
    ]

    def test_a_blob_beside_an_integer(self, misc_db):
        outcome = run_sql(misc_db, "SELECT x'00ff' UNION ALL SELECT 1")
        assert result_signature(outcome) == "becf436e9040d2f2af2bae75c5434f52f6ed39cffb07a9be5fbf2263a16fc0fc"

    def test_a_blob_table_ordered_and_unordered(self, db_factory):
        db = db_factory(self.BLOB_DB)
        ordered = run_sql(db, "SELECT b, k FROM t_blob ORDER BY b, k")
        unordered = run_sql(db, "SELECT b, k FROM t_blob ORDER BY k DESC")
        blobs_only = run_sql(db, "SELECT b FROM t_blob WHERE k IN (1, 4, 6)")
        for outcome in (ordered, unordered):
            assert result_signature(outcome) == "cc55ad9885da405c1630e49fc3d12956308b013160646fda1821b825e40de06a"
            # the canonical order: NULL first, then the blobs by digest, the two x'00ff' by k
            assert [row[1] for row in _sorted_rows(outcome.rows)[0]] == [5, 1, 4, 3, 6, 2]
        assert result_signature(blobs_only) == "903a1da32ce3dae883307f308be50f90ae8c3218e36be3fe7866fb59cc7415c9"
        assert compare_results(ordered, unordered, False) and compare_results(unordered, unordered, True)
        assert not compare_results(ordered, unordered, True)


_BOUNDARY_INTS = [2**52 - 1, -(2**52 - 1), 2**52, -(2**52), 2**60, 2**60 + 1]
# the exact-product bound of integer grid keys, and an integer above it whose rounded quotient is not the product
_NEAR_2_39 = 847_659_001_723
_PRODUCT_BOUNDARY_INTS = [2**31 - 1, -(2**31 - 1), 2**31, -(2**31), _NEAR_2_39, -_NEAR_2_39]
# characters that rstrip() removes, so text ending in one keys differently from its cell
_TRAILING_BLANKS = [" ", "\t", "\x1f", "\u3000"]
_KIND_CELLS = {
    "int": st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.sampled_from(_BOUNDARY_INTS + _PRODUCT_BOUNDARY_INTS),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
    ),
    "real": st.one_of(
        st.sampled_from([0.5, 0.0, -0.0, 1e303, 1.0000001e303, math.inf, -math.inf, math.nan]),
        st.floats(),
    ),
    "text": st.text(alphabet="ab '\"\\é%r{}", max_size=4),
    # integers at and just inside the exact-product bound, whose columns may sort as their rows
    "product_int": st.one_of(st.integers(min_value=-3, max_value=3), st.sampled_from(_PRODUCT_BOUNDARY_INTS[:4])),
    # product-bound integers of one sign, whose columns hold no zero and are signed without scaling
    "positive_product_int": st.one_of(st.integers(min_value=1, max_value=3), st.just(2**31 - 1)),
    "negative_product_int": st.one_of(st.integers(min_value=-3, max_value=-1), st.just(-(2**31 - 1))),
    # text that mostly keeps its trailing characters under rstrip(), and sometimes ends in a blank
    "blank_text": st.builds(
        str.__add__, st.text(alphabet="ab\u3000", max_size=3), st.sampled_from(["", "", "", *_TRAILING_BLANKS])
    ),
    "null": st.none(),
    "blob": st.binary(min_size=16, max_size=16),
}
_any_kind_cell = st.one_of(*_KIND_CELLS.values())


@st.composite
def _kinded_outcomes(draw):
    """Results whose columns each hold one kind of cell or a mix; zero rows and zero-width rows too."""
    n_cols = draw(st.integers(min_value=0, max_value=3))
    n_rows = draw(st.integers(min_value=0, max_value=6))
    columns = [
        draw(st.lists(draw(st.sampled_from([*_KIND_CELLS.values(), _any_kind_cell])), min_size=n_rows, max_size=n_rows))
        for _ in range(n_cols)
    ]
    rows = list(zip(*columns)) if n_cols else [()] * n_rows
    return _outcome_from_rows(rows, n_cols)


def reference_digest(outcome: ExecutionOutcome) -> str:
    """The signature as the cell-at-a-time form defines it: the hex digest of the repr of the sorted row-key list."""
    keys = sorted(_row_key(r) for r in outcome.rows)
    return hashlib.sha256((f"ok:{outcome.column_count}:" + repr(keys)).encode()).hexdigest()


class TestColumnWiseCanonicalForm:
    @settings(max_examples=400)
    @given(_kinded_outcomes())
    def test_signature_hashes_the_reference_form(self, outcome):
        assert result_signature(outcome) == reference_digest(outcome)

    @settings(max_examples=400)
    @given(_kinded_outcomes())
    def test_sort_is_the_reference_permutation(self, outcome):
        # compared by identity: rows holding NaN are not == to themselves
        expected = sorted(outcome.rows, key=_row_key)
        assert list(map(id, _sorted_rows(outcome.rows)[0])) == list(map(id, expected))


class TestSignatureFormatting:
    """Integer grid keys by exact product, and the chunked %-template pass, against the reference repr."""

    def test_rounded_quotient_leaves_the_product_above_the_bound(self):
        # below 2^31 the rounded quotient is provably the product; above, it may not be
        for x in _PRODUCT_BOUNDARY_INTS[:2]:
            assert _canonical_cell(x) == (1, x * 10**6)
        assert round(_NEAR_2_39 / REL_TOL) != _NEAR_2_39 * 10**6

    @pytest.mark.parametrize("x", _PRODUCT_BOUNDARY_INTS)
    def test_integer_columns_at_the_product_bound(self, x):
        for rows in ([(x,), (0,), (-1,)], [(x, 7), (x - 1, -7)], [(x,), (2**31 - 2,)]):
            outcome = _outcome_from_rows(rows, len(rows[0]))
            assert result_signature(outcome) == reference_digest(outcome)

    @pytest.mark.parametrize(
        "column, suffixed",
        [
            ([5, 1, 3], True),
            ([-5, -1, -3], True),
            ([2**31 - 1, 1, 2**31 - 2], True),
            ([-(2**31 - 1), -1], True),
            ([0], False),
            ([7, 0, 3], False),
            ([-(2**31 - 1), 2**31 - 1], False),
        ],
        ids=["no_zero", "all_negative", "at_plus_bound", "at_minus_bound", "single_zero", "holding_zero", "both_signs"],
    )
    @pytest.mark.parametrize("n_rows", [1, _FORMAT_CHUNK_ROWS, _FORMAT_CHUNK_ROWS + 1])
    def test_integer_columns_beside_text_and_reals(self, column, suffixed, n_rows):
        # a product-bound integer column whose cells share one sign is formatted unscaled with the grid's zeros appended
        assert (executor._column_form(tuple(column))[2] == executor._SUFFIXED_INT) is suffixed
        cells = [column[i % len(column)] for i in range(n_rows)]
        for rows in (
            [(c,) for c in cells],
            [(c, f"t{i % 3}", i % 4) for i, c in enumerate(cells)],
            [(f"%d{i % 2}", c, -1 - i) for i, c in enumerate(cells)],
            [(c, 0.5 * (i % 3)) for i, c in enumerate(cells)],
        ):
            outcome = _outcome_from_rows(rows, len(rows[0]))
            assert result_signature(outcome) == reference_digest(outcome)

    def test_text_holding_format_characters(self):
        texts = ["%", "%r", "%%", "{}", "{0} %s %d", "%(a)s", "100% "]
        for rows in ([(t,) for t in texts], [(i, t, 0.5) for i, t in enumerate(texts)]):
            outcome = _outcome_from_rows(rows, len(rows[0]))
            assert result_signature(outcome) == reference_digest(outcome)

    @pytest.mark.parametrize("extra", [-1, 0, 1, _FORMAT_CHUNK_ROWS + 1])
    def test_results_across_chunk_boundaries(self, extra):
        n = _FORMAT_CHUNK_ROWS + extra
        rows = [(i % 7, f"%r{i % 5}", None if i % 3 else 0.5, 2**31 + i) for i in range(n)]
        outcome = _outcome_from_rows(rows, 4)
        assert result_signature(outcome) == reference_digest(outcome)

    @settings(max_examples=300)
    @given(_kinded_outcomes(), st.integers(min_value=1, max_value=3))
    def test_any_chunk_size_hashes_the_reference_form(self, outcome, chunk_rows):
        with mock.patch.object(executor, "_FORMAT_CHUNK_ROWS", chunk_rows):
            assert result_signature(outcome) == reference_digest(outcome)


class TestRowsThatSortAsKeys:
    """Results whose every column sorts as its cells: integers inside ±2^31 and text that rstrip() keeps."""

    @pytest.mark.parametrize(
        "rows, as_rows",
        [
            ([(2**31 - 1,), (-(2**31 - 1),), (0,)], True),
            ([(2**31,), (0,)], False),
            ([(-(2**31),), (0,)], False),
            ([(_NEAR_2_39,)], False),
            ([("a b",), ("a\u3000b",), ("",)], True),
            *[([("a",), ("b" + blank,)], False) for blank in _TRAILING_BLANKS],
            ([(1, "a"), (1, "a")], True),
            ([(1, 0.5)], False),
            ([(1,), (None,)], False),
            ([(1,), ("a",)], False),
            ([(_BLOB_A,)], False),
            ([(), ()], True),
            ([], True),
        ],
    )
    def test_which_results_sort_as_rows(self, rows, as_rows):
        # keys of None mean the rows were sorted as they are, with no key list
        assert (_sorted_rows(rows)[1] is None) is as_rows
        assert _sorted_rows(rows)[0] == sorted(rows, key=_row_key)

    @settings(max_examples=40)
    @given(st.data())
    def test_repeating_rows_at_the_chunk_size(self, data):
        # 1,024 or 1,025 rows of one or two columns, each cell one of a few values, so that rows repeat
        rnd = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
        n_rows = data.draw(st.sampled_from([_FORMAT_CHUNK_ROWS, _FORMAT_CHUNK_ROWS + 1]))
        pools = [
            data.draw(st.lists(data.draw(st.sampled_from(list(_KIND_CELLS.values()))), min_size=1, max_size=4))
            for _ in range(data.draw(st.integers(min_value=1, max_value=2)))
        ]
        rows = [tuple(rnd.choice(pool) for pool in pools) for _ in range(n_rows)]
        outcome = _outcome_from_rows(rows, len(pools))
        shuffled = _outcome_from_rows(rnd.sample(rows, len(rows)), len(pools))
        assert result_signature(outcome) == reference_digest(outcome)
        for order_sensitive in (False, True):
            assert compare_results(shuffled, outcome, order_sensitive) == sort_and_walk(shuffled, outcome, order_sensitive)
        assert list(map(id, _sorted_rows(rows)[0])) == list(map(id, sorted(rows, key=_row_key)))

    @pytest.mark.parametrize(
        "a, b",
        [
            ([(1,)], [(1.0,)]),
            ([(1,), (2,)], [(2.0000001,), (1,)]),
            *[([("a",), ("b",)], [("b",), ("a" + blank,)]) for blank in _TRAILING_BLANKS],
            ([(1, "a"), (2, "b")], [(2, "b\t"), (1.0, "a")]),
        ],
    )
    def test_one_side_sorting_as_rows_still_compares_by_cells(self, a, b):
        a, b = _outcome_from_rows(a, len(a[0])), _outcome_from_rows(b, len(b[0]))
        assert _sorted_rows(a.rows)[1] is None and _sorted_rows(b.rows)[1] is not None
        assert compare_results(a, b, False) and compare_results(b, a, False)

    @settings(max_examples=300)
    @given(st.data())
    def test_pairs_in_which_one_side_sorts_as_rows(self, data):
        # a result of product-bound integers and text that rstrip() keeps, against a permutation whose cells may turn
        # into an equal or nearby float, gain a trailing blank or change
        n_rows = data.draw(st.integers(min_value=1, max_value=6))
        columns = [
            data.draw(st.lists(data.draw(st.sampled_from(_QUALIFYING_CELLS)), min_size=n_rows, max_size=n_rows))
            for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
        ]
        a = _outcome_from_rows(list(zip(*columns)), len(columns))
        b_rows = [tuple(data.draw(_altered(c)) for c in row) for row in data.draw(st.permutations(a.rows))]
        b = _outcome_from_rows(b_rows, len(columns))
        for x, y in ((a, b), (b, a)):
            for order_sensitive in (False, True):
                assert compare_results(x, y, order_sensitive) == sort_and_walk(x, y, order_sensitive)
            if result_signature(x) == result_signature(y):
                assert compare_results(x, y, False)
            assert result_signature(x) == reference_digest(x)
            assert list(map(id, _sorted_rows(x.rows)[0])) == list(map(id, sorted(x.rows, key=_row_key)))

    def test_signing_large_results_builds_no_key_list(self):
        # per-row keys for 20,000 rows took about 3.5 MB of traced allocations; the rows' own sort and one chunk of
        # formatted text take well under half of that
        integers = [(i % 97, i, (i * 7919) % 20011 - 10000) for i in range(20_000)]
        texts = [(f"name{i * 7919 % 5003}", f"city {i % 307}") for i in range(20_000)]
        for rows in (integers, texts):
            outcome = _outcome_from_rows(rows, len(rows[0]))
            tracemalloc.start()
            try:
                result_signature(outcome)
                for order_sensitive in (False, True):
                    compare_results(outcome, outcome, order_sensitive)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_500_000


_QUALIFYING_CELLS = [
    st.one_of(st.integers(min_value=-3, max_value=3), st.sampled_from(_PRODUCT_BOUNDARY_INTS[:2])),
    st.text(alphabet="ab\u3000%", max_size=3).filter(lambda s: s == s.rstrip()),
]


def _altered(cell):
    """The cell, or one that may no longer sort as its key: equal and nearby floats, trailing blanks, changed text."""
    if type(cell) is int:
        return st.sampled_from([cell, cell, float(cell), cell + 1e-7, cell + 1])
    return st.sampled_from([cell, cell, *(cell + blank for blank in _TRAILING_BLANKS), cell + "a"])
