"""Sandboxed SQL execution and execution-accuracy result comparison.

Queries run read-only with a wall-clock limit. SQLite calls the progress
handler once every _PROGRESS_STEP (100,000) VM instructions, and the handler
interrupts the statement once the limit has passed; so a runaway query stops
one tick after its deadline, whether it streams rows or not, while a short
query calls back into Python, which must take the GIL, a few times at most.
Results are compared positionally, as row sequences when the gold query orders
its output and as row multisets otherwise; numeric cells use a relative
tolerance.

Rows are fetched _FETCH_CHUNK_ROWS at a time, each chunk under one
module-level lock. ``sqlite3`` gives up the GIL for every row step and takes
it back for the row, so two threads fetching at once hand the GIL to each
other once per row, which costs both of them CPU; under the lock one fetches
while the others wait without the GIL. ``cursor.execute`` stays outside the
lock: its first step, which plans the query and runs a whole GROUP BY
aggregation, returns no row until it ends, so it overlaps with other
threads' work. The lock must never be held through a long step, or a
runaway query would stall every other fetch until its deadline. So the
progress handler, which runs in the fetching thread, releases the lock if
that call holds it. A tick means the statement ran another _PROGRESS_STEP
instructions (a 20k-row fetch ticks a few times), and during a step that
returns no row there is no per-row handoff to guard against. The rest of
that chunk is fetched without the lock and the next chunk takes it again,
so a query that streams rows until its limit or the row cap also lets the
waiting threads in at each tick.

An ``ItemReader`` holds the one read-only connection that the queries of one
item share: it opens on the item's first query and closes when the item ends,
so the item pays for opening the database and parsing its schema once rather
than per statement. Only a statement whose first keyword, after whitespace and
comments, is SELECT, WITH or VALUES runs at all; any other text (PRAGMA,
ATTACH, BEGIN, EXPLAIN, a comment alone, ...) is a failed execution with the
NOT_A_QUERY message and opens no connection, so no statement can change the
connection state that a later query's result depends on.

``ItemReader.program`` lists a query's compiled program with ``EXPLAIN`` on
that connection. Strings with one program return one result, so an item's
judge executes, compares and signs each distinct compiled program once
(``pipeline.item_judge``). A string has no program, and is judged by itself,
when it is empty or not a query, when EXPLAIN fails, and when its program
holds a literal that EXPLAIN lists lossily (a REAL or a blob).

A result's signature is the hex sha256 of its canonical form: ``ok:<column
count>:`` followed by the repr of the sorted list of its row keys, where a row
key is the tuple of its cells' ``(type tag, value)`` keys, numbers sit on
the tolerance grid and a blob's value is a digest of its bytes. Row order
does not enter it. The selector clusters on it, and records store it. The
form is built a column at a time and formatted by one ``%`` template per
chunk of rows, with the bytes of that repr. A failed execution hashes its
status instead.

When every column holds only integers inside ±EXACT_PRODUCT_BOUND or only text
that ``rstrip()`` leaves unchanged, cells order and compare as their keys do.
Such a result is sorted as its rows, with no key list, and an unordered
comparison of two such results compares the sorted rows with ``==``. Its
signature formats the cells themselves: an integer x other than 0 has the key
x * _GRID_STEPS, which prints as x followed by six zeros, so the field of an
integer column whose cells share one sign appends them to the unscaled cell.
Only an integer column with cells of both signs or a zero is scaled, one chunk
at a time, while formatting. Digests and verdicts are those of the key path,
and the keys that comparisons use stay scaled, so that gold and prediction
keys are on one grid.
"""

from __future__ import annotations

import hashlib
import math
import re
import sqlite3
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from operator import eq, itemgetter, mul, truediv

from .corpus import DatabaseHandle

STATUS_OK = "ok"
STATUS_SQL_ERROR = "sql_error"
STATUS_TIMEOUT = "timeout"
STATUS_EMPTY = "empty_prediction"

# |x - y| <= REL_TOL * max(1, |x|, |y|) for real-valued cells
REL_TOL = 1e-6
# from 2^52 on, x / REL_TOL in floating point puts consecutive integers on one grid
# point; such integers get their exact grid position, which keeps the numeric sort order
EXACT_INT_FLOOR = 2**52
_GRID_STEPS = round(1 / REL_TOL)
# x / REL_TOL carries a relative error of at most 2^-52 (one rounding of REL_TOL, one of the
# division), so for |x| < 2^31 it lies within 2^31 * 10^6 * 2^-52 < 0.48 of x * 10^6 and
# round() lands on x * _GRID_STEPS exactly; such integers take the product, which is cheaper.
# Near 2^39 the two first disagree, so larger integers keep the rounded quotient.
EXACT_PRODUCT_BOUND = 2**31
# a result of more rows than this fails at its first row over, whatever the time limit
ROW_CAP = 100_000
# VM instructions between progress-handler ticks; each tick waits for the GIL
_PROGRESS_STEP = 100_000
# rows fetched per fetchmany call, the unit of work done under _FETCH_LOCK
_FETCH_CHUNK_ROWS = 1024
# held by the thread that fetches a chunk of rows, so that two fetching threads do not hand the GIL to each other
# once per row; a progress-handler tick releases it (see the module docstring)
_FETCH_LOCK = threading.Lock()
# %-fields of numeric keys: a grid value, and an integer cell other than 0, whose grid value is the cell times
# _GRID_STEPS, a power of ten, and so prints as the cell's digits followed by the power's zeros
_GRID_FIELD = "(1, %d)"
_SUFFIXED_INT = "(1, %d" + str(_GRID_STEPS)[1:] + ")"
# rows formatted per % pass when signing a result: bounds the transient template and argument
# tuple, and the GIL can change hands between passes
_FORMAT_CHUNK_ROWS = 1024

DEFAULT_TIMEOUT_SECONDS = 30.0
# the error message of a statement that is not a query; it runs on no connection
NOT_A_QUERY = "not a query: only SELECT, WITH and VALUES statements run"


@dataclass
class ExecutionOutcome:
    status: str
    rows: list[tuple] | None
    column_count: int
    error_message: str | None
    row_count: int | None = None  # survives serialization after rows are dropped

    def __post_init__(self):
        if self.rows is not None:
            self.row_count = len(self.rows)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


# whitespace and comments, then a keyword that only a query starts with; each comment form
# matches in one way only, so a failed match cannot backtrack through alternative splits
_QUERY_START = re.compile(r"(?:\s|--[^\n]*\n|/\*(?:[^*]|\*(?!/))*\*/)*(?:SELECT|WITH|VALUES)\b", re.I)


# opcodes whose P4 operand EXPLAIN lists lossily: a Real prints with 16 significant digits (0.1 and
# 0.10000000000000002 both list as '0.1'), and a blob literal's bytes print as text cut at the first NUL. A Blob
# with no P4 is a zero-filled buffer of P1 bytes, such as a join's Bloom filter, and lists exactly
_LOSSY_OPCODES = ("Real", "Blob")


class ItemReader:
    """One read-only connection shared by the queries of one item.

    ``execute_sql`` runs every query on it, and ``program`` lists their
    compiled programs. The connection opens on the first query and closes
    when the ``with`` block that holds the reader ends.
    """

    def __init__(self, handle: DatabaseHandle):
        self._handle = handle
        self._conn: sqlite3.Connection | None = None

    def connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = self._handle.connect()
        return self._conn

    def program(self, sql: str | None) -> tuple | None:
        """The statement's compiled program as ``EXPLAIN`` lists it, or None when the listing cannot stand for it.

        Two statements with one listing return the same result on one
        database: the listing holds every opcode and operand, but no alias,
        column name, comment or layout. It is None, and the statement must
        be judged by itself, when the text is empty or not a query (no
        connection opens and no EXPLAIN runs), when EXPLAIN fails (the
        statement's own execution then reports the error), and when the
        program holds a literal that the listing prints lossily
        (_LOSSY_OPCODES).
        """
        if sql is None or not _QUERY_START.match(sql):
            return None
        try:
            cursor = self.connection().execute("EXPLAIN " + sql)
            try:
                listing = cursor.fetchall()
            finally:
                cursor.close()
        except (sqlite3.Error, sqlite3.Warning, OverflowError, ValueError):
            return None
        if any(op[1] in _LOSSY_OPCODES and op[5] is not None for op in listing):
            return None
        return tuple(listing)

    def __enter__(self) -> "ItemReader":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def execute_sql(
    reader: ItemReader, sql: str | None, timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS
) -> ExecutionOutcome:
    """Run one query on the reader's connection, read-only with a hard wall-clock limit.

    Cells come back as SQLite gave them, blobs included. Text that is not a
    query is a sql_error with the NOT_A_QUERY message, before any connection
    opens; a query that writes (``WITH ... DELETE``) is rejected by the
    read-only connection and surfaces as sql_error too. A result of more
    than ROW_CAP rows is a sql_error at its first row over the cap, whatever
    the limit; a timeout is a query whose limit passed first. The
    statement's cursor is closed and the progress handler cleared
    afterwards, so the next query starts as it would on a fresh connection.
    """
    if sql is None or not sql.strip():
        return ExecutionOutcome(STATUS_EMPTY, None, 0, "empty prediction")
    if not _QUERY_START.match(sql):
        return ExecutionOutcome(STATUS_SQL_ERROR, None, 0, NOT_A_QUERY)
    start = time.monotonic()
    try:
        conn = reader.connection()
    except sqlite3.Error as exc:
        return ExecutionOutcome(STATUS_SQL_ERROR, None, 0, str(exc))
    timed_out = False
    holds_lock = False

    def _tick():
        nonlocal timed_out, holds_lock
        # the statement has run another _PROGRESS_STEP instructions: let the other threads fetch meanwhile
        if holds_lock:
            holds_lock = False
            _FETCH_LOCK.release()
        if time.monotonic() - start > timeout_seconds:
            timed_out = True
            return 1
        return 0

    conn.set_progress_handler(_tick, _PROGRESS_STEP)
    cursor = conn.cursor()
    try:
        cursor.execute(sql)
        rows: list[tuple] = []
        while True:
            _FETCH_LOCK.acquire()
            holds_lock = True
            try:
                chunk = cursor.fetchmany(_FETCH_CHUNK_ROWS)
            finally:
                if holds_lock:
                    holds_lock = False
                    _FETCH_LOCK.release()
            if not chunk:
                break
            rows.extend(chunk)
            if len(rows) > ROW_CAP:
                return ExecutionOutcome(STATUS_SQL_ERROR, None, 0, f"result too large (more than {ROW_CAP} rows)")
        column_count = len(cursor.description) if cursor.description else 0
        return ExecutionOutcome(STATUS_OK, rows, column_count, None)
    except (sqlite3.Error, sqlite3.Warning, OverflowError, ValueError) as exc:
        if timed_out:
            return ExecutionOutcome(STATUS_TIMEOUT, None, 0, f"timed out after {timeout_seconds}s")
        return ExecutionOutcome(STATUS_SQL_ERROR, None, 0, str(exc))
    finally:
        cursor.close()
        conn.set_progress_handler(None, 0)


# string literals, quoted identifiers and comments: none of them can hold the outer ORDER BY. A block comment
# with no closing */ runs to the end of the input, as SQLite reads it
_NOT_CLAUSE_TEXT = re.compile(
    r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\"|`(?:[^`]|``)*`|\[[^\]]*\]|--[^\n]*|/\*.*?(?:\*/|\Z)", re.S
)


def is_order_sensitive(gold_sql: str) -> bool:
    """True iff the outermost query carries an ORDER BY clause.

    A textual scan for ORDER BY at parenthesis depth zero, outside literals,
    quoted identifiers and comments; it never fails, even on text the
    diagnoser's parser rejects.
    """
    depth = 0
    for match in re.finditer(r"[()]|\bORDER\s+BY\b", _NOT_CLAUSE_TEXT.sub(" ", gold_sql), flags=re.I):
        tok = match.group(0)
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif depth == 0:
            return True
    return False


def _is_number(cell) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def cells_equal(a, b) -> bool:
    """Cell equality: ints exact, finite reals tolerant, text after trailing-space strip.

    A non-finite real equals only itself, and NaN equals NaN: signatures hash
    every NaN alike, so equal signatures still imply equal results.
    """
    if a is None or b is None:
        return a is None and b is None
    if _is_number(a) and _is_number(b):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        if not (math.isfinite(a) and math.isfinite(b)):
            return a == b or (a != a and b != b)  # only NaN is unequal to itself
        return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))
    if isinstance(a, str) and isinstance(b, str):
        return a.rstrip() == b.rstrip()
    if isinstance(a, bytes) and isinstance(b, bytes):
        return a == b
    return False


def _canonical_cell(cell):
    # type tag first so mixed-type columns sort deterministically
    if cell is None:
        return (0, "")
    if _is_number(cell):
        if isinstance(cell, int) and abs(cell) >= EXACT_INT_FLOOR:
            return (1, cell * _GRID_STEPS)
        grid = cell / REL_TOL
        if math.isfinite(grid):
            return (1, round(grid))
        if cell != cell:
            return (5, "")  # NaN orders against no number, so it sorts under a tag of its own
        # off the tolerance grid (±inf, |x| above ~1.8e302): the exact value, own tag
        return (4, cell)
    if isinstance(cell, str):
        return (2, cell.rstrip())
    # a blob keys as the hex of its sha256's first 16 bytes, so a long blob costs its key 32 characters
    return (3, hashlib.sha256(cell).hexdigest()[:32])


def _column_form(column: tuple) -> tuple[str, map, str | None]:
    """%-format field and sort values of one result column, and the field for its cells when they sort as those values.

    The field formats a sort value as repr(_canonical_cell(cell)). In a
    numeric column on the tolerance grid, or a text column, the type tag is
    constant, so the bare grid values or stripped texts sort like the tagged
    keys; any other column keeps the tagged keys. The cell field is None
    unless the cells themselves order and compare as their sort values do:
    integers inside ±EXACT_PRODUCT_BOUND, whose value is the cell times
    _GRID_STEPS, and text that rstrip() leaves unchanged, whose value is the
    cell. It is then the field that formats a cell as the repr of its key:
    _SUFFIXED_INT for an integer column whose cells share one sign, so that
    it holds no zero; _GRID_FIELD, whose cells are multiplied by _GRID_STEPS
    before formatting, for any other integer column; and the text field for
    text.
    """
    kinds = set(map(type, column))
    if kinds == {int}:
        low, high = min(column), max(column)
        if -EXACT_PRODUCT_BOUND < low and high < EXACT_PRODUCT_BOUND:
            cell_field = _SUFFIXED_INT if low > 0 or high < 0 else _GRID_FIELD
            return _GRID_FIELD, map(mul, column, repeat(_GRID_STEPS)), cell_field
        if -EXACT_INT_FLOOR < low and high < EXACT_INT_FLOOR:
            return _GRID_FIELD, map(round, map(truediv, column, repeat(REL_TOL))), None
    elif kinds == {float}:
        grid = list(map(truediv, column, repeat(REL_TOL)))
        if all(map(math.isfinite, grid)):
            return _GRID_FIELD, map(round, grid), None
    elif kinds == {str}:
        as_cells = all(map(eq, map(str.rstrip, column), column))
        return "(2, %r)", map(str.rstrip, column), "(2, %r)" if as_cells else None
    return "%r", map(_canonical_cell, column), None


def _row_template(fields: tuple[str, ...]) -> str:
    return "(" + ", ".join(fields) + ("," if len(fields) == 1 else "") + ")"


def _canonical_form(rows: list[tuple]) -> tuple[str, Iterator[tuple], tuple[str, ...] | None]:
    """Row template, lazy per-row sort keys, and the cell fields when the rows sort as their keys do, else None.

    Built a column at a time. Keys order rows as the tuples of their cells'
    canonical keys do, and template % key is the repr of that tuple. When
    every column's cells sort as their values (see ``_column_form``), rows
    order and compare as their keys, and the row template of the cell
    fields formats a row as the repr of its key once the cells of its
    columns with _GRID_FIELD are multiplied by _GRID_STEPS.
    """
    if not rows or not rows[0]:
        return "()", repeat((), len(rows)), ()
    # zip(*rows) holds an iterator per row while it transposes, which past one chunk of rows costs more memory
    # than one itemgetter pass per column; below that, it is the cheaper call
    if len(rows) <= _FORMAT_CHUNK_ROWS:
        columns = zip(*rows)
    else:
        columns = (tuple(map(itemgetter(i), rows)) for i in range(len(rows[0])))
    fields, values, cell_fields = zip(*map(_column_form, columns))
    return _row_template(fields), zip(*values), None if None in cell_fields else cell_fields


def _sorted_rows(rows: list[tuple]) -> tuple[list[tuple], list[tuple] | None]:
    """Rows in canonical order, and their keys in that order or None when the rows sorted as they are.

    A stable sort, so ties keep their input order; rows that sort as their
    keys do are sorted with no key list.
    """
    _, keys, cell_fields = _canonical_form(rows)
    if cell_fields is not None:
        return sorted(rows), None
    keys = list(keys)
    order = sorted(range(len(rows)), key=keys.__getitem__)
    return [rows[i] for i in order], [keys[i] for i in order]


def _rows_equal(a, b) -> bool:
    return len(a) == len(b) and all(cells_equal(x, y) for x, y in zip(a, b))


def compare_results(pred: ExecutionOutcome, gold: ExecutionOutcome, order_sensitive: bool) -> bool:
    """Execution-accuracy comparison of a predicted result against the gold result.

    Positional: column order matters, column names do not. Row order matters
    only when order_sensitive. Requires equal column counts. Unordered
    results whose sorted canonical keys are equal are equal without a
    cell-by-cell walk: equal keys imply cells_equal cell by cell. When both
    sides sort as their rows (see ``_canonical_form``), equal rows are equal
    keys and unequal rows differ in some cell, so their sorted rows are
    compared with ``==``.
    """
    if gold.status != STATUS_OK:
        raise ValueError("gold outcome must have executed successfully")
    if pred.status != STATUS_OK:
        return False
    if pred.column_count != gold.column_count:
        return False
    assert pred.rows is not None and gold.rows is not None
    if len(pred.rows) != len(gold.rows):
        return False
    pred_rows, gold_rows = pred.rows, gold.rows
    if not order_sensitive:
        pred_rows, pred_keys = _sorted_rows(pred_rows)
        gold_rows, gold_keys = _sorted_rows(gold_rows)
        if pred_keys is None and gold_keys is None:
            return pred_rows == gold_rows
        # a side sorted as its rows is in canonical order: its keys in that order allow the equal-keys test
        if pred_keys is None:
            pred_keys = list(_canonical_form(pred_rows)[1])
        if gold_keys is None:
            gold_keys = list(_canonical_form(gold_rows)[1])
        if pred_keys == gold_keys:
            return True
    return all(_rows_equal(p, g) for p, g in zip(pred_rows, gold_rows))


def result_signature(outcome: ExecutionOutcome) -> str:
    """Hex digest of the canonical result form with its row keys sorted; distinct per failure status.

    Numeric cells are rounded onto the tolerance grid before hashing
    (integers from 2^52 on take their exact grid position; reals off the
    grid, such as ±inf, hash exactly, and every NaN alike), so equal
    signatures imply that an unordered compare_results agrees (up to hash
    collision). Row order does not change the signature.
    """
    hasher = hashlib.sha256()
    if outcome.status != STATUS_OK:
        hasher.update(b"status:" + outcome.status.encode())
    else:
        assert outcome.rows is not None
        hasher.update(f"ok:{outcome.column_count}:".encode())
        template, keys, cell_fields = _canonical_form(outcome.rows)
        if cell_fields is not None:
            # rows that sort as their keys stand in for them, formatted by their cell fields; only integer columns
            # whose cells do not share one sign are scaled, a chunk at a time
            keys = sorted(outcome.rows)
            template = _row_template(cell_fields)
            scaled = [i for i, field in enumerate(cell_fields) if field == _GRID_FIELD]
        else:
            keys, scaled = sorted(keys), []
        # repr of the key list, fed to the hash a chunk of rows at a time with one % pass per chunk
        hasher.update(b"[")
        for start in range(0, len(keys), _FORMAT_CHUNK_ROWS):
            chunk = keys[start : start + _FORMAT_CHUNK_ROWS]
            if scaled:
                columns = list(zip(*chunk))
                for i in scaled:
                    columns[i] = map(mul, columns[i], repeat(_GRID_STEPS))
                cells = chain.from_iterable(zip(*columns))
            else:
                cells = chain.from_iterable(chunk)
            text = ", ".join(repeat(template, len(chunk))) % tuple(cells)
            hasher.update(((", " if start else "") + text).encode())
        hasher.update(b"]")
    return hasher.hexdigest()
