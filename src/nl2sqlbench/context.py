"""Database-aware context construction: schema, annotated DDL, value retrieval, prompt.

The retrieval stage grounds generation in the concrete database: it inspects
the catalog, samples representative column values, scores the column literals
that share an indexed gram with the question to surface the values a query
will need, and renders everything into an annotated DDL block inside the
generation prompt.
"""

from __future__ import annotations

import csv
import logging
import math
import re
import sqlite3
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

from .corpus import BenchmarkItem, DatabaseHandle
from .errors import SchemaError

logger = logging.getLogger(__name__)

# value-retrieval knobs: see retrieve_values
NGRAM_MAX_WORDS = 4
MATCH_THRESHOLD = 0.6
DISTINCT_SAMPLE_LIMIT = 2000
MAX_LITERAL_LENGTH = 200
# characters per gram of the literal index: see index_literals
GRAM_LENGTH = 4
# distinct values extract_schema samples per column as DDL annotations
SAMPLE_VALUES_PER_COLUMN = 5
# rows of a table whose values extract_schema reads once for every column: see extract_schema
_SAMPLE_PROBE_ROWS = 64 * SAMPLE_VALUES_PER_COLUMN
# the names of a table's columns that some index holds, in any position
_INDEXED_COLUMNS = "SELECT i.name FROM pragma_index_list(?) AS l, pragma_index_info(l.name) AS i"

_TEXT_TYPE = re.compile(r"CHAR|TEXT|CLOB|STRING", re.I)
_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
# the 147 keywords of SQLite's keyword documentation (lang_keywords.html). The DDL quotes a name that is one of
# them, in any case, whether or not the linked SQLite reads it unquoted (3.40.1 rejects 59 of them as a table
# name), so that a prompt does not depend on the SQLite version
SQLITE_KEYWORDS = frozenset(
    """
    ABORT ACTION ADD AFTER ALL ALTER ALWAYS ANALYZE AND AS ASC ATTACH AUTOINCREMENT BEFORE BEGIN BETWEEN BY
    CASCADE CASE CAST CHECK COLLATE COLUMN COMMIT CONFLICT CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE
    CURRENT_TIME CURRENT_TIMESTAMP DATABASE DEFAULT DEFERRABLE DEFERRED DELETE DESC DETACH DISTINCT DO DROP
    EACH ELSE END ESCAPE EXCEPT EXCLUDE EXCLUSIVE EXISTS EXPLAIN FAIL FILTER FIRST FOLLOWING FOR FOREIGN FROM
    FULL GENERATED GLOB GROUP GROUPS HAVING IF IGNORE IMMEDIATE IN INDEX INDEXED INITIALLY INNER INSERT
    INSTEAD INTERSECT INTO IS ISNULL JOIN KEY LAST LEFT LIKE LIMIT MATCH MATERIALIZED NATURAL NO NOT NOTHING
    NOTNULL NULL NULLS OF OFFSET ON OR ORDER OTHERS OUTER OVER PARTITION PLAN PRAGMA PRECEDING PRIMARY QUERY
    RAISE RANGE RECURSIVE REFERENCES REGEXP REINDEX RELEASE RENAME REPLACE RESTRICT RETURNING RIGHT ROLLBACK
    ROW ROWS SAVEPOINT SELECT SET TABLE TEMP TEMPORARY THEN TIES TO TRANSACTION TRIGGER UNBOUNDED UNION
    UNIQUE UPDATE USING VACUUM VALUES VIEW VIRTUAL WHEN WHERE WINDOW WITH WITHOUT
    """.split()
)

PROMPT_TEMPLATE = """You are a data science expert. Below, you are provided with a database schema and a natural language question. Your task is to understand the schema and generate a valid SQL query to answer the question.

Database Engine:
{db_engine}

Database Schema:
{schema}
This schema describes the database's structure, including tables, columns, primary keys, foreign keys, and any relevant relationships or constraints.

Question:
{question}

Instructions:
- Make sure you only output the information that is asked in the question. If the question asks for a specific column, make sure to only include that column in the SELECT clause, nothing more.
- The generated query should return all of the information asked in the question without any missing or extra information.
- Before generating the final SQL query, please think through the steps of how to write the query.
- Note that while the reasoning process and SQL query need to be enclosed within <answer> </answer> tag, this should not affect the quality of the SQL generation.
- The answer must contain the SQL query within ```sql ``` tags.


Output Format:
<answer>
-- Your reasoning process here
```sql
-- Your SQL query
```
</answer>

Take a deep breath and think step by step to find the correct SQL query.
"""


@dataclass(frozen=True)
class ColumnInfo:
    name: str
    type: str
    description: str | None = None


@dataclass(frozen=True)
class TableInfo:
    name: str
    columns: tuple[ColumnInfo, ...]
    primary_key: tuple[str, ...] = ()
    foreign_keys: tuple[tuple[str, str, str], ...] = ()  # (local col, foreign table, foreign col)

    def __post_init__(self):
        names = {c.name for c in self.columns}
        for pk in self.primary_key:
            if pk not in names:
                raise SchemaError(f"table {self.name}: primary key column {pk!r} unknown")
        for local, _ft, _fc in self.foreign_keys:
            if local not in names:
                raise SchemaError(f"table {self.name}: foreign key column {local!r} unknown")


@dataclass(frozen=True)
class SchemaContext:
    """One database's catalog, and the values extract_schema sampled from it."""

    db_id: str
    tables: tuple[TableInfo, ...]
    # (table, column) -> sampled representative values
    sample_values: dict = field(default_factory=dict)


def read_catalog(db: DatabaseHandle, descriptions: dict | None = None) -> SchemaContext:
    """Read the live catalog into a SchemaContext: tables, columns, keys and descriptions; no samples."""
    conn = _connect(db)
    try:
        return _catalog(conn, db, descriptions or {})
    finally:
        conn.close()


def extract_schema(db: DatabaseHandle, descriptions: dict | None = None) -> SchemaContext:
    """Read the live catalog into a SchemaContext, with sampled column values.

    ``descriptions`` optionally maps (table, column) to free-text descriptions
    (see load_descriptions for the BIRD CSV layout). A column's samples are
    its SAMPLE_VALUES_PER_COLUMN smallest distinct non-NULL values in the
    column's collation, blobs dropped: the ones the full sort of the column
    gives, which keeps the first of collation-equal values in its scan order.

    Most columns are read without that sort. One statement per table reads
    its first _SAMPLE_PROBE_ROWS + 1 rows once, and returns how many it read
    and each column's smallest distinct values among them, P. When it read
    no more than _SAMPLE_PROBE_ROWS rows it read the whole table, and P
    settles every column. In a longer table a column with a full P runs one
    pruned scan: its values below P's largest that are not in P, sorted
    together with P. Every smaller value P missed is among them, and each
    value of P first occurs inside the prefix, so the full sort keeps that
    same one. The full sort still runs for a column that an index holds,
    since the sort may read the column in that index's order; for a column
    with fewer values in P; and for every column when the prefix statement
    fails (an SQLite before 3.35 lacks MATERIALIZED). A column whose query
    fails has none, with a warning.
    """
    conn = _connect(db)
    try:
        schema = _catalog(conn, db, descriptions or {})
        samples: dict = {}
        for table in schema.tables:
            for name, rows in _sample_table(conn, table).items():
                values = [v for v in rows if not isinstance(v, bytes)]
                if values:
                    samples[(table.name, name)] = values
    finally:
        conn.close()
    return replace(schema, sample_values=samples)


def _sample_table(conn: sqlite3.Connection, table: TableInfo) -> dict:
    """Column name -> the column's samples, blobs kept, read as extract_schema says; a failed column is missing."""
    source = _quote(table.name)
    prefix: dict = {}
    longer = True
    try:
        indexed = {name for (name,) in conn.execute(_INDEXED_COLUMNS, (table.name,))}
        names = [col.name for col in table.columns if col.name not in indexed]
        if names:
            rows = conn.execute(_prefix_statement(source, names), (_SAMPLE_PROBE_ROWS + 1,)).fetchall()
            longer = rows[0][1] > _SAMPLE_PROBE_ROWS
            prefix = {name: [] for name in names}
            for i, value in rows[1:]:
                prefix[names[i]].append(value)
    except sqlite3.Error:
        prefix = {}  # every column takes the full sort
    samples = {}
    for col in table.columns:
        column = _quote(col.name)
        values = prefix.get(col.name)
        try:
            if values is None or (longer and len(values) < SAMPLE_VALUES_PER_COLUMN):
                values = [v for (v,) in conn.execute(
                    f"SELECT DISTINCT {column} FROM {source} WHERE {column} IS NOT NULL ORDER BY 1 LIMIT ?",
                    (SAMPLE_VALUES_PER_COLUMN,),
                )]
            elif longer:
                # the prefix's values come sorted, so the last is the largest. Rows equal to another of them stay
                # out of the distinct pass through a chain of <>, which is NOT IN with the same collation and
                # affinity but cheaper per row than its lookup
                unequal = "".join(f" AND {column} <> ?" for _ in values[1:])
                values = [v for (v,) in conn.execute(
                    f"SELECT DISTINCT v FROM (SELECT {column} AS v FROM {source} WHERE {column} < ?{unequal} "
                    f"UNION ALL VALUES {', '.join('(?)' for _ in values)}) ORDER BY 1 LIMIT ?",
                    (values[-1], *values[:-1], *values, SAMPLE_VALUES_PER_COLUMN),
                )]
        except sqlite3.Error as exc:
            logger.warning("no example values for column %s.%s: %s", table.name, col.name, exc)
            continue
        samples[col.name] = values
    return samples


def _prefix_statement(source: str, names: list) -> str:
    """The prefix read of _sample_table: a row (-1, rows read), then (i, value) for column i's smallest values.

    The CTE's name starts with sqlite_, which no table's name can, so it
    hides no table the statement reads.
    """
    columns = [_quote(name) for name in names]
    arms = "".join(
        f" UNION ALL SELECT {i}, v FROM (SELECT DISTINCT {column} AS v FROM sqlite_prefix WHERE {column} IS NOT NULL "
        f"ORDER BY 1 LIMIT {SAMPLE_VALUES_PER_COLUMN})"
        for i, column in enumerate(columns)
    )
    return (
        f"WITH sqlite_prefix AS MATERIALIZED (SELECT {', '.join(columns)} FROM {source} LIMIT ?) "
        "SELECT -1, count(*) FROM sqlite_prefix" + arms
    )


def _connect(db: DatabaseHandle) -> sqlite3.Connection:
    try:
        return db.connect()
    except sqlite3.Error as exc:
        raise SchemaError(f"{db.db_id}: cannot open database: {db.path}: {exc}") from exc


def _catalog(conn: sqlite3.Connection, db: DatabaseHandle, descriptions: dict) -> SchemaContext:
    """The catalog read on ``conn``; the first read of a database, so a file that is not one fails here."""
    tables: list[TableInfo] = []
    try:
        names = [
            row[0]
            for row in conn.execute(
                # LIKE's _ matches any character, so it is escaped: a table named sqliteusers is the user's
                r"SELECT name FROM sqlite_master WHERE type = 'table' AND name NOT LIKE 'sqlite\_%' ESCAPE '\'"
            )
        ]
        for name in names:
            columns = []
            primary_key = []
            for _cid, col, ctype, _notnull, _default, pk in conn.execute(f"PRAGMA table_info({_quote(name)})"):
                columns.append(ColumnInfo(col, ctype or "", descriptions.get((name, col))))
                if pk:
                    primary_key.append((pk, col))
            primary_key = tuple(col for _order, col in sorted(primary_key))
            fks = []
            for row in conn.execute(f"PRAGMA foreign_key_list({_quote(name)})"):
                _id, _seq, ref_table, local, ref_col = row[0], row[1], row[2], row[3], row[4]
                fks.append((local, ref_table, ref_col or ""))
            tables.append(TableInfo(name, tuple(columns), primary_key, tuple(fks)))
    except sqlite3.Error as exc:
        raise SchemaError(f"{db.db_id}: catalog query failed: {db.path}: {exc}") from exc
    # resolve implicit foreign-key targets (REFERENCES t with no column = t's primary key)
    by_name = {t.name: t for t in tables}
    resolved = []
    for table in tables:
        fks = []
        for local, ref_table, ref_col in table.foreign_keys:
            if not ref_col and ref_table in by_name and by_name[ref_table].primary_key:
                ref_col = by_name[ref_table].primary_key[0]
            fks.append((local, ref_table, ref_col))
        resolved.append(replace(table, foreign_keys=tuple(fks)))
    return SchemaContext(db_id=db.db_id, tables=tuple(resolved))


def load_descriptions(db_dir) -> dict:
    """Read BIRD database_description CSVs into a (table, column) -> text map."""
    descriptions: dict = {}
    desc_dir = Path(db_dir) / "database_description"
    if not desc_dir.is_dir():
        return descriptions
    for csv_path in sorted(desc_dir.glob("*.csv")):
        table = csv_path.stem
        try:
            with open(csv_path, newline="", encoding="utf-8", errors="replace") as handle:
                reader = csv.DictReader(handle)
                # a byte-order mark would prefix the first header name; stripped here, because the utf-8-sig
                # codec costs each process an import
                if reader.fieldnames:
                    reader.fieldnames[0] = reader.fieldnames[0].removeprefix("\ufeff")
                for row in reader:
                    column = (row.get("original_column_name") or "").strip()
                    text = (row.get("column_description") or "").strip()
                    if column and text:
                        descriptions[(table, column)] = text
        except OSError as exc:
            logger.warning("cannot read description file %s: %s", csv_path, exc)
    return descriptions


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _ddl_ident(name: str) -> str:
    # keywords, and BIRD-style identifiers with spaces/punctuation, are backtick-quoted
    if _PLAIN_IDENT.match(name) and name.upper() not in SQLITE_KEYWORDS:
        return name
    return "`" + name.replace("`", "``") + "`"


def _format_value(value) -> str:
    if isinstance(value, str):
        text = value if len(value) <= 120 else value[:117] + "..."
        return "'" + text.replace("'", "''") + "'"
    return str(value)


def render_ddl(schema: SchemaContext, matched: dict, values_per_column: int) -> str:
    """Render one annotated CREATE TABLE block per table, deterministically.

    Column comments carry the description and up to values_per_column distinct
    example values: the column's entries in ``matched`` (retrieve_values'
    result) first, then its sampled values. At 0 no examples are shown.
    """
    if not schema.tables:
        raise SchemaError(f"{schema.db_id}: schema has no tables to render")
    blocks = []
    for table in schema.tables:
        lines = [f"CREATE TABLE {_ddl_ident(table.name)} ("]
        body = []
        for col in table.columns:
            decl = f"  {_ddl_ident(col.name)} {col.type}".rstrip()
            notes = []
            if col.description:
                notes.append(col.description)
            shown: list[str] = []
            key = (table.name, col.name)
            for value in chain(matched.get(key, ()), schema.sample_values.get(key, ())):
                if len(shown) >= values_per_column:
                    break
                formatted = _format_value(value)
                if formatted not in shown:
                    shown.append(formatted)
            if shown:
                notes.append("examples: " + ", ".join(shown))
            if notes:
                decl += " -- " + " ; ".join(notes)
            body.append(decl)
        if table.primary_key:
            body.append("  PRIMARY KEY (" + ", ".join(_ddl_ident(c) for c in table.primary_key) + ")")
        for local, ref_table, ref_col in table.foreign_keys:
            body.append(
                f"  FOREIGN KEY ({_ddl_ident(local)}) REFERENCES "
                f"{_ddl_ident(ref_table)}({_ddl_ident(ref_col)})"
            )
        lines.append(",\n".join(body))
        lines.append(");")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def read_literals(db: DatabaseHandle, schema: SchemaContext) -> dict:
    """Each text column's literals for index_literals: (table, column) -> ((lowercased, verbatim), ...).

    A column's literals are its first DISTINCT_SAMPLE_LIMIT distinct non-NULL
    values, keeping the non-empty strings of at most MAX_LITERAL_LENGTH
    characters. A column whose query fails has none, with a warning.
    """
    literals: dict = {}
    conn = _connect(db)
    try:
        for table in schema.tables:
            for col in table.columns:
                if col.type and not _TEXT_TYPE.search(col.type):
                    continue
                try:
                    rows = conn.execute(
                        f"SELECT DISTINCT {_quote(col.name)} FROM {_quote(table.name)} "
                        f"WHERE {_quote(col.name)} IS NOT NULL LIMIT ?",
                        (DISTINCT_SAMPLE_LIMIT,),
                    ).fetchall()
                except sqlite3.Error as exc:
                    logger.warning(
                        "value sampling failed for %s.%s: %s", table.name, col.name, exc
                    )
                    rows = []
                literals[(table.name, col.name)] = tuple(
                    (value.lower(), value)
                    for (value,) in rows
                    if isinstance(value, str) and value and len(value) <= MAX_LITERAL_LENGTH
                )
    finally:
        conn.close()
    return literals


def _threshold_length(n: int) -> int:
    """The smallest match length L with L / n >= MATCH_THRESHOLD, by the comparison retrieve_values makes."""
    length = math.ceil(n * MATCH_THRESHOLD)
    while length > 1 and (length - 1) / n >= MATCH_THRESHOLD:
        length -= 1
    while length / n < MATCH_THRESHOLD:
        length += 1
    return length


def _occurs(target: str, length: int, question: str) -> bool:
    """Whether a ``length``-character substring of target with fewer than NGRAM_MAX_WORDS spaces is in question."""
    return any(
        part in question and part.count(" ") < NGRAM_MAX_WORDS
        for part in (target[i : i + length] for i in range(len(target) - length + 1))
    )


def score_literal(target: str, question: str) -> float:
    """Overlap of a lowercased literal with the question, exact from MATCH_THRESHOLD up, else 0.0.

    ``question`` is the lowercased question's words joined by single spaces.
    The score is L / len(target), where L is the length of the longest
    substring of target that occurs in question and spans at most
    NGRAM_MAX_WORDS words (contains at most NGRAM_MAX_WORDS - 1 spaces): the
    longest common substring of target with any run of up to NGRAM_MAX_WORDS
    question words. Scores below MATCH_THRESHOLD read 0.0.
    """
    n = len(target)
    if not n:
        return 0.0
    # a prefix of an occurring substring occurs too, so the lengths that occur are 1..L
    low = _threshold_length(n)
    if not _occurs(target, low, question):
        return 0.0
    high = n
    while low < high:
        mid = (low + high + 1) // 2
        if _occurs(target, mid, question):
            low = mid
        else:
            high = mid - 1
    return low / n


@dataclass(frozen=True)
class LiteralIndex:
    """A database's text-column literals, indexed by the grams retrieve_values looks up.

    ``entries`` holds (column, lowercased, verbatim) per literal in
    read_literals order, ``postings`` maps a GRAM_LENGTH-character gram to
    the positions in ``entries`` of the literals indexed under it, and
    ``unindexed`` holds the positions of literals too short to index.
    """

    entries: tuple
    postings: dict
    unindexed: tuple


def index_literals(literals: dict) -> LiteralIndex:
    """Index read_literals' mapping so that retrieval scores only literals that can reach MATCH_THRESHOLD.

    A literal of n characters scores at least MATCH_THRESHOLD only if one of
    its L0-character windows occurs in the question, L0 = _threshold_length(n).
    With L0 >= GRAM_LENGTH, the literal is indexed by its grams at positions
    0, s, 2s, ... for s = L0 - GRAM_LENGTH + 1: every L0-window holds one of
    them, so such a literal shares an indexed gram with the question. A
    literal with L0 < GRAM_LENGTH is always scored.
    """
    entries: list = []
    postings: dict = {}
    unindexed: list = []
    for column, column_literals in literals.items():
        for lowered, value in column_literals:
            position = len(entries)
            entries.append((column, lowered, value))
            length = _threshold_length(len(lowered))
            if length < GRAM_LENGTH:
                unindexed.append(position)
                continue
            step = length - GRAM_LENGTH + 1
            for gram in {lowered[i : i + GRAM_LENGTH] for i in range(0, len(lowered) - GRAM_LENGTH + 1, step)}:
                postings.setdefault(gram, []).append(position)
    return LiteralIndex(tuple(entries), postings, tuple(unindexed))


def retrieve_values(question: str, literals: LiteralIndex, top_k: int) -> dict:
    """The text-column literals that best match the question: (table, column) -> values, strongest first.

    ``literals`` is index_literals' index of the database. Matches are
    verbatim column values scoring at least MATCH_THRESHOLD (see
    score_literal), kept score-descending (ties: shorter literal, then
    lexicographic), at most top_k per column. Only the literals sharing an
    indexed gram with the question, and the unindexed ones, are scored; the
    others cannot reach the threshold.
    """
    words = " ".join(question.lower().split())
    candidates = set(literals.unindexed)
    for gram in {words[i : i + GRAM_LENGTH] for i in range(len(words) - GRAM_LENGTH + 1)}:
        candidates.update(literals.postings.get(gram, ()))
    scored: dict = {}
    # positions follow read_literals' column order, which the result keeps
    for position in sorted(candidates):
        column, lowered, value = literals.entries[position]
        score = score_literal(lowered, words)
        if score >= MATCH_THRESHOLD:
            scored.setdefault(column, []).append((-score, len(value), value))
    return {column: [v for _s, _l, v in sorted(found)[:top_k]] for column, found in scored.items()}


def build_prompt(item: BenchmarkItem, ddl: str) -> str:
    """Instantiate the generation prompt for one item over its database's rendered DDL."""
    question = item.question
    if item.evidence:
        question = f"{item.question}\nEvidence: {item.evidence}"
    return PROMPT_TEMPLATE.format(db_engine="SQLite", schema=ddl, question=question)
