"""Database-aware context construction: schema, annotated DDL, value retrieval, prompt.

The retrieval stage grounds generation in the concrete database: it inspects
the catalog, samples representative column values, scores column literals
against question n-grams to surface the values a query will need, and renders
everything into an annotated DDL block inside the generation prompt.
"""

from __future__ import annotations

import csv
import logging
import re
import sqlite3
from dataclasses import dataclass, field, replace
from pathlib import Path

from .corpus import BenchmarkItem, DatabaseHandle
from .errors import SchemaError

logger = logging.getLogger(__name__)

# value-retrieval knobs: see retrieve_values
NGRAM_MAX_WORDS = 4
MATCH_THRESHOLD = 0.6
DISTINCT_SAMPLE_LIMIT = 2000
MAX_LITERAL_LENGTH = 200
# distinct values extract_schema samples per column as DDL annotations
SAMPLE_VALUES_PER_COLUMN = 5

_TEXT_TYPE = re.compile(r"CHAR|TEXT|CLOB|STRING", re.I)
_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

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
    db_id: str
    tables: tuple[TableInfo, ...]
    ddl_text: str = ""
    # (table, column) -> question-matched literals, strongest first
    matched_values: dict = field(default_factory=dict)
    # (table, column) -> sampled representative values
    sample_values: dict = field(default_factory=dict)


def extract_schema(db: DatabaseHandle, descriptions: dict | None = None) -> SchemaContext:
    """Read the live catalog into a SchemaContext (ddl_text left empty).

    ``descriptions`` optionally maps (table, column) to free-text descriptions
    (see load_descriptions for the BIRD CSV layout). Up to SAMPLE_VALUES_PER_COLUMN
    distinct values per column are sampled as representative annotations.
    """
    descriptions = descriptions or {}
    tables: list[TableInfo] = []
    samples: dict = {}
    try:
        conn = db.connect()
    except sqlite3.Error as exc:
        raise SchemaError(f"{db.db_id}: cannot open database: {exc}") from exc
    try:
        names = [
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
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
            for col in columns:
                try:
                    rows = conn.execute(
                        f"SELECT DISTINCT {_quote(col.name)} FROM {_quote(name)} "
                        f"WHERE {_quote(col.name)} IS NOT NULL ORDER BY 1 LIMIT ?",
                        (SAMPLE_VALUES_PER_COLUMN,),
                    ).fetchall()
                except sqlite3.Error:
                    continue  # virtual/odd columns: annotation is best-effort
                values = [v for (v,) in rows if not isinstance(v, bytes)]
                if values:
                    samples[(name, col.name)] = values
    except sqlite3.Error as exc:
        raise SchemaError(f"{db.db_id}: catalog query failed: {exc}") from exc
    finally:
        conn.close()
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
    return SchemaContext(db_id=db.db_id, tables=tuple(resolved), sample_values=samples)


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
                for row in csv.DictReader(handle):
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
    # BIRD-style identifiers with spaces/punctuation are backtick-quoted
    if _PLAIN_IDENT.match(name):
        return name
    return "`" + name.replace("`", "``") + "`"


def _format_value(value) -> str:
    if isinstance(value, str):
        text = value if len(value) <= 120 else value[:117] + "..."
        return "'" + text.replace("'", "''") + "'"
    return str(value)


def render_ddl(
    schema: SchemaContext,
    include_values: bool = True,
    values_per_column: int = 3,
) -> str:
    """Render one annotated CREATE TABLE block per table, deterministically.

    Column comments carry the description and up to values_per_column example
    values; question-matched values come first, then generic samples.
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
            if include_values and values_per_column > 0:
                shown: list[str] = []
                for value in schema.matched_values.get((table.name, col.name), []):
                    if len(shown) >= values_per_column:
                        break
                    formatted = _format_value(value)
                    if formatted not in shown:
                        shown.append(formatted)
                for value in schema.sample_values.get((table.name, col.name), []):
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


def _question_ngrams(question: str) -> list[str]:
    words = re.findall(r"[^\s]+", question.lower())
    grams = []
    for n in range(1, NGRAM_MAX_WORDS + 1):
        for i in range(len(words) - n + 1):
            grams.append(" ".join(words[i : i + n]))
    return grams


def longest_common_substring(a: str, b: str) -> int:
    """Length of the longest common substring (classic DP, rolling row)."""
    if not a or not b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    previous = [0] * (len(a) + 1)
    best = 0
    for ch_b in b:
        current = [0] * (len(a) + 1)
        for i, ch_a in enumerate(a):
            if ch_a == ch_b:
                current[i + 1] = previous[i] + 1
                if current[i + 1] > best:
                    best = current[i + 1]
        previous = current
    return best


def score_literal(literal: str, ngrams: list[str]) -> float:
    """Best overlap of a column literal with any question n-gram, in [0, 1]."""
    target = literal.lower()
    if not target:
        return 0.0
    best = 0
    for gram in ngrams:
        if len(gram) * 4 < len(target):  # gram far too short to reach threshold
            continue
        best = max(best, longest_common_substring(target, gram))
        if best == len(target):
            break
    return best / len(target)


def retrieve_values(question: str, db: DatabaseHandle, schema: SchemaContext, top_k: int = 3) -> SchemaContext:
    """Populate matched_values by scoring textual-column literals against the question.

    Matches are verbatim column values scoring at least MATCH_THRESHOLD,
    kept score-descending (ties: shorter literal, then lexicographic), at most
    top_k per column. Sampling failures skip the column with a warning.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    ngrams = _question_ngrams(question)
    if not ngrams:
        return replace(schema, matched_values={})
    matched: dict = {}
    conn = db.connect()
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
                    continue
                scored = []
                for (value,) in rows:
                    if not isinstance(value, str) or not value or len(value) > MAX_LITERAL_LENGTH:
                        continue
                    score = score_literal(value, ngrams)
                    if score >= MATCH_THRESHOLD:
                        scored.append((-score, len(value), value))
                if scored:
                    scored.sort()
                    matched[(table.name, col.name)] = [v for _s, _l, v in scored[:top_k]]
    finally:
        conn.close()
    return replace(schema, matched_values=matched)


def build_prompt(item: BenchmarkItem, ctx: SchemaContext) -> str:
    """Instantiate the generation prompt for one item over its rendered schema."""
    if not ctx.ddl_text:
        raise SchemaError(f"{ctx.db_id}: schema DDL has not been rendered")
    question = item.question
    if item.evidence:
        question = f"{item.question}\nEvidence: {item.evidence}"
    return PROMPT_TEMPLATE.format(db_engine="SQLite", schema=ctx.ddl_text, question=question)
