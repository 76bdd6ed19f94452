"""Schema extraction, DDL rendering, value retrieval, and prompt assembly."""

import difflib
import importlib
import random
import re
import sqlite3
from contextlib import closing
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nl2sqlbench import context
from nl2sqlbench.context import (
    MATCH_THRESHOLD,
    MAX_LITERAL_LENGTH,
    NGRAM_MAX_WORDS,
    SAMPLE_VALUES_PER_COLUMN,
    build_prompt,
    extract_schema,
    index_literals,
    load_descriptions,
    read_catalog,
    read_literals,
    render_ddl,
    retrieve_values,
    score_literal,
)
from nl2sqlbench.corpus import BenchmarkItem, DatabaseHandle, load_benchmark, load_database
from nl2sqlbench.errors import SchemaError


class TestExtractSchema:
    def test_tables_and_foreign_keys(self, stack_db):
        schema = extract_schema(stack_db)
        names = [t.name for t in schema.tables]
        assert set(names) == {"users", "posts", "comments"}
        comments = next(t for t in schema.tables if t.name == "comments")
        assert ("PostId", "posts", "Id") in comments.foreign_keys
        assert ("UserId", "users", "Id") in comments.foreign_keys
        users = next(t for t in schema.tables if t.name == "users")
        assert users.primary_key == ("Id",)

    def test_empty_database(self, db_factory):
        db = db_factory([])
        schema = extract_schema(db)
        assert schema.tables == ()

    def test_tables_named_like_sqlites_own_are_kept(self, db_factory):
        # in LIKE, _ matches any character and case is ignored; of these four tables only sqlite_sequence,
        # which AUTOINCREMENT makes, is SQLite's own
        db = db_factory([
            "CREATE TABLE sqliteusers (id INTEGER)",
            "CREATE TABLE SQLiteStats (n INTEGER)",
            "CREATE TABLE people (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT)",
            "INSERT INTO people (name) VALUES ('Ada')",
        ])
        conn = sqlite3.connect(db.path)
        try:
            assert "sqlite_sequence" in {row[0] for row in conn.execute("SELECT name FROM sqlite_master")}
        finally:
            conn.close()
        names = ["sqliteusers", "SQLiteStats", "people"]
        assert [t.name for t in read_catalog(db).tables] == [t.name for t in extract_schema(db).tables] == names
        ddl = render_ddl(extract_schema(db), {}, 3)
        assert "CREATE TABLE sqliteusers" in ddl and "CREATE TABLE SQLiteStats" in ddl and "sqlite_sequence" not in ddl

    def test_descriptions_attached(self, stack_db):
        schema = extract_schema(stack_db, {("users", "DisplayName"): "the public name"})
        users = next(t for t in schema.tables if t.name == "users")
        display = next(c for c in users.columns if c.name == "DisplayName")
        assert display.description == "the public name"

    def test_catalog_is_the_schema_without_samples(self, stack_db):
        assert read_catalog(stack_db) == replace(extract_schema(stack_db), sample_values={})
        descriptions = {("users", "DisplayName"): "the public name", ("posts", "Title"): "post title"}
        described = read_catalog(stack_db, descriptions)
        assert described == replace(extract_schema(stack_db, descriptions), sample_values={})
        assert described != read_catalog(stack_db)

    def test_oracle_catalog_agreement(self, schools_db):
        # independent check against a raw PRAGMA pass
        schema = extract_schema(schools_db)
        conn = sqlite3.connect(schools_db.path)
        try:
            for table in schema.tables:
                raw = conn.execute(f'PRAGMA table_info("{table.name}")').fetchall()
                assert [c.name for c in table.columns] == [r[1] for r in raw]
        finally:
            conn.close()

    def test_statements_per_table_and_column(self, db_factory, monkeypatch):
        # t has 20,000 rows: v is distinct in every row, so its prefix holds 5 values and the pruned scan runs;
        # k holds 3 values, so the full sort runs; j and i are in an index, i not at its head, so they are
        # left out of the prefix and the full sort runs. u is as short as the prefix, which settles it
        db = db_factory(
            [
                "CREATE TABLE t (v INTEGER, k INTEGER, j INTEGER, i INTEGER)",
                "INSERT INTO t WITH RECURSIVE r(n) AS (SELECT 0 UNION ALL SELECT n + 1 FROM r WHERE n < 19999) "
                "SELECT 19999 - n, n % 3, n % 7, n FROM r",
                "CREATE INDEX t_j_i ON t (j, i)",
                "CREATE TABLE u (w TEXT)",
                "INSERT INTO u WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r "
                f"WHERE n < {context._SAMPLE_PROBE_ROWS}) SELECT 'w' || n FROM r",
            ]
        )
        statements = []
        connect = DatabaseHandle.connect

        def traced(handle):
            conn = connect(handle)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(DatabaseHandle, "connect", traced)
        schema = extract_schema(db)
        assert schema.sample_values == {
            ("t", "v"): [0, 1, 2, 3, 4],
            ("t", "k"): [0, 1, 2],
            ("t", "j"): [0, 1, 2, 3, 4],
            ("t", "i"): [0, 1, 2, 3, 4],
            ("u", "w"): ["w1", "w10", "w100", "w101", "w102"],
        }
        n = SAMPLE_VALUES_PER_COLUMN

        def prefix(table, *columns):
            listed = ", ".join(f'"{c}"' for c in columns)
            arms = "".join(
                f' UNION ALL SELECT {i}, v FROM (SELECT DISTINCT "{c}" AS v FROM sqlite_prefix WHERE "{c}" IS NOT NULL '
                f"ORDER BY 1 LIMIT {n})"
                for i, c in enumerate(columns)
            )
            return (
                f'WITH sqlite_prefix AS MATERIALIZED (SELECT {listed} FROM "{table}" '
                f"LIMIT {context._SAMPLE_PROBE_ROWS + 1}) SELECT -1, count(*) FROM sqlite_prefix{arms}"
            )

        def full_sort(column):
            return f'SELECT DISTINCT "{column}" FROM "t" WHERE "{column}" IS NOT NULL ORDER BY 1 LIMIT {n}'

        # the prefix holds v's values 19999 down to 19679, of which the smallest five are 19679 to 19683
        held = range(19679, 19684)
        pruned = (
            'SELECT DISTINCT v FROM (SELECT "v" AS v FROM "t" WHERE "v" < 19683'
            + "".join(f' AND "v" <> {v}' for v in held[:-1])
            + f" UNION ALL VALUES {', '.join(f'({v})' for v in held)}) ORDER BY 1 LIMIT {n}"
        )
        assert [s for s in statements if "DISTINCT" in s] == [
            prefix("t", "v", "k"),
            pruned,
            full_sort("k"),
            full_sort("j"),
            full_sort("i"),
            prefix("u", "w"),
        ]


_DECLARED_TYPES = ("", "INTEGER", "REAL", "TEXT", "NUMERIC", "BLOB")
# groups of values that compare equal in some column (as numbers, under NOCASE or under RTRIM), so that a
# query keeping another representative of a group shows; blobs and NULLs are groups of their own. The numbers
# share one branch, since a number group keeps its members apart only in untyped and BLOB columns, and a text
# group in every declared type
_VALUE_GROUP = st.one_of(
    st.sampled_from(((0, 0.0, -0.0, "0"), (1, 1.0, "1"), (b"a",), (b"\x00",), (None,), ("",))),
    st.one_of(st.integers(-3, 12).map(lambda n: (n, float(n), str(n))), st.integers(-3, 12).map(lambda n: (n / 2,))),
    st.text("ab", min_size=1, max_size=3).map(lambda s: (s, s.upper(), s + " ", s.upper() + "  ")),
)


# a table's row count: as many as the prefix read holds at most, around that bound, or more
_ROW_COUNTS = st.one_of(
    st.integers(0, context._SAMPLE_PROBE_ROWS),
    st.integers(context._SAMPLE_PROBE_ROWS - 2, context._SAMPLE_PROBE_ROWS + 2),
    st.integers(context._SAMPLE_PROBE_ROWS + 1, 4 * context._SAMPLE_PROBE_ROWS),
)
# a DESC index is scanned backwards, so that the last of equal rows comes first
_INDEX_SUFFIXES = ("", " COLLATE BINARY", " COLLATE NOCASE", " DESC", " COLLATE NOCASE DESC")


@st.composite
def _sampled_column(draw, rows: int, rng: random.Random):
    """A column's declaration and its ``rows`` values: runs of value groups and distinct filler, then NULLs."""
    declared = draw(st.sampled_from(_DECLARED_TYPES)) + draw(st.sampled_from(("", " COLLATE NOCASE", " COLLATE RTRIM")))
    # runs of up to 400 rows, so that a few small values can fill the prefix's rows
    runs = draw(st.lists(st.tuples(_VALUE_GROUP, st.integers(1, 400)), max_size=6))
    grouped = [rng.choice(group) for group, count in runs for _ in range(count)]
    # descending filler, or filler ahead of the runs, puts smaller values after the prefix
    kind = draw(st.sampled_from((int, lambda n: n + 0.5, str, lambda n: -n)))
    filler = [kind(n) for n in range(draw(st.sampled_from((0, 0, 3, 400, rows))))]
    values = draw(st.sampled_from((grouped + filler, filler + grouped)))
    if draw(st.booleans()):
        rng.shuffle(values)
    return declared, values[:rows] + [None] * (rows - len(values))


@st.composite
def _sampled_table(draw):
    """DDL and rows of a table of 1-3 sampled columns c0, c1, ..., maybe keyed by id, maybe indexed."""
    rows = draw(_ROW_COUNTS)
    # a seeded Random, since hypothesis's own would record a choice per row
    rng = random.Random(draw(st.integers(0, 2**32)))
    columns = draw(st.lists(_sampled_column(rows, rng), min_size=1, max_size=3))
    names = [f"c{i}" for i in range(len(columns))]
    body = ", ".join(f"{name} {declared}" for name, (declared, _values) in zip(names, columns))
    table = list(zip(*(values for _declared, values in columns)))
    if draw(st.booleans()):
        ids = list(range(rows))
        rng.shuffle(ids)
        statements = [f"CREATE TABLE t (id INTEGER PRIMARY KEY, {body}) WITHOUT ROWID"]
        table = [(i, *row) for i, row in zip(ids, table)]
        names.append("id")
    else:
        statements = [f"CREATE TABLE t ({body})"]
    # indexes of one or two columns, where a column not at an index's head may still be read through it
    keys = st.lists(st.tuples(st.sampled_from(names), st.sampled_from(_INDEX_SUFFIXES)), min_size=1, max_size=2,
                    unique_by=lambda key: key[0])
    for i, key in enumerate(draw(st.one_of(st.just([]), st.lists(keys, min_size=1, max_size=2)))):
        statements.append(f"CREATE INDEX i{i} ON t ({', '.join(name + suffix for name, suffix in key)})")
    return statements, table


def _full_sort_samples(db: DatabaseHandle) -> dict:
    """extract_schema's samples as the full sort of each column gives them."""
    samples = {}
    conn = sqlite3.connect(db.path)
    try:
        for table in read_catalog(db).tables:
            for col in table.columns:
                rows = conn.execute(
                    f'SELECT DISTINCT "{col.name}" FROM "{table.name}" WHERE "{col.name}" IS NOT NULL '
                    "ORDER BY 1 LIMIT ?",
                    (SAMPLE_VALUES_PER_COLUMN,),
                ).fetchall()
                values = [v for (v,) in rows if not isinstance(v, bytes)]
                if values:
                    samples[(table.name, col.name)] = values
    finally:
        conn.close()
    return samples


def _typed(samples: dict) -> dict:
    # repr tells -0.0 from 0.0, and type tells 1 from 1.0 and '1'
    return {key: [(type(v), repr(v)) for v in values] for key, values in samples.items()}


@settings(max_examples=250, deadline=None)
@given(_sampled_table())
def test_samples_are_the_full_sorts(tmp_path_factory, table):
    """extract_schema's samples, values and types, are the full sort's, however each column is read."""
    statements, rows = table
    path = tmp_path_factory.mktemp("sampled") / "t.sqlite"
    conn = sqlite3.connect(path)
    try:
        conn.execute("PRAGMA synchronous = OFF")  # a throwaway file: no fsync per example
        for statement in statements:
            conn.execute(statement)
        if rows:
            conn.executemany(f"INSERT INTO t VALUES ({', '.join('?' * len(rows[0]))})", rows)
        conn.commit()
    finally:
        conn.close()
    db = DatabaseHandle("t", path)
    assert _typed(extract_schema(db).sample_values) == _typed(_full_sort_samples(db))


class TestLoadDescriptions:
    def test_bird_csv_layout(self, tmp_path):
        desc = tmp_path / "database_description"
        desc.mkdir()
        (desc / "users.csv").write_text(
            "original_column_name,column_description\nDisplayName,user visible name\n",
            encoding="utf-8",
        )
        mapping = load_descriptions(tmp_path)
        assert mapping == {("users", "DisplayName"): "user visible name"}

    def test_byte_order_mark(self, tmp_path):
        desc = tmp_path / "database_description"
        desc.mkdir()
        (desc / "users.csv").write_text(
            "original_column_name,column_description\nDisplayName,user visible name\n",
            encoding="utf-8-sig",
        )
        assert (desc / "users.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_descriptions(tmp_path) == {("users", "DisplayName"): "user visible name"}

    def test_missing_directory(self, tmp_path):
        assert load_descriptions(tmp_path) == {}


class TestRenderDdl:
    def test_plain_ddl_byte_stable(self, stack_db):
        schema = extract_schema(stack_db)
        first = render_ddl(schema, {}, 0)
        second = render_ddl(schema, {}, 0)
        assert first == second
        assert first.count("CREATE TABLE") == 3
        assert "examples:" not in first

    def test_truncation_floor(self, db_factory):
        db = db_factory(
            [
                "CREATE TABLE two (v TEXT)",
                "INSERT INTO two VALUES ('a'), ('b'), ('a')",
            ]
        )
        schema = extract_schema(db)
        text = render_ddl(schema, {}, 3)
        line = next(l for l in text.splitlines() if l.strip().startswith("v "))
        assert line.count("'") == 4  # exactly two quoted values

    def test_matched_value_listed_first(self, stack_db):
        schema = extract_schema(stack_db)
        literals = index_literals(read_literals(stack_db, schema))
        matched = retrieve_values("posts by Neil McGuigan", literals, top_k=3)
        text = render_ddl(schema, matched, 3)
        display_line = next(l for l in text.splitlines() if "DisplayName" in l)
        assert "examples: 'Neil McGuigan'" in display_line

    def test_spaced_identifiers_backticked(self, schools_db):
        schema = extract_schema(schools_db)
        text = render_ddl(schema, {}, 0)
        assert "`Percent (%) Eligible Free (K-12)`" in text
        assert "`School Name`" in text

    PINNED_SCHEMA = context.SchemaContext(
        db_id="shop",
        tables=(
            context.TableInfo(
                "customer",
                (
                    context.ColumnInfo("id", "INTEGER"),
                    context.ColumnInfo("full name", "TEXT", "the customer's name"),
                    context.ColumnInfo("city", "TEXT"),
                ),
                primary_key=("id",),
            ),
            context.TableInfo(
                "purchase",
                (
                    context.ColumnInfo("id", "INTEGER"),
                    context.ColumnInfo("customer_id", "INTEGER", "who ordered"),
                    context.ColumnInfo("note", ""),
                    context.ColumnInfo("total", "REAL"),
                ),
                primary_key=("id",),
                foreign_keys=(("customer_id", "customer", "id"),),
            ),
        ),
        sample_values={
            ("customer", "id"): [1, 2, 3, 4, 5],
            ("customer", "full name"): ["Ann O'Hara", "Bo", "Cy", "Di", "Ed"],
            ("customer", "city"): ["Oslo", "Rome"],
            ("purchase", "note"): ["x" * 130],
            ("purchase", "total"): [0.5, 12.25],
        },
    )
    PINNED_MATCHES = {("customer", "full name"): ["Ann O'Hara"], ("customer", "city"): ["Paris", "Rome"]}

    def test_pinned_bytes_with_examples(self):
        # matches first, then samples, each shown once, at most three; long text is cut to 120 characters
        assert render_ddl(self.PINNED_SCHEMA, self.PINNED_MATCHES, 3) == (
            "CREATE TABLE customer (\n"
            "  id INTEGER -- examples: 1, 2, 3,\n"
            "  `full name` TEXT -- the customer's name ; examples: 'Ann O''Hara', 'Bo', 'Cy',\n"
            "  city TEXT -- examples: 'Paris', 'Rome', 'Oslo',\n"
            "  PRIMARY KEY (id)\n"
            ");\n"
            "\n"
            "CREATE TABLE purchase (\n"
            "  id INTEGER,\n"
            "  customer_id INTEGER -- who ordered,\n"
            "  note -- examples: '" + "x" * 117 + "...',\n"
            "  total REAL -- examples: 0.5, 12.25,\n"
            "  PRIMARY KEY (id),\n"
            "  FOREIGN KEY (customer_id) REFERENCES customer(id)\n"
            ");"
        )

    def test_pinned_bytes_without_examples(self):
        assert render_ddl(self.PINNED_SCHEMA, self.PINNED_MATCHES, 0) == (
            "CREATE TABLE customer (\n"
            "  id INTEGER,\n"
            "  `full name` TEXT -- the customer's name,\n"
            "  city TEXT,\n"
            "  PRIMARY KEY (id)\n"
            ");\n"
            "\n"
            "CREATE TABLE purchase (\n"
            "  id INTEGER,\n"
            "  customer_id INTEGER -- who ordered,\n"
            "  note,\n"
            "  total REAL,\n"
            "  PRIMARY KEY (id),\n"
            "  FOREIGN KEY (customer_id) REFERENCES customer(id)\n"
            ");"
        )

    def test_keyword_names_are_quoted(self, tmp_path):
        # a table and a column named by each keyword, in lower and title case, with keys: SQLite runs the DDL and
        # reads it back as the catalog. No descriptions or examples: their comment comes after the separating comma
        assert len(context.SQLITE_KEYWORDS) == 147
        tables, previous = [], None
        for keyword in sorted(context.SQLITE_KEYWORDS):
            column = keyword.title()
            keys = ((column, *previous),) if previous else ()
            tables.append(context.TableInfo(keyword.lower(), (context.ColumnInfo(column, "INTEGER"),), (column,), keys))
            previous = (keyword.lower(), column)
        schema = context.SchemaContext(db_id="keywords", tables=tuple(tables))
        ddl = render_ddl(schema, {}, 0)
        assert "CREATE TABLE `order` (\n  `Order` INTEGER,\n  PRIMARY KEY (`Order`)," in ddl
        path = tmp_path / "keywords.sqlite"
        with closing(sqlite3.connect(":memory:")) as conn, closing(sqlite3.connect(path)) as copy:
            conn.executescript(ddl)
            conn.backup(copy)
        assert read_catalog(DatabaseHandle("keywords", path)) == schema

    def test_empty_schema_is_an_error(self, db_factory):
        db = db_factory([])
        with pytest.raises(SchemaError):
            render_ddl(extract_schema(db), {}, 3)


class TestReadLiterals:
    def test_text_columns_lowercased_and_filtered(self, db_factory):
        db = db_factory(
            [
                "CREATE TABLE t (id INTEGER, s TEXT, n VARCHAR(10), untyped, x BLOB)",
                "INSERT INTO t VALUES (1, 'İzmir Port', 7, 'Aa', X'00'), (2, '', 'B', NULL, 'y'), "
                f"(3, '{'z' * MAX_LITERAL_LENGTH}', 'B', 3.5, 'y'), "
                f"(4, '{'w' * (MAX_LITERAL_LENGTH + 1)}', NULL, 'Aa', 'y')",
            ]
        )
        literals = read_literals(db, extract_schema(db))
        assert literals == {
            ("t", "s"): (("i\u0307zmir port", "İzmir Port"), ("z" * MAX_LITERAL_LENGTH,) * 2),
            ("t", "n"): (("7", "7"), ("b", "B")),  # TEXT affinity stores 7 as a string
            ("t", "untyped"): (("aa", "Aa"),),
        }

    def test_failing_column_has_none_with_a_warning(self, tmp_path, caplog):
        # a column whose collation this connection lacks cannot be read
        path = tmp_path / "odd" / "odd.sqlite"
        path.parent.mkdir()
        conn = sqlite3.connect(path)
        conn.create_collation("backwards", lambda a, b: (a < b) - (a > b))
        conn.execute("CREATE TABLE t (a TEXT, b TEXT COLLATE backwards)")
        conn.execute("INSERT INTO t VALUES ('x', 'y')")
        conn.commit()
        conn.close()
        db = load_database("odd", tmp_path)
        literals = read_literals(db, extract_schema(db))
        assert literals == {("t", "a"): (("x", "x"),), ("t", "b"): ()}
        assert [r.getMessage() for r in caplog.records] == [
            "no example values for column t.b: no such collation sequence: backwards",
            "value sampling failed for t.b: no such collation sequence: backwards",
        ]

    def test_a_database_that_cannot_be_opened_is_a_schema_error(self, db_factory, tmp_path):
        # the schema of a database read earlier, and a handle whose file has since gone
        db = db_factory(["CREATE TABLE t (s TEXT)"])
        ghost = DatabaseHandle("ghost", tmp_path / "ghost.sqlite")
        with pytest.raises(SchemaError, match=r"^ghost: cannot open database: "):
            read_literals(ghost, extract_schema(db))


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


def dp_score(literal: str, question: str) -> float:
    """Reference scorer: the best DP longest common substring of the literal with any question n-gram."""
    target = literal.lower()
    if not target:
        return 0.0
    best = 0
    for gram in _question_ngrams(question):
        if len(gram) * 4 < len(target):  # gram far too short to reach threshold
            continue
        best = max(best, longest_common_substring(target, gram))
        if best == len(target):
            break
    return best / len(target)


def _normalized(question: str) -> str:
    """The question as retrieve_values hands it to score_literal."""
    return " ".join(question.lower().split())


def _disagrees(literal: str, question: str) -> bool:
    """score_literal differs from the DP where either reaches the threshold, or is not 0.0 below it."""
    dp, mine = dp_score(literal, question), score_literal(literal.lower(), _normalized(question))
    if dp >= MATCH_THRESHOLD or mine >= MATCH_THRESHOLD:
        return mine != dp
    return mine != 0.0


def oracle_score(literal: str, question: str) -> float:
    """Independent scorer: difflib's longest matching block over each n-gram."""
    target = literal.lower()
    best = 0
    for gram in _question_ngrams(question):
        matcher = difflib.SequenceMatcher(None, target, gram, autojunk=False)
        match = matcher.find_longest_match(0, len(target), 0, len(gram))
        best = max(best, match.size)
    return best / len(target) if target else 0.0


class TestRetrieveValues:
    QUESTION = "In which country was the first European Grand Prix hosted? Name the circuit and location."

    def test_case_race_name_top_match(self, f1_db):
        schema = extract_schema(f1_db)
        out = retrieve_values(self.QUESTION, index_literals(read_literals(f1_db, schema)), top_k=3)
        matches = out[("races", "name")]
        assert matches[0] == "European Grand Prix"

    def test_hand_computed_ranking(self, f1_db):
        # oracle: score all five race names independently and rank the same way
        names = [
            "European Grand Prix",
            "Monaco Grand Prix",
            "British Grand Prix",
            "Spanish Grand Prix",
            "Australian Grand Prix",
        ]
        scored = sorted(
            ((-oracle_score(n, self.QUESTION), len(n), n) for n in names if oracle_score(n, self.QUESTION) >= 0.6),
        )
        expected = [n for _s, _l, n in scored][:3]
        # 'an grand prix' (13 chars) is common to Australian and European, so
        # Australian (13/21) outranks British/Spanish (11/18)
        assert expected == ["European Grand Prix", "Monaco Grand Prix", "Australian Grand Prix"]

        schema = extract_schema(f1_db)
        out = retrieve_values(self.QUESTION, index_literals(read_literals(f1_db, schema)), top_k=3)
        assert out[("races", "name")] == expected

    def test_scores_match_oracle_on_all_race_names(self, f1_db):
        for name in ["European Grand Prix", "Monaco Grand Prix", "Australian Grand Prix"]:
            mine = score_literal(name.lower(), _normalized(self.QUESTION))
            assert mine == pytest.approx(oracle_score(name, self.QUESTION))

    def test_question_case_and_whitespace_runs_ignored(self, f1_db):
        schema = extract_schema(f1_db)
        literals = index_literals(read_literals(f1_db, schema))
        shouted = "\t" + self.QUESTION.upper().replace(" ", " \n  ") + "\n"
        out = retrieve_values(shouted, literals, top_k=3)
        assert out == retrieve_values(self.QUESTION, literals, top_k=3)
        assert out[("races", "name")][0] == "European Grand Prix"

    def test_no_overlap_question_matches_nothing(self, f1_db):
        schema = extract_schema(f1_db)
        out = retrieve_values("zzz qqq xyzzy", index_literals(read_literals(f1_db, schema)), top_k=3)
        assert out == {}

    def test_matches_exist_verbatim_in_column(self, f1_db, stack_db):
        for db, question in (
            (f1_db, self.QUESTION),
            (stack_db, "How many comments did Neil McGuigan write?"),
        ):
            schema = extract_schema(db)
            out = retrieve_values(question, index_literals(read_literals(db, schema)), top_k=3)
            conn = db.connect()
            try:
                for (table, column), values in out.items():
                    for value in values:
                        row = conn.execute(
                            f'SELECT 1 FROM "{table}" WHERE "{column}" = ? LIMIT 1', (value,)
                        ).fetchone()
                        assert row is not None, (table, column, value)
            finally:
                conn.close()

    def test_numeric_columns_untouched(self, f1_db):
        schema = extract_schema(f1_db)
        out = retrieve_values("1999 1950 1952", index_literals(read_literals(f1_db, schema)), top_k=3)
        assert ("races", "year") not in out


# pieces with repeated characters, whitespace runs and characters whose lowercase changes length
_PIECES = ("a", "b", "ab", "aab", "aaaa", "A", "İ", "i\u0307", "ß", "ss", "ﬁ", "fi", "ς", "σ", "1",
           " ", "  ", "\t", "\n", " \t\n ")
_text = st.lists(st.sampled_from(_PIECES), max_size=14).map("".join)
_letters = [piece for piece in _PIECES if not piece.isspace()]
_word = st.lists(st.sampled_from(_letters), min_size=1, max_size=3).map("".join)
_space = st.sampled_from([" ", "  ", "\t", "\n", " \n\t"])


@st.composite
def _short_question(draw):
    """Fewer than NGRAM_MAX_WORDS words, apart by runs of any whitespace."""
    words = draw(st.lists(_word, max_size=NGRAM_MAX_WORDS - 1))
    return "".join(draw(_space) + word for word in words) + draw(_space)


_question = st.one_of(_text, _short_question())


@st.composite
def _long_literal(draw):
    """A question, and a literal longer than it: the question with more text on both sides."""
    question = draw(_question)
    return draw(_text) + question + draw(_word), question


@st.composite
def _word_run_literal(draw):
    """A question of up to 8 words, and a literal holding a run of them, possibly over NGRAM_MAX_WORDS long."""
    words = draw(st.lists(_word, min_size=1, max_size=8))
    question = "".join(draw(_space) + word for word in words)
    start = draw(st.integers(0, len(words) - 1))
    end = draw(st.integers(start + 1, len(words)))
    return draw(_text) + " ".join(words[start:end]) + draw(_text), question


class TestScoreLiteral:
    """score_literal against the DP it replaced, wherever either side reaches MATCH_THRESHOLD."""

    @settings(max_examples=1500, deadline=None)
    @given(_text, _question)
    def test_agrees_with_dp(self, literal, question):
        assert not _disagrees(literal, question)

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(_long_literal(), _word_run_literal()))
    def test_agrees_with_dp_on_literals_built_from_the_question(self, pair):
        assert not _disagrees(*pair)

    # n * threshold is inexact in floating point: ceil overshoots at 0.55 (n = 100) and falls short at
    # 0.0509... (n = 216), so the float comparison retrieval makes decides
    @pytest.mark.parametrize("threshold", [MATCH_THRESHOLD, 0.55, 0.05092592592592593])
    def test_threshold_length_is_the_smallest_passing_length(self, threshold, monkeypatch):
        monkeypatch.setattr(context, "MATCH_THRESHOLD", threshold)
        for n in range(1, 2 * MAX_LITERAL_LENGTH + 1):
            assert context._threshold_length(n) == min(L for L in range(1, n + 1) if L / n >= threshold)

    @pytest.mark.parametrize("workload", ["values-greedy", "multidb-maj"])
    def test_agrees_with_dp_on_every_bench_pair(self, workload, tmp_path, monkeypatch):
        # every literal/question pair retrieval scores on the benchmark's inputs at seed 3
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        paths = importlib.import_module("generate").generate(workload, 3, tmp_path)
        pairs = []
        for item in load_benchmark(paths["benchmark"], "bird"):
            db = load_database(item.db_id, paths["db_root"])
            question = f"{item.question} {item.evidence}" if item.evidence else item.question
            for column in read_literals(db, extract_schema(db)).values():
                pairs += [(value, question) for _lowered, value in column]
        disagreements = [pair for pair in pairs if _disagrees(*pair)]
        assert disagreements == []
        assert len(pairs) > 1000
        assert any(dp_score(*pair) >= MATCH_THRESHOLD for pair in pairs)


def full_scan_retrieve(question: str, literals: dict) -> dict:
    """Reference retrieval over read_literals' mapping: score every literal of every column."""
    words = " ".join(question.lower().split())
    matched = {}
    for column, column_literals in literals.items():
        scored = []
        for lowered, value in column_literals:
            score = score_literal(lowered, words)
            if score >= context.MATCH_THRESHOLD:
                scored.append((-score, len(value), value))
        if scored:
            scored.sort()
            matched[column] = [v for _s, _l, v in scored[:3]]
    return matched


def _as_literals(columns: list[list[str]]) -> dict:
    """read_literals' mapping for columns of raw values."""
    return {
        ("t", f"c{i}"): tuple((value.lower(), value) for value in dict.fromkeys(values))
        for i, values in enumerate(columns)
    }


def _assert_index_is_exact(question: str, literals: dict) -> None:
    got = retrieve_values(question, index_literals(literals), top_k=3)
    # items(), so the column order is compared too
    assert list(got.items()) == list(full_scan_retrieve(question, literals).items())


@st.composite
def _literal_and_question(draw):
    """A question of up to 8 words, and literals: short ones, pieces of text, and cuts of the question."""
    words = draw(st.lists(_word, min_size=1, max_size=8))
    question = "".join(draw(_space) + word for word in words) + draw(_space)
    cut = st.tuples(st.integers(0, len(question)), st.integers(0, len(question))).map(
        lambda ends: question[min(ends) : max(ends)]
    )
    run = st.integers(0, len(words) - 1).flatmap(
        lambda start: st.integers(start + 1, len(words)).map(lambda end: " ".join(words[start:end]))
    )
    short = st.lists(st.sampled_from(_PIECES), min_size=1, max_size=3).map("".join).map(lambda t: t[:5])
    literal = st.one_of(
        short, _text, cut, run, st.tuples(_text, st.one_of(cut, run), _text).map("".join)
    ).filter(lambda t: 0 < len(t) <= MAX_LITERAL_LENGTH)
    columns = draw(st.lists(st.lists(literal, max_size=8), min_size=1, max_size=3))
    return question, columns


# the thresholds of test_threshold_length_is_the_smallest_passing_length; the index is built under each.
# A module-level function: a parametrized @given method runs each parameter on a new instance, which
# hypothesis's differing_executors health check fails
@pytest.mark.parametrize("threshold", [MATCH_THRESHOLD, 0.55, 0.05092592592592593])
@settings(max_examples=200, deadline=None)
@given(_literal_and_question())
def test_literal_index_matches_the_full_scan(threshold, case):
    question, columns = case
    with mock.patch.object(context, "MATCH_THRESHOLD", threshold):
        _assert_index_is_exact(question, _as_literals(columns))


class TestLiteralIndex:
    """Index-backed retrieve_values against full_scan_retrieve, and how many literals it scores."""

    def test_short_literals_are_scored_unindexed(self):
        # "ab" (L0 = 2) and "abcde" (L0 = 3) sit below GRAM_LENGTH; "abcdef" (L0 = 4) is indexed
        index = index_literals(_as_literals([["ab", "abcde", "abcdef"]]))
        assert index.unindexed == (0, 1)
        assert {gram for gram, ids in index.postings.items() if 2 in ids} == {"abcd", "bcde", "cdef"}

    @pytest.mark.parametrize("workload", ["values-greedy", "multidb-maj"])
    def test_matches_the_full_scan_on_every_bench_item(self, workload, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        paths = importlib.import_module("generate").generate(workload, 3, tmp_path)
        literals = {}
        matched = 0
        for item in load_benchmark(paths["benchmark"], "bird"):
            if item.db_id not in literals:
                db = load_database(item.db_id, paths["db_root"])
                literals[item.db_id] = read_literals(db, extract_schema(db))
            question = f"{item.question} {item.evidence}" if item.evidence else item.question
            _assert_index_is_exact(question, literals[item.db_id])
            matched += bool(full_scan_retrieve(question, literals[item.db_id]))
        assert matched > 0

    def test_scores_a_small_share_of_a_large_database(self, db_factory, monkeypatch):
        # five text columns of 2000 distinct values each; every question names one of them
        rng = random.Random(7)
        syllables = ("ka", "lo", "mi", "ren", "ta", "vo", "sel", "dor", "an", "bri", "cu", "fen")
        words = [a + b for a in syllables for b in syllables if a != b]
        columns = []
        for _ in range(5):
            values = set()
            while len(values) < 2000:
                values.add(f"{rng.choice(words)} {rng.choice(words)} {rng.randint(10, 99)}")
            columns.append(sorted(values))
        rows = ", ".join("(" + ", ".join(f"'{v}'" for v in row) + ")" for row in zip(*columns))
        db = db_factory(["CREATE TABLE t (a TEXT, b TEXT, c TEXT, d TEXT, e TEXT)", f"INSERT INTO t VALUES {rows}"])
        schema = extract_schema(db)
        literals = index_literals(read_literals(db, schema))
        total = len(literals.entries)
        assert total == 10_000

        calls = []
        score = context.score_literal
        monkeypatch.setattr(context, "score_literal", lambda target, question: calls.append(1) or score(target, question))
        for index in range(40):
            column = rng.randrange(5)
            value = rng.choice(columns[column])
            question = f"What is the price of the listing whose {'abcde'[column]} is '{value}'? '{value}' refers to it"
            calls.clear()
            out = retrieve_values(question, literals, top_k=3)
            assert out[("t", "abcde"[column])][0] == value
            # a full scan would score all 10,000
            assert len(calls) <= total * 0.05, (index, len(calls))


class TestBuildPrompt:
    def _ddl(self, db):
        return render_ddl(extract_schema(db), {}, 3)

    def test_contains_instruction_phrase(self, gems_db):
        item = BenchmarkItem(item_id="0", question="How many gems?", db_id="gems", gold_sql="SELECT 1")
        prompt = build_prompt(item, self._ddl(gems_db))
        assert "think step by step" in prompt
        assert "SQLite" in prompt
        assert "How many gems?" in prompt

    def test_evidence_lands_in_question_section(self, gems_db):
        item = BenchmarkItem(
            item_id="0",
            question="How many gems?",
            db_id="gems",
            gold_sql="SELECT 1",
            evidence="gems means rows of the gems table",
        )
        prompt = build_prompt(item, self._ddl(gems_db))
        question_section = prompt.split("Question:")[1].split("Instructions:")[0]
        assert "gems means rows of the gems table" in question_section

    def test_deterministic(self, gems_db):
        item = BenchmarkItem(item_id="0", question="How many gems?", db_id="gems", gold_sql="SELECT 1")
        ddl = self._ddl(gems_db)
        assert build_prompt(item, ddl) == build_prompt(item, ddl)

    def test_prompt_length_monotone_in_values_per_column(self, gems_db):
        schema = extract_schema(gems_db)
        item = BenchmarkItem(item_id="0", question="How many gems?", db_id="gems", gold_sql="SELECT 1")
        lengths = [len(build_prompt(item, render_ddl(schema, {}, per_column))) for per_column in (0, 1, 2, 3, 4)]
        assert lengths == sorted(lengths)
