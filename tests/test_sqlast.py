"""Parser structure checks and the render/reparse round-trip corpus."""

import dataclasses
import sqlite3
from contextlib import closing

import pytest

from sql_render import render_sql

from nl2sqlbench import diagnoser
from nl2sqlbench.diagnoser import classify, parse_sql, sqlast, walk
from nl2sqlbench.diagnoser.sqlast import (
    Binary,
    Cast,
    ColumnRef,
    Exists,
    FuncCall,
    LikeExpr,
    Literal,
    OpaqueExpr,
    Select,
    Star,
    Subquery,
    TableRef,
    Unary,
    Values,
    tokenize,
)
from nl2sqlbench.errors import SqlParseError


BASE_QUERIES = [
    "SELECT 1",
    "SELECT * FROM t",
    "SELECT a, b FROM t WHERE a = 1",
    "SELECT COUNT(*) FROM t WHERE a < 60",
    "SELECT DISTINCT a FROM t",
    "SELECT a AS x, b y FROM t",
    "SELECT t.a, u.b FROM t JOIN u ON t.id = u.id",
    "SELECT a FROM t LEFT JOIN u ON t.id = u.id WHERE u.id IS NULL",
    "SELECT a FROM t, u WHERE t.id = u.id",
    "SELECT a FROM t WHERE b IN (1, 2, 3)",
    "SELECT a FROM t WHERE b NOT IN (SELECT c FROM u)",
    "SELECT a FROM t WHERE b LIKE 'x%'",
    "SELECT a FROM t WHERE b NOT LIKE '%y' ESCAPE '!'",
    "SELECT a FROM t WHERE b BETWEEN 1 AND 10",
    "SELECT a FROM t WHERE b NOT BETWEEN 1 AND 2 OR c = 3",
    "SELECT a FROM t WHERE b IS NOT NULL AND NOT c = 2",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
    "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)",
    "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END FROM t",
    "SELECT CASE a WHEN 1 THEN 'one' ELSE 'many' END FROM t",
    "SELECT CAST(a AS REAL) / b FROM t",
    "SELECT CAST(a AS VARCHAR(10)) FROM t",
    "SELECT a || '-' || b FROM t",
    "SELECT -a, +b, ~c FROM t",
    "SELECT a * (b + c) % d FROM t",
    "SELECT SUM(a) FROM t GROUP BY b HAVING SUM(a) > 10",
    "SELECT a, COUNT(DISTINCT b) FROM t GROUP BY a",
    "SELECT a FROM t ORDER BY a DESC, b ASC",
    "SELECT a FROM t ORDER BY a NULLS LAST",
    "SELECT a FROM t LIMIT 10",
    "SELECT a FROM t LIMIT 10 OFFSET 5",
    "SELECT a FROM t LIMIT 5, 10",
    "SELECT a FROM t1 UNION SELECT b FROM t2",
    "SELECT a FROM t1 UNION ALL SELECT b FROM t2 INTERSECT SELECT c FROM t3",
    "WITH w AS (SELECT a FROM t) SELECT * FROM w",
    "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r) SELECT n FROM r LIMIT 10",
    "SELECT sub.a FROM (SELECT a FROM t WHERE b = 1) AS sub",
    "SELECT a FROM t WHERE (b, c) IN (SELECT d, e FROM u)",
    "SELECT `Free Meal Count (K-12)` FROM frpm",
    'SELECT "School Name" FROM frpm WHERE "Percent (%) Eligible Free (K-12)" > 0.1',
    "SELECT [Weird Name] FROM [Odd Table]",
    "SELECT strftime('%Y', d) FROM t",
    "SELECT a FROM t WHERE b GLOB 'x*'",
    "SELECT a FROM t WHERE c COLLATE NOCASE = 'x'",
    "SELECT t.* FROM t",
    "SELECT 0x1F, 1e3, .5, 2.5e-1",
    "SELECT a FROM t WHERE b = 'it''s'",
    "SELECT sch.a FROM main.sch AS sch",
    "SELECT a FROM t NATURAL JOIN u",
    "SELECT a FROM t CROSS JOIN u USING (id)",
    "SELECT IFNULL(a, 0) + COALESCE(b, c, 1) FROM t",
    "SELECT a FROM t WHERE rowid = 5",
]

# the five case-study shapes exercised end to end elsewhere
CASE_QUERIES = [
    "SELECT COUNT(*) FROM comments c JOIN users u ON c.UserId = u.Id "
    "WHERE c.Score < 60 AND u.DisplayName = 'Neil McGuigan'",
    "SELECT COUNT(T3.Id) FROM users AS T1 INNER JOIN posts AS T2 ON T1.Id = T2.OwnerUserId "
    "INNER JOIN comments AS T3 ON T2.Id = T3.PostId "
    "WHERE T1.DisplayName = 'Neil McGuigan' AND T3.Score < 60",
    "SELECT T2.`School Name` FROM satscores AS T1 INNER JOIN frpm AS T2 ON T1.cds = T2.CDSCode "
    "WHERE CAST(T2.`Free Meal Count (K-12)` AS REAL) / T2.`Enrollment (K-12)` > 0.1 AND T1.NumGE1500 > 0",
    "SELECT T1.District FROM schools AS T1 INNER JOIN satscores AS T2 ON T1.CDSCode = T2.cds "
    "WHERE T1.StatusType = 'Active' ORDER BY T2.AvgScrRead DESC LIMIT 1",
    "SELECT T1.country, T1.location FROM circuits AS T1 INNER JOIN races AS T2 "
    "ON T2.circuitId = T1.circuitId WHERE T2.name = 'European Grand Prix' ORDER BY T2.year ASC LIMIT 1",
    "SELECT AVG(CAST(SUBSTR(T2.fastestLapTime, 1, INSTR(T2.fastestLapTime, ':') - 1) AS INTEGER) * 60 + "
    "CAST(SUBSTR(T2.fastestLapTime, INSTR(T2.fastestLapTime, ':') + 1) AS REAL)) "
    "FROM drivers AS T1 INNER JOIN results AS T2 ON T1.driverId = T2.driverId "
    "WHERE T1.surname = 'Hamilton' AND T1.forename = 'Lewis'",
]


def _generated_queries() -> list[str]:
    projections = ["*", "a", "a, b", "COUNT(*)", "DISTINCT a", "MAX(a) AS top", "a + 1", "CAST(a AS TEXT)"]
    predicates = [
        "a > 1",
        "a <= 2 AND b = 'x'",
        "b LIKE 'a%'",
        "a BETWEEN 1 AND 5",
        "a IN (1, 2)",
        "b IS NULL",
        "NOT a = 3",
        "a = 1 OR b = 'y'",
    ]
    tails = ["", " ORDER BY a", " LIMIT 5"]
    queries = []
    for projection in projections:
        for predicate in predicates:
            for tail in tails:
                queries.append(f"SELECT {projection} FROM t WHERE {predicate}{tail}")
    return queries


CORPUS = BASE_QUERIES + CASE_QUERIES + _generated_queries()


def _sqlite(sql: str) -> list:
    """Rows of ``sql`` run by SQLite on an empty in-memory database, which is closed after."""
    with closing(sqlite3.connect(":memory:")) as conn:
        return conn.execute(sql).fetchall()


class TestRoundTrip:
    def test_corpus_is_big_enough(self):
        assert len(CORPUS) >= 200

    @pytest.mark.parametrize("query", CORPUS, ids=range(len(CORPUS)))
    def test_render_reparse_equal(self, query):
        ast = parse_sql(query)
        rendered = render_sql(ast)
        assert parse_sql(rendered) == ast

    def test_full_corpus_rate(self):
        good = sum(1 for q in CORPUS if parse_sql(render_sql(parse_sql(q))) == parse_sql(q))
        assert good == len(CORPUS)


class TestStructure:
    def test_aggregate_and_comparison(self):
        ast = parse_sql("SELECT COUNT(*) FROM t WHERE a < 60")
        functions = [n for n in walk(ast) if isinstance(n, FuncCall)]
        comparisons = [n for n in walk(ast) if isinstance(n, Binary) and n.op == "<"]
        assert [f.name for f in functions] == ["COUNT"]
        assert len(comparisons) == 1

    def test_nested_scalar_functions(self):
        ast = parse_sql(CASE_QUERIES[-1])
        names = {n.name for n in walk(ast) if isinstance(n, FuncCall)}
        assert {"SUBSTR", "INSTR", "AVG"} <= names
        assert any(isinstance(n, Cast) for n in walk(ast))

    def test_column_and_table_shapes(self):
        ast = parse_sql("SELECT t.a FROM big AS t")
        refs = [n for n in walk(ast) if isinstance(n, ColumnRef)]
        tables = [n for n in walk(ast) if isinstance(n, TableRef)]
        assert refs == [ColumnRef("t", "a")]
        assert tables[0].name == "big" and tables[0].alias == "t"

    def test_subquery_detected(self):
        ast = parse_sql("SELECT a FROM t WHERE x = (SELECT MAX(x) FROM t)")
        assert any(isinstance(n, Subquery) for n in walk(ast))

    def test_window_function_becomes_opaque(self):
        ast = parse_sql("SELECT SUM(x) OVER (PARTITION BY y) FROM t")
        opaques = [n for n in walk(ast) if isinstance(n, OpaqueExpr)]
        assert len(opaques) == 1
        assert "OVER" in opaques[0].text

    def test_star_variants(self):
        ast = parse_sql("SELECT t.*, * FROM t")
        stars = [n for n in walk(ast) if isinstance(n, Star)]
        assert {s.table for s in stars} == {"t", None}

    def test_string_escapes(self):
        ast = parse_sql("SELECT 'it''s'")
        literal = next(n for n in walk(ast) if isinstance(n, Literal))
        assert literal.value == "it's"

    def test_select_structure_fields(self):
        ast = parse_sql("SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a LIMIT 3")
        assert isinstance(ast, Select)
        core = ast.cores[0]
        assert core.group_by and core.having is not None
        assert ast.order_by and ast.limit is not None


class TestNodes:
    def test_nodes_of_different_classes_with_equal_fields_are_unequal(self):
        select = parse_sql("SELECT 1")
        assert Exists(select) != Subquery(select)
        assert Exists(select) == Exists(parse_sql("SELECT 1"))

    def test_nodes_are_unhashable(self):
        for node in (Literal(1, "1"), ColumnRef(None, "a"), parse_sql("SELECT a FROM t")):
            with pytest.raises(TypeError):
                hash(node)

    def test_repr_names_each_field(self):
        assert repr(Literal(1, "1")) == "Literal(value=1, text='1')"
        assert repr(FuncCall("COUNT")) == "FuncCall(name='COUNT', args=[], distinct=False)"

    def test_each_call_gets_its_own_default_args(self):
        first, second = FuncCall("COUNT"), FuncCall("COUNT")
        first.args.append(Star())
        assert second.args == []

    def test_token_is_immutable_and_hashable(self):
        token = tokenize("select")[0]
        assert (token.kind, token.text, token.upper, token.pos, token.end) == ("name", "select", "SELECT", 0, 6)
        assert tokenize("'select'")[0].upper == ""
        with pytest.raises(AttributeError):
            token.kind = "op"
        assert hash(token) == hash(tokenize("select")[0])


class TestNodeFields:
    def test_each_node_holds_its_fields_in_order(self):
        for query in CORPUS:
            for node in walk(parse_sql(query)):
                assert tuple(vars(node)) == type(node)._fields, (query, node)

    def test_left_out_trailing_fields_take_their_defaults(self):
        like = LikeExpr("LIKE", ColumnRef(None, "a"), Literal("x%"))
        assert (like.escape, like.negated) == (None, False)
        assert tuple(vars(like)) == LikeExpr._fields
        assert Select([], False, [], [], []) == Select([], False, [], [], [], None, None)

    @pytest.mark.parametrize(
        "cls, args",
        [
            (Binary, ("+", 1)),
            (Binary, ("+", 1, 2, 3)),
            (LikeExpr, ("LIKE", 1)),
            (Literal, ()),
            (Literal, (1, "1", None)),
            (FuncCall, ()),
            (FuncCall, ("COUNT", [], False, None)),
        ],
        ids=["binary_short", "binary_long", "like_no_pattern", "literal_empty", "literal_long", "func_empty",
             "func_long"],
    )
    def test_a_wrong_argument_count_is_a_type_error_naming_the_class(self, cls, args):
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args)


class TestImportCost:
    def test_the_diagnoser_defines_no_dataclass_but_error_label(self):
        # every process imports the diagnoser, and a dataclass generates its methods' code at import
        found = {
            name
            for module in (diagnoser, sqlast, classify)
            for name, value in vars(module).items()
            if isinstance(value, type) and dataclasses.is_dataclass(value)
        }
        assert found == {"ErrorLabel"}


class TestSqliteSyntax:
    """Syntax that SQLite accepts and the parser reads as SQLite does: each case prepares and round-trips."""

    @pytest.mark.parametrize(
        "sql, same_as",
        [
            ("SELECT a FROM t WHERE a IS DISTINCT FROM b", "SELECT a FROM t WHERE a IS NOT b"),
            ("SELECT a FROM t WHERE a IS NOT DISTINCT FROM b + 1", "SELECT a FROM t WHERE a IS b + 1"),
            ("SELECT a FROM t INDEXED BY ia", "SELECT a FROM t"),
            ("SELECT x.a FROM main.t AS x INDEXED BY ia WHERE x.a = 1", "SELECT x.a FROM t AS x WHERE x.a = 1"),
            ("SELECT x.a FROM t x NOT INDEXED JOIN u ON x.a = u.a", "SELECT x.a FROM t x JOIN u ON x.a = u.a"),
            ("SELECT b FROM t NOT INDEXED, u", "SELECT b FROM t, u"),
        ],
        ids=["is_distinct_from", "is_not_distinct_from", "indexed_by", "alias_indexed_by", "alias_not_indexed",
             "not_indexed"],
    )
    def test_parses_as_sqlite_reads_it(self, sql, same_as):
        if "DISTINCT FROM" in sql and sqlite3.sqlite_version_info < (3, 39):
            pytest.skip("IS DISTINCT FROM needs SQLite 3.39")
        ast = parse_sql(sql)
        assert ast == parse_sql(same_as)
        assert parse_sql(render_sql(ast)) == ast
        with closing(sqlite3.connect(":memory:")) as conn:
            conn.executescript(
                "CREATE TABLE t(a, b); CREATE INDEX ia ON t(a); CREATE TABLE u(a);"
                "INSERT INTO t VALUES (1, 1), (1, NULL), (NULL, NULL), (2, 1), (1, '1'), (2, 3);"
                "INSERT INTO u VALUES (1), (NULL);"
            )
            conn.execute(f"EXPLAIN {sql}")
            # SQLite reads both spellings the same way
            assert sorted(conn.execute(sql), key=repr) == sorted(conn.execute(same_as), key=repr)

    @pytest.mark.parametrize(
        "sql, rows",
        [
            ("VALUES (1, 'a'), (2, 'b')", [(1, "a"), (2, "b")]),
            ("SELECT a, b FROM t UNION ALL VALUES (1, 2), (3, 4)", [(1, 2), (3, 4)]),
            ("VALUES (1) EXCEPT SELECT a FROM u ORDER BY 1 LIMIT 1", [(1,)]),
            ("WITH v(n) AS (VALUES (1), (2)) SELECT n FROM v LIMIT 1", [(1,), (2,)]),
            ("SELECT * FROM (VALUES (1, 2)) AS x WHERE x.column1 IN (VALUES (1), (NULL)) AND (VALUES (0)) = 0",
             [(1, 2)]),
        ],
        ids=["statement", "compound_arm", "first_arm", "cte_body", "subqueries"],
    )
    def test_values_parses_as_sqlite_reads_it(self, sql, rows):
        ast = parse_sql(sql)
        first = next(node for node in walk(ast) if isinstance(node, Values))
        assert [tuple(cell.value for cell in row) for row in first.rows] == rows
        assert parse_sql(render_sql(ast)) == ast
        with closing(sqlite3.connect(":memory:")) as conn:
            conn.executescript("CREATE TABLE t(a, b); CREATE TABLE u(a);")
            conn.execute(f"EXPLAIN {sql}")

    def test_no_order_by_or_limit_after_a_last_values(self):
        # in SQLite's grammar both belong to a SELECT core
        for sql in ("VALUES (1), (2) ORDER BY 1", "SELECT a FROM t UNION VALUES (1) LIMIT 1"):
            with pytest.raises(SqlParseError, match="trailing input"):
                parse_sql(sql)
            with closing(sqlite3.connect(":memory:")) as conn:
                conn.execute("CREATE TABLE t(a)")
                with pytest.raises(sqlite3.OperationalError, match="syntax error"):
                    conn.execute(sql)

    def test_indexed_is_not_an_implicit_alias(self):
        # SQLite reads it as the start of INDEXED BY in both alias slots
        for sql in ("SELECT a FROM t indexed", "SELECT a indexed FROM t"):
            with pytest.raises(SqlParseError):
                parse_sql(sql)
            with closing(sqlite3.connect(":memory:")) as conn:
                conn.execute("CREATE TABLE t(a)")
                with pytest.raises(sqlite3.OperationalError):
                    conn.execute(sql)


class TestParseErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(SqlParseError) as excinfo:
            parse_sql("SELECT FROM t")
        assert excinfo.value.position == 7

    def test_unterminated_string(self):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT 'oops FROM t")

    def test_trailing_garbage(self):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT 1 extra nonsense !")

    def test_not_a_select(self):
        with pytest.raises(SqlParseError):
            parse_sql("INSERT INTO t VALUES (1)")

    def test_nesting_too_deep(self):
        with pytest.raises(SqlParseError, match="nesting too deep"):
            parse_sql("SELECT " + "(" * 500 + "1" + ")" * 500)

    def test_hex_literal_over_64_bits(self):
        with pytest.raises(SqlParseError, match="hex literal too big: 0x10000000000000000") as excinfo:
            parse_sql("SELECT 1 FROM t WHERE a = 0x10000000000000000")
        assert excinfo.value.position == 26


class TestDepth:
    def test_walk_does_not_recurse(self):
        node = Literal(1, "1")
        for _ in range(20_000):
            node = Unary("-", node)
        assert sum(1 for _ in walk(node)) == 20_001

    def test_long_chains_and_deep_parentheses_parse(self):
        chain = parse_sql("SELECT " + " + ".join(["a"] * 3000)).cores[0].columns[0].expr
        assert sum(isinstance(n, Binary) for n in walk(chain)) == 2999
        assert parse_sql("SELECT " + "(" * 80 + "1" + ")" * 80) == parse_sql("SELECT 1")


class TestNumberLiterals:
    """Number literals read as SQLite reads them.

    An integer beyond 64 bits is a REAL. A hex one is a 64-bit two's-complement integer, and an error beyond 64 bits.
    """

    @pytest.mark.parametrize(
        "text, value",
        [
            ("9223372036854775807", 9223372036854775807),
            ("9223372036854775808", 9223372036854775808.0),
            ("0" * 5000 + "7", 7),
            ("9" * 5000, float("inf")),
            ("0xFFFFFFFFFFFFFFFF", -1),
            ("0x8000000000000000", -(2**63)),
            ("0x7FFFFFFFFFFFFFFF", 2**63 - 1),
            ("0x" + "0" * 300 + "1", 1),
            ("1e3", 1000.0),
        ],
        ids=["int64_max", "past_int64", "leading_zeros", "5000_digits", "hex_64_bits", "hex_bit_63",
             "hex_int64_max", "hex_leading_zeros", "real"],
    )
    def test_value(self, text, value):
        token = tokenize(text)[0]
        assert token.text == text
        assert token.value == value and type(token.value) is type(value)
        # SQLite reads the literal as the same value
        assert _sqlite(f"SELECT {text}") == [(value,)]


class TestBlobsAndComments:
    """Blob literals and a trailing unterminated block comment read as SQLite reads them."""

    @pytest.mark.parametrize("text, value", [("X'ABCD'", b"\xab\xcd"), ("x'aBcD'", b"\xab\xcd"), ("X''", b"")])
    def test_blob_value(self, text, value):
        token = tokenize(text)[0]
        assert (token.kind, token.text, token.value) == ("blob", text, value)
        assert parse_sql(f"SELECT {text}").cores[0].columns[0].expr == Literal(value, text)
        # EXPLAIN of a blob literal fails only in decoding the listing, so run the SELECT
        assert _sqlite(f"SELECT {text}") == [(value,)]

    @pytest.mark.parametrize("text", ["X'ABC'", "X'GG'", "x'AB CD'"])
    def test_malformed_blob_is_an_unrecognized_token(self, text):
        with pytest.raises(SqlParseError, match="unrecognized token") as excinfo:
            parse_sql(f"SELECT {text}")
        assert excinfo.value.position == 7
        with pytest.raises(sqlite3.OperationalError, match="unrecognized token"):
            _sqlite(f"SELECT {text}")

    @pytest.mark.parametrize("tail", ["/* to the end", "/*\n", "/**", "/* one */ /* two"])
    def test_unterminated_block_comment_runs_to_the_end(self, tail):
        sql = f"SELECT 1 {tail}"
        assert parse_sql(sql) == parse_sql("SELECT 1")
        _sqlite(f"EXPLAIN {sql}")

    def test_a_bare_trailing_comment_opener_is_an_error(self):
        # SQLite reads "/*" with nothing after it as the operators / and *
        with pytest.raises(SqlParseError):
            parse_sql("SELECT 1 /*")
        with pytest.raises(sqlite3.OperationalError):
            _sqlite("SELECT 1 /*")
