"""Schema extraction, DDL rendering, value retrieval, and prompt assembly."""

import difflib
import sqlite3

import pytest

from nl2sqlbench.context import (
    build_prompt,
    extract_schema,
    load_descriptions,
    render_ddl,
    retrieve_values,
    score_literal,
    _question_ngrams,
)
from nl2sqlbench.corpus import BenchmarkItem
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

    def test_descriptions_attached(self, stack_db):
        schema = extract_schema(stack_db, {("users", "DisplayName"): "the public name"})
        users = next(t for t in schema.tables if t.name == "users")
        display = next(c for c in users.columns if c.name == "DisplayName")
        assert display.description == "the public name"

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

    def test_missing_directory(self, tmp_path):
        assert load_descriptions(tmp_path) == {}


class TestRenderDdl:
    def test_plain_ddl_byte_stable(self, stack_db):
        schema = extract_schema(stack_db)
        first = render_ddl(schema, include_values=False)
        second = render_ddl(schema, include_values=False)
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
        text = render_ddl(schema, include_values=True, values_per_column=3)
        line = next(l for l in text.splitlines() if l.strip().startswith("v "))
        assert line.count("'") == 4  # exactly two quoted values

    def test_matched_value_listed_first(self, stack_db):
        schema = extract_schema(stack_db)
        schema = retrieve_values("posts by Neil McGuigan", stack_db, schema, top_k=3)
        text = render_ddl(schema, include_values=True, values_per_column=3)
        display_line = next(l for l in text.splitlines() if "DisplayName" in l)
        assert "examples: 'Neil McGuigan'" in display_line

    def test_spaced_identifiers_backticked(self, schools_db):
        schema = extract_schema(schools_db)
        text = render_ddl(schema, include_values=False)
        assert "`Percent (%) Eligible Free (K-12)`" in text
        assert "`School Name`" in text

    def test_empty_schema_is_an_error(self, db_factory):
        db = db_factory([])
        with pytest.raises(SchemaError):
            render_ddl(extract_schema(db))


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
        out = retrieve_values(self.QUESTION, f1_db, schema, top_k=3)
        matches = out.matched_values[("races", "name")]
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
        out = retrieve_values(self.QUESTION, f1_db, schema, top_k=3)
        assert out.matched_values[("races", "name")] == expected

    def test_scores_match_oracle_on_all_race_names(self, f1_db):
        for name in ["European Grand Prix", "Monaco Grand Prix", "Australian Grand Prix"]:
            mine = score_literal(name, _question_ngrams(self.QUESTION))
            assert mine == pytest.approx(oracle_score(name, self.QUESTION))

    def test_no_overlap_question_matches_nothing(self, f1_db):
        schema = extract_schema(f1_db)
        out = retrieve_values("zzz qqq xyzzy", f1_db, schema, top_k=3)
        assert out.matched_values == {}

    def test_matches_exist_verbatim_in_column(self, f1_db, stack_db):
        for db, question in (
            (f1_db, self.QUESTION),
            (stack_db, "How many comments did Neil McGuigan write?"),
        ):
            schema = extract_schema(db)
            out = retrieve_values(question, db, schema, top_k=3)
            conn = db.connect()
            try:
                for (table, column), values in out.matched_values.items():
                    for value in values:
                        row = conn.execute(
                            f'SELECT 1 FROM "{table}" WHERE "{column}" = ? LIMIT 1', (value,)
                        ).fetchone()
                        assert row is not None, (table, column, value)
            finally:
                conn.close()

    def test_numeric_columns_untouched(self, f1_db):
        schema = extract_schema(f1_db)
        out = retrieve_values("1999 1950 1952", f1_db, schema, top_k=3)
        assert ("races", "year") not in out.matched_values

    def test_bad_top_k(self, f1_db):
        with pytest.raises(ValueError):
            retrieve_values("q", f1_db, extract_schema(f1_db), top_k=0)


class TestBuildPrompt:
    def _ctx(self, db, include_values=True):
        from dataclasses import replace

        schema = extract_schema(db)
        return replace(schema, ddl_text=render_ddl(schema, include_values=include_values))

    def test_contains_instruction_phrase(self, gems_db):
        item = BenchmarkItem(item_id="0", question="How many gems?", db_id="gems", gold_sql="SELECT 1")
        prompt = build_prompt(item, self._ctx(gems_db))
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
        prompt = build_prompt(item, self._ctx(gems_db))
        question_section = prompt.split("Question:")[1].split("Instructions:")[0]
        assert "gems means rows of the gems table" in question_section

    def test_deterministic(self, gems_db):
        item = BenchmarkItem(item_id="0", question="How many gems?", db_id="gems", gold_sql="SELECT 1")
        ctx = self._ctx(gems_db)
        assert build_prompt(item, ctx) == build_prompt(item, ctx)

    def test_prompt_length_monotone_in_values_per_column(self, gems_db):
        from dataclasses import replace

        schema = extract_schema(gems_db)
        item = BenchmarkItem(item_id="0", question="How many gems?", db_id="gems", gold_sql="SELECT 1")
        lengths = []
        for per_column in (0, 1, 2, 3, 4):
            ctx = replace(
                schema, ddl_text=render_ddl(schema, include_values=True, values_per_column=per_column)
            )
            lengths.append(len(build_prompt(item, ctx)))
        assert lengths == sorted(lengths)

    def test_empty_ddl_rejected(self, gems_db):
        schema = extract_schema(gems_db)
        item = BenchmarkItem(item_id="0", question="q", db_id="gems", gold_sql="SELECT 1")
        with pytest.raises(SchemaError):
            build_prompt(item, schema)
