"""Benchmark loading, database registry, and difficulty stratification."""

import json
import sqlite3

import pytest
from hypothesis import given, strategies as st

from conftest import build_db, dump_benchmark, run_sql, write_benchmark

from nl2sqlbench.context import extract_schema, read_catalog
from nl2sqlbench.corpus import (
    BenchmarkItem,
    DatabaseHandle,
    load_benchmark,
    load_database,
    stratify,
)
from nl2sqlbench.errors import ConfigError, IngestError, RegistryError, SchemaError


BIRD_RECORDS = [
    {
        "question_id": 0,
        "question": "How many schools are there?",
        "evidence": "",
        "db_id": "california_schools",
        "SQL": "SELECT COUNT(*) FROM schools",
        "difficulty": "simple",
    },
    {
        "question_id": 1,
        "question": "Average reading score of active districts?",
        "evidence": "active means StatusType = 'Active'",
        "db_id": "california_schools",
        "SQL": "SELECT AVG(AvgScrRead) FROM satscores",
        "difficulty": "Moderate",
    },
    {
        "question_id": 2,
        "question": "Hardest one?",
        "evidence": "",
        "db_id": "california_schools",
        "SQL": "SELECT 1",
        "difficulty": "challenging",
    },
]

SPIDER_RECORDS = [
    {"question": "How many users?", "db_id": "stack", "query": "SELECT COUNT(*) FROM users"},
    {"question": "List posts.", "db_id": "stack", "query": "SELECT Title FROM posts"},
]


class TestLoadBenchmark:
    def test_bird_records_carry_evidence_and_difficulty(self, tmp_path):
        path = write_benchmark(tmp_path / "bird_dev.json", BIRD_RECORDS)
        items = load_benchmark(path, "bird")
        assert len(items) == 3
        assert items[0].difficulty == "simple"
        assert items[1].difficulty == "moderate"  # case-insensitive label
        assert items[1].evidence == "active means StatusType = 'Active'"
        assert items[2].difficulty == "challenging"

    def test_spider_records_carry_neither(self, tmp_path):
        path = write_benchmark(tmp_path / "spider_dev.json", SPIDER_RECORDS)
        items = load_benchmark(path, "spider")
        assert all(item.evidence is None for item in items)
        assert all(item.difficulty == "unlabeled" for item in items)

    def test_empty_array_is_rejected_naming_the_file(self, tmp_path):
        path = write_benchmark(tmp_path / "empty.json", [])
        with pytest.raises(IngestError, match=r"empty\.json: no records"):
            load_benchmark(path, "bird")

    def test_three_record_fixture_round_trips_field_by_field(self, tmp_path):
        # independent oracle: read the raw JSON fields directly
        path = write_benchmark(tmp_path / "bird_dev.json", BIRD_RECORDS)
        raw = json.loads(path.read_text())
        items = load_benchmark(path, "bird")
        for record, item in zip(raw, items):
            assert item.question == record["question"]
            assert item.db_id == record["db_id"]
            assert item.gold_sql == record["SQL"]
            assert (item.evidence or "") == record["evidence"]

    def test_missing_field_names_record_and_field(self, tmp_path):
        bad = [dict(BIRD_RECORDS[0]), {"question": "q", "db_id": "d", "evidence": ""}]
        path = write_benchmark(tmp_path / "bad.json", bad)
        with pytest.raises(IngestError, match=r"record 1.*SQL"):
            load_benchmark(path, "bird")

    def test_unknown_format_tag(self, tmp_path):
        path = write_benchmark(tmp_path / "x.json", [])
        with pytest.raises(ConfigError):
            load_benchmark(path, "duckdb")

    def test_unknown_difficulty_becomes_unlabeled_with_warning(self, tmp_path, caplog):
        records = [dict(BIRD_RECORDS[0], difficulty="weird")]
        path = write_benchmark(tmp_path / "w.json", records)
        with caplog.at_level("WARNING"):
            items = load_benchmark(path, "bird")
        assert items[0].difficulty == "unlabeled"
        assert any("weird" in message for message in caplog.messages)

    def test_dump_then_load_is_lossless(self, tmp_path):
        path = write_benchmark(tmp_path / "bird_dev.json", BIRD_RECORDS)
        items = load_benchmark(path, "bird")
        path2 = write_benchmark(tmp_path / "again.json", dump_benchmark(items, "bird"))
        assert load_benchmark(path2, "bird") == items


class TestLoadDatabase:
    def test_happy_path(self, gems_db):
        handle = load_database("gems", gems_db.path.parent.parent)
        assert handle == DatabaseHandle("gems", gems_db.path)

    def test_missing_db_names_db_id(self, tmp_path):
        with pytest.raises(RegistryError, match="nope") as raised:
            load_database("nope", tmp_path)
        assert str(tmp_path / "nope" / "nope.sqlite") in str(raised.value)
        assert str(tmp_path / "nope.sqlite") in str(raised.value)

    def test_corrupt_file_is_an_open_error(self, tmp_path):
        # registering opens nothing: the database's first read, of either kind, names the database and its file
        bad = tmp_path / "junk" / "junk.sqlite"
        bad.parent.mkdir()
        bad.write_bytes(b"this is not a sqlite file" * 10)
        handle = load_database("junk", tmp_path)
        for read in (read_catalog, extract_schema):
            with pytest.raises(SchemaError, match=r"^junk: ") as raised:
                read(handle)
            assert f": {bad}: file is not a database" in str(raised.value)

    def test_flat_layout(self, tmp_path, gems_db):
        flat = tmp_path / "gems.sqlite"
        flat.write_bytes(gems_db.path.read_bytes())
        handle = load_database("gems", tmp_path)
        assert handle.path == flat

    def test_nested_file_wins_over_flat(self, tmp_path, gems_db):
        nested = tmp_path / "gems" / "gems.sqlite"
        nested.parent.mkdir()
        nested.write_bytes(gems_db.path.read_bytes())
        (tmp_path / "gems.sqlite").write_bytes(b"not a database, and never opened")
        assert load_database("gems", tmp_path).path == nested

    def test_uri_characters_in_the_path(self, tmp_path):
        # a '#' once cut the URI short: SQLite created an empty read-write database at 'we' instead
        root = tmp_path / "we#ird%41 ?dir"
        build_db(root / "t" / "t.sqlite", ["CREATE TABLE t (v)", "INSERT INTO t VALUES (1), (2)"])
        handle = load_database("t", root)
        assert run_sql(handle, "SELECT v FROM t ORDER BY v").rows == [(1,), (2,)]
        conn = handle.connect()
        try:
            conn.execute("PRAGMA query_only = OFF")
            with pytest.raises(sqlite3.OperationalError, match="readonly"):
                conn.execute("INSERT INTO t VALUES (3)")
        finally:
            conn.close()
        assert [p.name for p in tmp_path.iterdir()] == [root.name]
        assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*")) == ["t", "t/t.sqlite"]

    def test_writes_rejected_on_handle_connection(self, gems_db):
        import sqlite3

        conn = gems_db.connect()
        try:
            with pytest.raises(sqlite3.OperationalError):
                conn.execute("INSERT INTO gems VALUES (99, 'X', 1.0, 'Y')")
        finally:
            conn.close()


def _item(i: int, difficulty: str) -> BenchmarkItem:
    return BenchmarkItem(item_id=str(i), question="q", db_id="d", gold_sql="SELECT 1", difficulty=difficulty)


class TestStratify:
    def test_all_unlabeled_single_bucket(self):
        items = [_item(i, "unlabeled") for i in range(3)]
        buckets = stratify(items)
        assert [len(b) for b in buckets.values()] == [0, 0, 0, 3]

    def test_mixed_counts(self):
        items = [_item(0, "simple"), _item(1, "simple"), _item(2, "challenging")]
        buckets = stratify(items)
        assert len(buckets["simple"]) == 2
        assert len(buckets["challenging"]) == 1
        assert list(buckets) == ["simple", "moderate", "challenging", "unlabeled"]

    def test_empty_input_four_empty_buckets(self):
        buckets = stratify([])
        assert list(buckets) == ["simple", "moderate", "challenging", "unlabeled"]
        assert all(not b for b in buckets.values())

    @given(st.lists(st.sampled_from(["simple", "moderate", "challenging", "unlabeled"]), max_size=40))
    def test_partition_property(self, difficulties):
        items = [_item(i, d) for i, d in enumerate(difficulties)]
        buckets = stratify(items)
        assert sum(len(b) for b in buckets.values()) == len(items)
        seen = [item.item_id for bucket in buckets.values() for item in bucket]
        assert len(seen) == len(set(seen))
