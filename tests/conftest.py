"""Shared fixtures: small SQLite databases and benchmark/mock builders."""

from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path

import pytest

from nl2sqlbench.context import extract_schema, index_literals, read_literals
from nl2sqlbench.corpus import BenchmarkItem, DatabaseHandle
from nl2sqlbench.executor import DEFAULT_TIMEOUT_SECONDS, ExecutionOutcome, ItemReader, execute_sql
from nl2sqlbench.gateway import MockBackend


def build_db(path: Path, statements: list[str]) -> DatabaseHandle:
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path)
    try:
        for stmt in statements:
            conn.execute(stmt)
        conn.commit()
    finally:
        conn.close()
    return DatabaseHandle(db_id=path.stem, path=path)


STACK_DB = [
    "CREATE TABLE users (Id INTEGER PRIMARY KEY, DisplayName TEXT, Reputation INTEGER)",
    "CREATE TABLE posts (Id INTEGER PRIMARY KEY, OwnerUserId INTEGER REFERENCES users(Id), Title TEXT)",
    "CREATE TABLE comments (Id INTEGER PRIMARY KEY, PostId INTEGER REFERENCES posts(Id), "
    "UserId INTEGER REFERENCES users(Id), Score INTEGER, Text TEXT)",
    "INSERT INTO users VALUES (1, 'Neil McGuigan', 100), (2, 'Ada Lovelace', 200), (3, 'Grace Hopper', 300)",
    "INSERT INTO posts VALUES (10, 1, 'How to SQL'), (11, 2, 'Hello'), (12, 1, 'Another post')",
    "INSERT INTO comments VALUES (100, 10, 2, 55, 'nice'), (101, 10, 3, -5, 'meh'), "
    "(102, 12, 2, 40, 'ok'), (103, 11, 1, 70, 'good'), (104, 10, 1, 30, 'self-comment')",
]

SCHOOLS_DB = [
    'CREATE TABLE frpm (CDSCode TEXT PRIMARY KEY, "School Name" TEXT, "Free Meal Count (K-12)" REAL, '
    '"Enrollment (K-12)" REAL, "Percent (%) Eligible Free (K-12)" REAL)',
    "CREATE TABLE satscores (cds TEXT PRIMARY KEY, sname TEXT, dname TEXT, NumGE1500 INTEGER, AvgScrRead INTEGER)",
    "CREATE TABLE schools (CDSCode TEXT PRIMARY KEY, District TEXT, StatusType TEXT)",
    "INSERT INTO frpm VALUES ('c1', 'Alpha High', 120, 1000, 0.12), "
    "('c2', 'Beta High', 50, 1000, 0.05), ('c3', 'Gamma High', 300, 1200, 0.25)",
    "INSERT INTO satscores VALUES ('c1', 'Alpha High', 'North District', 12, 520), "
    "('c2', 'Beta High', 'South District', 0, 480), ('c3', 'Gamma High', 'North District', 8, 610)",
    "INSERT INTO schools VALUES ('c1', 'North District', 'Active'), "
    "('c2', 'South District', 'Active'), ('c3', 'North District', 'Closed')",
]

F1_DB = [
    "CREATE TABLE circuits (circuitId INTEGER PRIMARY KEY, name TEXT, location TEXT, country TEXT)",
    "CREATE TABLE races (raceId INTEGER PRIMARY KEY, year INTEGER, "
    "circuitId INTEGER REFERENCES circuits(circuitId), name TEXT)",
    "CREATE TABLE drivers (driverId INTEGER PRIMARY KEY, forename TEXT, surname TEXT)",
    "CREATE TABLE results (resultId INTEGER PRIMARY KEY, raceId INTEGER REFERENCES races(raceId), "
    "driverId INTEGER REFERENCES drivers(driverId), fastestLapTime TEXT)",
    "INSERT INTO circuits VALUES (1, 'Monte Carlo', 'Monte Carlo', 'Monaco'), "
    "(2, 'Nurburgring', 'Nurburg', 'Germany'), (3, 'Silverstone', 'Towcester', 'UK')",
    "INSERT INTO races VALUES (1, 1999, 2, 'European Grand Prix'), (2, 1950, 1, 'Monaco Grand Prix'), "
    "(3, 1952, 3, 'British Grand Prix'), (4, 1951, 1, 'Spanish Grand Prix'), "
    "(5, 1996, 3, 'Australian Grand Prix')",
    "INSERT INTO drivers VALUES (1, 'Lewis', 'Hamilton'), (2, 'Max', 'Verstappen')",
    "INSERT INTO results VALUES (1, 1, 1, '1:23.456'), (2, 2, 1, '1:30.100'), (3, 3, 2, '1:25.000')",
]

GEMS_DB = [
    "CREATE TABLE gems (id INTEGER PRIMARY KEY, name TEXT, carat REAL, origin TEXT)",
    "INSERT INTO gems VALUES (1, 'Zephyr Quartz', 1.5, 'Brazil'), (2, 'Crimson Beryl', 2.0, 'Kenya'), "
    "(3, 'Azure Topaz', 0.8, 'Brazil'), (4, 'Verdant Jade', 3.1, 'Myanmar'), "
    "(5, 'Golden Citrine', 1.2, 'Bolivia')",
]


@pytest.fixture(scope="session")
def stack_db(tmp_path_factory) -> DatabaseHandle:
    root = tmp_path_factory.mktemp("dbs")
    return build_db(root / "stack" / "stack.sqlite", STACK_DB)


@pytest.fixture(scope="session")
def schools_db(tmp_path_factory) -> DatabaseHandle:
    root = tmp_path_factory.mktemp("dbs")
    return build_db(root / "california_schools" / "california_schools.sqlite", SCHOOLS_DB)


@pytest.fixture(scope="session")
def f1_db(tmp_path_factory) -> DatabaseHandle:
    root = tmp_path_factory.mktemp("dbs")
    return build_db(root / "formula_1" / "formula_1.sqlite", F1_DB)


@pytest.fixture(scope="session")
def gems_db(tmp_path_factory) -> DatabaseHandle:
    root = tmp_path_factory.mktemp("dbs")
    return build_db(root / "gems" / "gems.sqlite", GEMS_DB)


@pytest.fixture()
def db_factory(tmp_path):
    """Create throwaway databases for a single test."""
    counter = {"n": 0}

    def make(statements: list[str], name: str | None = None) -> DatabaseHandle:
        counter["n"] += 1
        db_id = name or f"scratch{counter['n']}"
        return build_db(tmp_path / db_id / f"{db_id}.sqlite", statements)

    return make


def database_digest(db: DatabaseHandle) -> str:
    """Content hash of the database file, for mutation checks."""
    return hashlib.sha256(db.path.read_bytes()).hexdigest()


def run_sql(db: DatabaseHandle, sql: str | None, timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS) -> ExecutionOutcome:
    """``execute_sql`` on a fresh ``ItemReader`` of ``db``, closed when the statement returns."""
    with ItemReader(db) as reader:
        return execute_sql(reader, sql, timeout_seconds)


def literal_source(db: DatabaseHandle):
    """The ``literals`` argument of run_sql_d1 and build_context: db's literal index."""
    return index_literals(read_literals(db, extract_schema(db)))


def write_benchmark(path: Path, records: list[dict]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, indent=1), encoding="utf-8")
    return path


def dump_benchmark(items: list[BenchmarkItem], format: str) -> list[dict]:
    """Serialize items back to their source record shape (inverse of load_benchmark)."""
    records = []
    for item in items:
        if format == "bird":
            records.append(
                {
                    "question_id": item.item_id,
                    "question": item.question,
                    "evidence": item.evidence or "",
                    "db_id": item.db_id,
                    "SQL": item.gold_sql,
                    "difficulty": item.difficulty,
                }
            )
        else:
            records.append(
                {
                    "question_id": item.item_id,
                    "question": item.question,
                    "db_id": item.db_id,
                    "query": item.gold_sql,
                }
            )
    return records


class RecordingBackend(MockBackend):
    """A mock backend that logs each call's (prompt, trajectory id) in ``calls``, in call order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: list[tuple[str, int]] = []

    def complete(self, request, trajectory_id):
        self.calls.append((request.prompt, trajectory_id))
        return super().complete(request, trajectory_id)


def sql_reply(sql: str) -> str:
    """Wrap SQL the way a well-behaved model reply would."""
    return f"<answer>\n-- reasoning\n```sql\n{sql}\n```\n</answer>"
