"""Benchmark ingestion: Spider/BIRD-style question files and their SQLite databases."""

from __future__ import annotations

import json
import logging
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

from .errors import ConfigError, IngestError, RegistryError

logger = logging.getLogger(__name__)

DIFFICULTIES = ("simple", "moderate", "challenging", "unlabeled")
# bytes in one string, blob or row on every connection (SQLITE_LIMIT_LENGTH; SQLite's default is 10^9). A value
# past it fails its statement with "string or blob too big", so one reply cannot make SQLite hold gigabytes.
# The benchmark's gold cells are under 100 bytes, and the tests read a 300 KiB blob at most
MAX_VALUE_BYTES = 10_000_000


@dataclass(frozen=True)
class BenchmarkItem:
    """One evaluation question: natural-language text plus its gold SQL."""

    item_id: str
    question: str
    db_id: str
    gold_sql: str
    evidence: str | None = None
    difficulty: str = "unlabeled"

    def __post_init__(self):
        if not self.gold_sql.strip():
            raise IngestError(f"item {self.item_id}: empty gold SQL")
        if self.difficulty not in DIFFICULTIES:
            raise IngestError(f"item {self.item_id}: bad difficulty {self.difficulty!r}")


@dataclass(frozen=True)
class DatabaseHandle:
    """A registered read-only SQLite database file."""

    db_id: str
    path: Path

    def connect(self) -> sqlite3.Connection:
        """Open a fresh read-only connection.

        An item's queries share one (``executor.ItemReader``); each set-up
        read opens its own.
        The path is percent-encoded, so a ``#``, ``?`` or ``%`` in it names the
        file rather than ending or escaping the URI. No string or blob on it
        exceeds MAX_VALUE_BYTES.
        """
        uri = f"file:{quote(str(self.path))}?mode=ro"
        conn = sqlite3.connect(uri, uri=True)
        conn.execute("PRAGMA query_only = ON")
        conn.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, MAX_VALUE_BYTES)
        return conn


def _normalize_difficulty(raw, item_id: str) -> str:
    if raw is None:
        return "unlabeled"
    label = str(raw).strip().lower()
    if label in ("simple", "moderate", "challenging"):
        return label
    logger.warning("item %s: unknown difficulty %r, treating as unlabeled", item_id, raw)
    return "unlabeled"


def load_benchmark(path, format: str) -> list[BenchmarkItem]:
    """Load a benchmark file (JSON array of records) into BenchmarkItems.

    Spider records carry question/db_id/query; BIRD records additionally carry
    evidence, and may carry a difficulty label. Spider-family variants
    (DK/Syn/Realistic) are read with format="spider".
    """
    if format not in ("spider", "bird"):
        raise ConfigError(f"unknown benchmark format {format!r}")
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, bytes that are not UTF-8, or nesting too deep
        raise IngestError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise IngestError(f"{path}: expected an array of records")
    if not raw:
        raise IngestError(f"{path}: no records")
    # the format's gold SQL, evidence and difficulty fields; a Spider record has neither of the last two,
    # and a field of None reads as absent
    gold, evidence, difficulty = ("SQL", "evidence", "difficulty") if format == "bird" else ("query", None, None)
    required = [field for field in ("question", evidence, "db_id", gold) if field]
    items: list[BenchmarkItem] = []
    seen: set[str] = set()
    for idx, record in enumerate(raw):
        if not isinstance(record, dict):
            raise IngestError(f"record {idx}: not an object")
        for field in required:
            if field not in record:
                raise IngestError(f"record {idx}: missing field {field!r}")
        item_id = str(record.get("question_id", idx))
        if item_id in seen:
            raise IngestError(f"record {idx}: duplicate item_id {item_id!r}")
        seen.add(item_id)
        items.append(BenchmarkItem(
            item_id=item_id,
            question=str(record["question"]),
            db_id=str(record["db_id"]),
            gold_sql=str(record[gold]),
            evidence=str(record[evidence]) if evidence else None,
            difficulty=_normalize_difficulty(record.get(difficulty), item_id),
        ))
    return items


def load_database(db_id: str, root) -> DatabaseHandle:
    """Register root/<db_id>/<db_id>.sqlite, or root/<db_id>.sqlite when the first does not exist.

    Raises RegistryError naming both paths when neither is a file. Nothing is
    opened here: a file that is not a database fails its first read
    (``context.read_catalog`` or ``context.extract_schema``).
    """
    root = Path(root)
    nested, flat = root / db_id / f"{db_id}.sqlite", root / f"{db_id}.sqlite"
    path = nested if nested.is_file() else flat
    if not path.is_file():
        raise RegistryError(f"database {db_id!r}: no file at {nested} or {flat}")
    return DatabaseHandle(db_id=db_id, path=path)


def stratify(items) -> dict[str, list]:
    """Partition items into difficulty buckets (simple, moderate, challenging, unlabeled)."""
    buckets: dict[str, list] = {d: [] for d in DIFFICULTIES}
    for item in items:
        buckets[item.difficulty].append(item)
    return buckets
