"""Seeded input generator for the benchmark workloads.

For one workload and seed it writes, under an output directory:

- ``db/<db_id>/<db_id>.sqlite`` plus BIRD ``database_description`` CSVs;
- ``benchmark.json``: BIRD-format questions with evidence;
- ``fixture.json``: a mock-backend fixture scripting every trajectory (and
  every verifier repair) of every item;
- ``expect.json``: what a correct harness must produce, computed here with
  plain ``sqlite3`` and the selection rules the harness documents
  (per-item final SQL, correctness and error category, EX, pass@k, Maj@k,
  the error histogram) and the measured input properties.

The same workload and seed always give the same files. Only finite reals and
integers well inside +-2^53 are drawn.
"""

from __future__ import annotations

import csv
import json
import random
import sqlite3
import statistics
from dataclasses import dataclass, field
from pathlib import Path

CATEGORIES = ("Table", "Value", "Condition", "Function", "Others")
DIFFICULTIES = ("simple", "moderate", "challenging")

# the harness's retrieval scans at most this many distinct values per column
DISTINCT_SAMPLE_LIMIT = 2000

# workload sizes; per-item cost is what the run length is tuned against
VALUES_ROWS = 90
VALUES_ITEMS = 6
POOL_DATABASES = 3
POOL_ORDERS = 20000
POOL_CUSTOMERS = 400
POOL_ITEMS = 8
MULTIDB_DATABASES = 6
MULTIDB_PERSONS = 100
MULTIDB_DEPTS = 20

_SYLLABLES = (
    "ka", "lo", "mi", "ren", "ta", "vo", "sel", "dor", "an", "bri", "cu", "fen",
    "gal", "hu", "jor", "kel", "mar", "nis", "or", "pra", "qui", "ros", "sun", "tel",
)
WORDS = tuple(a + b for a in _SYLLABLES for b in _SYLLABLES if a != b)
REGIONS = ("North", "South", "East", "West", "Central", "Coastal", "Highland", "Lowland", "Harbor", "Valley")

# distinct table aliases give each trajectory of a pool its own SQL text
_ALIASES = ("T1", "p", "a", "x", "pe", "t", "P1", "q")
_JOIN_ALIASES = ("T2", "d", "b", "y", "de", "u", "D1", "r")


@dataclass
class Item:
    item_id: str
    db_id: str
    question: str
    evidence: str
    difficulty: str
    gold_sql: str
    order_sensitive: bool
    # SQL text returned for each trajectory id, before any repair
    trajectories: list[str]
    # broken SQL -> the SQL the verifier's repair request returns
    repairs: dict[str, str] = field(default_factory=dict)
    # SQL text -> error category of a wrong query, by construction
    categories: dict[str, str] = field(default_factory=dict)


def _case(index: int) -> str:
    # the mock fixture keys every rule on this marker inside the question
    return f"(case {index:04d})"


# ---------------------------------------------------------------------------
# values-greedy: one database of wide TEXT tables, retrieval-bound


_LISTING_TEXT = ("title", "brand", "city", "category", "vendor")


def _values_greedy(rng: random.Random, db_root: Path) -> list[Item]:
    db_id = "market"
    # every value is two words and a two-digit number, so the seed changes words, not work
    rows = [
        (row_id, *(f"{rng.choice(WORDS)} {rng.choice(WORDS)} {rng.randint(10, 99)}" for _ in _LISTING_TEXT),
         rng.randint(5, 5000))
        for row_id in range(1, VALUES_ROWS + 1)
    ]
    _write_db(
        db_root, db_id,
        ["CREATE TABLE listing (id INTEGER PRIMARY KEY, title TEXT, brand TEXT, city TEXT, "
         "category TEXT, vendor TEXT, price INTEGER)"],
        {"listing": rows},
        {"listing": {"title": "listing title", "brand": "brand name", "city": "city of the seller",
                     "category": "product category", "vendor": "vendor name", "price": "price in cents"}},
    )
    items = []
    for index in range(VALUES_ITEMS):
        f = index % len(_LISTING_TEXT)
        filter_col = _LISTING_TEXT[f]
        target = (*_LISTING_TEXT, "price")[(f + 1 + index // len(_LISTING_TEXT)) % (len(_LISTING_TEXT) + 1)]
        value = rng.choice(rows)[1 + f]
        question = f"What is the {target} of the listing whose {filter_col} is '{value}'? {_case(index)}"
        evidence = f"'{value}' refers to {filter_col}"
        gold = f"SELECT {target} FROM listing WHERE {filter_col} = '{value}'"
        pred = f"SELECT T1.{target} FROM listing AS T1 WHERE T1.{filter_col} = '{value}'"
        items.append(Item(str(index), db_id, question, evidence, DIFFICULTIES[index % 3], gold, False, [pred]))
    return items


# ---------------------------------------------------------------------------
# pool-sqld1: numeric databases, heavy pool execution, one repair per pool


def _pool_sqld1(rng: random.Random, db_root: Path) -> list[Item]:
    db_ids = [f"shop_{j}" for j in range(POOL_DATABASES)]
    for db_id in db_ids:
        customers = [
            (c, rng.randint(1, 5), round(rng.uniform(0, 100), 2), rng.randint(1, 12))
            for c in range(1, POOL_CUSTOMERS + 1)
        ]
        orders = [
            (o, rng.randint(1, POOL_CUSTOMERS), rng.randint(1, 10000), round(rng.uniform(1, 500), 2),
             rng.randint(1, 8), rng.randint(1, 365))
            for o in range(1, POOL_ORDERS + 1)
        ]
        _write_db(
            db_root, db_id,
            [
                "CREATE TABLE customer (id INTEGER PRIMARY KEY, tier INTEGER, score REAL, zone INTEGER)",
                "CREATE TABLE orders (id INTEGER PRIMARY KEY, cust_id INTEGER REFERENCES customer(id), "
                "qty INTEGER, price REAL, region INTEGER, day INTEGER)",
            ],
            {"customer": customers, "orders": orders},
            {"customer": {"tier": "loyalty tier", "score": "credit score", "zone": "delivery zone"},
             "orders": {"qty": "quantity ordered", "price": "unit price", "region": "sales region",
                        "day": "day of year"}},
        )
    # thresholds are unique per item, so every pool's SQL strings are too; their narrow
    # ranges keep the rows each query matches, and so the work, about the same for every seed
    qty_cuts = rng.sample(range(9800, 9850), POOL_ITEMS)
    day_cuts = rng.sample(range(150, 200), POOL_ITEMS)
    score_cuts = rng.sample(range(40, 60), POOL_ITEMS)
    items = []
    for index in range(POOL_ITEMS):
        db_id = db_ids[index % len(db_ids)]
        kind = index % 3
        if kind == 0:
            q = qty_cuts[index]
            question = f"List the id, quantity and customer tier of every order with quantity above {q}."
            evidence = f"quantity above {q} refers to qty > {q}"
            gold = (f"SELECT orders.id, orders.qty, customer.tier FROM orders JOIN customer "
                    f"ON orders.cust_id = customer.id WHERE orders.qty > {q}")

            def render(op: str, qty: str = "qty", q=q) -> str:
                return (f"SELECT T1.id, T1.{qty}, T2.tier FROM orders AS T1 INNER JOIN customer AS T2 "
                        f"ON T1.cust_id = T2.id WHERE T1.{qty} {op} {q}")
        elif kind == 1:
            q = day_cuts[index]
            question = f"For each customer, how many orders and what total quantity were placed after day {q}?"
            evidence = f"after day {q} refers to day > {q}"
            gold = f"SELECT cust_id, COUNT(*), SUM(qty) FROM orders WHERE day > {q} GROUP BY cust_id"

            def render(op: str, qty: str = "qty", q=q) -> str:
                return (f"SELECT T1.cust_id, COUNT(*), SUM(T1.{qty}) FROM orders AS T1 "
                        f"WHERE T1.day {op} {q} GROUP BY T1.cust_id")
        else:
            q = score_cuts[index]
            question = f"For each order day, how many orders and what total quantity came from customers scoring above {q}?"
            evidence = f"scoring above {q} refers to customer.score > {q}"
            gold = (f"SELECT orders.day, COUNT(*), SUM(orders.qty) FROM orders JOIN customer "
                    f"ON orders.cust_id = customer.id WHERE customer.score > {q} GROUP BY orders.day")

            def render(op: str, qty: str = "qty", q=q) -> str:
                return (f"SELECT T1.day, COUNT(*), SUM(T1.{qty}) FROM orders AS T1 INNER JOIN customer AS T2 "
                        f"ON T1.cust_id = T2.id WHERE T2.score {op} {q} GROUP BY T1.day")
        right, wrong, broken = render(">"), render("<="), render(">", qty="quantity")
        # one pool in four ends on the wrong cluster
        if index % 4 == 3:
            pool = [wrong] * 5 + [right] + [broken] * 2
        else:
            pool = [right] * 4 + [wrong] * 2 + [broken] * 2
        rng.shuffle(pool)
        items.append(
            Item(
                str(index), db_id, f"{question} {_case(index)}", evidence,
                rng.choice(("moderate", "challenging")), gold, False, pool,
                repairs={broken: right}, categories={wrong: "Condition"},
            )
        )
    return items


# ---------------------------------------------------------------------------
# multidb-maj: many small databases, eight distinct SQL strings per pool


@dataclass
class _Org:
    db_id: str
    cities: list[str]  # cities with at least two people
    regions: list[str]  # regions with at least one person


def _write_org(rng: random.Random, db_root: Path, db_id: str) -> _Org:
    cities = sorted({f"{rng.choice(WORDS).capitalize()} {rng.choice(WORDS).capitalize()}"
                     for _ in range(MULTIDB_PERSONS // 3)})
    depts = [(d, f"{rng.choice(WORDS).capitalize()} {rng.choice(('Lab', 'Office', 'Team', 'Unit'))}",
              rng.choice(REGIONS), rng.randint(10, 900) * 1000) for d in range(1, MULTIDB_DEPTS + 1)]
    salaries = rng.sample(range(20000, 200000), MULTIDB_PERSONS)  # unique: ORDER BY salary is total
    persons = [
        (p, f"{rng.choice(WORDS).capitalize()} {rng.choice(WORDS).capitalize()}", rng.choice(cities),
         rng.randint(1, MULTIDB_DEPTS), rng.randint(20, 65), salaries[p - 1])
        for p in range(1, MULTIDB_PERSONS + 1)
    ]
    _write_db(
        db_root, db_id,
        [
            "CREATE TABLE dept (id INTEGER PRIMARY KEY, dept_name TEXT, region TEXT, budget INTEGER)",
            "CREATE TABLE person (id INTEGER PRIMARY KEY, full_name TEXT, city TEXT, "
            "dept_id INTEGER REFERENCES dept(id), age INTEGER, salary INTEGER)",
        ],
        {"dept": depts, "person": persons},
        {"dept": {"dept_name": "department name", "region": "region of the department",
                  "budget": "yearly budget"},
         "person": {"full_name": "full name", "city": "home city", "dept_id": "department",
                    "age": "age in years", "salary": "yearly salary"}},
    )
    per_city: dict[str, int] = {}
    for person in persons:
        per_city[person[2]] = per_city.get(person[2], 0) + 1
    dept_region = {d[0]: d[2] for d in depts}
    staffed = sorted({dept_region[p[3]] for p in persons})
    return _Org(db_id, sorted(c for c, n in per_city.items() if n >= 2), staffed)


def _other(rng: random.Random, choices: list[str], avoid: str) -> str:
    return rng.choice([c for c in choices if c != avoid])


def _multidb_template(rng: random.Random, org: _Org, name: str):
    """(question, evidence, gold, order_sensitive, right(s), [(category, wrong(s))])."""
    city = rng.choice(org.cities)
    city2 = _other(rng, org.cities, city)
    if name == "city_people":
        def q(s, col="city", val=city):
            return f"SELECT {s}.id, {s}.full_name FROM person AS {s} WHERE {s}.{col} = '{val}'"
        return (
            f"List the id and full name of everyone living in {city}.",
            f"living in {city} refers to city = '{city}'",
            f"SELECT id, full_name FROM person WHERE city = '{city}'", False, q,
            [("Value", lambda s: q(s, val=city2)),
             ("Condition", lambda s: q(s, col="full_name")),
             ("Table", lambda s: f"SELECT {s}.id, {s}.dept_name FROM dept AS {s} WHERE {s}.region = '{city}'")],
        )
    if name == "top_salary":
        def q(s, fn="MAX", val=city):
            return f"SELECT {fn}({s}.salary) FROM person {s} WHERE {s}.city = '{val}'"
        return (
            f"What is the highest salary among people living in {city}?",
            f"highest salary refers to MAX(salary); living in {city} refers to city = '{city}'",
            f"SELECT MAX(salary) FROM person WHERE city = '{city}'", False, q,
            [("Function", lambda s: q(s, fn="MIN")), ("Value", lambda s: q(s, val=city2))],
        )
    if name == "region_staff":
        region = rng.choice(org.regions)
        region2 = _other(rng, org.regions, region) if len(org.regions) > 1 else "Nowhere"

        def q(s, op="=", val=region):
            d = _JOIN_ALIASES[_ALIASES.index(s)]
            return (f"SELECT {s}.full_name FROM person AS {s} JOIN dept AS {d} ON {s}.dept_id = {d}.id "
                    f"WHERE {d}.region {op} '{val}'")
        return (
            f"Give the full names of people working in a department of the {region} region.",
            f"{region} region refers to dept.region = '{region}'",
            f"SELECT person.full_name FROM person JOIN dept ON person.dept_id = dept.id "
            f"WHERE dept.region = '{region}'", False, q,
            [("Table", lambda s: f"SELECT {s}.full_name FROM person AS {s} WHERE {s}.city = '{region}'"),
             ("Value", lambda s: q(s, val=region2)),
             ("Condition", lambda s: q(s, op="<>"))],
        )
    if name == "age_count":
        age = rng.randint(30, 55)

        def q(s, op=">", val=age):
            return f"SELECT COUNT(*) FROM person AS {s} WHERE {s}.age {op} {val}"
        return (
            f"How many people are older than {age}?",
            f"older than {age} refers to age > {age}",
            f"SELECT COUNT(*) FROM person WHERE age > {age}", False, q,
            [("Condition", lambda s: q(s, op="<")), ("Value", lambda s: q(s, val=age - 5))],
        )
    if name == "city_sizes":
        def q(s, group=True, where=""):
            tail = f" GROUP BY {s}.city" if group else ""
            return f"SELECT {s}.city, COUNT(*) FROM person AS {s}{where}{tail}"
        return (
            "How many people live in each city?",
            "each city refers to GROUP BY city",
            "SELECT city, COUNT(*) FROM person GROUP BY city", False, q,
            [("Others", lambda s: q(s, group=False)),
             ("Condition", lambda s: q(s, where=f" WHERE {s}.age > 30"))],
        )
    if name == "best_paid":
        def q(s, val=city, direction="DESC", limit=" LIMIT 1"):
            return (f"SELECT {s}.full_name FROM person AS {s} WHERE {s}.city = '{val}' "
                    f"ORDER BY {s}.salary {direction}{limit}")
        return (
            f"Who is the best paid person living in {city}?",
            f"best paid refers to MAX(salary); living in {city} refers to city = '{city}'",
            f"SELECT full_name FROM person WHERE city = '{city}' ORDER BY salary DESC LIMIT 1", True, q,
            [("Others", lambda s: q(s, limit="")),
             ("Others", lambda s: q(s, direction="ASC")),
             ("Value", lambda s: q(s, val=city2))],
        )
    raise ValueError(name)


_TEMPLATES_BY_CATEGORY = {
    "Table": ("city_people", "region_staff"),
    "Value": ("city_people", "top_salary", "region_staff", "age_count", "best_paid"),
    "Condition": ("city_people", "region_staff", "age_count", "city_sizes"),
    "Function": ("top_salary",),
    "Others": ("city_sizes", "best_paid"),
}
_ALL_TEMPLATES = ("city_people", "top_salary", "region_staff", "age_count", "city_sizes", "best_paid")


def _multidb_maj(rng: random.Random, db_root: Path) -> list[Item]:
    orgs = [_write_org(rng, db_root, f"org_{j:02d}") for j in range(MULTIDB_DATABASES)]
    items = []
    # templates follow a fixed cycle, so the seed changes values, not the mix of work
    for j, org in enumerate(orgs):
        for _ in range(2 + j % 2):  # two or three items per database
            index = len(items)
            ends_wrong = index % 2 == 1
            if ends_wrong:
                category = CATEGORIES[(index // 2) % len(CATEGORIES)]
                choices = _TEMPLATES_BY_CATEGORY[category]
                name = choices[(index // (2 * len(CATEGORIES))) % len(choices)]
            else:
                name = _ALL_TEMPLATES[(index // 2) % len(_ALL_TEMPLATES)]
            question, evidence, gold, ordered, right, wrongs = _multidb_template(rng, org, name)
            if ends_wrong:
                first = next(w for w in wrongs if w[0] == category)
                second = rng.choice([w for w in wrongs if w is not first])
                builders = [first] * 4 + [(None, right)] * 2 + [second] * 2
            else:
                w1, w2 = rng.sample(wrongs, 2) if len(wrongs) > 1 else (wrongs[0], wrongs[0])
                builders = [(None, right)] * 4 + [w1] * 2 + [w2] * 2
            rng.shuffle(builders)
            pool, categories = [], {}
            for trajectory, (cat, build) in enumerate(builders):
                sql = build(_ALIASES[trajectory])
                pool.append(sql)
                if cat is not None:
                    categories[sql] = cat
            items.append(
                Item(str(index), org.db_id, f"{question} {_case(index)}", evidence,
                     rng.choice(DIFFICULTIES), gold, ordered, pool, categories=categories)
            )
    return items


# ---------------------------------------------------------------------------
# files


def _write_db(db_root: Path, db_id: str, ddl: list[str], rows: dict, descriptions: dict) -> None:
    db_dir = db_root / db_id
    desc_dir = db_dir / "database_description"
    desc_dir.mkdir(parents=True, exist_ok=True)
    db_path = db_dir / f"{db_id}.sqlite"
    db_path.unlink(missing_ok=True)
    conn = sqlite3.connect(db_path)
    try:
        for statement in ddl:
            conn.execute(statement)
        for table, table_rows in rows.items():
            marks = ", ".join("?" * len(table_rows[0]))
            conn.executemany(f"INSERT INTO {table} VALUES ({marks})", table_rows)
        conn.commit()
    finally:
        conn.close()
    for table, columns in descriptions.items():
        with open(desc_dir / f"{table}.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("original_column_name", "column_name", "column_description"))
            for column, text in columns.items():
                writer.writerow((column, column.replace("_", " "), text))


def _reply(sql: str) -> str:
    return f"<answer>\n-- filter, then project the asked columns\n```sql\n{sql}\n```\n</answer>"


def _fixture(rng: random.Random, items: list[Item]) -> list[dict]:
    # repair rules come first: a repair prompt also contains the item's question
    rules = []
    for item in items:
        for broken, fixed in sorted(item.repairs.items()):
            rules.append({"pattern": f"```sql\n{broken}\n```\nExecuting it produced the error:",
                          "reply": _reply(fixed), "latency": round(rng.uniform(0.2, 0.6), 3), "tokens": 40})
    for item in items:
        marker = item.question[item.question.rindex("(case"):]
        for trajectory, sql in enumerate(item.trajectories):
            rules.append({"pattern": marker, "trajectory_id": trajectory, "reply": _reply(sql),
                          "latency": round(rng.uniform(0.5, 2.5), 3), "tokens": rng.randint(60, 240)})
    return rules


# ---------------------------------------------------------------------------
# expectations: plain sqlite3 plus the harness's documented selection rules


def _result(conn: sqlite3.Connection, sql: str):
    """(column count, rows) or None when the statement fails."""
    try:
        cursor = conn.execute(sql)
        rows = cursor.fetchall()
    except sqlite3.Error:
        return None
    return len(cursor.description), rows


def _multiset(result) -> tuple:
    columns, rows = result
    return columns, tuple(sorted(rows, key=repr))


def _pass_at_k(n: int, c: int, k: int) -> float:
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    product = 1.0
    for i in range(k):
        product *= (n - c - i) / (n - i)
    return 1.0 - product


def _select(entries: list[tuple[int, str, object, bool]]):
    """Plurality over result clusters; failures only if all fail; ties to the lowest trajectory."""
    clusters: dict = {}
    for entry in entries:
        key = ("fail",) if entry[2] is None else _multiset(entry[2])
        clusters.setdefault(key, []).append(entry)
    groups = list(clusters.values())
    survivors = [g for g in groups if g[0][2] is not None] or groups
    survivors.sort(key=lambda g: (-len(g), min(e[0] for e in g)))
    return min(survivors[0], key=lambda e: e[0])


def _pct(fraction: float) -> float:
    return float(f"{100.0 * fraction:.1f}")


def expectations(items: list[Item], db_root: Path, pooled: bool) -> dict:
    per_item = {}
    pass_sums = [0.0] * 9
    maj_hits = [0] * 9
    row_sizes, dup_shares, histogram = [], [], {c: 0 for c in CATEGORIES}
    connections: dict[str, sqlite3.Connection] = {}
    try:
        for item in items:
            if item.db_id not in connections:
                connections[item.db_id] = sqlite3.connect(db_root / item.db_id / f"{item.db_id}.sqlite")
            conn = connections[item.db_id]
            gold = _result(conn, item.gold_sql)
            if gold is None or not gold[1]:
                raise RuntimeError(f"item {item.item_id}: gold query must return rows")
            row_sizes.append(len(gold[1]))
            dup_shares.append(1.0 - len(set(item.trajectories)) / len(item.trajectories))
            results = {}
            entries = []
            for trajectory, sql in enumerate(item.trajectories):
                sql = item.repairs.get(sql, sql)
                if sql not in results:
                    results[sql] = _result(conn, sql)
                result = results[sql]
                if result is None:
                    correct = False
                elif item.order_sensitive:
                    correct = result == gold
                else:
                    correct = _multiset(result) == _multiset(gold)
                entries.append((trajectory, sql, result, correct))
            final = _select(entries) if pooled else entries[0]
            category = None if final[3] else item.categories[final[1]]
            if category:
                histogram[category] += 1
            per_item[item.item_id] = {"final_sql": final[1], "correct": final[3], "category": category}
            if pooled:
                n, c = len(entries), sum(e[3] for e in entries)
                for k in range(1, n + 1):
                    pass_sums[k] += _pass_at_k(n, c, k)
                    maj_hits[k] += _select(entries[:k])[3]
    finally:
        for conn in connections.values():
            conn.close()
    n_items = len(items)
    n_correct = sum(1 for v in per_item.values() if v["correct"])
    k_max = len(items[0].trajectories) if pooled else 0
    return {
        "items": per_item,
        "n_items": n_items,
        "n_correct": n_correct,
        "ex_percent": f"{100.0 * n_correct / n_items:.1f}",
        "pass_at_k": {str(k): _pct(pass_sums[k] / n_items) for k in range(1, k_max + 1)},
        "maj_at_k": {str(k): _pct(maj_hits[k] / n_items) for k in range(1, k_max + 1)},
        "error_distribution": histogram,
        "properties": {
            "items": n_items,
            "databases": len({i.db_id for i in items}),
            "items_per_database": round(n_items / len({i.db_id for i in items}), 2),
            "pool_size": len(items[0].trajectories),
            "duplicate_sql_share_per_pool": round(statistics.mean(dup_shares), 4),
            "gold_result_rows": {"min": min(row_sizes), "median": statistics.median(row_sizes),
                                 "max": max(row_sizes)},
            "literals_per_item": _literal_count(items, db_root),
        },
    }


def _literal_count(items: list[Item], db_root: Path) -> float:
    """Mean number of text values per item that value retrieval scores."""
    per_db: dict[str, int] = {}
    for db_id in {i.db_id for i in items}:
        conn = sqlite3.connect(db_root / db_id / f"{db_id}.sqlite")
        try:
            total = 0
            tables = [r[0] for r in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")]
            for table in tables:
                for _cid, column, ctype, *_rest in conn.execute(f"PRAGMA table_info({table})"):
                    if "TEXT" not in ctype.upper():
                        continue
                    total += conn.execute(
                        f"SELECT COUNT(*) FROM (SELECT DISTINCT {column} FROM {table} "
                        f"WHERE {column} IS NOT NULL LIMIT {DISTINCT_SAMPLE_LIMIT})"
                    ).fetchone()[0]
            per_db[db_id] = total
        finally:
            conn.close()
    return round(statistics.mean(per_db[i.db_id] for i in items), 1)


_BUILDERS = {"values-greedy": _values_greedy, "pool-sqld1": _pool_sqld1, "multidb-maj": _multidb_maj}


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write one workload's inputs under out_dir and return its file paths."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    out_dir = Path(out_dir)
    db_root = out_dir / "db"
    items = _BUILDERS[workload](rng, db_root)
    benchmark = [
        {"question_id": i.item_id, "question": i.question, "evidence": i.evidence, "db_id": i.db_id,
         "SQL": i.gold_sql, "difficulty": i.difficulty}
        for i in items
    ]
    paths = {
        "benchmark": out_dir / "benchmark.json",
        "fixture": out_dir / "fixture.json",
        "expect": out_dir / "expect.json",
        "db_root": db_root,
    }
    paths["benchmark"].write_text(json.dumps(benchmark, indent=1), encoding="utf-8")
    paths["fixture"].write_text(json.dumps(_fixture(rng, items), indent=1), encoding="utf-8")
    expect = expectations(items, db_root, pooled=len(items[0].trajectories) > 1)
    expect["db_ids"] = sorted({i.db_id for i in items})
    paths["expect"].write_text(json.dumps(expect, indent=1, sort_keys=True), encoding="utf-8")
    return {key: str(path) for key, path in paths.items()}

