"""The 20-item synthetic benchmark used to measure stage contributions.

Construction: 8 items the scripted model always answers correctly, 6 it
always answers wrong (but executable), 2 fixed only by value retrieval (the
scripted gold reply keys on the quoted value annotation that retrieval
injects into the DDL), 2 fixed only by the repair loop (first reply is
broken SQL; the repair prompt triggers the corrected reply), and 2 fixed
only by selection (trajectory 0 answers wrong, trajectories 1 and 2 answer
correctly).
"""

from __future__ import annotations

from conftest import sql_reply

from nl2sqlbench.corpus import BenchmarkItem
from nl2sqlbench.gateway import MockRule

ALWAYS_CORRECT = [
    ("How many gems are listed?", "SELECT COUNT(*) FROM gems"),
    ("List all gem names.", "SELECT name FROM gems"),
    ("What is the heaviest carat value?", "SELECT MAX(carat) FROM gems"),
    ("What is the lightest carat value?", "SELECT MIN(carat) FROM gems"),
    ("How many gems come from Brazil?", "SELECT COUNT(*) FROM gems WHERE origin = 'Brazil'"),
    ("What is the average carat?", "SELECT AVG(carat) FROM gems"),
    ("Which origins are represented?", "SELECT DISTINCT origin FROM gems"),
    ("What is the total carat weight?", "SELECT SUM(carat) FROM gems"),
]

ALWAYS_WRONG = [
    ("How many distinct origins are there?", "SELECT COUNT(DISTINCT origin) FROM gems", "SELECT 99"),
    ("What is the name of the heaviest gem?", "SELECT name FROM gems ORDER BY carat DESC LIMIT 1", "SELECT 'Opal'"),
    ("What is the name of the lightest gem?", "SELECT name FROM gems ORDER BY carat ASC LIMIT 1", "SELECT 'Opal'"),
    ("How many gems come from Kenya?", "SELECT COUNT(*) FROM gems WHERE origin = 'Kenya'", "SELECT 42"),
    ("What is the id of the gem called Verdant Jade?", "SELECT id FROM gems WHERE name = 'Verdant Jade'", "SELECT -1"),
    ("How many gems are from Myanmar?", "SELECT COUNT(*) FROM gems WHERE origin = 'Myanmar'", "SELECT 7"),
]

RETRIEVAL_FIXED = [
    (
        "What is the carat of the gem named Zephyr Quartz?",
        "SELECT carat FROM gems WHERE name = 'Zephyr Quartz'",
        "examples: 'Zephyr Quartz'",  # only present when retrieval lists it first
        "SELECT 0",
    ),
    (
        "How heavy is the gem called Crimson Beryl?",
        "SELECT carat FROM gems WHERE name = 'Crimson Beryl'",
        "examples: 'Crimson Beryl'",
        "SELECT 0",
    ),
]

VERIFIER_FIXED = [
    (
        "Count gems heavier than two carats.",
        "SELECT COUNT(*) FROM gems WHERE carat > 2",
        "SELECT COUNT(*) FROM gemstones WHERE carat > 2",  # no such table
    ),
    (
        "Count gems lighter than one carat.",
        "SELECT COUNT(*) FROM gems WHERE carat < 1",
        "SELECT COUNT(*) FROM gems WHERE weight < 1",  # no such column
    ),
]

SELECTION_FIXED = [
    (
        "Which origin has the most gems?",
        "SELECT origin FROM gems GROUP BY origin ORDER BY COUNT(*) DESC LIMIT 1",
        "SELECT 'Kenya'",
    ),
    (
        "How many gems weigh more than one carat?",
        "SELECT COUNT(*) FROM gems WHERE carat > 1",
        "SELECT 99",
    ),
]


def build_items() -> list[BenchmarkItem]:
    items = []
    rows = (
        [(q, sql) for q, sql in ALWAYS_CORRECT]
        + [(q, sql) for q, sql, _wrong in ALWAYS_WRONG]
        + [(q, sql) for q, sql, _pat, _wrong in RETRIEVAL_FIXED]
        + [(q, sql) for q, sql, _broken in VERIFIER_FIXED]
        + [(q, sql) for q, sql, _wrong in SELECTION_FIXED]
    )
    for idx, (question, gold) in enumerate(rows):
        items.append(
            BenchmarkItem(item_id=str(idx), question=question, db_id="gems", gold_sql=gold)
        )
    return items


def build_rules() -> list[MockRule]:
    """Scripted replies; rule order encodes the repair/retrieval overrides."""
    rules: list[MockRule] = []
    # repair replies must outrank plain question matches (the repair prompt
    # embeds the original prompt, question included)
    for question, gold, broken in VERIFIER_FIXED:
        rules.append(MockRule(pattern=broken, reply=sql_reply(gold)))
    # retrieval-gated gold replies: the pattern exists only in value-annotated DDL
    for _question, gold, ddl_pattern, _wrong in RETRIEVAL_FIXED:
        rules.append(MockRule(pattern=ddl_pattern, reply=sql_reply(gold)))
    for question, gold in ALWAYS_CORRECT:
        rules.append(MockRule(pattern=question, reply=sql_reply(gold)))
    for question, _gold, wrong in ALWAYS_WRONG:
        rules.append(MockRule(pattern=question, reply=sql_reply(wrong)))
    for question, _gold, _ddl_pattern, wrong in RETRIEVAL_FIXED:
        rules.append(MockRule(pattern=question, reply=sql_reply(wrong)))
    for question, _gold, broken in VERIFIER_FIXED:
        rules.append(MockRule(pattern=question, reply=sql_reply(broken)))
    for question, gold, wrong in SELECTION_FIXED:
        rules.append(MockRule(pattern=question, trajectory_id=0, reply=sql_reply(wrong)))
        rules.append(MockRule(pattern=question, trajectory_id=1, reply=sql_reply(gold)))
        rules.append(MockRule(pattern=question, trajectory_id=2, reply=sql_reply(gold)))
    return rules


def rules_as_json() -> list[dict]:
    return [
        {
            "pattern": rule.pattern,
            "reply": rule.reply,
            **({"trajectory_id": rule.trajectory_id} if rule.trajectory_id is not None else {}),
        }
        for rule in build_rules()
    ]
