"""Rule-based classification of incorrect predictions into error categories.

Each incorrect prediction receives exactly one label. Rules compare the
predicted and gold ASTs (plus the live schema) in a fixed priority order:
wrong/missing tables, then condition problems (bad column references,
mismatched predicate columns or operators), then filter-literal mismatches,
then function usage, then missing clauses and nesting-shape differences.
Unparseable or absent predictions short-circuit to a structural label.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SqlParseError
from . import sqlast
from .sqlast import (
    Between,
    Binary,
    Cast,
    ColumnRef,
    Exists,
    FuncCall,
    InExpr,
    LikeExpr,
    Literal,
    Select,
    SelectCore,
    SubquerySource,
    Subquery,
    TableRef,
    Unary,
    parse_sql,
    walk,
)

CATEGORIES = ("Table", "Value", "Condition", "Function", "Others")

SUBTYPES_BY_CATEGORY = {
    "Table": ("table_mismatch", "table_missing"),
    "Value": ("value_mismatch",),
    "Condition": ("attribute_error", "operator_error"),
    "Function": ("aggregation_error",),
    "Others": ("clause_missing", "structural_error"),
}

CATEGORY_BY_SUBTYPE = {
    subtype: category
    for category, subtypes in SUBTYPES_BY_CATEGORY.items()
    for subtype in subtypes
}

# column names SQLite resolves without a schema entry
_IMPLICIT_COLUMNS = frozenset({"rowid", "_rowid_", "oid"})

_OPERATOR_CLASS = {
    "=": "eq",
    "<": "lt", "<=": "lt",
    ">": "gt", ">=": "gt",
    "<>": "ne",
    "IS": "is", "IS NOT": "is",
}


@dataclass(frozen=True)
class ErrorLabel:
    category: str
    subtype: str
    rationale: str

    def __post_init__(self):
        if CATEGORY_BY_SUBTYPE.get(self.subtype) != self.category:
            raise ValueError(f"subtype {self.subtype!r} does not belong to {self.category!r}")


def _label(subtype: str, rationale: str) -> ErrorLabel:
    return ErrorLabel(CATEGORY_BY_SUBTYPE[subtype], subtype, rationale)


def schema_column_map(schema) -> dict[str, set[str]]:
    """Lower-cased table -> column-name-set view of a SchemaContext."""
    return {
        table.name.lower(): {col.name.lower() for col in table.columns}
        for table in schema.tables
    }


class _Facts:
    """What the rules compare of one parsed query; the constructor collects it."""

    def __init__(self, ast: Select, schema_map: dict[str, set[str]]):
        self.schema_map = schema_map
        self.alias_map: dict[str, str | None] = {}  # alias/name -> table (None = derived)
        self.cte_names: set[str] = set()
        self.has_derived = False
        # the sources come first: a column resolves against every source of the query
        for node in walk(ast):
            if isinstance(node, Select):
                for cte in node.ctes:
                    self.cte_names.add(cte.name.lower())
                    self.alias_map.setdefault(cte.name.lower(), None)
            elif isinstance(node, TableRef):
                name = node.name.lower()
                if name in self.cte_names:
                    continue
                self.alias_map.setdefault(name, name)
                if node.alias:
                    self.alias_map[node.alias.lower()] = name
            elif isinstance(node, SubquerySource):
                self.has_derived = True
                if node.alias:
                    self.alias_map[node.alias.lower()] = None

        self.tables: set[str] = set()
        self.join_pairs: set[frozenset] = set()
        self.predicate_columns: set[tuple[str, str]] = set()
        self.operators: set[str] = set()
        self.predicate_literals: set[tuple] = set()
        self.functions: set[str] = set()
        self.invalid_columns: list[str] = []
        n_sub = n_setops = n_ctes = 0
        for node in walk(ast):
            if isinstance(node, TableRef):
                if node.name.lower() not in self.cte_names:
                    self.tables.add(node.name.lower())
            elif isinstance(node, ColumnRef):
                if not self._resolve(node)[2]:
                    self.invalid_columns.append(f"{node.table}.{node.column}" if node.table else node.column)
            elif isinstance(node, FuncCall):
                self.functions.add(node.name)
            elif isinstance(node, Cast):
                self.functions.add("CAST")
            elif isinstance(node, sqlast.Join) and node.on is not None:
                self.join_pairs |= self._equijoin_pairs(node.on)
            elif isinstance(node, SelectCore):
                for clause in (node.where, node.having):
                    if clause is not None:
                        self._predicate_facts(clause)
                if node.where is not None:
                    self.join_pairs |= self._equijoin_pairs(node.where)
            elif isinstance(node, Select):
                n_setops += len(node.ops)
                n_ctes += len(node.ctes)
            elif isinstance(node, (Subquery, SubquerySource, Exists)) or (
                isinstance(node, InExpr) and isinstance(node.values, Select)
            ):
                n_sub += 1
        self.shape = (n_sub, n_setops, n_ctes)  # subqueries, set operations, CTEs
        self.has_group_by = any(bool(core.group_by) for core in ast.cores)
        self.has_order_by = bool(ast.order_by)
        self.has_limit = ast.limit is not None

    def _resolve(self, ref: ColumnRef) -> tuple[str, str, bool]:
        """Return (table, column, valid); table '' when unresolvable."""
        column = ref.column.lower()
        if column in _IMPLICIT_COLUMNS:
            return ("", column, True)
        if ref.table:
            qualifier = ref.table.lower()
            target = self.alias_map.get(qualifier)
            if qualifier not in self.alias_map:
                target = qualifier if qualifier in self.schema_map else None
                if target is None:
                    return ("", column, False)
            if target is None:  # derived source or CTE: cannot validate
                return ("", column, True)
            if target in self.schema_map and column not in self.schema_map[target]:
                return (target, column, False)
            return (target, column, True)
        owners = sorted(
            table
            for table in set(self.alias_map.values())
            if table is not None and column in self.schema_map.get(table, set())
        )
        if owners:
            return (owners[0], column, True)
        if self.has_derived or self.cte_names:
            return ("", column, True)
        return ("", column, False)

    def _predicate_facts(self, clause) -> None:
        for node in walk(clause):
            if isinstance(node, ColumnRef):
                table, column, _valid = self._resolve(node)
                self.predicate_columns.add((table, column))
            elif isinstance(node, Binary):
                if node.op in _OPERATOR_CLASS:
                    self.operators.add(_OPERATOR_CLASS[node.op])
                elif node.op in ("AND", "OR"):
                    self.operators.add(node.op.lower())
            elif isinstance(node, Unary) and node.op == "NOT":
                self.operators.add("not")
            elif isinstance(node, InExpr):
                self.operators.add("in")
            elif isinstance(node, LikeExpr):
                self.operators.add("like")
            elif isinstance(node, Between):
                self.operators.add("between")
            elif isinstance(node, Literal):
                self.predicate_literals.add(_literal_key(node))

    def _equijoin_pairs(self, expr) -> set:
        pairs = set()
        for node in walk(expr):
            if isinstance(node, Binary) and node.op == "=":
                if isinstance(node.left, ColumnRef) and isinstance(node.right, ColumnRef):
                    lt, _, _ = self._resolve(node.left)
                    rt, _, _ = self._resolve(node.right)
                    if lt and rt and lt != rt:
                        pairs.add(frozenset((lt, rt)))
        return pairs


def _literal_key(node: Literal):
    # as in SQLite, an integer and a real are equal when their values are (1 = 1.0), integers
    # past 2^53 stay distinct, and a blob never equals a text. A number is keyed as a float
    # where that is exact, so the labels' rationales spell it as before.
    if node.value is None:
        return ("null",)
    if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
        number = float(node.value)
        return ("num", number if number == node.value else node.value)
    if isinstance(node.value, bytes):
        return ("blob", node.value)
    return ("str", str(node.value))


def _column_set_text(columns) -> str:
    return ", ".join(f"{t}.{c}" if t else c for t, c in sorted(columns)) or "(none)"


def classify_error(pred_sql, gold_sql, schema) -> ErrorLabel:
    """Assign the single highest-priority error label to an incorrect prediction.

    Static AST + schema comparison, without executing anything. An absent or
    unparseable query short-circuits to a structural label. Total on
    incorrect records: some label is always returned.
    """
    if pred_sql is None or not str(pred_sql).strip():
        return _label("structural_error", "unparseable: no predicted SQL")
    try:
        pred_ast = parse_sql(pred_sql)
    except SqlParseError as exc:
        return _label("structural_error", f"unparseable: {exc}")
    try:
        gold_ast = parse_sql(gold_sql)
    except SqlParseError as exc:
        return _label("structural_error", f"gold query unparseable: {exc}")

    schema_map = schema_column_map(schema)
    pred = _Facts(pred_ast, schema_map)
    gold = _Facts(gold_ast, schema_map)

    extra_tables = pred.tables - gold.tables
    if extra_tables:
        return _label("table_mismatch", f"query uses tables not in the reference: {', '.join(sorted(extra_tables))}")
    wrong_joins = {p for p in pred.join_pairs if p not in gold.join_pairs}
    if wrong_joins:
        joined = "; ".join("-".join(sorted(p)) for p in sorted(wrong_joins, key=sorted))
        return _label("table_mismatch", f"tables joined differently from the reference: {joined}")
    missing_tables = gold.tables - pred.tables
    if missing_tables:
        return _label("table_missing", f"required tables absent: {', '.join(sorted(missing_tables))}")

    if pred.invalid_columns:
        return _label("attribute_error", f"column does not exist in schema: {pred.invalid_columns[0]}")
    if pred.predicate_columns != gold.predicate_columns:
        missing = gold.predicate_columns - pred.predicate_columns
        extra = pred.predicate_columns - gold.predicate_columns
        details = []
        if missing:
            details.append(f"missing condition on {_column_set_text(missing)}")
        if extra:
            details.append(f"unexpected condition on {_column_set_text(extra)}")
        return _label("attribute_error", "; ".join(details))
    if pred.operators != gold.operators:
        return _label(
            "operator_error",
            f"predicate operators differ: {sorted(pred.operators)} vs {sorted(gold.operators)}",
        )
    if pred.predicate_literals != gold.predicate_literals:
        pred_only = pred.predicate_literals - gold.predicate_literals
        gold_only = gold.predicate_literals - pred.predicate_literals
        return _label(
            "value_mismatch",
            f"filter literals differ: {sorted(pred_only)} vs expected {sorted(gold_only)}",
        )
    if pred.functions != gold.functions:
        extra = pred.functions - gold.functions
        missing = gold.functions - pred.functions
        return _label(
            "aggregation_error",
            f"function usage differs: uses {sorted(extra) or '(none)'}, expected {sorted(missing) or '(none)'}",
        )
    missing_clauses = [
        name
        for name, in_gold, in_pred in (
            ("GROUP BY", gold.has_group_by, pred.has_group_by),
            ("ORDER BY", gold.has_order_by, pred.has_order_by),
            ("LIMIT", gold.has_limit, pred.has_limit),
        )
        if in_gold and not in_pred
    ]
    if missing_clauses:
        return _label("clause_missing", f"missing clauses: {', '.join(missing_clauses)}")
    if pred.shape != gold.shape:
        return _label(
            "structural_error",
            f"nesting shape differs (subqueries/set-ops/CTEs): {pred.shape} vs {gold.shape}",
        )
    return _label("structural_error", "incorrect result with no structural divergence found by rules")


def count_labels(labels) -> dict[str, int]:
    """Aggregate precomputed labels into the category histogram."""
    counts = {category: 0 for category in CATEGORIES}
    for label in labels:
        counts[label.category] += 1
    return counts
