"""Render a parsed SQL AST back to text: the oracle of the parser's round-trip tests.

``parse_sql(render_sql(parse_sql(q))) == parse_sql(q)`` must hold for every
query the parser accepts, so the renderer parenthesizes by precedence and
quotes every identifier that is not a plain, unreserved name.
"""

from __future__ import annotations

import re

from nl2sqlbench.diagnoser.sqlast import (
    RESERVED,
    Between,
    Binary,
    Case,
    Cast,
    Collate,
    ColumnRef,
    Exists,
    FuncCall,
    InExpr,
    Join,
    LikeExpr,
    Literal,
    OpaqueExpr,
    Select,
    SelectCore,
    Star,
    Subquery,
    SubquerySource,
    TableRef,
    Tuple_,
    Unary,
    Values,
)

_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

_BINARY_PREC = {
    "OR": 1,
    "AND": 2,
    "=": 4, "<>": 4, "IS": 4, "IS NOT": 4,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "<<": 5, ">>": 5, "&": 5, "|": 5,
    "+": 6, "-": 6,
    "*": 7, "/": 7, "%": 7,
    "||": 8,
}


def _ident(name: str) -> str:
    if _PLAIN_IDENT.match(name) and name.upper() not in RESERVED:
        return name
    return "`" + name.replace("`", "``") + "`"


def _prec(node) -> int:
    if isinstance(node, Binary):
        return _BINARY_PREC[node.op]
    if isinstance(node, Unary):
        return 3 if node.op == "NOT" else 10
    if isinstance(node, (Between, InExpr, LikeExpr)):
        return 4
    if isinstance(node, Collate):
        return 9
    return 11


def _wrap(node, parent_prec: int, *, strict: bool = False) -> str:
    text = render_expr(node)
    prec = _prec(node)
    if prec < parent_prec or (strict and prec == parent_prec):
        return f"({text})"
    return text


def _string_literal(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def render_expr(node) -> str:
    if isinstance(node, Literal):
        if node.text is not None:
            return node.text
        if node.value is None:
            return "NULL"
        if isinstance(node.value, str):
            return _string_literal(node.value)
        return repr(node.value)
    if isinstance(node, ColumnRef):
        if node.table:
            return f"{_ident(node.table)}.{_ident(node.column)}"
        return _ident(node.column)
    if isinstance(node, Star):
        return f"{_ident(node.table)}.*" if node.table else "*"
    if isinstance(node, FuncCall):
        inner = ", ".join(render_expr(a) for a in node.args)
        if node.distinct:
            inner = "DISTINCT " + inner
        return f"{node.name}({inner})"
    if isinstance(node, Cast):
        return f"CAST({render_expr(node.expr)} AS {node.type_name})"
    if isinstance(node, Case):
        parts = ["CASE"]
        if node.operand is not None:
            parts.append(render_expr(node.operand))
        for condition, result in node.whens:
            parts.append(f"WHEN {render_expr(condition)} THEN {render_expr(result)}")
        if node.else_ is not None:
            parts.append(f"ELSE {render_expr(node.else_)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(node, Unary):
        if node.op == "NOT":
            return f"NOT {_wrap(node.operand, 3)}"
        return f"{node.op}{_wrap(node.operand, 10)}"
    if isinstance(node, Binary):
        prec = _BINARY_PREC[node.op]
        return f"{_wrap(node.left, prec)} {node.op} {_wrap(node.right, prec, strict=True)}"
    if isinstance(node, Between):
        keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
        return (
            f"{_wrap(node.expr, 4)} {keyword} "
            f"{_wrap(node.low, 4, strict=True)} AND {_wrap(node.high, 4, strict=True)}"
        )
    if isinstance(node, InExpr):
        keyword = "NOT IN" if node.negated else "IN"
        if isinstance(node.values, Select):
            rhs = f"({render_select(node.values)})"
        elif isinstance(node.values, TableRef):
            rhs = _ident(node.values.name)
        else:
            rhs = "(" + ", ".join(render_expr(v) for v in node.values) + ")"
        return f"{_wrap(node.expr, 4)} {keyword} {rhs}"
    if isinstance(node, LikeExpr):
        keyword = f"NOT {node.op}" if node.negated else node.op
        text = f"{_wrap(node.expr, 4)} {keyword} {_wrap(node.pattern, 4, strict=True)}"
        if node.escape is not None:
            text += f" ESCAPE {render_expr(node.escape)}"
        return text
    if isinstance(node, Exists):
        return f"EXISTS ({render_select(node.select)})"
    if isinstance(node, Subquery):
        return f"({render_select(node.select)})"
    if isinstance(node, Collate):
        return f"{_wrap(node.expr, 9)} COLLATE {node.collation}"
    if isinstance(node, Tuple_):
        return "(" + ", ".join(render_expr(i) for i in node.items) + ")"
    if isinstance(node, OpaqueExpr):
        return node.text
    raise TypeError(f"cannot render {type(node).__name__}")


def _render_source(source) -> str:
    if isinstance(source, TableRef):
        text = _ident(source.name)
        if source.alias:
            text += f" AS {_ident(source.alias)}"
        return text
    if isinstance(source, SubquerySource):
        text = f"({render_select(source.select)})"
        if source.alias:
            text += f" AS {_ident(source.alias)}"
        return text
    if isinstance(source, Join):
        left = _render_source(source.left)
        right = _render_source(source.right)
        if isinstance(source.right, Join):
            right = f"({right})"
        keyword = {"INNER": "JOIN"}.get(source.kind, f"{source.kind} JOIN")
        if source.natural:
            keyword = f"NATURAL {keyword}"
        text = f"{left} {keyword} {right}"
        if source.on is not None:
            text += f" ON {render_expr(source.on)}"
        elif source.using:
            text += " USING (" + ", ".join(_ident(c) for c in source.using) + ")"
        return text
    raise TypeError(f"cannot render source {type(source).__name__}")


def _render_core(core: SelectCore | Values) -> str:
    if isinstance(core, Values):
        return "VALUES " + ", ".join("(" + ", ".join(render_expr(e) for e in row) + ")" for row in core.rows)
    parts = ["SELECT"]
    if core.distinct:
        parts.append("DISTINCT")
    columns = []
    for col in core.columns:
        if isinstance(col, Star):
            columns.append(render_expr(col))
        else:
            text = render_expr(col.expr)
            if col.alias:
                text += f" AS {_ident(col.alias)}"
            columns.append(text)
    parts.append(", ".join(columns))
    if core.source is not None:
        parts.append("FROM " + _render_source(core.source))
    if core.where is not None:
        parts.append("WHERE " + render_expr(core.where))
    if core.group_by:
        parts.append("GROUP BY " + ", ".join(render_expr(e) for e in core.group_by))
    if core.having is not None:
        parts.append("HAVING " + render_expr(core.having))
    return " ".join(parts)


def render_select(select: Select) -> str:
    parts = []
    if select.ctes:
        rendered = []
        for cte in select.ctes:
            header = _ident(cte.name)
            if cte.columns:
                header += "(" + ", ".join(_ident(c) for c in cte.columns) + ")"
            rendered.append(f"{header} AS ({render_select(cte.select)})")
        keyword = "WITH RECURSIVE" if select.recursive else "WITH"
        parts.append(f"{keyword} " + ", ".join(rendered))
    body = _render_core(select.cores[0])
    for op, core in zip(select.ops, select.cores[1:]):
        body += f" {op} {_render_core(core)}"
    parts.append(body)
    if select.order_by:
        terms = []
        for term in select.order_by:
            text = render_expr(term.expr)
            if term.direction:
                text += f" {term.direction}"
            if term.nulls:
                text += f" NULLS {term.nulls}"
            terms.append(text)
        parts.append("ORDER BY " + ", ".join(terms))
    if select.limit is not None:
        parts.append("LIMIT " + render_expr(select.limit))
        if select.offset is not None:
            parts.append("OFFSET " + render_expr(select.offset))
    return " ".join(parts)


def render_sql(node) -> str:
    """Render an AST back to SQL text (single line, canonical spacing)."""
    if isinstance(node, Select):
        return render_select(node)
    return render_expr(node)
