"""Tokenizer and parser for the SQLite SELECT dialect subset.

Covers SELECT cores with joins, WHERE/GROUP BY/HAVING, VALUES lists, set
operations, CTEs, scalar and aggregate functions, CASE, CAST,
IN/LIKE/BETWEEN/EXISTS, and subqueries. Constructs outside the subset (window
functions, FILTER clauses) are captured as opaque expression nodes instead of
failing; genuinely malformed input raises SqlParseError with a character
position.

AST nodes are plain classes. Each lists its field names, in order, in
``_fields`` and the values of its trailing optional fields in ``_defaults``;
``Node.__init__`` binds positional arguments to them as instance attributes.
``Node`` compares nodes structurally (same class, equal fields), so two parses
of equivalent text can be checked with plain ==; nodes are unhashable and repr
as ``Literal(value=1, text='1')``. Tokens are named tuples. Neither is a
dataclass: every process imports this module, and the decorator generates each
class's methods at import.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import SqlParseError

# ---------------------------------------------------------------------------
# Tokens

_TOKEN_RE = re.compile(
    r"""
      (?P<space>\s+|--[^\n]*|/\*(?:.*?\*/|.+\Z))
    | (?P<string>'(?:[^']|'')*')
    | (?P<qname>"(?:[^"]|"")*"|`(?:[^`]|``)*`|\[[^\]]*\])
    | (?P<number>0[xX][0-9a-fA-F]+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<blob>[xX]'[^']*')
    | (?P<name>[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<op><<|>>|<=|>=|==|!=|<>|\|\||[-+*/%&|<>=(),.;~])
    """,
    re.VERBOSE | re.DOTALL,
)
_HEX_DIGIT_PAIRS = re.compile(r"(?:[0-9a-fA-F]{2})*")


class Token(NamedTuple):
    kind: str  # string | qname | number | blob | name | op | eof
    text: str
    value: object
    pos: int
    end: int

    @property
    def upper(self) -> str:
        return self.text.upper() if self.kind == "name" else ""


def _unquote_ident(text: str) -> str:
    if text[0] == '"':
        return text[1:-1].replace('""', '"')
    if text[0] == "`":
        return text[1:-1].replace("``", "`")
    return text[1:-1]  # [bracketed]


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise SqlParseError(f"unexpected character {sql[pos]!r}", pos)
        kind = match.lastgroup
        text = match.group(0)
        end = match.end()
        if kind == "space":
            pos = end
            continue
        value: object = text
        if kind == "string":
            value = text[1:-1].replace("''", "'")
        elif kind == "qname":
            value = _unquote_ident(text)
        elif kind == "blob":
            digits = text[2:-1]
            if not _HEX_DIGIT_PAIRS.fullmatch(digits):
                # as in SQLite, an odd digit count or a non-hex digit is an unrecognized token
                raise SqlParseError(f"unrecognized token: {text}", pos)
            value = bytes.fromhex(digits)
        elif kind == "number":
            lowered = text.lower()
            if lowered.startswith("0x"):
                value = int(text, 16)
                if value >> 64:
                    raise SqlParseError(f"hex literal too big: {text}", pos)
                # as in SQLite, a hex literal is a 64-bit two's-complement integer
                value -= value >> 63 << 64
            else:
                digits = text.lstrip("0") or "0"
                # as in SQLite, an integer literal beyond 64 bits is a REAL
                exact = "." not in text and "e" not in lowered and len(digits) <= 19 and not int(digits) >> 63
                value = int(digits) if exact else float(text)
        tokens.append(Token(kind, text, value, pos, end))
        pos = end
    tokens.append(Token("eof", "", None, len(sql), len(sql)))
    return tokens


# Words that terminate an implicit alias position.
RESERVED = frozenset(
    """
    ALL AND AS ASC BETWEEN BY CASE CAST COLLATE CROSS CURRENT_DATE CURRENT_TIME
    CURRENT_TIMESTAMP DESC DISTINCT ELSE END ESCAPE EXCEPT EXISTS FROM FULL GLOB
    GROUP HAVING IN INNER INTERSECT IS ISNULL JOIN LEFT LIKE LIMIT MATCH NATURAL
    NOT NOTNULL NULL NULLS OFFSET ON OR ORDER OUTER RECURSIVE REGEXP RIGHT SELECT
    SET THEN UNION USING VALUES WHEN WHERE WITH
    """.split()
)


# ---------------------------------------------------------------------------
# AST nodes


class Node:
    """Base for all AST nodes; ``walk`` visits every field that holds a node."""

    __hash__ = None
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):  # the fast path skips this: every field given
            if not len(fields) - len(self._defaults) <= len(args) < len(fields):
                optional = len(self._defaults)
                raise TypeError(f"{type(self).__name__} takes {len(fields)} arguments ({optional} optional), got {len(args)}")
            args += self._defaults[len(args) - len(fields):]
        for name, value in zip(fields, args):
            setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class Literal(Node):
    # value: int | float | str | bytes | None; text: raw source text for numbers, blobs and keyword literals
    _fields, _defaults = ("value", "text"), (None,)


class ColumnRef(Node):
    _fields = ("table", "column")


class Star(Node):
    _fields, _defaults = ("table",), (None,)


class FuncCall(Node):
    _fields = ("name", "args", "distinct")

    def __init__(self, name: str, args: list | None = None, distinct: bool = False):
        super().__init__(name, [] if args is None else args, distinct)


class Cast(Node):
    _fields = ("expr", "type_name")


class Case(Node):
    _fields = ("operand", "whens", "else_")  # whens: list of (condition, result) tuples


class Unary(Node):
    _fields = ("op", "operand")


class Binary(Node):
    _fields = ("op", "left", "right")


class Between(Node):
    _fields, _defaults = ("expr", "low", "high", "negated"), (False,)


class InExpr(Node):
    # values: list of exprs, Select, or TableRef
    _fields, _defaults = ("expr", "values", "negated"), (False,)


class LikeExpr(Node):
    # op: LIKE | GLOB | MATCH | REGEXP
    _fields, _defaults = ("op", "expr", "pattern", "escape", "negated"), (None, False)


class Exists(Node):
    _fields = ("select",)


class Subquery(Node):
    _fields = ("select",)


class Collate(Node):
    _fields = ("expr", "collation")


class Tuple_(Node):
    _fields = ("items",)


class OpaqueExpr(Node):
    _fields = ("text",)


class ResultColumn(Node):
    _fields, _defaults = ("expr", "alias"), (None,)


class TableRef(Node):
    _fields, _defaults = ("name", "alias"), (None,)


class SubquerySource(Node):
    _fields, _defaults = ("select", "alias"), (None,)


class Join(Node):
    # kind: INNER | LEFT | RIGHT | FULL | CROSS
    _fields, _defaults = ("left", "right", "kind", "natural", "on", "using"), (False, None, None)


class OrderingTerm(Node):
    # direction: ASC | DESC; nulls: FIRST | LAST
    _fields, _defaults = ("expr", "direction", "nulls"), (None, None)


class SelectCore(Node):
    _fields = ("distinct", "columns", "source", "where", "group_by", "having")


class Values(Node):
    # VALUES (...), (...): a core of one tuple of expressions per row
    _fields = ("rows",)


class Cte(Node):
    _fields = ("name", "columns", "select")


class Select(Node):
    # ops: compound operators between cores: UNION | UNION ALL | INTERSECT | EXCEPT
    _fields, _defaults = ("ctes", "recursive", "cores", "ops", "order_by", "limit", "offset"), (None, None)


_COMPARISON_OPS = {"=", "==", "!=", "<>", "<", "<=", ">", ">="}
# the left-associative operators that bind tighter than comparisons, by level, loosest first
_BINARY_LEVEL = {
    op: level
    for level, ops in enumerate((("<<", ">>", "&", "|"), ("+", "-"), ("*", "/", "%"), ("||",)))
    for op in ops
}
_LIKE_OPS = {"LIKE", "GLOB", "MATCH", "REGEXP"}

# SQLite treats these as ordinary identifiers when no clause can start here
_USABLE_AS_COLUMN = frozenset({"LEFT", "RIGHT", "FULL", "CROSS", "NATURAL", "MATCH", "GLOB", "LIKE", "REGEXP", "FIRST", "LAST"})
_NOT_A_COLUMN = RESERVED - _USABLE_AS_COLUMN
# SQLite reads INDEXED after a name as a clause, not an implicit alias
_NOT_AN_ALIAS = RESERVED | {"INDEXED"}


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.tokens += self.tokens[-1:] * 2  # peek looks up to two tokens past the end
        self.index = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.index + offset]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "eof":
            self.index += 1
        return tok

    def _prev_end(self) -> int:
        return self.tokens[max(self.index - 1, 0)].end

    def error(self, message: str) -> SqlParseError:
        return SqlParseError(message, self.peek().pos)

    def at_kw(self, *words: str) -> bool:
        return self.peek().upper in words

    def accept_kw(self, *words: str) -> bool:
        if self.at_kw(*words):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> None:
        if not self.accept_kw(word):
            raise self.error(f"expected {word}, found {self.peek().text!r}")

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def accept_op(self, *ops: str) -> bool:
        if self.at_op(*ops):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise self.error(f"expected {op!r}, found {self.peek().text!r}")

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind == "qname":
            self.advance()
            return str(tok.value)
        if tok.kind == "name":
            self.advance()
            return tok.text
        raise self.error(f"expected identifier, found {tok.text!r}")

    def _maybe_alias(self) -> str | None:
        if self.accept_kw("AS"):
            return self.ident()
        tok = self.peek()
        if tok.kind == "qname":
            self.advance()
            return str(tok.value)
        if tok.kind == "name" and tok.upper not in _NOT_AN_ALIAS:
            self.advance()
            return tok.text
        return None

    # -- statements --------------------------------------------------------

    def parse_statement(self) -> Select:
        stmt = self.parse_select()
        self.accept_op(";")
        if self.peek().kind != "eof":
            raise self.error(f"trailing input {self.peek().text!r}")
        return stmt

    def parse_select(self) -> Select:
        ctes: list = []
        recursive = False
        if self.accept_kw("WITH"):
            recursive = self.accept_kw("RECURSIVE")
            while True:
                ctes.append(self._parse_cte())
                if not self.accept_op(","):
                    break
        cores = [self._parse_core()]
        ops: list[str] = []
        while self.at_kw("UNION", "INTERSECT", "EXCEPT"):
            word = self.advance().upper
            if word == "UNION" and self.accept_kw("ALL"):
                word = "UNION ALL"
            ops.append(word)
            cores.append(self._parse_core())
        order_by: list = []
        limit = offset = None
        # SQLite's grammar puts ORDER BY and LIMIT in a SELECT core, so neither follows a last core of VALUES
        if isinstance(cores[-1], Values):
            return Select(ctes, recursive, cores, ops, order_by, limit, offset)
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            while True:
                order_by.append(self._parse_ordering_term())
                if not self.accept_op(","):
                    break
        if self.accept_kw("LIMIT"):
            first = self.parse_expr()
            if self.accept_kw("OFFSET"):
                limit, offset = first, self.parse_expr()
            elif self.accept_op(","):
                offset, limit = first, self.parse_expr()
            else:
                limit = first
        return Select(ctes, recursive, cores, ops, order_by, limit, offset)

    def _parse_cte(self) -> Cte:
        name = self.ident()
        columns: list = []
        if self.accept_op("("):
            while True:
                columns.append(self.ident())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        self.expect_kw("AS")
        self.expect_op("(")
        select = self.parse_select()
        self.expect_op(")")
        return Cte(name, columns, select)

    def _parse_core(self) -> SelectCore | Values:
        if self.accept_kw("VALUES"):
            rows = []
            while True:
                self.expect_op("(")
                row = [self.parse_expr()]
                while self.accept_op(","):
                    row.append(self.parse_expr())
                self.expect_op(")")
                rows.append(tuple(row))
                if not self.accept_op(","):
                    return Values(rows)
        self.expect_kw("SELECT")
        distinct = False
        if self.accept_kw("DISTINCT"):
            distinct = True
        else:
            self.accept_kw("ALL")
        columns = [self._parse_result_column()]
        while self.accept_op(","):
            columns.append(self._parse_result_column())
        source = None
        if self.accept_kw("FROM"):
            source = self._parse_from()
        where = self.parse_expr() if self.accept_kw("WHERE") else None
        group_by: list = []
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept_kw("HAVING") else None
        return SelectCore(distinct, columns, source, where, group_by, having)

    def _parse_result_column(self):
        if self.accept_op("*"):
            return Star(None)
        if (
            self.peek().kind in ("name", "qname")
            and self.peek(1).kind == "op"
            and self.peek(1).text == "."
            and self.peek(2).kind == "op"
            and self.peek(2).text == "*"
        ):
            table = self.ident()
            self.advance()  # .
            self.advance()  # *
            return Star(table)
        expr = self.parse_expr()
        alias = self._maybe_alias()
        return ResultColumn(expr, alias)

    # -- FROM clause -------------------------------------------------------

    def _parse_from(self):
        left = self._parse_source()
        while True:
            if self.accept_op(","):
                right = self._parse_source()
                left = Join(left, right, "CROSS")
                continue
            natural = self.accept_kw("NATURAL")
            kind = None
            if self.accept_kw("LEFT"):
                self.accept_kw("OUTER")
                kind = "LEFT"
            elif self.accept_kw("RIGHT"):
                self.accept_kw("OUTER")
                kind = "RIGHT"
            elif self.accept_kw("FULL"):
                self.accept_kw("OUTER")
                kind = "FULL"
            elif self.accept_kw("INNER"):
                kind = "INNER"
            elif self.accept_kw("CROSS"):
                kind = "CROSS"
            if kind is None and not natural and not self.at_kw("JOIN"):
                break
            self.expect_kw("JOIN")
            kind = kind or "INNER"
            right = self._parse_source()
            on = using = None
            if self.accept_kw("ON"):
                on = self.parse_expr()
            elif self.accept_kw("USING"):
                self.expect_op("(")
                using = [self.ident()]
                while self.accept_op(","):
                    using.append(self.ident())
                self.expect_op(")")
            left = Join(left, right, kind, natural, on, using)
        return left

    def _parse_source(self):
        if self.accept_op("("):
            if self.at_kw("SELECT", "WITH", "VALUES"):
                select = self.parse_select()
                self.expect_op(")")
                alias = self._maybe_alias()
                return SubquerySource(select, alias)
            inner = self._parse_from()
            self.expect_op(")")
            return inner
        name = self.ident()
        if self.accept_op("."):
            name = self.ident()  # drop schema qualifier
        alias = self._maybe_alias()
        # drop the planner hint: INDEXED BY index | NOT INDEXED
        if self.accept_kw("INDEXED"):
            self.expect_kw("BY")
            self.ident()
        elif self.at_kw("NOT") and self.peek(1).upper == "INDEXED":
            self.advance()
            self.advance()
        return TableRef(name, alias)

    def _parse_ordering_term(self) -> OrderingTerm:
        expr = self.parse_expr()
        direction = None
        if self.accept_kw("ASC"):
            direction = "ASC"
        elif self.accept_kw("DESC"):
            direction = "DESC"
        nulls = None
        if self.accept_kw("NULLS"):
            nulls = "FIRST" if self.accept_kw("FIRST") else "LAST"
            if nulls == "LAST":
                self.expect_kw("LAST")
        return OrderingTerm(expr, direction, nulls)

    # -- expressions (precedence climbing, lowest first) --------------------

    def parse_expr(self):
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_and()
        while self.accept_kw("OR"):
            left = Binary("OR", left, self._parse_and())
        return left

    def _parse_and(self):
        left = self._parse_not()
        while self.accept_kw("AND"):
            left = Binary("AND", left, self._parse_not())
        return left

    def _parse_not(self):
        if self.at_kw("NOT") and self.peek(1).upper != "EXISTS":
            self.advance()
            return Unary("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self):
        left = self._parse_bitwise()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in _COMPARISON_OPS:
                self.advance()
                op = {"==": "=", "!=": "<>"}.get(tok.text, tok.text)
                left = Binary(op, left, self._parse_bitwise())
                continue
            if self.at_kw("IS"):
                self.advance()
                negated = self.accept_kw("NOT")
                if self.accept_kw("DISTINCT"):  # as in SQLite: IS DISTINCT FROM is IS NOT, IS NOT DISTINCT FROM is IS
                    self.expect_kw("FROM")
                    negated = not negated
                right = self._parse_bitwise()
                left = Binary("IS NOT" if negated else "IS", left, right)
                continue
            if self.accept_kw("ISNULL"):
                left = Binary("IS", left, Literal(None, "NULL"))
                continue
            if self.accept_kw("NOTNULL"):
                left = Binary("IS NOT", left, Literal(None, "NULL"))
                continue
            negated = False
            if self.at_kw("NOT") and self.peek(1).upper in ({"IN", "BETWEEN"} | _LIKE_OPS):
                self.advance()
                negated = True
            if self.accept_kw("IN"):
                left = InExpr(left, self._parse_in_values(), negated)
                continue
            if self.at_kw(*_LIKE_OPS):
                op = self.advance().upper
                pattern = self._parse_bitwise()
                escape = None
                if self.accept_kw("ESCAPE"):
                    escape = self._parse_bitwise()
                left = LikeExpr(op, left, pattern, escape, negated)
                continue
            if self.accept_kw("BETWEEN"):
                low = self._parse_bitwise()
                self.expect_kw("AND")
                high = self._parse_bitwise()
                left = Between(left, low, high, negated)
                continue
            if negated:
                raise self.error("expected IN, LIKE, or BETWEEN after NOT")
            return left

    def _parse_in_values(self):
        if self.accept_op("("):
            if self.at_kw("SELECT", "WITH", "VALUES"):
                select = self.parse_select()
                self.expect_op(")")
                return select
            values: list = []
            if not self.accept_op(")"):
                values.append(self.parse_expr())
                while self.accept_op(","):
                    values.append(self.parse_expr())
                self.expect_op(")")
            return values
        return TableRef(self.ident(), None)

    def _parse_bitwise(self, min_level: int = 0):
        left = self._parse_unary()
        while True:
            tok = self.peek()
            level = _BINARY_LEVEL.get(tok.text, -1) if tok.kind == "op" else -1
            if level < min_level:
                return left
            self.advance()
            left = Binary(tok.text, left, self._parse_bitwise(level + 1))

    def _parse_unary(self):
        if self.at_op("-", "+", "~"):
            op = self.advance().text
            return Unary(op, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_primary()
        while self.accept_kw("COLLATE"):
            expr = Collate(expr, self.ident())
        return expr

    def _parse_primary(self):
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            return Literal(tok.value)
        if tok.kind in ("number", "blob"):
            self.advance()
            return Literal(tok.value, tok.text)
        if tok.kind == "qname":
            return self._parse_column_ref()
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            if self.at_kw("SELECT", "WITH", "VALUES"):
                select = self.parse_select()
                self.expect_op(")")
                return Subquery(select)
            first = self.parse_expr()
            if self.accept_op(","):
                items = [first, self.parse_expr()]
                while self.accept_op(","):
                    items.append(self.parse_expr())
                self.expect_op(")")
                return Tuple_(items)
            self.expect_op(")")
            return first
        if tok.kind == "name":
            upper = tok.upper
            if upper == "NULL":
                self.advance()
                return Literal(None, "NULL")
            if upper in ("TRUE", "FALSE"):
                self.advance()
                return Literal(1 if upper == "TRUE" else 0, upper)
            if upper in ("CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP"):
                self.advance()
                return Literal(upper, upper)
            if upper == "CASE":
                return self._parse_case()
            if upper == "CAST":
                return self._parse_cast()
            if upper == "EXISTS":
                self.advance()
                self.expect_op("(")
                select = self.parse_select()
                self.expect_op(")")
                return Exists(select)
            if upper == "NOT" and self.peek(1).upper == "EXISTS":
                self.advance()
                inner = self._parse_primary()
                return Unary("NOT", inner)
            if self.peek(1).kind == "op" and self.peek(1).text == "(":
                return self._parse_function(tok.pos)
            if upper in _NOT_A_COLUMN:
                raise self.error(f"unexpected keyword {tok.text!r}")
            return self._parse_column_ref()
        raise self.error(f"unexpected token {tok.text!r}")

    def _parse_function(self, start: int):
        name = self.advance().text.upper()
        self.expect_op("(")
        distinct = self.accept_kw("DISTINCT")
        args: list = []
        if self.accept_op("*"):
            args.append(Star(None))
            self.expect_op(")")
        elif not self.accept_op(")"):
            args.append(self.parse_expr())
            while self.accept_op(","):
                args.append(self.parse_expr())
            self.expect_op(")")
        if self.at_kw("OVER", "FILTER"):
            # window machinery is outside the supported subset: swallow the
            # trailing clauses and keep the raw text as one opaque expression
            while self.at_kw("OVER", "FILTER"):
                self.advance()
                if self.at_op("("):
                    self._consume_balanced()
                else:
                    self.ident()
            return OpaqueExpr(self.sql[start:self._prev_end()])
        return FuncCall(name, args, distinct)

    def _consume_balanced(self) -> None:
        self.expect_op("(")
        depth = 1
        while depth:
            tok = self.advance()
            if tok.kind == "eof":
                raise self.error("unbalanced parentheses")
            if tok.kind == "op" and tok.text == "(":
                depth += 1
            elif tok.kind == "op" and tok.text == ")":
                depth -= 1

    def _parse_column_ref(self):
        parts = [self.ident()]
        while self.at_op(".") and self.peek(1).kind in ("name", "qname"):
            self.advance()
            parts.append(self.ident())
        if len(parts) == 1:
            return ColumnRef(None, parts[0])
        return ColumnRef(parts[-2], parts[-1])  # drop any schema qualifier

    def _parse_case(self):
        self.expect_kw("CASE")
        operand = None
        if not self.at_kw("WHEN"):
            operand = self.parse_expr()
        whens: list = []
        while self.accept_kw("WHEN"):
            condition = self.parse_expr()
            self.expect_kw("THEN")
            whens.append((condition, self.parse_expr()))
        if not whens:
            raise self.error("CASE without WHEN branch")
        else_ = self.parse_expr() if self.accept_kw("ELSE") else None
        self.expect_kw("END")
        return Case(operand, whens, else_)

    def _parse_cast(self):
        self.advance()  # CAST
        self.expect_op("(")
        expr = self.parse_expr()
        self.expect_kw("AS")
        words = [self.ident().upper()]
        while self.peek().kind == "name" and self.peek().upper not in RESERVED:
            words.append(self.ident().upper())
        type_name = " ".join(words)
        if self.accept_op("("):
            nums = [self.advance().text]
            while self.accept_op(","):
                nums.append(self.advance().text)
            self.expect_op(")")
            type_name += f"({', '.join(nums)})"
        self.expect_op(")")
        return Cast(expr, type_name)


def parse_sql(sql: str) -> Select:
    """Parse one SELECT statement (optionally CTE-prefixed) into an AST.

    Nesting deeper than the recursive descent can follow raises SqlParseError.
    """
    parser = _Parser(sql)
    try:
        return parser.parse_statement()
    except RecursionError:
        raise parser.error("nesting too deep") from None


def walk(node):
    """Depth-first pre-order traversal over all nodes, on an explicit stack: depth costs no recursion."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = []
        for attr in vars(node).values():
            if isinstance(attr, Node):
                children.append(attr)
            elif isinstance(attr, (list, tuple)):
                for element in attr:  # a CASE's whens are (condition, result) tuples
                    group = element if isinstance(element, tuple) else (element,)
                    children.extend(sub for sub in group if isinstance(sub, Node))
        stack.extend(reversed(children))
