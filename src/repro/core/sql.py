"""The paper's SQL query front-end (§4.3), executable.

The paper presents partial-key queries as::

    SELECT g(k_F), SUM(Size) FROM table GROUP BY g(k_F)

This module implements a small, safe dialect of exactly that surface
over :class:`~repro.core.query.FlowTable`:

* projections: partial-key expressions (``SrcIP``, ``SrcIP/24``,
  ``SrcIP, DstIP``) and ``SUM(size)`` / ``COUNT(*)``;
* ``WHERE`` with prefix/equality predicates on fields;
* ``GROUP BY`` a partial-key expression;
* ``HAVING SUM(size) >= x`` and ``ORDER BY ... LIMIT k``.

Example::

    run_query(
        "SELECT SrcIP/24, SUM(size) FROM flows "
        "WHERE DstPort = 443 GROUP BY SrcIP/24 "
        "HAVING SUM(size) >= 1000 ORDER BY SUM(size) DESC LIMIT 10",
        table,
    )

The grammar is tokenised and parsed by hand (no eval); identifiers are
resolved against the table's :class:`FullKeySpec` so typos fail loudly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.query import FlowTable
from repro.flowkeys.columns import unpack_key_words
from repro.flowkeys.key import FullKeySpec, PartialKeySpec
from repro.query.columns import ColumnTable
from repro.query.project import extract_bits


class SqlError(ValueError):
    """Malformed or unsupported query text."""


_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:/\d+)?)"
    r"|(?P<symbol>>=|<=|!=|[(),=<>*])"
    r")"
)

_KEYWORDS = {
    "select",
    "from",
    "where",
    "group",
    "by",
    "having",
    "order",
    "limit",
    "sum",
    "count",
    "and",
    "desc",
    "asc",
}


def _tokenise(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise SqlError(f"cannot tokenise near {remainder[:20]!r}")
        tokens.append(match.group().strip())
        pos = match.end()
    return tokens


def _compare_words(
    vals: "np.ndarray", target: int, op: str
) -> "np.ndarray":
    """Elementwise ``vals OP target`` for multi-word unsigned values.

    *vals* is ``(W, n)`` uint64, word 0 least significant; *target* is a
    non-negative python int of any size (out-of-range targets compare
    correctly rather than wrapping).
    """
    width, n = vals.shape
    if target >= 1 << (64 * width):
        full = op in ("<", "<=", "!=")
        return np.full(n, full, dtype=bool)
    eq = np.ones(n, dtype=bool)
    lt = np.zeros(n, dtype=bool)
    for w in range(width - 1, -1, -1):
        word = np.uint64((target >> (64 * w)) & 0xFFFFFFFFFFFFFFFF)
        lt |= eq & (vals[w] < word)
        eq &= vals[w] == word
    gt = ~(lt | eq)
    return {
        "=": eq,
        "!=": ~eq,
        "<": lt,
        ">": gt,
        "<=": lt | eq,
        ">=": gt | eq,
    }[op]


@dataclass
class _Predicate:
    """``Field[/prefix] OP number`` in the WHERE clause."""

    field_name: str
    prefix: Optional[int]
    op: str
    value: int

    def matches(self, spec: FullKeySpec, key: int) -> bool:
        """Scalar reference semantics (one key at a time)."""
        fld = spec.field(self.field_name)
        shift = spec.shift_of(self.field_name)
        value = (key >> shift) & fld.mask
        if self.prefix is not None:
            value = fld.prefix(value, self.prefix)
        ops = {
            "=": value == self.value,
            "!=": value != self.value,
            ">": value > self.value,
            "<": value < self.value,
            ">=": value >= self.value,
            "<=": value <= self.value,
        }
        return ops[self.op]

    def mask(self, spec: FullKeySpec, words: "np.ndarray") -> "np.ndarray":
        """Vectorised :meth:`matches` over full-key word columns."""
        fld = spec.field(self.field_name)
        shift = spec.shift_of(self.field_name)
        if self.prefix is not None:
            if not 0 <= self.prefix <= fld.width:
                raise ValueError(
                    f"prefix length {self.prefix} out of range for field "
                    f"{fld.name} ({fld.width} bits)"
                )
            if self.prefix == 0:
                keep = _compare_words(
                    np.zeros((1, 1), dtype=np.uint64), self.value, self.op
                )[0]
                return np.full(words.shape[1], keep, dtype=bool)
            start = shift + (fld.width - self.prefix)
            length = self.prefix
        else:
            start, length = shift, fld.width
        return _compare_words(
            extract_bits(words, start, length), self.value, self.op
        )


@dataclass
class Query:
    """Parsed representation of one SELECT statement."""

    group_parts: List[Tuple[str, Optional[int]]]
    aggregate: str  # "sum" or "count"
    predicates: List[_Predicate] = field(default_factory=list)
    having_min: Optional[float] = None
    order_desc: Optional[bool] = None
    limit: Optional[int] = None


class _Parser:
    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise SqlError("unexpected end of query")
        self.pos += 1
        return token

    def expect(self, *expected: str) -> str:
        token = self.next()
        if token.lower() not in expected:
            raise SqlError(f"expected {'/'.join(expected)}, got {token!r}")
        return token.lower()

    def parse(self) -> Query:
        self.expect("select")
        group_parts, aggregate = self._parse_select_list()
        self.expect("from")
        self.next()  # table name, cosmetic
        predicates: List[_Predicate] = []
        having_min = None
        order_desc = None
        limit = None
        group_clause: Optional[List[Tuple[str, Optional[int]]]] = None
        while self.peek() is not None:
            keyword = self.next().lower()
            if keyword == "where":
                predicates = self._parse_predicates()
            elif keyword == "group":
                self.expect("by")
                group_clause = self._parse_key_expr()
            elif keyword == "having":
                having_min = self._parse_having()
            elif keyword == "order":
                self.expect("by")
                order_desc = self._parse_order()
            elif keyword == "limit":
                limit = int(self.next())
            else:
                raise SqlError(f"unexpected token {keyword!r}")
        if group_clause is not None and group_clause != group_parts:
            raise SqlError(
                "GROUP BY expression must match the selected key expression"
            )
        return Query(
            group_parts,
            aggregate,
            predicates,
            having_min,
            order_desc,
            limit,
        )

    def _parse_key_part(self, token: str) -> Tuple[str, Optional[int]]:
        if "/" in token:
            name, prefix = token.split("/", 1)
            return name, int(prefix)
        return token, None

    def _parse_select_list(self):
        group_parts: List[Tuple[str, Optional[int]]] = []
        aggregate = None
        while True:
            token = self.next()
            lowered = token.lower()
            if lowered == "sum":
                self.expect("(")
                self.next()  # size column
                self.expect(")")
                aggregate = "sum"
            elif lowered == "count":
                self.expect("(")
                self.expect("*")
                self.expect(")")
                aggregate = "count"
            elif lowered in _KEYWORDS:
                raise SqlError(f"unexpected keyword {token!r} in SELECT list")
            else:
                group_parts.append(self._parse_key_part(token))
            if self.peek() == ",":
                self.next()
                continue
            break
        if aggregate is None:
            raise SqlError("SELECT list needs SUM(size) or COUNT(*)")
        if not group_parts:
            raise SqlError("SELECT list needs a key expression")
        return group_parts, aggregate

    def _parse_key_expr(self) -> List[Tuple[str, Optional[int]]]:
        parts = [self._parse_key_part(self.next())]
        while self.peek() == ",":
            self.next()
            parts.append(self._parse_key_part(self.next()))
        return parts

    def _parse_predicates(self) -> List[_Predicate]:
        predicates = []
        while True:
            name_token = self.next()
            name, prefix = self._parse_key_part(name_token)
            op = self.next()
            if op not in ("=", "!=", ">", "<", ">=", "<="):
                raise SqlError(f"unsupported operator {op!r}")
            value = int(self.next())
            predicates.append(_Predicate(name, prefix, op, value))
            if self.peek() and self.peek().lower() == "and":
                self.next()
                continue
            break
        return predicates

    def _parse_having(self) -> float:
        self.expect("sum")
        self.expect("(")
        self.next()
        self.expect(")")
        self.expect(">=")
        return float(self.next())

    def _parse_order(self) -> bool:
        self.expect("sum")
        self.expect("(")
        self.next()
        self.expect(")")
        direction = self.peek()
        if direction and direction.lower() in ("asc", "desc"):
            self.next()
            return direction.lower() == "desc"
        return True  # SQL default would be ASC; sizes read best DESC


def parse_query(text: str) -> Query:
    """Parse one SELECT statement into a :class:`Query`."""
    tokens = _tokenise(text)
    if not tokens:
        raise SqlError("empty query")
    return _Parser(tokens).parse()


def run_query(
    text: str,
    table: Optional[FlowTable] = None,
    planner=None,
) -> List[Tuple[int, float]]:
    """Execute a SELECT over a *full-key* flow table, columnar.

    Returns ``(group value, aggregate)`` rows, ordered/limited per the
    query.  ``COUNT(*)`` counts recorded full-key flows per group.
    Execution is entirely vectorised: WHERE predicates become boolean
    masks over the table's key-word columns, GROUP BY is the shared
    projection + sort/reduceat aggregation.

    Pass ``planner`` (a :class:`~repro.query.planner.QueryPlanner`)
    instead of — or alongside — *table* to reuse its one-time
    extraction and per-spec aggregation cache: an unfiltered
    ``SUM(size)`` query then hits :meth:`QueryPlanner.table` directly,
    which is what lets a query server answer repeated SQL against a
    frozen epoch without re-aggregating.
    """
    if planner is not None:
        spec = planner.spec
    elif table is not None:
        spec = table.spec
    else:
        raise SqlError("run_query needs a table or a planner")
    if not isinstance(spec, FullKeySpec):
        raise SqlError("queries run on full-key tables")
    query = parse_query(text)

    selection = []
    for name, prefix in query.group_parts:
        fld = spec.field(name)  # raises KeyError for unknown fields
        selection.append((name, prefix if prefix is not None else fld.width))
    partial = PartialKeySpec(spec, tuple(selection))

    if planner is not None:
        if not query.predicates and query.aggregate == "sum":
            # Memoized path: aggregation skipped entirely on cache hits.
            return _finish(planner.table(partial), query)
        columns = planner.grouped_base()
    else:
        columns = table.columns().group()
    if query.predicates:
        keep = np.ones(len(columns), dtype=bool)
        for predicate in query.predicates:
            keep &= predicate.mask(spec, columns.words)
        columns = columns.select(keep)
    if query.aggregate == "count":
        columns = ColumnTable(
            spec, columns.words, np.ones(len(columns), dtype=np.float64)
        )
    grouped = columns.aggregate(partial)
    return _finish(grouped, query)


def _finish(grouped: ColumnTable, query: Query) -> List[Tuple[int, float]]:
    """HAVING / ORDER BY / LIMIT over an aggregated table.

    LIMIT applies to row indices before any key is unpacked, so only
    the returned rows become python integers.
    """
    if query.having_min is not None:
        grouped = grouped.threshold(query.having_min)
    rows = np.arange(len(grouped))
    if query.order_desc is not None:
        values = -grouped.values if query.order_desc else grouped.values
        rows = np.argsort(values, kind="stable")
    if query.limit is not None:
        rows = rows[: query.limit]
    keys = unpack_key_words(np.take(grouped.words, rows, axis=1))
    return list(zip(keys, grouped.values[rows].tolist()))
