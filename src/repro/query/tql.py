"""TQL: a small TQuel-inspired textual query language.

The paper situates temporal relations in the TQuel lineage [Sno87];
this module provides a compact declarative surface over the algebra so
the three query classes read the way the paper describes them:

.. code-block:: sql

    SELECT celsius FROM temperatures                      -- current query
    SELECT * FROM temperatures VALID AT 940s              -- historical query
    SELECT * FROM temperatures AS OF 1000s                -- rollback query
    SELECT * FROM temperatures VALID AT 940s AS OF 1000s  -- bitemporal
    SELECT * FROM temperatures VALID OVERLAPS [900s, 970s)
    SELECT sensor, celsius FROM temperatures WHERE celsius >= 21 AND sensor = 's1'

Time literals are integers with an optional unit (``us ms s min h d
w``, default seconds).  Compilation produces the algebra of
:mod:`repro.query.ast`; execution goes through the
specialization-aware planner for the temporal core and applies
selections/projections on top, so every declared speed-up applies to
TQL queries too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.chronos.granularity import Granularity
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.query import ast
from repro.query import cache as _cache
from repro.query.planner import Planner
from repro.relation.element import Element
from repro.relation.temporal_relation import TemporalRelation


class TQLError(ValueError):
    """Syntax or semantic error in a TQL query."""


# -- tokenizer ---------------------------------------------------------------------

_TOKEN_PATTERN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<punct>[\[\)\(\],*])
  | (?P<word>[A-Za-z_][A-Za-z0-9_.-]*)
    """,
    re.VERBOSE,
)

_UNITS = {
    "us": Granularity.MICROSECOND,
    "ms": Granularity.MILLISECOND,
    "s": Granularity.SECOND,
    "min": Granularity.MINUTE,
    "h": Granularity.HOUR,
    "d": Granularity.DAY,
    "w": Granularity.WEEK,
}

_KEYWORDS = {
    "select", "from", "where", "and", "as", "of", "valid", "at",
    "overlaps", "current", "true", "false",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # number | string | op | punct | word
    text: str


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None:
            raise TQLError(f"unexpected character {text[position]!r} at offset {position}")
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append(_Token(kind, match.group()))
    return tokens


# -- parser -------------------------------------------------------------------------


@dataclass
class _Condition:
    attribute: str
    operator: str
    value: Any

    _OPS: dict = None  # populated below

    def predicate(self) -> Callable[[Element], bool]:
        attribute, operator, value = self.attribute, self.operator, self.value

        def check(element: Element) -> bool:
            actual = element.attributes.get(attribute)
            if actual is None:
                return False
            try:
                return _COMPARATORS[operator](actual, value)
            except TypeError:
                return False

        return check

    def label(self) -> str:
        return f"{self.attribute} {self.operator} {self.value!r}"


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass
class ParsedQuery:
    """The parsed form of one TQL statement."""

    relation_name: str
    attributes: Optional[Tuple[str, ...]]  # None = '*'
    valid_at: Optional[Timestamp] = None
    valid_window: Optional[Interval] = None
    as_of: Optional[Timestamp] = None
    explicit_current: bool = False
    conditions: Tuple[_Condition, ...] = ()
    count: bool = False  # SELECT COUNT(*)


class _Parser:
    def __init__(self, tokens: List[_Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # -- token helpers ----------------------------------------------------------

    def _peek(self) -> Optional[_Token]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise TQLError("unexpected end of query")
        self._position += 1
        return token

    def _expect_word(self, word: str) -> None:
        token = self._next()
        if token.kind != "word" or token.text.lower() != word:
            raise TQLError(f"expected {word.upper()!r}, got {token.text!r}")

    def _peek_word(self, word: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "word" and token.text.lower() == word

    # -- grammar ------------------------------------------------------------------

    def parse(self) -> ParsedQuery:
        self._expect_word("select")
        count = False
        if self._peek_word("count"):
            self._next()
            for expected in ("(", "*", ")"):
                token = self._next()
                if token.text != expected:
                    raise TQLError(
                        f"expected COUNT(*), got {token.text!r} after COUNT"
                    )
            attributes: Optional[Tuple[str, ...]] = None
            count = True
        else:
            attributes = self._parse_select_list()
        self._expect_word("from")
        name_token = self._next()
        if name_token.kind != "word":
            raise TQLError(f"expected a relation name, got {name_token.text!r}")
        query = ParsedQuery(
            relation_name=name_token.text, attributes=attributes, count=count
        )
        self._parse_clauses(query)
        if self._peek() is not None:
            raise TQLError(f"trailing input at {self._peek().text!r}")
        if query.explicit_current and (query.as_of or query.valid_at or query.valid_window):
            raise TQLError("CURRENT cannot be combined with AS OF / VALID clauses")
        if query.valid_at is not None and query.valid_window is not None:
            raise TQLError("VALID AT and VALID OVERLAPS are mutually exclusive")
        return query

    def _parse_select_list(self) -> Optional[Tuple[str, ...]]:
        token = self._peek()
        if token is not None and token.kind == "punct" and token.text == "*":
            self._next()
            return None
        attributes = [self._parse_attribute()]
        while self._peek() is not None and self._peek().text == ",":
            self._next()
            attributes.append(self._parse_attribute())
        return tuple(attributes)

    def _parse_attribute(self) -> str:
        token = self._next()
        if token.kind != "word":
            raise TQLError(f"expected an attribute name, got {token.text!r}")
        name = token.text
        specials = {"vt": "__vt__", "tt": "__tt_start__", "object": "__object__"}
        return specials.get(name.lower(), name)

    def _parse_clauses(self, query: ParsedQuery) -> None:
        while True:
            token = self._peek()
            if token is None:
                return
            word = token.text.lower() if token.kind == "word" else None
            if word == "as":
                self._next()
                self._expect_word("of")
                query.as_of = self._parse_time()
            elif word == "valid":
                self._next()
                if self._peek_word("at"):
                    self._next()
                    query.valid_at = self._parse_time()
                elif self._peek_word("overlaps"):
                    self._next()
                    query.valid_window = self._parse_window()
                else:
                    raise TQLError("VALID must be followed by AT or OVERLAPS")
            elif word == "current":
                self._next()
                query.explicit_current = True
            elif word == "where":
                self._next()
                query.conditions = tuple(self._parse_conditions())
            else:
                raise TQLError(f"unexpected token {token.text!r}")

    def _parse_time(self) -> Timestamp:
        token = self._next()
        if token.kind != "number":
            raise TQLError(f"expected a time literal, got {token.text!r}")
        amount = int(token.text)
        unit = Granularity.SECOND
        nxt = self._peek()
        if nxt is not None and nxt.kind == "word" and nxt.text.lower() in _UNITS:
            unit = _UNITS[self._next().text.lower()]
        return Timestamp(amount, unit)

    def _parse_window(self) -> Interval:
        opening = self._next()
        if opening.text != "[":
            raise TQLError(f"expected '[' to open a window, got {opening.text!r}")
        start = self._parse_time()
        comma = self._next()
        if comma.text != ",":
            raise TQLError(f"expected ',' in window, got {comma.text!r}")
        end = self._parse_time()
        closing = self._next()
        if closing.text != ")":
            raise TQLError(
                f"expected ')' to close the half-open window, got {closing.text!r}"
            )
        if not start < end:
            raise TQLError("window start must precede its end")
        return Interval(start, end)

    def _parse_conditions(self) -> List[_Condition]:
        conditions = [self._parse_condition()]
        while self._peek_word("and"):
            self._next()
            conditions.append(self._parse_condition())
        return conditions

    def _parse_condition(self) -> _Condition:
        attribute = self._next()
        if attribute.kind != "word" or attribute.text.lower() in _KEYWORDS:
            raise TQLError(f"expected an attribute in WHERE, got {attribute.text!r}")
        operator = self._next()
        if operator.kind != "op":
            raise TQLError(f"expected a comparison operator, got {operator.text!r}")
        return _Condition(attribute.text, operator.text, self._parse_literal())

    def _parse_literal(self) -> Any:
        token = self._next()
        if token.kind == "number":
            return int(token.text)
        if token.kind == "string":
            return token.text[1:-1]
        if token.kind == "word" and token.text.lower() in ("true", "false"):
            return token.text.lower() == "true"
        raise TQLError(f"expected a literal, got {token.text!r}")


def _parse_uncached(text: str) -> ParsedQuery:
    return _Parser(_tokenize(text)).parse()


def parse(text: str) -> ParsedQuery:
    """Parse one TQL statement.

    Results are memoized process-wide: a :class:`ParsedQuery` is never
    mutated after parsing, so repeated statements share one instance.
    """
    return _cache.cached_parse(text, _parse_uncached)


# -- compilation and execution ----------------------------------------------------------


def compile_query(parsed: ParsedQuery, relation: TemporalRelation) -> ast.QueryNode:
    """Lower a parsed statement to the algebra."""
    node: ast.QueryNode = ast.Scan(relation)
    if parsed.valid_at is not None and parsed.as_of is not None:
        node = ast.BitemporalSlice(node, vt=parsed.valid_at, tt=parsed.as_of)
    elif parsed.valid_at is not None:
        node = ast.ValidTimeslice(node, parsed.valid_at)
    elif parsed.valid_window is not None:
        if parsed.as_of is not None:
            raise TQLError("VALID OVERLAPS cannot be combined with AS OF")
        node = ast.ValidOverlap(node, parsed.valid_window)
    elif parsed.as_of is not None:
        node = ast.Rollback(node, parsed.as_of)
    else:
        node = ast.CurrentState(node)
    for condition in parsed.conditions:
        node = ast.Select(node, condition.predicate(), label=condition.label())
    if parsed.attributes is not None:
        node = ast.Project(node, parsed.attributes)
    return node


Rows = Union[List[Element], List[dict]]


def explain(text: str, relation: TemporalRelation) -> str:
    """The plan the planner would choose for a statement, as text."""
    parsed = parse(text)
    core = compile_query(
        ParsedQuery(
            relation_name=parsed.relation_name,
            attributes=None,
            valid_at=parsed.valid_at,
            valid_window=parsed.valid_window,
            as_of=parsed.as_of,
            explicit_current=parsed.explicit_current,
        ),
        relation,
    )
    plan = Planner(relation).plan(core)
    lines = [
        f"statement : {text.strip()}",
        f"algebra   : {compile_query(parsed, relation).describe()}",
        f"strategy  : {plan.strategy}",
        f"reason    : {plan.explanation}",
    ]
    return "\n".join(lines)


def execute(
    statement: Union[str, ParsedQuery], relation: TemporalRelation, use_planner: bool = True
) -> Rows:
    """Compile and run one TQL statement (text, or what :func:`parse`
    made of it) against *relation*.

    The temporal core (slice/rollback/current) is executed through the
    planner so declared specializations apply; WHERE and SELECT are
    evaluated on the (typically tiny) core result.
    """
    parsed = parse(statement) if isinstance(statement, str) else statement
    core = compile_query(
        ParsedQuery(
            relation_name=parsed.relation_name,
            attributes=None,
            valid_at=parsed.valid_at,
            valid_window=parsed.valid_window,
            as_of=parsed.as_of,
            explicit_current=parsed.explicit_current,
        ),
        relation,
    )
    if use_planner:
        elements = Planner(relation).plan(core).execute()
    else:
        from repro.query.executor import NaiveExecutor

        elements = NaiveExecutor().run(core)
    for condition in parsed.conditions:
        predicate = condition.predicate()
        elements = [element for element in elements if predicate(element)]
    if parsed.count:
        return [{"count": len(elements)}]
    if parsed.attributes is None:
        return elements
    projection = ast.Project(ast.Scan(relation), parsed.attributes)
    return [projection.row_of(element) for element in elements]
