"""Architecture rules over ``src/``, checked on its syntax tree.

Each rule keeps a simplification from coming back.  A rule matches
call nodes, identifiers and string keys, not source lines, so a reformatted call or
a line break inside one cannot slip past it, and its exceptions name
qualified functions (``repro.server.protocol._canonical_order``) or
whole modules and packages (``repro.flow``, ``repro.core.taxonomy``).
Each test is named after the rule and fails with the rule's message.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


class Module:
    """One parsed source file and the qualified name of every node."""

    def __init__(self, path: Path, root: Path = SRC) -> None:
        self.path = path
        self.root = root
        self.name = ".".join(path.relative_to(root).with_suffix("").parts)
        self.tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def walk(self) -> Iterator[Tuple[str, ast.AST]]:
        """Every node with the qualified name of the function or class
        it sits in (the module's name at module level)."""
        stack: List[Tuple[str, ast.AST]] = [(self.name, self.tree)]
        while stack:
            scope, node = stack.pop()
            yield scope, node
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{node.name}"
            stack.extend((inner, child) for child in ast.iter_child_nodes(node))

    def where(self, node: ast.AST) -> str:
        return f"{self.path.relative_to(self.root.parent)}:{getattr(node, 'lineno', 0)}"


def modules(under: str = "repro", root: Path = SRC) -> List[Module]:
    base = root.joinpath(*under.split("."))
    paths = [base.with_suffix(".py")] if base.with_suffix(".py").is_file() else base.rglob("*.py")
    return [Module(path, root) for path in sorted(paths)]


def allowed(scope: str, allowlist: Sequence[str]) -> bool:
    return any(scope == entry or scope.startswith(entry + ".") for entry in allowlist)


def called(node: ast.AST) -> Optional[str]:
    """The bare name a call node calls (``f(...)`` and ``x.f(...)``)."""
    return identifier(node.func) if isinstance(node, ast.Call) else None


def identifier(node: ast.AST) -> Optional[str]:
    """The name a node spells: a name, an attribute, an imported name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def reads(node: ast.AST, attribute: str) -> bool:
    """Does the expression under *node* mention *attribute*, as a name
    or as a string (``row["tt_start"]``, ``attrgetter("tt_start")``)?"""
    return any(
        identifier(sub) == attribute or isinstance(sub, ast.Constant) and sub.value == attribute
        for sub in ast.walk(node)
    )


# -- Engine order is wire order ------------------------------------------------------

ENGINE_ORDER = "element rows are sorted again on the read path; engine order is already canonical"
BODIES_TRUST = (
    "element rows are order-checked or sorted outside elements_to_json; bodies trust engine order"
)
TIER_RANGES = "a tier range scans its segment for undecoded rows; the whole-decode flag says so"

#: The one sort of element rows on a ``tt_start`` key is the reference
#: encoder's; the specialization checkers, the flow and the lifeline
#: order caller-supplied sets, not response rows.
TT_SORTS_ALLOWED = (
    "repro.server.protocol._canonical_order",
    "repro.core.taxonomy",
    "repro.flow",
    "repro.relation.lifeline",
)


def tt_start_sorts(sources: Sequence[Module]) -> List[str]:
    """A ``sorted`` / ``.sort`` call that reads ``tt_start``, or any call
    whose ``key`` does, outside :data:`TT_SORTS_ALLOWED`."""
    found = []
    for module in sources:
        for scope, node in module.walk():
            name = called(node)
            if name is None or allowed(scope, TT_SORTS_ALLOWED):
                continue
            assert isinstance(node, ast.Call)
            if name in ("sorted", "sort"):
                read = [*node.args, *(keyword.value for keyword in node.keywords)]
            else:
                read = [keyword.value for keyword in node.keywords if keyword.arg == "key"]
            if any(reads(expression, "tt_start") for expression in read):
                found.append(f"{module.where(node)} in {scope}")
    return found


def canonical_order_calls(sources: Sequence[Module]) -> List[str]:
    """A call to ``_canonical_order`` outside the reference encoder, or
    any mention of the retired ``_in_canonical_order`` check."""
    found = []
    for module in sources:
        for scope, node in module.walk():
            if called(node) == "_canonical_order" and scope != (
                "repro.server.protocol.elements_to_json"
            ):
                found.append(f"{module.where(node)} in {scope}")
            if identifier(node) == "_in_canonical_order":
                found.append(f"{module.where(node)} in {scope}")
    return found


def none_scans(sources: Sequence[Module]) -> List[str]:
    """An ``any(... is None ...)`` over rows: a scan for undecoded rows."""
    found = []
    for module in sources:
        for scope, node in module.walk():
            if not isinstance(node, ast.Call) or called(node) != "any" or not node.args:
                continue
            if any(
                isinstance(sub, ast.Compare)
                and any(isinstance(op, ast.Is) for op in sub.ops)
                and any(isinstance(c, ast.Constant) and c.value is None for c in sub.comparators)
                for sub in ast.walk(node.args[0])
            ):
                found.append(f"{module.where(node)} in {scope}")
    return found


def test_engine_order_is_wire_order() -> None:
    """The store refuses a ``tt_start`` that does not increase, so an
    engine read is already in the wire's ``(tt_start, surrogate)`` order:
    a body joins its rows as they come, with no check and no sort, and a
    tier range is one slice of a segment's cached rows, never a scan for
    missing ones."""
    sources = modules()
    assert not (found := tt_start_sorts(sources)), f"{ENGINE_ORDER}: {found}"
    assert not (found := canonical_order_calls(sources)), f"{BODIES_TRUST}: {found}"
    assert not (found := none_scans(modules("repro.storage.tiered"))), f"{TIER_RANGES}: {found}"


# -- No write lock in the server -----------------------------------------------------

WRITE_LOCK = "an asyncio lock is back in the server; the loop and the one writer task order writes"


def asyncio_locks(sources: Sequence[Module]) -> List[str]:
    """``asyncio.Lock``, by attribute or by (aliased) import."""
    found = []
    for module in sources:
        for scope, node in module.walk():
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "Lock"
                and isinstance(node.value, ast.Name)
                and node.value.id == "asyncio"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "asyncio"
                and any(alias.name == "Lock" for alias in node.names)
            ):
                found.append(f"{module.where(node)} in {scope}")
    return found


def test_no_write_lock_in_the_server() -> None:
    """Every read and write runs on the event loop's thread, and the
    writer publishes a write's pin with no ``await`` in between, so a
    lock orders nothing (``tests/server/test_write_interleaving.py``)."""
    assert not (found := asyncio_locks(modules("repro.server.app"))), f"{WRITE_LOCK}: {found}"


# -- the rules catch what they are for -------------------------------------------------


@pytest.mark.parametrize(
    "rule, source",
    [
        (tt_start_sorts, "def f(rows):\n    rows.sort(key=lambda e: e.tt_start)\n"),
        (
            tt_start_sorts,
            # No line holds both the call or its key and ``tt_start``.
            "def f(rows):\n    return sorted(rows, key=lambda e: (\n"
            "        e.tt_start.microseconds, e.element_surrogate))\n",
        ),
        (tt_start_sorts, "def f(rows):\n    return max(rows, key=lambda e: e.tt_start)\n"),
        (tt_start_sorts, "def f(rows):\n    return sorted(rows, key=attrgetter(\"tt_start\"))\n"),
        (tt_start_sorts, "def f(rows):\n    rows.sort(key=lambda r: r[\"tt_start\"])\n"),
        (tt_start_sorts, "def f(rows):\n    return sorted(rows, key=itemgetter(\"tt_start\"))\n"),
        (canonical_order_calls, "def body(rows):\n    return join(_canonical_order(rows))\n"),
        (canonical_order_calls, "from repro.server.protocol import _in_canonical_order\n"),
        (
            none_scans,
            "def whole(rows):\n    return not any(\n        row is None for row in rows)\n",
        ),
        (asyncio_locks, "import asyncio\nlock = asyncio.Lock()\n"),
        (asyncio_locks, "from asyncio import Lock as Guard\n"),
    ],
)
def test_each_rule_catches_its_pattern(tmp_path, rule, source) -> None:
    path = tmp_path / "repro" / "sample.py"
    path.parent.mkdir()
    path.write_text(source)
    assert rule([Module(path, tmp_path)])
