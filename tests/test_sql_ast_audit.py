"""Source audit: one expression fold, no text keys.

``repro.db.sql.ast`` is the only module that knows which children an
expression node has (``children`` / ``walk_expression`` /
``map_expression``), expressions are compared as values, never by their
printed text, and the evaluator dispatches through a table holding
every node type.  A twelfth node type, a second hand-written traversal
or a revived ``str(node)`` key would each erode that quietly, so — in
the style of ``test_seed_audit.py`` — this test checks for them.
"""

import dataclasses
import re
from pathlib import Path

from repro.db import Database
from repro.db.sql import ast
from repro.db.sql.expressions import Evaluator, RowContext
from repro.db.sql.parser import parse

SQL = Path(__file__).resolve().parent.parent / "src" / "repro" / "db" / "sql"

#: One statement whose expressions use every node type.
_EVERY_NODE = parse(
    "SELECT -a, f(a, ?), count(*) FROM t "
    "WHERE NOT (a = 1 AND b IS NOT NULL) AND a BETWEEN ? AND 'z' "
    "AND a IN (1, 2.5, NULL) AND b NOT IN (SELECT c FROM u) "
    "AND EXISTS (SELECT 1 FROM u WHERE u.c = t.a)"
)


def _expressions():
    roots = [item.expression for item in _EVERY_NODE.items]
    roots.append(_EVERY_NODE.where)
    return [node for root in roots for node in ast.walk_expression(root)]


def test_every_node_type_is_exercised_here():
    assert ({type(node) for node in _expressions()}
            == set(ast.EXPRESSION_TYPES))
    assert set(ast.EXPRESSION_TYPES) == set(ast.Expression.__subclasses__())


def test_every_node_type_has_an_evaluator_handler():
    handlers = Evaluator(Database())._handlers
    assert set(handlers) == set(ast.EXPRESSION_TYPES)


def test_every_node_survives_the_identity_fold():
    for node in _expressions():
        copy = ast.map_expression(lambda node, rebuilt: rebuilt, node)
        assert copy == node and type(copy) is type(node)


def test_the_fold_reaches_every_expression_typed_field():
    # Replace every leaf by a marker: no original leaf may survive in any
    # field annotated as holding expressions (a subquery is its own scope).
    marker = ast.Literal("marker")

    def mark(node, rebuilt):
        return rebuilt if ast.children(node) else marker

    for node in _expressions():
        marked = ast.map_expression(mark, node)
        leaves = [n for n in ast.walk_expression(marked)
                  if not ast.children(n)]
        assert all(leaf == marker for leaf in leaves), node
    for node_type in ast.EXPRESSION_TYPES:
        for spec in dataclasses.fields(node_type):
            if "Expression" in spec.type:
                assert spec.type in ("Expression", "tuple[Expression, ...]")


def test_identity_is_structural_not_textual():
    first, second = parse("SELECT sum(n + ?), sum(n + ?) FROM t").items
    assert str(first.expression) == str(second.expression)
    assert first.expression != second.expression
    assert ast.Literal(1) != ast.Literal(True) != ast.Literal(1.0)
    assert ast.Literal(1) == ast.Literal(1)
    assert hash(ast.Literal(1)) == hash(ast.Literal(1))


def test_only_ast_enumerates_children():
    optimizer = (SQL / "optimizer.py").read_text()
    for name in ("ast.Unary", "ast.IsNull", "ast.InList"):
        assert name not in optimizer, (
            f"optimizer.py names {name}: node children are enumerated by "
            "ast.children / ast.map_expression alone")


def test_no_lookup_is_keyed_by_printed_text():
    for path in SQL.glob("*.py"):
        text = path.read_text()
        for pattern in (r"\[str\((?:node|call|expression|expr)\)\]",
                        r"\.setdefault\(str\(", r"\.get\(str\(",
                        r"str\((?:node|call|expression)\) in "):
            assert not re.search(pattern, text), (path.name, pattern)


def test_the_aggregates_side_channel_stays_deleted():
    assert "aggregates" not in RowContext.__slots__
    assert not hasattr(RowContext, "child")
    source = (SQL / "expressions.py").read_text()
    assert "context.aggregates" not in source
    for gone, module in (("_kernel_results", "plan.py"),
                         ("ExplainedPlan", "optimizer.py")):
        assert gone not in (SQL / module).read_text()
