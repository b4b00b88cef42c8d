"""Source audit: one execution style.

Every plan operator consumes and produces column batches and evaluates
expressions only through the closures ``Evaluator.compile`` built once
for the plan.  A per-row ``RowContext``, a revived page-at-a-time twin
of an operator, or a second module that walks expression nodes would
each bring the second executor back quietly, so — in the style of
``test_sql_ast_audit.py`` — this test checks for them.  The reference
interpreter lives under ``tests/`` (``tests/db/reference_evaluator.py``)
and nothing under ``src/`` imports it.
"""

import ast as python_ast
import re
from pathlib import Path

import pytest

from repro.db import Database
from repro.db.sql import ast
from repro.errors import DatabaseError

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
DB = SRC / "db"
PLAN = DB / "sql" / "plan.py"

_LOOPS = (python_ast.For, python_ast.While, python_ast.ListComp,
          python_ast.SetComp, python_ast.DictComp, python_ast.GeneratorExp)


def _names_in_loops(path, name):
    """Lines of *path* where *name* is read inside a loop body or a
    comprehension."""
    found = []
    for loop in python_ast.walk(python_ast.parse(path.read_text())):
        if isinstance(loop, _LOOPS):
            found.extend(node.lineno for node in python_ast.walk(loop)
                         if isinstance(node, python_ast.Name)
                         and node.id == name)
    return sorted(set(found))


def test_no_operator_builds_a_row_context_per_row():
    assert _names_in_loops(PLAN, "RowContext") == []
    # ...and the audit sees one when there is one to see.
    assert _names_in_loops(DB / "sql" / "expressions.py", "RowContext")


def test_the_second_execution_style_stays_deleted():
    plan = PLAN.read_text()
    for gone in ("VectorAggregate", "KernelSlot", "_NativeAccumulator",
                 "evaluate_predicate", ".evaluate("):
        assert gone not in plan, gone
    optimizer = (DB / "sql" / "optimizer.py").read_text()
    for gone in ("_rewrite_kernel_calls", "_vector_specs", "KernelSlot",
                 "VectorAggregate"):
        assert gone not in optimizer, gone
    for path in SRC.rglob("*.py"):
        assert "reference_evaluator" not in path.read_text(), path


def test_there_is_one_run_format_and_the_merge_has_no_key_objects():
    # Sort runs and Aggregate partitions are BlockRuns (column pages);
    # the JSON-lines RowRun, its in-memory half, the composite ``_Desc``
    # merge key and the row<->column transposes around them stay deleted.
    plan = PLAN.read_text()
    for gone in ("_Desc", "_run_batches", "heapq", "RowRun"):
        assert gone not in plan, gone
    assert plan.count("disk_run()") == 2      # Sort and Aggregate, alike
    assert "def page_scan" not in plan.split("class Sort(")[1].split(
        "\nclass ")[0]
    spill = (DB / "columnar" / "spill.py").read_text()
    assert "class RowRun" not in spill
    block_run = spill.split("class BlockRun")[1].split("\nclass ")[0]
    for row_framing in ("encode_row", "decode_row", "json"):
        assert row_framing not in block_run, row_framing
    for path in SRC.rglob("*.py"):
        assert "RowRun" not in path.read_text(), path


SCANS = {"SeqScan", "ColumnarScan", "IndexEqualScan", "IndexRangeScan",
         "IndexContainsScan"}


def _callers(tree, names):
    """``{enclosing function or class: names it calls}`` for the calls
    under *tree* to anything in *names* (``Name(…)`` or ``module.Name(…)``).
    """
    found = {}
    for owner in python_ast.walk(tree):
        if isinstance(owner, (python_ast.FunctionDef, python_ast.ClassDef)):
            for node in python_ast.walk(owner):
                callee = getattr(node, "func", None)
                name = getattr(callee, "id", getattr(callee, "attr", None))
                if isinstance(node, python_ast.Call) and name in names:
                    found.setdefault(owner.name, set()).add(name)
    return found


def test_reads_and_writes_find_their_rows_through_one_access_path_chooser():
    sources = {path: path.read_text() for path in SRC.rglob("*.py")}
    trees = {path: python_ast.parse(text) for path, text in sources.items()}
    # A write asks the planner for the rows its WHERE keeps: the facade
    # evaluates no predicate, transposes no rows and picks no scan.
    facade = DB / "database.py"
    imported = {alias.name for node in python_ast.walk(trees[facade])
                if isinstance(node, python_ast.ImportFrom)
                for alias in node.names}
    assert not imported & ({"chunks", "kept", "Batch", "truths", "settled",
                            "table_batches", "Filter"} | SCANS)
    for gone in ("Batch(", "of_rows", ".rows()", "self.optimize"):
        assert gone not in sources[facade].split("# -- execution")[1], gone
    for path, text in sources.items():
        assert "_matching_row_ids" not in text, path
    # Scan operators are constructed where access paths are chosen, and
    # nowhere else under src/.
    optimizer = DB / "sql" / "optimizer.py"
    builders = _callers(trees[optimizer], SCANS)
    del builders["Planner"]
    assert set(builders) == {"_access_path", "_try_index_path"}
    assert set.union(*builders.values()) == SCANS
    for path, tree in trees.items():
        if path != optimizer:
            assert _callers(tree, SCANS) == {}, path
    # A WHERE is tested in one place: only plan.py's operators (Filter,
    # and the join's pair test) ask which rows a predicate keeps.
    for path, tree in trees.items():
        if path.name != "expressions.py":
            asking = {name for name in _callers(tree, {"kept"})
                      if name != "batches"}
            assert asking == ({"Filter", "Join"} if path == PLAN
                              else set()), path


def _class_source(name):
    return f"class {name}(" + PLAN.read_text().split(
        f"\nclass {name}(")[1].split("\nclass ")[0]


def test_every_table_scan_has_a_read_set_and_one_rule_narrows_them_all():
    import inspect

    from repro.db.sql import optimizer, plan
    from repro.db.table import Table

    readers = [value for value in vars(plan).values()
               if isinstance(value, type)
               and issubclass(value, plan.PlanNode)
               and any(parameter.annotation in (Table, "Table")
                       for parameter in inspect.signature(
                           value.__init__).parameters.values())]
    assert {reader.__name__ for reader in readers} >= SCANS
    for reader in readers:
        assert issubclass(reader, plan.TableScan), reader
        # One ``read_only``, one transposing ``table_batches`` behind it.
        assert "read_only" not in vars(reader) or reader is plan.TableScan
    assert PLAN.read_text().count("def table_batches(") == 1
    assert PLAN.read_text().count("table_batches(") == 4   # ...three scans
    narrow = inspect.getsource(optimizer.Planner._narrow_scans)
    for scan in SCANS | {"_IndexScan"}:
        assert scan not in narrow, scan
    assert "TableScan" in narrow


def test_there_is_one_join_and_its_body_asks_kind_questions_per_batch():
    plan = PLAN.read_text()
    assert plan.count("\nclass Join(") == 1
    for second_operator in ("class IndexJoin", "class HashJoin",
                            "class NestedLoopJoin"):
        assert second_operator not in plan
    join = _class_source("Join")
    # The strategies are labels; the pair test, the padding and the
    # transposing of joined rows each happen once, in the one body.
    assert join.count('"IndexJoin"') == join.count('"HashJoin"') == 1
    assert join.split("def label")[1].split("def ")[0].count("Join") >= 3
    assert join.count("kept(") == 1
    assert join.count("repeat(null_pad)") == 1
    assert join.count("Batch.of_rows(") <= 1
    assert "_bucket_key(" not in plan
    # A loop or comprehension that walks a key column calls nothing per
    # cell to learn its kind or its bucket.
    tree = python_ast.parse(join)
    walking = [loop for loop in python_ast.walk(tree)
               if isinstance(loop, _LOOPS) and any(
                   isinstance(node, python_ast.Name) and node.id == "keys"
                   for source in (
                       [loop.iter] if hasattr(loop, "iter")
                       else [generator.iter for generator
                             in getattr(loop, "generators", [])])
                   for node in python_ast.walk(source))]
    assert len(walking) >= 3
    for loop in walking:
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in python_ast.walk(loop)
                  if isinstance(node, python_ast.Call)}
        assert not called & {"comparison_kind", "hashable", "comparable",
                             "hash", "_bucket_key"}, python_ast.unparse(loop)


def test_no_column_is_told_apart_by_being_a_plain_list():
    # A column is a list, or a list subclass that marks it: Failing (a
    # cell holds a failure) or OneKind (no NULL, one kind of value).  A
    # ``type(...) is list`` test would take a marker for a failure.
    plain = re.compile(r"type\([^()]*\)\s+is\s+(?:not\s+)?list\b")
    found = [f"{path.name}:{number}" for path in (DB / "sql").glob("*.py")
             for number, line in enumerate(
                 path.read_text().splitlines(), start=1)
             if plain.search(line)]
    assert found == []
    assert plain.search("return value if type(value) is list else value")


def test_only_expressions_py_dispatches_on_expression_node_type():
    handler = re.compile(
        r"def _(?:eval|compile)_(?:%s)\b" % "|".join(
            node_type.__name__.lower() for node_type in ast.EXPRESSION_TYPES))
    keyed_by_type = re.compile(
        r"\[type\((?:node|expression|expr|call)\)\]")
    # ``ast.py`` is the fold itself: its per-type table lists children,
    # it gives no node a meaning.
    dispatching = [
        path.relative_to(DB).as_posix() for path in DB.rglob("*.py")
        if path.name != "ast.py" and (
            handler.search(path.read_text())
            or keyed_by_type.search(path.read_text())
            or "EXPRESSION_TYPES" in path.read_text())
    ]
    assert dispatching == ["sql/expressions.py"]


def test_every_operator_runs_batches_and_none_overrides_execute():
    from repro.db.sql import plan

    operators = [value for value in vars(plan).values()
                 if isinstance(value, type)
                 and issubclass(value, plan.PlanNode)
                 and value not in (plan.PlanNode, plan.TableScan)
                 and not value.__name__.startswith("_")]
    assert len(operators) >= 11
    for operator in operators:
        assert "execute" not in vars(operator), operator
        assert "run" not in vars(operator), operator
        assert operator.batches is not plan.PlanNode.batches, operator


@pytest.mark.parametrize("layout", ["row", "column"])
def test_limit_never_evaluates_past_the_rows_it_returns(layout):
    database = Database(layout=layout)
    calls = []

    def fussy(value):
        calls.append(value)
        if value >= 2:
            raise ValueError(f"no {value}")
        return value * 10

    database.register_function("fussy", fussy)
    database.execute("CREATE TABLE t (x INTEGER)")
    for x in (1, 2, 3):
        database.execute("INSERT INTO t VALUES (?)", (x,))
    assert database.execute("SELECT fussy(x) FROM t LIMIT 1").rows == [(10,)]
    assert database.execute("SELECT fussy(x) FROM t LIMIT 0").rows == []
    assert database.execute(
        "SELECT x FROM t WHERE fussy(x) = 10 LIMIT 1").rows == [(1,)]
    if layout == "row":
        # The batch rule: under a LIMIT a row source's first batch is one
        # row.
        assert calls == [1, 1]
    # A bounded sort hands on offset + limit rows: the projection above
    # it is evaluated for those, not for the sort's input.
    calls.clear()
    assert database.execute(
        "SELECT fussy(x) FROM t ORDER BY x LIMIT 1").rows == [(10,)]
    assert calls == [1]
    with pytest.raises(DatabaseError, match="function 'fussy' failed: no 3"):
        database.execute("SELECT fussy(x) FROM t ORDER BY x DESC LIMIT 1")
    # Asking for the failing row still fails, with the row's own error.
    with pytest.raises(DatabaseError, match="function 'fussy' failed: no 2"):
        database.execute("SELECT fussy(x) FROM t LIMIT 2")
    with pytest.raises(DatabaseError, match="no 2"):
        database.execute("SELECT x FROM t WHERE fussy(x) = 10")


def _assigning(tree, attribute):
    """Names of the functions under *tree* that assign *attribute*."""
    found = set()
    for function in python_ast.walk(tree):
        if isinstance(function, python_ast.FunctionDef):
            for node in python_ast.walk(function):
                targets = (getattr(node, "targets", None)
                           or [getattr(node, "target", None)])
                if any(getattr(target, "attr", None) == attribute
                       for target in targets):
                    found.add(function.name)
    return found


def test_one_planner_walk_decides_every_row_source_s_first_batch():
    import inspect

    from repro.db.sql import plan

    # The batch rule lives in one planner method; no operator sets its
    # own first batch, and a row source that is never planned drains.
    for path in SRC.rglob("*.py"):
        assigning = _assigning(python_ast.parse(path.read_text()),
                               "first_batch")
        assert assigning == ({"_size_batches"} if path.name == "optimizer.py"
                             else set()), path
    assert plan.PlanNode.first_batch == plan.MAX_BATCH_ROWS
    # A scan's batch size is handed down: table_batches has no default.
    first = inspect.signature(plan.table_batches).parameters["first"]
    assert first.default is inspect.Parameter.empty
    # The only literal batch size is MAX_BATCH_ROWS itself.
    for path in (DB / "sql").glob("*.py"):
        literals = [node.lineno
                    for node in python_ast.walk(python_ast.parse(
                        path.read_text()))
                    if isinstance(node, python_ast.Constant)
                    and node.value == plan.MAX_BATCH_ROWS]
        assert literals == ([PLAN.read_text().splitlines().index(
            f"MAX_BATCH_ROWS = {plan.MAX_BATCH_ROWS}") + 1]
            if path == PLAN else []), path
