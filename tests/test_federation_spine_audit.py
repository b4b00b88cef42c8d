"""Source audit: one scatter-gather, one fault schedule, one clock.

The federation has one query spine (wrappers → mediator → served,
sharded, fused answer) and one simulation substrate under it
(``repro.sim``: the virtual clock and the seeded fault schedule).  A
second router beside the served path, a second join of clock tracks, a
second seeded-window implementation or a second ``bump`` would each
grow back quietly, so — in the style of the seed / SQL-AST / executor /
core-ops audits — this test greps for them.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def _sources(*roots):
    for root in roots:
        yield from sorted((REPO / root).rglob("*.py"))


def _relative(path):
    return path.relative_to(REPO).as_posix()


def _enclosing_functions(path, called):
    """Qualified names of the functions in *path* whose body calls an
    attribute or name *called* (innermost ``def`` wins)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                target = child.func
                name = (target.attr if isinstance(target, ast.Attribute)
                        else getattr(target, "id", None))
                if name == called:
                    found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def test_there_is_no_second_router():
    assert not (SRC / "federation" / "router.py").exists()
    for path in _sources("src", "benchmarks", "examples"):
        assert "ShardedMediator" not in path.read_text(), _relative(path)
    serving = (SRC / "federation" / "serving.py").read_text()
    for kept in ("def merge_health(", "def fuse_batches(", "def fuse_rows(",
                 "def _route(", "def _fuse("):
        assert serving.count(kept) == 1, kept


def test_tracks_are_opened_in_four_places_and_joined_in_one():
    openers = {}
    for path in _sources("src"):
        for function in _enclosing_functions(path, "open_track"):
            openers.setdefault(_relative(path), set()).add(function)
    assert openers == {
        "src/repro/mediator/pool.py": {"run_on_tracks.task"},
        "src/repro/mediator/mediator.py": {"LiveSourceWrapper._timed_call"},
        "src/repro/serving/server.py": {"FederationServer._run"},
    }
    assert "def open_track(" in (SRC / "sim" / "clock.py").read_text()
    # One function joins tracks by makespan; the mediator's fan-out and
    # the sharded server's scatter both go through it.
    joiners = {_relative(path): _enclosing_functions(path, "bounded_makespan")
               for path in _sources("src")}
    assert {path: found for path, found in joiners.items() if found} == {
        "src/repro/mediator/pool.py": {"run_on_tracks"}}
    assert _enclosing_functions(
        SRC / "mediator" / "mediator.py", "run_on_tracks") == {
            "Mediator._fan_out"}
    assert _enclosing_functions(
        SRC / "federation" / "serving.py", "run_on_tracks") == {
            "ShardedFederationServer.serve"}


def test_both_injectors_draw_from_one_fault_schedule():
    for module in ("sources/faults.py", "federation/channel.py"):
        text = (SRC / module).read_text()
        assert "random.Random(" not in text, module
        assert "import random" not in text, module
        assert text.count("FaultSchedule(") == 1, module
        assert ".covers(" not in text, module      # windows live there too
    schedule = (SRC / "sim" / "schedule.py").read_text()
    assert schedule.count("random.Random(") == 1
    assert schedule.count("end <= start") == 1     # the empty-window check


def test_exactly_one_class_defines_bump():
    owners = []
    for path in _sources("src"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "bump"
                    for item in node.body):
                owners.append(f"{_relative(path)}:{node.name}")
    assert owners == ["src/repro/obs/metrics.py:LockedCounters"]


_FROM_FAULTS = re.compile(
    r"from repro\.sources\.faults import (?:\([^)]*\)|[^\n]*)")
_CLOCK_NAME = re.compile(r"\b(VirtualClock|ClockTrack)\b")


def test_the_clock_is_not_imported_from_the_fault_injector():
    for path in _sources("src"):
        if SRC / "sources" in path.parents:
            continue
        for match in _FROM_FAULTS.finditer(path.read_text()):
            assert not _CLOCK_NAME.search(match.group(0)), _relative(path)
    sample = "from repro.sources.faults import (\n    FaultStats,\n" \
             "    VirtualClock,\n)\n"
    assert _CLOCK_NAME.search(_FROM_FAULTS.search(sample).group(0))
    # ...while the names the benchmark imports stay where they were.
    from repro.sim.clock import ClockTrack, VirtualClock
    from repro.sources import VirtualClock as exported
    from repro.sources import faults
    assert exported is faults.VirtualClock is VirtualClock
    assert faults.ClockTrack is ClockTrack


def test_the_cache_protocol_and_the_cli_dispatch_are_said_once():
    cache = (SRC / "mediator" / "cache.py").read_text()
    # A hit is a peek; a miss goes live through Mediator.answer.
    assert _enclosing_functions(SRC / "mediator" / "cache.py", "peek") == {
        "CachedMediator.answer"}
    assert cache.count("self.cache.get(") == 1
    assert cache.count("self.cache.put(") == 1
    main = (SRC / "__main__.py").read_text()
    assert "arguments.command ==" not in main
    assert main.count("arguments.run(arguments)") == 1


#: The packages of the query spine: client-facing serving down to the
#: wrappers, and the drivers that replay schedules through them.
SPINE = ("mediator", "serving", "federation", "sim", "workload")
VERBS = ("gene", "genes", "find_genes")


def test_the_three_verbs_are_defined_in_one_module():
    owners = []
    for package in SPINE:
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name in VERBS:
                    owners.append((_relative(path), node.name))
    assert sorted(owners) == [("src/repro/mediator/mediator.py", verb)
                              for verb in sorted(VERBS)]


def _probes(text):
    """Lines of *text* whose ``getattr`` dispatches on a request kind or
    probes for ``peek`` / ``mediator`` / ``from_cache``."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"
                and len(node.args) >= 2):
            continue
        name = node.args[1]
        if (isinstance(name, ast.Constant)
                and name.value in ("peek", "mediator", "from_cache")
                or getattr(name, "id", None) == "kind"
                or getattr(name, "attr", None) == "kind"):
            found.append(node.lineno)
    return sorted(found)


def test_nothing_dispatches_on_a_kind_or_probes_a_layer():
    found = {_relative(path): _probes(path.read_text())
             for path in _sources("src")}
    assert {path: lines for path, lines in found.items() if lines} == {}
    # ...and the check finds what it looks for.
    assert _probes("getattr(m, request.kind)(**params)\n"
                   "getattr(answer, 'from_cache', False)\n"
                   "getattr(server, 'mediator', server)\n"
                   "getattr(cache, 'peek', None)\n"
                   "getattr(truth, kind)()\n"
                   "getattr(cost, name)\n") == [1, 2, 3, 4, 5]


def test_the_unwrapping_helpers_are_gone():
    for path in _sources("src"):
        assert "normalize_query" not in path.read_text(), _relative(path)
    server = (SRC / "serving" / "server.py").read_text()
    assert "self.inner" not in server
    cache = (SRC / "mediator" / "cache.py").read_text()
    assert "class CachedMediator(Mediator):" in cache
    assert "@property" not in cache  # no forwarding to a wrapped mediator
    mediator = (SRC / "mediator" / "mediator.py").read_text()
    assert "predicate" not in mediator

