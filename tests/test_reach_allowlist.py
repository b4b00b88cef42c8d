"""The reach check's allow-list stays true to the tree (``ast`` only).

``tests/reach.py`` runs every entry point to find the functions they
leave unreached; that takes minutes, so it runs in CI's coverage job.
This check runs in tier-1 and keeps the allow-list honest in between:
every entry names a module, class or def that exists in ``src/repro``,
gives a reason from the closed set, and appears once.
"""

import functools

import tests.reach as reach
from tests.reach import (
    DISPLAY_PATTERN,
    PACKAGE,
    REASONS,
    definitions,
    read_allowlist,
    unmatched_verbs,
)


@functools.lru_cache(maxsize=None)
def _names() -> frozenset:
    found, classes = definitions()
    modules = {path.relative_to(PACKAGE).as_posix()
               for path in PACKAGE.rglob("*.py")}
    return frozenset({item.key for item in found} | classes | modules)


def problems(entries) -> list[str]:
    """What is wrong with allow-list *entries*, one line per fault."""
    wrong, seen = [], set()
    for number, target, reason in entries:
        if target in seen:
            wrong.append(f"{number}: {target} is listed twice")
        seen.add(target)
        if target == DISPLAY_PATTERN:
            if reason != "display":
                wrong.append(f"{number}: the display pattern's reason is "
                             f"'display', not {reason!r}")
            continue
        if target not in _names():
            wrong.append(f"{number}: {target} names nothing in src/repro")
        if not reason.startswith(REASONS):
            wrong.append(f"{number}: {target} gives no reason from "
                         f"{REASONS}: {reason!r}")
    return wrong


def test_every_entry_names_a_def_and_gives_a_reason():
    assert problems(read_allowlist()) == []


def test_the_display_pattern_is_listed():
    assert DISPLAY_PATTERN in {target for _, target, _ in read_allowlist()}


def test_an_entry_for_a_deleted_function_is_refused(tmp_path):
    allowlist = tmp_path / "reach_allowlist.txt"
    allowlist.write_text("core/ontology/obo.py:loads  paper §4.1 OBO text\n"
                         "db/storage.py:WriteAheadLog.replay  safety\n")
    assert len(problems(read_allowlist(allowlist))) == 2


def test_an_entry_without_a_closed_reason_is_refused(tmp_path):
    allowlist = tmp_path / "reach_allowlist.txt"
    allowlist.write_text("core/ontology/graph.py  handy\n"
                         "core/ontology/mapping.py\n"
                         "core/ontology/graph.py:Ontology.merge  abstract\n"
                         "core/ontology/graph.py:Ontology.merge  abstract\n")
    assert len(problems(read_allowlist(allowlist))) == 3


def test_every_registered_verb_is_run_and_every_run_names_a_verb(
        monkeypatch):
    assert unmatched_verbs() == []
    runs = dict(reach.CLI_RUNS)
    del runs["macro"]
    runs["bogus"] = [()]
    monkeypatch.setattr(reach, "CLI_RUNS", runs)
    assert unmatched_verbs() == ["verb 'macro' has no run",
                                 "run 'bogus' names no verb"]

