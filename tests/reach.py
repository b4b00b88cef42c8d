"""Reach check: every function in ``src/repro`` that no entry point calls
is allow-listed with a reason.

Run from the repository root::

    PYTHONPATH=src python tests/reach.py

Each entry point runs in its own interpreter under a ``sys.setprofile`` /
``threading.setprofile`` hook (installed by a generated ``sitecustomize``,
so interpreters an entry point starts are hooked too) that records every
code object called.  The entry points are the real ways in: every
``python -m repro`` verb, ``benchmarks/e2e/run.py --quick --check``,
each ``benchmarks/bench_*.py`` (with ``--quick`` where it takes one) and
each ``examples/*.py``.  Tier-1 tests are deliberately not one: a
function only a test calls is what this check is looking for.

Benchmarks rewrite their ``BENCH_*.json`` beside ``benchmarks/``, so they
run from a temporary copy of ``benchmarks/`` and the JSON files; the
checkout is left as it was.

The unreached functions are compared with ``tests/reach_allowlist.txt``
(format described at the top of that file).  Exit status: 0 when they
match; 1 when a function is unreached and not allow-listed, or an
allow-list entry covers nothing unreached (it is stale); 2 when an entry
point itself failed, since its reach would then be short.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
ALLOWLIST = REPO / "tests" / "reach_allowlist.txt"

#: The reasons an allow-list entry may give (a prefix of its reason).
REASONS = ("paper §", "sql-surface", "safety", "abstract", "full-macro")
#: The one pattern entry: display methods, wherever they are defined.
DISPLAY_PATTERN = "*:__repr__,__str__"
DISPLAY_NAMES = ("__repr__", "__str__")

#: ``python -m repro`` invocations.
CLI_RUNS = (
    ("demo",), ("matrix",), ("quality",), ("shell",),
    ("recover", "--self-test"), ("scrub", "--self-test"),
    ("chaos", "--self-test"), ("chaos", "--self-test", "--concurrency", "2"),
    ("trace", "--jsonl", "trace.jsonl"), ("stats",), ("overload",),
    ("shard", "--count", "120"), ("macro", "--quick"), ("partition",),
)
#: What ``shell`` reads from stdin before it reaches EOF: each command
#: once, and a query rendered as FASTA.
SHELL_SESSION = ("\\help\n\\entities\n\\fields genes\n"
                 "FIND genes SHOW accession, sequence LIMIT 2 AS FASTA\n"
                 "\\sql\n")

HOOK = '''\
import atexit, os, sys, threading

_seen = {}


def _profile(frame, event, arg, _seen=_seen, _id=id):
    if event == "call":
        code = frame.f_code
        _seen[_id(code)] = code  # held, so its id is never reused


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    prefix = os.environ["REPRO_REACH_PACKAGE"]
    lines = set()
    for code in list(_seen.values()):
        path = os.path.realpath(code.co_filename)
        if path.startswith(prefix):
            lines.add(f"{path}\\t{code.co_firstlineno}\\t{code.co_name}\\n")
    out = os.path.join(os.environ["REPRO_REACH_OUT"], f"{os.getpid()}.txt")
    with open(out, "w") as handle:
        handle.writelines(sorted(lines))


if os.environ.get("REPRO_REACH_OUT"):
    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''


def entry_points(root: Path) -> list[tuple[str, list[str], str | None]]:
    """``(label, argv, stdin)`` for every entry point, run from *root*."""
    python = sys.executable
    runs = [(" ".join(("repro",) + verb), [python, "-m", "repro", *verb],
             SHELL_SESSION if verb == ("shell",) else "")
            for verb in CLI_RUNS]
    runs.append(("e2e --quick --check",
                 [python, "benchmarks/e2e/run.py", "--quick", "--check"],
                 None))
    for script in sorted((root / "benchmarks").glob("bench_*.py")):
        quick = ["--quick"] if '"--quick"' in script.read_text() else []
        runs.append((" ".join([script.name, *quick]),
                     [python, f"benchmarks/{script.name}", *quick], None))
    for script in sorted((REPO / "examples").glob("*.py")):
        runs.append((f"examples/{script.name}", [python, str(script)], None))
    return runs


def stage(root: Path, hook_dir: Path) -> None:
    """Lay out *root* as a checkout the benchmarks may write into."""
    shutil.copytree(REPO / "benchmarks", root / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    for document in REPO.glob("BENCH*.json"):
        shutil.copy(document, root / document.name)
    (root / "src").symlink_to(REPO / "src")
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)


def run_entry_points(root: Path, hook_dir: Path, out: Path):
    """Run every entry point under the hook; returns their failures."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(hook_dir), str(REPO / "src"))),
               REPRO_REACH_OUT=str(out),
               REPRO_REACH_PACKAGE=str(PACKAGE) + os.sep)

    def run(entry):
        label, argv, stdin = entry
        started = time.perf_counter()
        done = subprocess.run(argv, cwd=root, env=env, input=stdin,
                              stdin=None if stdin is not None
                              else subprocess.DEVNULL,
                              capture_output=True, text=True)
        print(f"  {time.perf_counter() - started:6.1f} s  {label}"
              + (f"  (exit {done.returncode})" if done.returncode else ""),
              flush=True)
        if done.returncode:
            return f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"
        return None

    workers = min(2, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [failure for failure in pool.map(run, entry_points(root))
                if failure]


def reached_codes(out: Path) -> set[tuple[str, int, str]]:
    """``(path relative to src/repro, first line, name)`` of called code."""
    reached = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            path, first, name = line.split("\t")
            reached.add((os.path.relpath(path, PACKAGE), int(first), name))
    return reached


class Def:
    """One ``def`` in ``src/repro``: where it is and what encloses it."""

    def __init__(self, module, qualname, node, parent):
        self.module = module
        self.qualname = qualname
        self.name = node.name
        self.parent = parent
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.lines = (first, node.lineno)
        self.size = node.end_lineno - first + 1

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def definitions() -> tuple[list[Def], set[str]]:
    """Every function definition in ``src/repro``, and every class key."""
    found, classes = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()

        def walk(node, prefix, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    item = Def(module, prefix + child.name, child, parent)
                    found.append(item)
                    walk(child, f"{item.qualname}.<locals>.", item)
                elif isinstance(child, ast.ClassDef):
                    classes.add(f"{module}:{prefix}{child.name}")
                    walk(child, f"{prefix}{child.name}.", parent)
                else:
                    walk(child, prefix, parent)

        walk(ast.parse(path.read_text(), str(path)), "", None)
    return found, classes


def read_allowlist(path: Path = ALLOWLIST) -> list[tuple[int, str, str]]:
    """``(line number, target, reason)`` for each entry of the allow-list."""
    entries = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            target, _, reason = line.partition(" ")
            entries.append((number, target, reason.strip()))
    return entries


def covers(target: str, item: Def) -> bool:
    """Whether allow-list *target* covers the definition *item*."""
    if target == DISPLAY_PATTERN:
        return item.name in DISPLAY_NAMES
    module, _, qualname = target.partition(":")
    if item.module != module:
        return False
    return (not qualname or item.qualname == qualname
            or item.qualname.startswith(qualname + "."))


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        scratch = Path(scratch)
        root, hook_dir, out = (scratch / "checkout", scratch / "hook",
                               scratch / "out")
        root.mkdir()
        out.mkdir()
        stage(root, hook_dir)
        print("entry points (under the profile hook):")
        failures = run_entry_points(root, hook_dir, out)
        reached = reached_codes(out)

    found, _ = definitions()
    hit = {item.key for item in found
           if any((item.module, line, item.name) in reached
                  for line in item.lines)}
    # A def inside an unreached def is implied by its parent.
    unreached = [item for item in found if item.key not in hit
                 and (item.parent is None or item.parent.key in hit)]
    entries = read_allowlist()
    listed = {item.key for item in unreached
              if any(covers(target, item) for _, target, _ in entries)}
    missing = [item for item in unreached if item.key not in listed]
    # A function's entry is stale once it is reached; a module's, a
    # class's or the pattern's once nothing it covers is unreached.
    functions = {item.key for item in found}
    stale = [(number, target) for number, target, _ in entries
             if (target in hit if target in functions
                 else not any(covers(target, item) for item in unreached))]

    lines = sum(item.size for item in unreached)
    print(f"\n{len(found)} functions in src/repro; {len(unreached)} unreached "
          f"({lines} lines), {len(listed)} of them allow-listed; "
          f"{time.perf_counter() - started:.0f} s")
    for failure in failures:
        print(f"\nENTRY POINT FAILED: {failure}")
    if missing:
        print(f"\nunreached and not allow-listed ({len(missing)}):")
        for item in missing:
            print(f"  {item.key}  ({item.size} lines)")
    if stale:
        print(f"\nstale allow-list entries: they cover nothing unreached "
              f"({len(stale)}):")
        for number, target in stale:
            print(f"  {ALLOWLIST.name}:{number}: {target}")
    if failures:
        return 2
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
