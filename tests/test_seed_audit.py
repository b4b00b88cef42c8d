"""Seed audit: no unseeded randomness or wall-clock nondeterminism.

Everything in this reproduction must replay bit for bit: simulated
sources draw from ``random.Random`` seeded with stable strings, tests
take their seeds from ``REPRO_TEST_SEED``, and time is the shared
``VirtualClock``.  This test greps the tree for the constructs that
silently break that — the module-level ``random`` functions (global,
unseeded RNG), ``random.Random()`` with no arguments (seeded from the
OS), and wall-clock reads used as data (``datetime.now``,
``time.time``).  ``time.perf_counter`` stays allowed: measuring how
long something took is not nondeterministic *behaviour*.

A line that must legitimately break the rule can carry the marker
comment ``# seed-audit: ok`` with a reason.

One directory-scoped exemption: ``src/repro/obs`` may read
``time.time()``.  Observability *measures* runs, it never drives
behaviour — a span's epoch stamp exists so JSONL sinks from different
processes merge on a common axis — and keeping the exemption here (not
as per-line markers) means any *new* wall-clock read outside the
observability layer still fails the audit.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks")
MARKER = "# seed-audit: ok"

#: The one subtree allowed to read the wall clock (and only that rule).
WALL_CLOCK_EXEMPT = ("src/repro/obs",)

_WALL_CLOCK = re.compile(r"\btime\.time\(|\btime\.time_ns\(")

_BANNED = (
    (re.compile(r"\brandom\.Random\(\s*\)"),
     "random.Random() without a seed"),
    (re.compile(r"(?<![\w.])random\.(random|randint|randrange|choice|"
                r"choices|shuffle|sample|uniform|gauss|getrandbits)\("),
     "module-level random.* call (global unseeded RNG)"),
    (re.compile(r"\bdatetime\.now\(|\bdatetime\.today\(|"
                r"\bdatetime\.utcnow\("),
     "wall-clock datetime read"),
    (_WALL_CLOCK,
     "wall-clock time read (use the VirtualClock or perf_counter)"),
)


def _python_files():
    for root in SCANNED:
        yield from (REPO / root).rglob("*.py")


def _exempt(relative: str, pattern: re.Pattern) -> bool:
    return (pattern is _WALL_CLOCK
            and any(relative.startswith(prefix)
                    for prefix in WALL_CLOCK_EXEMPT))


def test_no_unseeded_nondeterminism():
    offences = []
    for path in _python_files():
        if path.name == Path(__file__).name:
            continue  # this file spells the banned patterns out
        relative = path.relative_to(REPO).as_posix()
        for number, line in enumerate(
                path.read_text().splitlines(), start=1):
            if MARKER in line:
                continue
            for pattern, why in _BANNED:
                if pattern.search(line) and not _exempt(relative, pattern):
                    offences.append(
                        f"{path.relative_to(REPO)}:{number}: {why}\n"
                        f"    {line.strip()}"
                    )
    assert not offences, (
        "unseeded/nondeterministic constructs found "
        f"(annotate '{MARKER}' only with a reason):\n" + "\n".join(offences)
    )


def test_audit_actually_fires():
    # The audit must catch what it claims to catch.
    sample = "rng = random.Random()"
    assert any(pattern.search(sample) for pattern, __ in _BANNED)
    assert any(pattern.search("t = time.time()") for pattern, __ in _BANNED)
    assert not any(pattern.search("t = time.perf_counter()")
                   for pattern, __ in _BANNED)
    assert not any(pattern.search("rng = random.Random(('x', 3).__repr__())")
                   for pattern, __ in _BANNED)
    assert not any(pattern.search("value = self._rng.random()")
                   for pattern, __ in _BANNED)


#: Unbounded materialization of a child's whole row stream inside a
#: plan operator.  Pipeline breakers must route rows through the
#: budgeted runs in ``repro.db.columnar.spill`` (``indexed_run`` /
#: ``disk_run``) so queries larger than the
#: ``memory_budget`` still complete.
_MATERIALIZE = re.compile(
    r"\b(?:list|sorted|tuple)\(\s*self\.(?:child|left|right|input|source)"
    r"\.execute\(")

_PLAN_MODULE = "src/repro/db/sql/plan.py"


def test_plan_operators_never_materialize_children():
    offences = []
    path = REPO / _PLAN_MODULE
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if MARKER in line:
            continue
        if _MATERIALIZE.search(line):
            offences.append(f"{_PLAN_MODULE}:{number}: {line.strip()}")
    assert not offences, (
        "plan operators must stream children through spillable runs, "
        "not materialize them:\n" + "\n".join(offences)
    )


def test_materialization_audit_actually_fires():
    assert _MATERIALIZE.search(
        "right_rows = list(self.right.execute(parameters, outer))")
    assert _MATERIALIZE.search(
        "rows = sorted(self.child.execute(parameters, outer))")
    assert not _MATERIALIZE.search(
        "right_rows.extend(self.right.execute(parameters, outer))")


def test_wall_clock_exemption_is_scoped_to_obs():
    # The observability layer alone may stamp spans with time.time();
    # the same line anywhere else still fails the audit.
    assert _exempt("src/repro/obs/trace.py", _WALL_CLOCK)
    assert not _exempt("src/repro/mediator/mediator.py", _WALL_CLOCK)
    assert not _exempt("src/repro/obs/trace.py", _BANNED[0][0])
    # The obs tree gets no pass on the *other* rules.
    assert not _exempt("src/repro/obs/metrics.py",
                       re.compile(r"\brandom\.Random\(\s*\)"))
