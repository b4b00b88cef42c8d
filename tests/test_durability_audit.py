"""Source audit: one WAL parser, one format, one image encoder, one
rollback mechanism, no ablation switches.

The durability stack (``repro.db.storage`` / ``scrub`` / ``recovery``
and ``repro.federation``) reads WAL lines through exactly one
classifier, ``storage.classify_wal``, and its production classes carry
no parameter that exists only to be a benchmark baseline (those live in
``benchmarks/``).  Both facts are easy to erode one convenient
``json.loads`` or keyword at a time, so — in the style of
``test_seed_audit.py`` — this test greps for them.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Names deleted with the legacy readers; none may come back.
_GONE = ("reopen_each", "checksums=", "records_legacy", "WAL_EPOCH_FORMAT")


def test_wal_lines_have_exactly_one_parser():
    durability = [*(SRC / "repro" / "db").glob("*.py"),
                  *(SRC / "repro" / "federation").glob("*.py"),
                  *(SRC / "repro" / "warehouse").glob("*.py")]
    parsers = {path.name: path.read_text().count("json.loads")
               for path in durability if "json.loads" in path.read_text()}
    assert parsers == {"storage.py": 1}, (
        "WAL lines must be parsed by storage.classify_wal alone; "
        f"json.loads now appears in {parsers}")
    definitions = [str(path.relative_to(SRC))
                   for path in (SRC / "repro").rglob("*.py")
                   if "def classify_wal" in path.read_text()]
    assert definitions == ["repro/db/storage.py"], definitions


def test_rollback_is_the_undo_log_alone():
    """A transaction is the statement undo log held open: no table copy
    to restore from, and no index rebuilt wholesale on rollback."""
    db = SRC / "repro" / "db"
    offences = [f"{name}: {word}"
                for name, words in (
                    ("table.py", ("def snapshot", "def restore")),
                    ("database.py", ("_snapshot", "_all_or_nothing")))
                for word in words if word in (db / name).read_text()]
    assert not offences, f"a second rollback mechanism: {offences}"


def test_images_are_serialized_by_the_c_encoder():
    """``json.dump`` streams through CPython's pure-Python encoder;
    ``json.dumps`` writes the same bytes in one C call."""
    offences = [str(path.relative_to(SRC))
                for path in (SRC / "repro").rglob("*.py")
                if "json.dump(" in path.read_text()]
    assert not offences, (
        f"serialize with one json.dumps, not json.dump: {offences}")


def test_the_ablation_switches_stay_deleted():
    offences = [f"{path.relative_to(SRC)}: {name}"
                for path in SRC.rglob("*.py")
                for name in _GONE if name in path.read_text()]
    assert not offences, (
        "baselines for ablations belong in benchmarks/, not in "
        f"production signatures: {offences}")
