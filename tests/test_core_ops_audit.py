"""Source audit: the algebra runs on its codes.

``core.ops`` keeps every symbol- and codon-keyed lookup in one module,
``_tables.py``, and its operators run whole-buffer C calls over
``sequence.codes()`` rather than Python loops over ``str(sequence)``.
Either is easy to erode — one handy ``{"A": …}`` literal, one
``for base in str(dna)`` — and the cost only shows up as a slow
``algebra_scan`` several PRs later.  So, in the style of
``test_seed_audit.py`` and ``test_sql_ast_audit.py``, this test walks the
source for them.

The same goes for k-mers and patterns: a k-mer is one integer from one
function (``_tables.kmer_keys``) — one byte from ``_tables.kmer_bytes``
where it fits in one — never a joined text window, and a pattern has one
reading (``search.read_pattern``) under the predicates, both genomic
indexes and the page kernel.  ``express`` reads a gene's codes once.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
OPS = SRC / "core" / "ops"
VECTOR = SRC / "db" / "columnar" / "vector.py"
INDEX = SRC / "db" / "index"
#: Where k-mers are counted, posted and probed, and patterns matched.
KMER_MODULES = (OPS / "similarity.py", OPS / "search.py", INDEX / "kmer.py")

#: Where a Python-level loop over a symbol buffer is the algorithm, not an
#: oversight.  ``test_every_exemption_is_still_needed`` keeps it honest.
LOOPS_ALLOWED = {
    ("align.py", "*"):
        "dynamic-programming alignment: a cell per symbol pair (its "
        "loops run over range(rows), which this audit cannot see)",
    ("similarity.py", "_extend"):
        "X-drop extension of a seed: an alignment loop",
    ("similarity.py", "blast_search"):
        "one index probe per query word",
    ("similarity.py", "WordIndex.add"):
        "one posting per subject word",
    ("primers.py", "design_primers"):
        "searches candidate windows, nearest first",
    ("primers.py", "_max_self_complement_run"):
        "longest common substring of one 20-mer",
    ("_tables.py", "_codes"):
        "table building: walks a handful of symbols, once per alphabet",
    ("_tables.py", "CodonLookup.amino_of"):
        "ambiguous-codon remainder: the expansions of one codon",
    ("_tables.py", "CodonLookup.read"):
        "ambiguous-codon remainder: visits only the codons the 64-entry "
        "table could not read",
}

#: Where a sequence is spelt out as text inside :data:`KMER_MODULES`.
TEXT_ALLOWED = {
    ("similarity.py", "WordIndex.add"):
        "a ScoringScheme scores symbols: one spelling per subject for "
        "_extend, never one per word",
    ("similarity.py", "blast_search"):
        "the query's one spelling, for the same alignment loop",
}

#: Calls (functions, or methods of anything) that hand on one item per
#: symbol of their argument.
_PER_SYMBOL_CALLS = {
    "enumerate", "zip", "reversed", "iter", "sorted", "list", "tuple",
    "map", "filter", "product", "accumulate", "kmer_keys", "words",
    "_text_codes",
}
#: Methods of a buffer that return a buffer.
_BUFFER_METHODS = {"upper", "lower", "replace", "translate", "codes"}


def _annotates_a_buffer(annotation) -> bool:
    """``str``, ``bytes``, ``…Sequence`` or a union holding one."""
    if isinstance(annotation, ast.Constant):  # a quoted annotation
        annotation = ast.parse(str(annotation.value), mode="eval").body
    if isinstance(annotation, ast.BinOp):
        return (_annotates_a_buffer(annotation.left)
                or _annotates_a_buffer(annotation.right))
    return isinstance(annotation, ast.Name) and (
        annotation.id in ("str", "bytes")
        or annotation.id.endswith("Sequence"))


def _modules():
    return sorted(OPS.glob("*.py"))


def _functions(tree):
    """(qualified name, node) of every function, methods as Class.name."""
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
    yield from visit(tree, "")


class _Buffers:
    """Which expressions of one function are per-symbol buffers."""

    def __init__(self, function):
        self.names = set()
        arguments = function.args
        for argument in (*arguments.posonlyargs, *arguments.args,
                         *arguments.kwonlyargs):
            if argument.annotation is not None and _annotates_a_buffer(
                    argument.annotation):
                self.names.add(argument.arg)
        # Two passes settle chains of assignments in any order.
        for __ in range(2):
            for node in ast.walk(function):
                if isinstance(node, ast.Assign) and self.is_buffer(
                        node.value):
                    self.names.update(
                        target.id for target in node.targets
                        if isinstance(target, ast.Name))

    def is_buffer(self, node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Subscript):
            return (isinstance(node.slice, ast.Slice)
                    and self.is_buffer(node.value))
        if not isinstance(node, ast.Call):
            return False
        function = node.func
        if isinstance(function, ast.Name):
            if function.id == "str":
                return True
            if function.id == "range":
                return any(
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "len"
                    and self.is_buffer(inner.args[0])
                    for argument in node.args
                    for inner in ast.walk(argument))
            return (function.id in _PER_SYMBOL_CALLS
                    and any(map(self.is_buffer, self._spread(node.args))))
        if isinstance(function, ast.Attribute):
            if function.attr in _PER_SYMBOL_CALLS:
                return any(map(self.is_buffer, self._spread(node.args)))
            return function.attr in _BUFFER_METHODS and (
                function.attr == "codes" or self.is_buffer(function.value))
        return False

    @staticmethod
    def _spread(arguments):
        for argument in arguments:
            yield argument.value if isinstance(argument,
                                               ast.Starred) else argument

    def loops(self, function):
        """Python-level loops of *function* that step through a buffer."""
        for node in ast.walk(function):
            if isinstance(node, (ast.For, ast.comprehension)):
                if self.is_buffer(node.iter):
                    yield node
            elif isinstance(node, ast.While):
                if any(isinstance(inner, ast.Subscript)
                       and self.is_buffer(inner.value)
                       for inner in ast.walk(node)):
                    yield node


def _symbol_loops():
    """{(module, function)} holding a per-symbol Python loop."""
    found = set()
    for path in _modules():
        for name, function in _functions(ast.parse(path.read_text())):
            # A nested function is audited on its own.
            own = ast.FunctionDef(
                name=function.name, args=function.args,
                body=[node for node in function.body
                      if not isinstance(node, ast.FunctionDef)],
                decorator_list=[], lineno=function.lineno)
            if any(True for __ in _Buffers(function).loops(own)):
                found.add((path.name, name))
    return found


def test_no_operator_walks_a_sequence_symbol_by_symbol():
    offences = {
        (module, name) for module, name in _symbol_loops()
        if (module, name) not in LOOPS_ALLOWED
        and (module, "*") not in LOOPS_ALLOWED
    }
    assert not offences, (
        "operators read sequence.codes() with whole-buffer C calls "
        "(bytes.translate / count / find, zip, map, a compiled regex); "
        f"these loop over symbols in Python: {sorted(offences)}")


def test_every_exemption_is_still_needed():
    found = _symbol_loops()
    stale = [key for key in LOOPS_ALLOWED
             if key not in found and key[1] != "*"]
    assert not stale, f"no such loop any more, drop the exemption: {stale}"


def _keyed_tables(tree):
    """Line numbers of symbol- or codon-keyed table definitions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and len(node.keys) > 1:
            keys = [key.value for key in node.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)]
            if len(keys) == len(node.keys) and all(
                    len(key) in (1, 3) and key.upper() == key
                    for key in keys):
                yield node.lineno, {len(key) for key in keys}
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "maketrans"):
            yield node.lineno, {1}


def test_only_tables_py_defines_a_symbol_or_codon_keyed_table():
    offences = []
    for path in _modules():
        if path.name == "_tables.py":
            continue
        for line, key_lengths in _keyed_tables(ast.parse(path.read_text())):
            # codon.py *is* the genetic codes: the codon → residue
            # mappings CodonLookup derives its byte tables from, as
            # types/alphabet.py is the alphabets.  Nothing keyed by
            # symbol belongs even there.
            if path.name == "codon.py" and key_lengths == {3}:
                continue
            offences.append(f"{path.name}:{line}")
    assert not offences, (
        "per-symbol and per-codon lookups are derived once, in "
        f"core/ops/_tables.py; found another at {offences}")
    assert list(_keyed_tables(ast.parse((OPS / "_tables.py").read_text())))


def test_the_columnar_kernels_build_no_alphabet_table():
    source = VECTOR.read_text()
    for needle in ("maketrans", "lru_cache", "alphabet_by_name",
                   ".code(", ".complement(", "is_ambiguous", "_unpack4"):
        assert needle not in source, (
            f"db/columnar/vector.py uses {needle!r}: a kernel reads the "
            "page's codes through the tables its operator reads, and "
            "those live in core/ops/_tables.py (SymbolTables)")
    assert "gc_classes" in source and "gc_classes" in (
        OPS / "basic.py").read_text(), (
        "ops.gc_content and the gc_content page kernel share one "
        "counting rule: SymbolTables.gc_classes")


def test_one_constructor_bypasses_init():
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for root in (SRC / "core", SRC / "db" / "columnar")
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "__new__" in line
    ]
    assert len(hits) == 1 and hits[0].startswith("core/types/sequence.py"), (
        "PackedSequence._from_packed is the only place a sequence is "
        f"made without __init__; __new__ appears at {hits}")


def test_the_value_memo_lives_in_one_layer():
    # ``core.ops`` stays memo-free, so the oracles that call it (the e2e
    # replay, test_ops_reference.py) recompute what the adapter recalls.
    allowed = ("core/types/sequence.py", "adapter/adapter.py")
    users = sorted(
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
        if any(needle in path.read_text()
               for needle in ("derive(", "_derived")))
    assert tuple(sorted(allowed)) == tuple(users), (
        "PackedSequence.derive is defined in core/types/sequence.py and "
        f"read by the adapter's registrations alone; found in {users}")


def _calls(function):
    return {node.func.id for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_express_reads_the_genes_codes_once():
    functions = dict(_functions(ast.parse(
        (OPS / "central_dogma.py").read_text())))
    called = _calls(functions["express"])
    assert not called & {"transcribe", "splice", "translate"}, (
        "express builds no transcript, mRNA or RNA value on its way to "
        f"the protein; it calls {sorted(called)}")
    # One reading of a CDS, shared with translate.
    assert "_protein" in called and "_protein" in _calls(
        functions["translate"])


def test_orf_scans_do_not_ask_the_table_codon_by_codon():
    source = (OPS / "orf.py").read_text()
    assert "is_start(" not in source and "is_stop(" not in source


def _spellings(function):
    """Lines of *function* that turn a value into text: ``str(…)``,
    ``….__str__`` or a ``"".join(…)``."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "str"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and isinstance(node.func.value, ast.Constant)
                and node.func.value.value == ""):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "__str__":
            yield node.lineno


def test_kmers_and_patterns_are_never_spelt_as_text():
    found = {}
    for path in KMER_MODULES:
        for name, function in _functions(ast.parse(path.read_text())):
            if any(True for __ in _spellings(function)):
                found[(path.name, name)] = sorted(_spellings(function))
    offences = {key: lines for key, lines in found.items()
                if key not in TEXT_ALLOWED}
    assert not offences, (
        "k-mers are integer keys over codes (_tables.kmer_keys) and a "
        "pattern is matched as codes (search.read_pattern); these spell "
        f"a sequence as text: {offences}")
    stale = sorted(set(TEXT_ALLOWED) - set(found))
    assert not stale, f"no such spelling any more, drop the entry: {stale}"


def test_one_kmer_key_function_and_one_reading_of_a_pattern():
    sources = {path: path.read_text() for path in SRC.rglob("*.py")}
    for needle in ('"".join, windows', "windows(", "_motif_regex",
                   "_pattern_sequence", "_compatibility_class"):
        hits = [str(path.relative_to(SRC))
                for path, source in sources.items() if needle in source]
        assert not hits, f"{needle!r} is back, in {hits}"
    for function in ("kmer_keys", "kmer_bytes"):
        defined = [str(path.relative_to(SRC))
                   for path, source in sources.items()
                   if f"def {function}(" in source]
        assert defined == ["core/ops/_tables.py"], (function, defined)
    for path in (OPS / "similarity.py", INDEX / "kmer.py"):
        assert "kmer_keys" in sources[path], (
            f"{path.name} counts k-mers some other way")
    # A window is a byte wherever it fits in one, read the one way.
    assert "kmer_bytes(" in sources[OPS / "similarity.py"]
    # The predicates; both indexes (through their base) and the kernel.
    assert "read_pattern(" in sources[OPS / "search.py"]
    for path in (INDEX / "base.py", VECTOR):
        assert "pattern_or_none(" in sources[path], (
            f"{path.name} reads a pattern some other way")
    for path in (INDEX / "kmer.py", INDEX / "suffix.py"):
        assert "self._pattern(" in sources[path]
        assert "PackedSequence(" not in sources[path]
        assert ".upper()" not in sources[path]
