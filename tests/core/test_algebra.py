"""Tests for the many-sorted algebra kernel and the Genomics Algebra."""

import pytest

from repro.core.algebra import (
    Algebra,
    Application,
    Constant,
    Signature,
    Variable,
    genomics_algebra,
    parse_term,
)
from repro.core.types import DnaSequence, Gene, Interval, Protein
from repro.errors import (
    AlgebraError,
    EvaluationError,
    SortMismatchError,
    UnknownOperatorError,
    UnknownSortError,
)

GENE_TEXT = "ATGGCCATTGTAATGGGCCGCTGAAAGGGTGCCCGATAG"


@pytest.fixture
def signature():
    sig = Signature("test")
    sig.declare_sort("int", "integers")
    sig.declare_sort("string", "strings")
    sig.declare_operator("concat", ("string", "string"), "string")
    sig.declare_operator("getchar", ("string", "int"), "string")
    sig.declare_operator("length", ("string",), "int")
    return sig


@pytest.fixture
def algebra(signature):
    alg = Algebra(signature)
    alg.set_carrier("int", int)
    alg.set_carrier("string", str)
    alg.bind("concat", ("string", "string"), lambda a, b: a + b)
    alg.bind("getchar", ("string", "int"), lambda s, i: s[i])
    alg.bind("length", ("string",), len)
    return alg


@pytest.fixture
def demo_gene():
    return Gene(name="demo", sequence=DnaSequence(GENE_TEXT),
                exons=(Interval(0, 12), Interval(18, 39)))


class TestSignature:
    def test_duplicate_sort_rejected(self, signature):
        with pytest.raises(UnknownSortError):
            signature.declare_sort("int")

    def test_operator_requires_known_sorts(self, signature):
        with pytest.raises(UnknownSortError):
            signature.declare_operator("f", ("nope",), "int")

    def test_duplicate_operator_rejected(self, signature):
        with pytest.raises(UnknownOperatorError):
            signature.declare_operator("concat", ("string", "string"),
                                       "string")

    def test_overloading_allowed(self, signature):
        signature.declare_operator("concat", ("int", "int"), "int")
        assert len(signature.overloads("concat")) == 2

    def test_resolve_picks_overload(self, signature):
        signature.declare_operator("concat", ("int", "int"), "int")
        operator = signature.resolve("concat", ("int", "int"))
        assert operator.result_sort == "int"

    def test_resolve_mismatch(self, signature):
        with pytest.raises(SortMismatchError):
            signature.resolve("concat", ("int", "string"))

    def test_unknown_operator(self, signature):
        with pytest.raises(UnknownOperatorError):
            signature.overloads("nope")

    def test_describe_lists_everything(self, signature):
        text = signature.describe()
        assert "concat: string × string → string" in text
        assert "int" in text


class TestTerms:
    def test_application_sort(self, signature):
        operator = signature.resolve("length", ("string",))
        term = Application(operator, (Constant("abc", "string"),))
        assert term.sort == "int"

    def test_ill_sorted_application_rejected(self, signature):
        operator = signature.resolve("length", ("string",))
        with pytest.raises(SortMismatchError):
            Application(operator, (Constant(3, "int"),))

    def test_variables_collected(self, signature):
        operator = signature.resolve("concat", ("string", "string"))
        term = Application(operator, (
            Variable("x", "string"), Variable("y", "string"),
        ))
        assert {v.name for v in term.variables()} == {"x", "y"}
        closed = Application(operator, (
            Variable("x", "string"), Constant("b", "string"),
        ))
        assert {v.name for v in closed.variables()} == {"x"}

    def test_depth(self, signature):
        inner = Application(
            signature.resolve("concat", ("string", "string")),
            (Constant("a", "string"), Constant("b", "string")),
        )
        outer = Application(
            signature.resolve("length", ("string",)), (inner,)
        )
        assert outer.depth() == 3
        assert Application(signature.resolve("length", ("string",)),
                           (Variable("x", "string"),)).depth() == 2

    def test_parse_the_papers_example(self, signature):
        term = parse_term(
            "getchar(concat('Genomics', 'Algebra'), 10)", signature
        )
        assert term.sort == "string"
        assert str(term) == "getchar(concat('Genomics', 'Algebra'), 10)"

    def test_parse_with_variables(self, signature):
        term = parse_term("length(x)", signature,
                          variables={"x": "string"})
        assert term.sort == "int"

    def test_parse_unknown_identifier(self, signature):
        with pytest.raises(AlgebraError):
            parse_term("length(zzz)", signature)

    def test_parse_trailing_garbage(self, signature):
        with pytest.raises(AlgebraError):
            parse_term("length('a')b", signature)


class TestEvaluation:
    def test_constant_evaluation(self, algebra):
        assert algebra.evaluate(Constant(42, "int")) == 42

    def test_nested_evaluation(self, algebra):
        term = algebra.parse("getchar(concat('Geno', 'mics'), 4)")
        assert algebra.evaluate(term) == "m"

    def test_variable_binding(self, algebra):
        term = algebra.parse("length(x)", variables={"x": "string"})
        assert algebra.evaluate(term, {"x": "hello"}) == 5

    def test_unbound_variable(self, algebra):
        term = algebra.parse("length(x)", variables={"x": "string"})
        with pytest.raises(EvaluationError):
            algebra.evaluate(term)

    def test_binding_outside_carrier(self, algebra):
        term = algebra.parse("length(x)", variables={"x": "string"})
        with pytest.raises(SortMismatchError):
            algebra.evaluate(term, {"x": 42})

    def test_result_carrier_checked(self, algebra):
        algebra.bind("length", ("string",), lambda s: "not an int")
        term = algebra.parse("length('abc')")
        with pytest.raises(SortMismatchError):
            algebra.evaluate(term)

    def test_operator_failure_wrapped(self, algebra):
        term = algebra.parse("getchar('abc', 99)")
        with pytest.raises(EvaluationError):
            algebra.evaluate(term)

    def test_unbound_operator_reported(self, signature):
        bare = Algebra(signature)
        term = parse_term("length('abc')", signature)
        with pytest.raises(EvaluationError):
            bare.evaluate(term)
        assert len(bare.unbound_operators()) == 3

    def test_call_shorthand(self, algebra):
        assert algebra.call("concat", ("a", "string"),
                            ("b", "string")) == "ab"


class TestExtensibility:
    def test_extend_sort_and_operator(self, algebra):
        algebra.extend_sort("float", float)
        algebra.extend_operator("half", ("int",), "float",
                                lambda n: n / 2)
        term = algebra.parse("half(length('abcd'))")
        assert algebra.evaluate(term) == 2.0

    def test_combining_new_and_old_sorts(self, algebra):
        # The paper: "we can combine new sorts with sorts already present".
        algebra.extend_sort("pair", tuple)
        algebra.extend_operator("pair_of", ("string", "int"), "pair",
                                lambda s, n: (s, n))
        term = algebra.parse("pair_of('x', length('ab'))")
        assert algebra.evaluate(term) == ("x", 2)


class TestGenomicsAlgebra:
    def test_papers_running_example(self, demo_gene):
        algebra = genomics_algebra()
        term = algebra.parse("translate(splice(transcribe(g)))",
                             variables={"g": "gene"})
        protein = algebra.evaluate(term, {"g": demo_gene})
        assert isinstance(protein, Protein)
        assert str(protein.sequence) == "MAIVR"

    def test_express_matches_composition(self, demo_gene):
        algebra = genomics_algebra()
        composed = algebra.evaluate(
            algebra.parse("translate(splice(transcribe(g)))",
                          variables={"g": "gene"}),
            {"g": demo_gene},
        )
        expressed = algebra.evaluate(
            algebra.parse("express(g)", variables={"g": "gene"}),
            {"g": demo_gene},
        )
        assert str(composed.sequence) == str(expressed.sequence)

    def test_contains_predicate(self, demo_gene):
        algebra = genomics_algebra()
        assert algebra.call(
            "contains",
            (demo_gene.sequence, "dna"), ("ATGGCC", "string"),
        ) is True

    def test_every_operator_is_bound(self):
        algebra = genomics_algebra()
        assert algebra.unbound_operators() == []

    def test_sort_checking_rejects_wrong_pipeline_order(self, demo_gene):
        algebra = genomics_algebra()
        with pytest.raises(SortMismatchError):
            # splice expects a primarytranscript, not a gene.
            algebra.parse("splice(g)", variables={"g": "gene"})

    def test_decode_then_gc(self):
        algebra = genomics_algebra()
        term = algebra.parse("gc_content(dna('GGCC'))")
        assert algebra.evaluate(term) == 1.0

    def test_instances_are_independent(self):
        first = genomics_algebra()
        second = genomics_algebra()
        first.extend_sort("custom", str)
        assert not second.signature.has_sort("custom")
