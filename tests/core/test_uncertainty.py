"""Tests for Uncertain / Alternatives (requirement C9)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.types.uncertainty import (
    Alternatives,
    Uncertain,
    UncertaintyError,
)


class TestUncertain:
    def test_default_is_certain(self):
        assert Uncertain("x").is_certain()

    def test_confidence_stored(self):
        reading = Uncertain("x", 0.4, source="GenBank")
        assert reading.confidence == 0.4
        assert reading.source == "GenBank"

    def test_confidence_bounds(self):
        with pytest.raises(UncertaintyError):
            Uncertain("x", 1.5)
        with pytest.raises(UncertaintyError):
            Uncertain("x", -0.1)

    def test_equality_and_hash(self):
        assert Uncertain("x", 0.5) == Uncertain("x", 0.5)
        assert Uncertain("x", 0.5) != Uncertain("x", 0.6)
        assert hash(Uncertain("x", 0.5)) == hash(Uncertain("x", 0.5))

    def test_scaled_clamps_to_one(self):
        assert Uncertain("x", 0.8).scaled(2.0).confidence == 1.0

    def test_scaled_preserves_source(self):
        assert Uncertain("x", 0.5, "s").scaled(0.5).source == "s"


class TestAlternatives:
    def test_requires_one_option(self):
        with pytest.raises(UncertaintyError):
            Alternatives([])

    def test_ordered_by_confidence(self):
        alternatives = Alternatives([
            Uncertain("low", 0.2),
            Uncertain("high", 0.9),
        ])
        assert alternatives.best().value == "high"
        assert alternatives.values() == ("high", "low")

    def test_tie_keeps_insertion_order(self):
        alternatives = Alternatives([
            Uncertain("first", 0.5),
            Uncertain("second", 0.5),
        ])
        assert alternatives.values() == ("first", "second")

    def test_of_constructor_uniform(self):
        alternatives = Alternatives.of("a", "b")
        assert len(alternatives) == 2
        assert alternatives.best().confidence == 0.5

    def test_of_constructor_with_confidences(self):
        alternatives = Alternatives.of("a", "b", confidences=[0.3, 0.7],
                                       sources=["x", "y"])
        assert alternatives.best().value == "b"
        assert alternatives.best().source == "y"

    def test_of_constructor_length_mismatch(self):
        with pytest.raises(UncertaintyError):
            Alternatives.of("a", "b", confidences=[0.5])

    def test_is_conflicting(self):
        assert Alternatives.of("a", "b").is_conflicting()
        assert not Alternatives.of("a", "a").is_conflicting()

    def test_is_conflicting_on_long_sequences(self):
        # Regression: repr truncation must not mask conflicts between
        # long payloads sharing a prefix.
        from repro.core.types.sequence import DnaSequence

        prefix = "ACGT" * 20
        differing = Alternatives.of(DnaSequence(prefix + "A"),
                                    DnaSequence(prefix + "C"))
        assert differing.is_conflicting()
        same = Alternatives.of(DnaSequence(prefix), DnaSequence(prefix))
        assert not same.is_conflicting()

    def test_equal_alternatives_hash_alike(self):
        assert Alternatives.of("a", "b") == Alternatives.of("a", "b")
        pair = Alternatives.of("a", "b")
        assert hash(pair) == hash(Alternatives.of("a", "b"))

    def test_add_is_immutable(self):
        first = Alternatives.of("a")
        second = first.add(Uncertain("b", 0.9))
        assert len(first) == 1
        assert len(second) == 2
        assert second.best().value == "a"  # 1.0 beats 0.9

    def test_filtered_keeps_threshold(self):
        alternatives = Alternatives([
            Uncertain("a", 0.9), Uncertain("b", 0.1),
        ])
        assert alternatives.filtered(0.5).values() == ("a",)

    def test_filtered_never_empties(self):
        alternatives = Alternatives([Uncertain("a", 0.1)])
        assert alternatives.filtered(0.9).values() == ("a",)

    def test_normalized_sums_to_one(self):
        alternatives = Alternatives([
            Uncertain("a", 0.5), Uncertain("b", 0.3),
        ]).normalized()
        total = sum(option.confidence for option in alternatives)
        assert total == pytest.approx(1.0)

    def test_equality(self):
        assert Alternatives.of("a", "b") == Alternatives.of("a", "b")

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    def test_best_has_max_confidence(self, confidences):
        alternatives = Alternatives(
            Uncertain(index, confidence)
            for index, confidence in enumerate(confidences)
        )
        assert alternatives.best().confidence == max(confidences)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
    def test_order_is_descending(self, confidences):
        alternatives = Alternatives(
            Uncertain(index, confidence)
            for index, confidence in enumerate(confidences)
        )
        values = [option.confidence for option in alternatives]
        assert values == sorted(values, reverse=True)
