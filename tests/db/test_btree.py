"""Tests for the B+ tree, including a model-based property test."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.index.btree import BTreeIndex, _Inner
from repro.errors import DatabaseError


def make_tree(order=4):
    return BTreeIndex("idx", "t", "c", order=order)


def leftmost_path(tree):
    """The nodes from the root down to the first leaf."""
    node = tree._root
    path = [node]
    while isinstance(node, _Inner):
        node = node.children[0]
        path.append(node)
    return path


def items(tree):
    """Every (key, row ids) pair, in key order, along the leaf chain."""
    leaf = leftmost_path(tree)[-1]
    while leaf is not None:
        yield from ((key, list(ids)) for key, ids in leaf.postings)
        leaf = leaf.next


class TestBasics:
    def test_empty_tree(self):
        tree = make_tree()
        assert len(tree) == 0
        assert list(tree.search_equal(1)) == []
        assert list(tree.search_range()) == []

    def test_insert_and_find(self):
        tree = make_tree()
        tree.insert(5, 100)
        assert list(tree.search_equal(5)) == [100]

    def test_duplicate_keys(self):
        tree = make_tree()
        tree.insert(5, 1)
        tree.insert(5, 2)
        assert sorted(tree.search_equal(5)) == [1, 2]
        assert len(tree) == 2

    def test_null_keys_ignored(self):
        tree = make_tree()
        tree.insert(None, 1)
        assert len(tree) == 0
        tree.delete(None, 1)  # must not raise

    def test_order_validated(self):
        with pytest.raises(DatabaseError):
            make_tree(order=2)

    def test_delete(self):
        tree = make_tree()
        tree.insert(5, 1)
        tree.insert(5, 2)
        tree.delete(5, 1)
        assert list(tree.search_equal(5)) == [2]
        tree.delete(5, 2)
        assert list(tree.search_equal(5)) == []

    def test_delete_missing_is_noop(self):
        tree = make_tree()
        tree.insert(1, 1)
        tree.delete(2, 9)
        tree.delete(1, 9)
        assert len(tree) == 1


class TestSplitting:
    def test_many_inserts_force_splits(self):
        tree = make_tree(order=4)
        for i in range(500):
            tree.insert(i, i)
        assert len(leftmost_path(tree)) > 2
        for i in (0, 123, 250, 499):
            assert list(tree.search_equal(i)) == [i]

    def test_reverse_insertion_order(self):
        tree = make_tree(order=4)
        for i in reversed(range(200)):
            tree.insert(i, i)
        keys = [key for key, _ in items(tree)]
        assert keys == sorted(keys)

    def test_items_in_key_order(self):
        tree = make_tree(order=4)
        import random
        values = list(range(300))
        random.Random(7).shuffle(values)
        for value in values:
            tree.insert(value, value)
        keys = [key for key, _ in items(tree)]
        assert keys == sorted(keys)


class TestRangeScan:
    @pytest.fixture
    def tree(self):
        tree = make_tree(order=4)
        for i in range(0, 100, 2):  # even numbers 0..98
            tree.insert(i, i)
        return tree

    def test_full_range(self, tree):
        assert list(tree.search_range()) == list(range(0, 100, 2))

    def test_closed_range(self, tree):
        assert list(tree.search_range(10, 20)) == [10, 12, 14, 16, 18, 20]

    def test_open_low(self, tree):
        assert list(tree.search_range(10, 16, include_low=False)) \
            == [12, 14, 16]

    def test_open_high(self, tree):
        assert list(tree.search_range(10, 16, include_high=False)) \
            == [10, 12, 14]

    def test_unbounded_high(self, tree):
        assert list(tree.search_range(low=94)) == [94, 96, 98]

    def test_unbounded_low(self, tree):
        assert list(tree.search_range(high=4)) == [0, 2, 4]

    def test_range_between_keys(self, tree):
        assert list(tree.search_range(11, 13)) == [12]

    def test_empty_range(self, tree):
        assert list(tree.search_range(11, 11)) == []

    def test_text_keys(self):
        tree = make_tree()
        for word in ("banana", "apple", "cherry"):
            tree.insert(word, word)
        assert list(tree.search_range("apple", "banana")) \
            == ["apple", "banana"]


@st.composite
def operations(draw):
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(0, 30),
            st.integers(0, 5),
        ),
        max_size=200,
    ))
    return ops


class TestModelBased:
    @settings(max_examples=60, deadline=None)
    @given(operations())
    def test_matches_dict_model(self, ops):
        tree = make_tree(order=4)
        model: dict[int, list[int]] = {}
        for action, key, row in ops:
            if action == "insert":
                tree.insert(key, row)
                model.setdefault(key, []).append(row)
            else:
                tree.delete(key, row)
                if key in model and row in model[key]:
                    model[key].remove(row)
                    if not model[key]:
                        del model[key]
        # Equality lookups agree.
        for key in range(31):
            assert sorted(tree.search_equal(key)) \
                == sorted(model.get(key, []))
        # Full scan agrees and is ordered.
        expected = [row for key in sorted(model) for row in model[key]]
        assert sorted(tree.search_range()) == sorted(expected)
        keys = [key for key, _ in items(tree)]
        assert keys == sorted(keys)
        # Entry count agrees.
        assert len(tree) == sum(len(v) for v in model.values())

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1000), max_size=300),
           st.integers(0, 1000), st.integers(0, 1000))
    def test_range_matches_filter(self, keys, low, high):
        if low > high:
            low, high = high, low
        tree = make_tree(order=4)
        for position, key in enumerate(keys):
            tree.insert(key, position)
        expected = sorted(
            position for position, key in enumerate(keys)
            if low <= key <= high
        )
        assert sorted(tree.search_range(low, high)) == expected
