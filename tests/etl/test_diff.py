"""Tests for LCS diff, tree diff, and snapshot differentials."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.etl.diff import (
    TreeNode,
    apply_edits,
    diff_ace_snapshots,
    diff_lines,
    diff_texts,
    diff_trees,
    edit_distance,
    longest_common_subsequence,
    parse_ace_text,
    snapshot_differential,
    split_ace_snapshot,
    split_flat_snapshot,
    split_relational_snapshot,
)

lines_strategy = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]),
                          max_size=25)


class TestLcs:
    def test_classic_example(self):
        assert "".join(longest_common_subsequence("ABCBDAB", "BDCABA")) \
            in ("BCBA", "BDAB", "BCAB")  # all maximal, length 4

    def test_lcs_length(self):
        assert len(longest_common_subsequence("ABCBDAB", "BDCABA")) == 4

    def test_empty(self):
        assert longest_common_subsequence([], ["a"]) == []
        assert longest_common_subsequence(["a"], []) == []

    def test_identical(self):
        assert longest_common_subsequence("abc", "abc") == list("abc")

    @given(lines_strategy, lines_strategy)
    def test_lcs_is_subsequence_of_both(self, first, second):
        common = longest_common_subsequence(first, second)

        def is_subsequence(needle, haystack):
            it = iter(haystack)
            return all(item in it for item in needle)

        assert is_subsequence(common, first)
        assert is_subsequence(common, second)


class TestLineDiff:
    def test_no_change(self):
        script = diff_texts("a\nb", "a\nb")
        assert all(edit.operation == "equal" for edit in script)

    def test_insert(self):
        script = diff_texts("a\nc", "a\nb\nc")
        inserted = [e.line for e in script if e.operation == "insert"]
        assert inserted == ["b"]

    def test_delete(self):
        script = diff_texts("a\nb\nc", "a\nc")
        deleted = [e.line for e in script if e.operation == "delete"]
        assert deleted == ["b"]

    def test_edit_distance(self):
        assert edit_distance("a\nb\nc", "a\nx\nc") == 2  # delete b, add x
        assert edit_distance("same", "same") == 0

    @settings(max_examples=80, deadline=None)
    @given(lines_strategy, lines_strategy)
    def test_script_replays_to_target(self, old, new):
        script = diff_lines(old, new)
        assert apply_edits(old, script) == new

    @settings(max_examples=80, deadline=None)
    @given(lines_strategy)
    def test_self_diff_is_all_equal(self, lines):
        assert all(e.operation == "equal"
                   for e in diff_lines(lines, lines))


class TestTreeDiff:
    def _tree(self, value="v1"):
        root = TreeNode("root")
        obj = root.add(TreeNode("Gene g1"))
        obj.add(TreeNode("Accession", "GA1"))
        obj.add(TreeNode("DNA", value))
        return root

    def test_identical_trees(self):
        assert diff_trees(self._tree(), self._tree()) == []

    def test_value_update_detected(self):
        edits = diff_trees(self._tree("AAAA"), self._tree("CCCC"))
        assert len(edits) == 1
        assert edits[0].operation == "update"
        assert edits[0].path[-1] == "DNA"
        assert (edits[0].old_value, edits[0].new_value) == ("AAAA", "CCCC")

    def test_subtree_insert(self):
        old = self._tree()
        new = self._tree()
        new.add(TreeNode("Gene g2"))
        edits = diff_trees(old, new)
        assert [e.operation for e in edits] == ["insert"]
        assert edits[0].path[-1] == "Gene g2"

    def test_subtree_delete(self):
        old = self._tree()
        old.add(TreeNode("Gene g2"))
        edits = diff_trees(old, self._tree())
        assert [e.operation for e in edits] == ["delete"]

    def test_ace_parse_shape(self):
        text = ('Gene : "lacZ"\nAccession\t"GA1"\nExon\t1\t10\n\n'
                'Gene : "trpA"\nAccession\t"GA2"\n')
        tree = parse_ace_text(text)
        assert len(tree.children) == 2
        assert tree.children[0].label == "Gene lacZ"
        assert tree.children[0].find("Accession").value == "GA1"

    def test_ace_diff_detects_sequence_change(self):
        old = 'Gene : "g"\nAccession\t"GA1"\nDNA\t"AAAA"\n'
        new = 'Gene : "g"\nAccession\t"GA1"\nDNA\t"CCCC"\n'
        edits = diff_ace_snapshots(old, new)
        assert len(edits) == 1
        assert edits[0].operation == "update"

    def test_node_size(self):
        assert self._tree().size() == 4


class TestSnapshotDifferential:
    def test_insert_update_delete(self):
        old = {"a": "1", "b": "2", "c": "3"}
        new = {"b": "2", "c": "30", "d": "4"}
        diff = snapshot_differential(old, new)
        assert diff.inserted == ("d",)
        assert diff.deleted == ("a",)
        assert diff.updated == ("c",)
        assert len(diff.inserted + diff.deleted + diff.updated) == 3

    def test_empty_diff(self):
        diff = snapshot_differential({"a": "1"}, {"a": "1"})
        assert not (diff.inserted or diff.deleted or diff.updated)

    def test_split_flat_genbank_style(self):
        text = ("LOCUS x\nACCESSION GA1\nORIGIN\n//\n"
                "LOCUS y\nACCESSION GA2\nORIGIN\n//\n")
        records = split_flat_snapshot(text)
        assert set(records) == {"GA1", "GA2"}
        assert records["GA1"].startswith("LOCUS x")

    def test_split_flat_embl_style(self):
        text = "ID x\nAC   GA1;\n//\nID y\nAC   GA2;\n//\n"
        assert set(split_flat_snapshot(text)) == {"GA1", "GA2"}

    def test_split_ace(self):
        text = ('Gene : "g1"\nAccession\t"GA1"\n\n'
                'Gene : "g2"\nAccession\t"GA2"\n')
        assert set(split_ace_snapshot(text)) == {"GA1", "GA2"}

    def test_split_relational(self):
        text = "accession,version\nGA1,1\nGA2,2\n"
        records = split_relational_snapshot(text)
        assert set(records) == {"GA1", "GA2"}

    @given(st.dictionaries(st.sampled_from("abcdef"),
                           st.sampled_from(["1", "2", "3"])),
           st.dictionaries(st.sampled_from("abcdef"),
                           st.sampled_from(["1", "2", "3"])))
    def test_differential_partitions_keyspace(self, old, new):
        diff = snapshot_differential(old, new)
        touched = set(diff.inserted) | set(diff.deleted) | set(diff.updated)
        unchanged = {
            key for key in set(old) & set(new) if old[key] == new[key]
        }
        assert touched | unchanged == set(old) | set(new)
        assert not touched & unchanged
