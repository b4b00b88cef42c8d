"""Ordered-tree diff for hierarchical snapshots (Figure 2, top row).

Hierarchical sources (AceDB-style object dumps) are compared as ordered
labelled trees — "for hierarchical data, various diff algorithms for
ordered trees exist … the acediff utility will compute minimal changes
between different snapshots".

The algorithm here is a practical top-down matcher: at each level,
children are aligned by an LCS over their labels; matched children
recurse, unmatched ones become subtree inserts/deletes, and matched
nodes whose values differ become updates.  That is the same family of
algorithm as acediff/XMLTreeDiff (not the full Zhang–Shasha optimum),
and it produces minimal scripts on the realistic case of snapshots that
mostly agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.etl.diff.lcs import longest_common_subsequence

INSERT = "insert"
DELETE = "delete"
UPDATE = "update"


@dataclass
class TreeNode:
    """An ordered, labelled tree node with an optional scalar value."""

    label: str
    value: str | None = None
    children: list["TreeNode"] = field(default_factory=list)

    def add(self, child: "TreeNode") -> "TreeNode":
        self.children.append(child)
        return child

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def find(self, label: str) -> "TreeNode | None":
        for child in self.children:
            if child.label == label:
                return child
        return None

    def render(self, indent: int = 0) -> str:
        value = f" = {self.value}" if self.value is not None else ""
        lines = [f"{'  ' * indent}{self.label}{value}"]
        lines.extend(child.render(indent + 1) for child in self.children)
        return "\n".join(lines)


@dataclass(frozen=True)
class TreeEdit:
    """One tree edit: path to the affected node, operation, payloads."""

    operation: str
    path: tuple[str, ...]
    old_value: str | None = None
    new_value: str | None = None


def parse_ace_text(text: str) -> TreeNode:
    """Parse an AceDB-style dump into a tree.

    Objects are blank-line-separated blocks; the first line is
    ``Class : "name"``, subsequent lines are tab-separated tag/value
    rows that become children of the object node.
    """
    root = TreeNode("root")
    for block in text.split("\n\n"):
        lines = [line for line in block.splitlines() if line.strip()]
        if not lines:
            continue
        header = lines[0]
        if ":" not in header:
            raise ReproError(f"malformed object header {header!r}")
        class_name, _, object_name = header.partition(":")
        node = root.add(TreeNode(
            f"{class_name.strip()} {object_name.strip().strip(chr(34))}"
        ))
        for line in lines[1:]:
            parts = line.split("\t")
            tag = parts[0].strip()
            values = [part.strip().strip('"') for part in parts[1:]]
            child = node.add(TreeNode(tag, " ".join(values) or None))
            del child  # appended; nothing further to do
    return root


def diff_trees(old: TreeNode, new: TreeNode,
               path: tuple[str, ...] = ()) -> list[TreeEdit]:
    """Edit script (inserts/deletes/updates) turning *old* into *new*."""
    edits: list[TreeEdit] = []
    here = path + (old.label,)
    if old.label != new.label:
        # Different labels at the same position: replace the subtree.
        return [
            TreeEdit(DELETE, here, old_value=old.render()),
            TreeEdit(INSERT, path + (new.label,), new_value=new.render()),
        ]
    if old.value != new.value:
        edits.append(TreeEdit(UPDATE, here, old.value, new.value))

    old_labels = [child.label for child in old.children]
    new_labels = [child.label for child in new.children]
    common = longest_common_subsequence(old_labels, new_labels)

    i = j = k = 0
    while k < len(common):
        anchor = common[k]
        while old.children[i].label != anchor:
            child = old.children[i]
            edits.append(TreeEdit(DELETE, here + (child.label,),
                                  old_value=child.render()))
            i += 1
        while new.children[j].label != anchor:
            child = new.children[j]
            edits.append(TreeEdit(INSERT, here + (child.label,),
                                  new_value=child.render()))
            j += 1
        edits.extend(diff_trees(old.children[i], new.children[j], here))
        i += 1
        j += 1
        k += 1
    for child in old.children[i:]:
        edits.append(TreeEdit(DELETE, here + (child.label,),
                              old_value=child.render()))
    for child in new.children[j:]:
        edits.append(TreeEdit(INSERT, here + (child.label,),
                              new_value=child.render()))
    return edits


def diff_ace_snapshots(old_text: str, new_text: str) -> list[TreeEdit]:
    """Tree-diff two AceDB-style dumps (the acediff role)."""
    return diff_trees(parse_ace_text(old_text), parse_ace_text(new_text))
