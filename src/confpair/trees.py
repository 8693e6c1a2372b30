"""Labeled planar binary trees and forests.

A tree is either a leaf carrying a positive integer label or an internal
(trivalent) vertex with an ordered pair of subtrees.  Internal vertices are
identified by their path from the tree root, a tuple over {0, 1} with 0
meaning "left child".  The total order on internal vertices is the in-order
traversal: everything over a left edge comes before the vertex, everything
over a right edge after.  Forests are tuples of trees whose leaf labels
partition {1..n}, stored sorted by minimal leaf label.

Tall trees are left combs whose deepest-left leaf is the minimal label;
tall forests are the canonical integral basis in each homological degree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError, ValidationError

LEFT, RIGHT = 0, 1
MAX_NESTING = 500  # deepest nesting the parsers accept; walks recurse once per level


def _walk_leaves(node, out):
    """Append the leaves of node to out, left to right; the one check of its shape."""
    if isinstance(node, int):
        out.append(node)
    elif isinstance(node, tuple) and len(node) == 2:
        _walk_leaves(node[0], out)
        _walk_leaves(node[1], out)
    else:
        raise ValidationError(f"malformed tree node {node!r}")


def _common_prefix(p, q):
    """Length of the longest common prefix of two root paths."""
    k = 0
    while k < len(p) and k < len(q) and p[k] == q[k]:
        k += 1
    return k


def _walk_leaf_paths(node, path, out):
    if isinstance(node, int):
        out[node] = path
    else:
        _walk_leaf_paths(node[0], path + (LEFT,), out)
        _walk_leaf_paths(node[1], path + (RIGHT,), out)


@dataclass(frozen=True)
class Tree:
    """Planar rooted binary tree; node is an int leaf or a (left, right) pair."""

    node: object

    def __post_init__(self):
        """Validate the leaves and store what the walk over them reads off:
        leaf_seq (labels in left-to-right planar order), labels, min_label."""
        out = []
        _walk_leaves(self.node, out)
        seq, labels = tuple(out), frozenset(out)
        if len(labels) != len(seq):
            raise ValidationError(f"duplicate leaf labels in tree: {seq}")
        for lab in seq:
            if lab < 1:
                raise ValidationError(f"leaf labels must be positive ints, got {lab!r}")
        object.__setattr__(self, "leaf_seq", seq)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "min_label", min(seq))

    @property
    def size(self):
        """Number of internal vertices."""
        return len(self.leaf_seq) - 1

    @property
    def depth(self):
        """Depth of the minimum leaf."""
        return len(self.leaf_paths[self.min_label])

    @property
    def vertex_paths(self):
        """Paths of internal vertices, in the in-order total order.

        In-order alternates leaf and vertex, and the vertex between two
        adjacent leaves is their nadir.
        """
        paths = list(self.leaf_paths.values())
        return tuple(p[:_common_prefix(p, q)] for p, q in zip(paths, paths[1:]))

    @cached_property
    def leaf_paths(self):
        """label -> root path of the leaf, in left-to-right planar order."""
        out = {}
        _walk_leaf_paths(self.node, (), out)
        return out

    @property
    def is_tall(self):
        # left comb with the minimal label at the deepest-left position:
        # every right child is a leaf and the leftmost leaf is the minimum
        node = self.node
        while not isinstance(node, int):
            if not isinstance(node[1], int):
                return False
            node = node[0]
        return node == self.min_label

    def __repr__(self):
        return f"Tree({render_tree(self)})"


def tree_from_leaf_order(seq):
    """Left comb over seq: [[...[s0, s1], s2], ...]; the tall tree of a block."""
    node = seq[0]
    for lab in seq[1:]:
        node = (node, lab)
    return Tree(node)


def inversion_parity(seq):
    """Parity (0 or 1) of the number of inversions of a sequence: that of its
    stable sorting permutation (a tie is no inversion), sorted here by swaps,
    one per element out of place: length minus cycles in all."""
    perm = sorted(range(len(seq)), key=seq.__getitem__)
    swaps = 0
    for a in range(len(perm)):
        while perm[a] != a:  # swap perm[a] into its place
            b = perm[a]
            perm[a], perm[b] = perm[b], b
            swaps += 1
    return swaps % 2


def sort_trees_with_parity(trees):
    """Sort trees by minimal leaf label.

    Returns (sorted tuple, parity of the induced permutation on the
    concatenated internal-vertex sequence).  Moving a tree block of a
    vertices past one of b vertices contributes a*b transpositions.
    """
    inv = sum(a.size * b.size for k, a in enumerate(trees) for b in trees[k + 1:]
              if a.min_label > b.min_label)  # a was before b, and goes after it
    return tuple(sorted(trees, key=lambda t: t.min_label)), inv % 2


@dataclass(frozen=True)
class Forest:
    """Ordered tuple of trees partitioning {1..n}, sorted by minimal label."""

    trees: tuple
    n: int

    def __post_init__(self):
        self._check_partition()
        mins = [t.min_label for t in self.trees]
        if mins != sorted(mins):
            raise ValidationError("forest trees not in canonical (min-label) order")

    def _check_partition(self):
        seen = set()
        for t in self.trees:
            if seen & t.labels:
                raise ValidationError("forest trees share leaf labels")
            seen |= t.labels
        if len(seen) != self.n or seen != set(range(1, self.n + 1)):  # a huge n fails the count
            raise ValidationError(
                f"forest labels {sorted(seen)} do not partition 1..{self.n}")

    @cached_property
    def size(self):
        """Total number of internal vertices."""
        return sum(t.size for t in self.trees)

    @cached_property
    def leaf_info(self):
        """label -> (tree index, root path of the leaf)."""
        out = {}
        for idx, t in enumerate(self.trees):
            for lab, path in t.leaf_paths.items():
                out[lab] = (idx, path)
        return out

    @cached_property
    def vertex_index(self):
        """(tree index, path) -> position in the global internal-vertex
        sequence: per-tree in-order, concatenated."""
        order = ((idx, p) for idx, t in enumerate(self.trees) for p in t.vertex_paths)
        return {v: i for i, v in enumerate(order)}

    @property
    def is_tall(self):
        return all(t.is_tall for t in self.trees)

    def __repr__(self):
        return f"Forest({render_forest(self)})"


def forest(trees, n=None):
    """Build a canonical Forest from trees in any order (no sign tracking)."""
    trees = tuple(trees)
    if n is None:
        n = sum(len(t.leaf_seq) for t in trees)
    ordered, _ = sort_trees_with_parity(trees)
    return Forest(ordered, n)


def single_tree_forest(tree, n=None):
    """The forest of `tree` padded with singleton trees for missing labels."""
    if n is None:
        n = max(tree.labels)
    singles = [Tree(i) for i in range(1, n + 1) if i not in tree.labels]
    return forest([tree] + singles, n)


def vertices_before_leaf(f: Forest, label: int) -> int:
    """Internal vertices strictly preceding the leaf in the global in-order.

    In-order alternates leaf, vertex, leaf, so the leaf at position p of
    its tree's leaf_seq has p of that tree's vertices before it.
    """
    before = 0
    for t in f.trees:
        if label in t.labels:
            return before + t.leaf_seq.index(label)
        before += t.size
    raise ValidationError(f"label {label} out of range 1..{f.n}")


def nadir(f: Forest, i: int, j: int):
    """Vertex (tree index, path) at the nadir of the leaf path i--j, or None.

    None when i and j lie in different trees.  The nadir is the deepest
    common ancestor: the vertex at the longest common prefix of the two
    root paths.
    """
    if i == j:
        raise ValidationError("nadir needs two distinct labels")
    try:
        ti, pi = f.leaf_info[i]
        tj, pj = f.leaf_info[j]
    except KeyError as exc:
        raise ValidationError(f"label {exc.args[0]} out of range 1..{f.n}") from exc
    if ti != tj:
        return None
    return (ti, pi[:_common_prefix(pi, pj)])


# ---------------------------------------------------------------------------
# ordered partitions and the tall basis

@dataclass(frozen=True)
class OrderedPartition:
    """Blocks of {1..n}; each block led by its minimum, blocks sorted by min."""

    blocks: tuple

    def __post_init__(self):
        labs = [x for b in self.blocks for x in b]
        if len(set(labs)) != len(labs):
            raise ValidationError("ordered partition repeats a label")
        for b in self.blocks:
            if not b or b[0] < 1:
                raise ValidationError(f"block {b} is empty or leads with a label below 1")
            if b[0] != min(b):
                raise ValidationError(f"block {b} does not start with its minimum")
        mins = [b[0] for b in self.blocks]
        if mins != sorted(mins):
            raise ValidationError("blocks not sorted by minimum")

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)


def ordered_partition_of_forest(f: Forest) -> OrderedPartition:
    """Read the ordered partition off a tall forest (leaf order per tree)."""
    if not f.is_tall:
        raise ValidationError("forest is not tall")
    return OrderedPartition(tuple(t.leaf_seq for t in f.trees))


def forest_of_ordered_partition(p: OrderedPartition, n=None) -> Forest:
    trees = tuple(tree_from_leaf_order(b) for b in p.blocks)
    return Forest(trees, n if n is not None else p.n)


def check_degree(n, k):
    """Refuse a degree k outside 0..n-1, or n < 1."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not 0 <= k <= n - 1:
        raise ValidationError(f"degree k={k} out of range for n={n}")


def ordered_partitions(n, k):
    """The ordered partitions of {1..n} into n - k blocks, streamed.

    Canonical order: sorted by the tuple-of-blocks key.  A block sorts
    before its own extensions, so a depth-first search on the first block
    yields that order directly: (m,) with every tail, then (m, x) for
    increasing x, and so on.  Branches that cannot leave exactly the
    blocks still needed are cut, so every branch yields.  The search keeps
    its own stack of branch iterators, so n is not bounded by recursion.
    """
    check_degree(n, k)

    def branches(done, block, rest, count):
        # split the sorted `rest` into `count` more blocks; len(rest) >= count
        if count:
            yield done + (block,), (rest[0],), rest[1:], count - 1
        if len(rest) > count:
            for a, x in enumerate(rest):
                yield done, block + (x,), rest[:a] + rest[a + 1:], count

    stack = [iter([((), (1,), tuple(range(2, n + 1)), n - k - 1)])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
        elif state[2]:  # labels left to place
            stack.append(branches(*state))
        else:
            yield OrderedPartition(state[0] + (state[1],))


def enumerate_tall_forests(n, k):
    """All n-forests with k internal vertices in which every tree is tall.

    Canonical order: that of ordered_partitions(n, k).  The count is the
    t^k coefficient of prod_{i=1}^{n-1} (1 + i t).
    """
    return [forest_of_ordered_partition(p, n) for p in ordered_partitions(n, k)]


# ---------------------------------------------------------------------------
# text grammar
#
#   tree   := INT | "[" tree "," tree "]"
#   forest := tree (";" tree)*

_TOKEN = re.compile(r"\s*(\d+|[\[\],;])")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
            break
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


def _parse_tree_tokens(tokens, idx, text, depth=0):
    # depth: brackets open around tokens[idx]
    if idx >= len(tokens):
        raise ParseError("unexpected end of input", text, len(text))
    tok, pos = tokens[idx]
    if tok.isdigit():
        return int(tok), idx + 1
    if tok != "[":
        raise ParseError(f"expected leaf or '[', got {tok!r}", text, pos)
    if depth == MAX_NESTING:
        raise ParseError(f"nesting deeper than {MAX_NESTING} levels", text, pos)
    left, idx = _parse_tree_tokens(tokens, idx + 1, text, depth + 1)
    if idx < len(tokens) and tokens[idx][0] == "]":
        return left, idx + 1  # "[3]": bracketed singleton
    if idx >= len(tokens) or tokens[idx][0] != ",":
        raise ParseError("expected ','", text, tokens[idx][1] if idx < len(tokens) else len(text))
    right, idx = _parse_tree_tokens(tokens, idx + 1, text, depth + 1)
    if idx >= len(tokens) or tokens[idx][0] != "]":
        raise ParseError("expected ']'", text, tokens[idx][1] if idx < len(tokens) else len(text))
    return (left, right), idx + 1


def parse_tree(text) -> Tree:
    tokens = _tokenize(text)
    node, idx = _parse_tree_tokens(tokens, 0, text)
    if idx != len(tokens):
        raise ParseError("trailing input after tree", text, tokens[idx][1])
    return Tree(node)


def parse_forest(text, n=None) -> Forest:
    """Parse ';'-separated trees; storage is canonicalized (min-label sort)."""
    trees, start = [], 0
    for chunk in text.split(";"):
        if chunk.strip():
            try:
                trees.append(parse_tree(chunk))
            except ParseError as exc:
                raise exc.within(text, start) from None
        start += len(chunk) + 1
    if not trees:
        raise ParseError("empty forest", text, 0)
    labels = set().union(*(t.labels for t in trees))
    return forest(trees, n if n is not None else max(labels))


def render_node(node):
    if isinstance(node, int):
        return str(node)
    return f"[{render_node(node[0])},{render_node(node[1])}]"


def render_tree(t: Tree) -> str:
    return render_node(t.node)


def render_forest(f: Forest) -> str:
    return " ; ".join(render_tree(t) for t in f.trees)


# JSON mirrors: explicit-field dicts, byte-deterministic for canonical forms.

def tree_node_to_json(node):
    if isinstance(node, int):
        return {"leaf": node}
    return {"left": tree_node_to_json(node[0]), "right": tree_node_to_json(node[1])}


def forest_to_json(f: Forest, node_json=tree_node_to_json):
    return {"kind": "forest", "n": f.n, "trees": [node_json(t.node) for t in f.trees]}
