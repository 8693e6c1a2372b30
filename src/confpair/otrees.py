"""Rooted trees with arbitrary arities and ordered inputs (o-trees).

Each internal vertex has an ordered tuple of children; the input edges are
labeled 1..arity by position.  Leaves are written "*" in the text form.
Contracting a non-leaf, non-root edge splices the child's inputs into the
parent's input list at the child's position -- which realizes the standard
relabeling (the k edges over the contracted edge i get labels i..i+k-1, and
the later siblings shift up by k-1).  Contracting everything yields the
corolla, and the position a leaf ends up with is its canonical label; that
numbering coincides with depth-first (planar) order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .trees import MAX_NESTING, _common_prefix

LEAF = "*"


@dataclass(frozen=True)
class OTree:
    """node is LEAF or a tuple of child nodes (possibly empty: the 0-corolla)."""

    node: object

    def __post_init__(self):
        """Check every node and store internal_vertices (vertex paths: tuples
        of 0-based input positions) and leaf_paths (canonical label -> leaf
        path), both in depth-first order."""
        vertices, leaves = [], []
        stack = [((), self.node)]
        while stack:
            path, node = stack.pop()
            if node == LEAF:
                leaves.append(path)
            elif isinstance(node, tuple):
                vertices.append(path)
                stack.extend((path + (pos,), node[pos]) for pos in reversed(range(len(node))))
            else:
                raise ValidationError(f"bad o-tree node {node!r}")
        if self.node == LEAF:
            raise ValidationError("an o-tree root must be a vertex, not a bare leaf")
        object.__setattr__(self, "internal_vertices", tuple(vertices))
        object.__setattr__(self, "leaf_paths", dict(enumerate(leaves, 1)))

    @property
    def n_leaves(self):
        return len(self.leaf_paths)

    @property
    def leaf_numbering(self):
        """leaf path -> canonical label 1..n, the inverse of leaf_paths."""
        return {p: lab for lab, p in self.leaf_paths.items()}

    def arity(self, path):
        return len(self.subtree(path))

    def subtree(self, path):
        node = self.node
        for step in path:
            node = node[step]
        return node

    @property
    def is_corolla(self):
        return all(child == LEAF for child in self.node)

    def __repr__(self):
        return f"OTree({render_otree(self)})"


def corolla(n) -> OTree:
    """The unique one-vertex o-tree with n leaves."""
    return OTree(tuple([LEAF] * n))


def may_tree(root_arity, child_arities) -> OTree:
    """Two-level o-tree: root of the given arity with a child over every input.

    A child of arity 1 is a redundant vertex, operadically the identity;
    this family realizes May's structure maps.
    """
    if len(child_arities) != root_arity:
        raise ValidationError("need one child arity per root input")
    return OTree(tuple(tuple([LEAF] * m) for m in child_arities))


def graft_tree(root_arity, site, inner_arity) -> OTree:
    """Two-level o-tree for a single insertion: one child over input `site`."""
    if not 1 <= site <= root_arity:
        raise ValidationError(f"site {site} out of range 1..{root_arity}")
    children = [LEAF] * root_arity
    children[site - 1] = tuple([LEAF] * inner_arity)
    return OTree(tuple(children))


def contract(t: OTree, path) -> OTree:
    """Contract the edge below the vertex at `path` (non-root, non-leaf).

    Splicing the child's inputs into the parent's list implements the
    contraction relabeling verbatim.
    """
    if not path:
        raise ValidationError("cannot contract the root edge")
    child = t.subtree(path)
    if child == LEAF:
        raise ValidationError("cannot contract a leaf edge")

    def rebuild(node, p):
        if len(p) == 1:
            pos = p[0]
            return node[:pos] + node[pos] + node[pos + 1:]
        pos = p[0]
        return node[:pos] + (rebuild(node[pos], p[1:]),) + node[pos + 1:]

    return OTree(rebuild(t.node, path))


def contract_all(t: OTree) -> OTree:
    """Contract internal edges until the corolla remains."""
    while True:
        candidates = [p for p in t.internal_vertices if p]
        if not candidates:
            return t
        t = contract(t, candidates[0])


def leaf_nadir(t: OTree, a: int, b: int):
    """Vertex path at the nadir between leaves with canonical labels a, b,
    together with the 1-based input branches carrying each leaf there."""
    try:
        pa, pb = t.leaf_paths[a], t.leaf_paths[b]
    except KeyError as exc:
        raise ValidationError(f"no leaf labeled {exc.args[0]}") from exc
    k = _common_prefix(pa, pb)
    return pa[:k], pa[k] + 1, pb[k] + 1


# text form: vertex = "(" child ("," child)* ")" | "()", leaf = "*"

def parse_otree(text) -> OTree:
    node, idx = _parse_onode(text, _skip_ws(text, 0))
    idx = _skip_ws(text, idx)
    if idx != len(text):
        raise ParseError("trailing input after o-tree", text, idx)
    return OTree(node)


def _skip_ws(text, idx):
    while idx < len(text) and text[idx].isspace():
        idx += 1
    return idx


def _parse_onode(text, idx, depth=0):
    # depth: parentheses open around text[idx]
    if idx >= len(text):
        raise ParseError("unexpected end of o-tree", text, idx)
    if text[idx] == LEAF:
        return LEAF, idx + 1
    if text[idx] != "(":
        raise ParseError(f"expected '(' or '*', got {text[idx]!r}", text, idx)
    if depth == MAX_NESTING:
        raise ParseError(f"nesting deeper than {MAX_NESTING} levels", text, idx)
    idx = _skip_ws(text, idx + 1)
    children = []
    if idx < len(text) and text[idx] == ")":
        return (), idx + 1
    while True:
        child, idx = _parse_onode(text, idx, depth + 1)
        children.append(child)
        idx = _skip_ws(text, idx)
        if idx >= len(text):
            raise ParseError("expected ',' or ')'", text, idx)
        if text[idx] == ",":
            idx = _skip_ws(text, idx + 1)
            continue
        if text[idx] == ")":
            return tuple(children), idx + 1
        raise ParseError(f"expected ',' or ')', got {text[idx]!r}", text, idx)


def render_onode(node):
    if node == LEAF:
        return LEAF
    return "(" + ",".join(render_onode(c) for c in node) + ")"


def render_otree(t: OTree) -> str:
    return render_onode(t.node)
