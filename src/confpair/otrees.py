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
from functools import cached_property

from .errors import ParseError, ValidationError

LEAF = "*"


@dataclass(frozen=True)
class OTree:
    """node is LEAF or a tuple of child nodes (possibly empty: the 0-corolla)."""

    node: object

    def __post_init__(self):
        _check(self.node)
        if self.node == LEAF:
            raise ValidationError("an o-tree root must be a vertex, not a bare leaf")

    @cached_property
    def n_leaves(self):
        return _count_leaves(self.node)

    @cached_property
    def internal_vertices(self):
        """Vertex paths (tuples of input positions, 0-based), depth-first."""
        out = []
        _collect_vertices(self.node, (), out)
        return tuple(out)

    @cached_property
    def leaf_numbering(self):
        """leaf path -> canonical label 1..n, in depth-first order."""
        out = {}
        _number_leaves(self.node, (), out)
        return out

    @cached_property
    def leaf_paths(self):
        """canonical label -> leaf path, the inverse of leaf_numbering."""
        return {lab: p for p, lab in self.leaf_numbering.items()}

    def arity(self, path):
        return len(self.subtree(path))

    def subtree(self, path):
        node = self.node
        for step in path:
            node = node[step]
        return node

    @cached_property
    def is_corolla(self):
        return all(child == LEAF for child in self.node)

    def __repr__(self):
        return f"OTree({render_otree(self)})"


def _check(node):
    if node == LEAF:
        return
    if not isinstance(node, tuple):
        raise ValidationError(f"bad o-tree node {node!r}")
    for child in node:
        _check(child)


def _count_leaves(node):
    if node == LEAF:
        return 1
    return sum(_count_leaves(c) for c in node)


def _collect_vertices(node, path, out):
    if node == LEAF:
        return
    out.append(path)
    for pos, child in enumerate(node):
        _collect_vertices(child, path + (pos,), out)


def _number_leaves(node, path, out, counter=None):
    if counter is None:
        counter = [0]
    if node == LEAF:
        counter[0] += 1
        out[path] = counter[0]
        return
    for pos, child in enumerate(node):
        _number_leaves(child, path + (pos,), out, counter)


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
    k = 0
    while k < len(pa) and k < len(pb) and pa[k] == pb[k]:
        k += 1
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


def _parse_onode(text, idx):
    if idx >= len(text):
        raise ParseError("unexpected end of o-tree", text, idx)
    if text[idx] == LEAF:
        return LEAF, idx + 1
    if text[idx] != "(":
        raise ParseError(f"expected '(' or '*', got {text[idx]!r}", text, idx)
    idx = _skip_ws(text, idx + 1)
    children = []
    if idx < len(text) and text[idx] == ")":
        return (), idx + 1
    while True:
        child, idx = _parse_onode(text, idx)
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


def otree_to_json(t: OTree):
    def conv(node):
        if node == LEAF:
            return "*"
        return {"children": [conv(c) for c in node]}
    return {"kind": "otree", "root": conv(t.node)}


def otree_from_json(obj) -> OTree:
    def conv(node):
        if node == "*":
            return LEAF
        return tuple(conv(c) for c in node["children"])
    return OTree(conv(obj["root"]))
