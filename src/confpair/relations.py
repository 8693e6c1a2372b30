"""Explicit relation instances, for annihilation testing against the pairing.

Every element built here lies in the kernel of the quotient map, so it must
pair to zero against the whole dual spanning set.  Tree-side instances are
anti-symmetry, (graded) Jacobi, and forest commutativity; graph-side
instances are arrow reversal / edge reordering, Arnold, and repeated-edge
words.
"""

from __future__ import annotations

import itertools

from .errors import ValidationError
from .graphs import Graph
from .lincombo import LinCombo
from .normalize import anti_sign, eps, jacobi_signs, reversal_sign
from .trees import (Forest, PlanarForest, Tree, _node_size, inversion_parity,
                    sort_trees_with_parity)


def _replace_subtree(node, path, new_sub):
    if not path:
        return new_sub
    if path[0] == 0:
        return (_replace_subtree(node[0], path[1:], new_sub), node[1])
    return (node[0], _replace_subtree(node[1], path[1:], new_sub))


def _with_tree(f: Forest, idx: int, new_node) -> Forest:
    trees = list(f.trees)
    trees[idx] = Tree(new_node)
    return Forest(tuple(trees), f.n)


def antisymmetry_instance(f: Forest, tree_idx: int, path) -> "callable":
    """d -> the element F - sign * F_swapped for the vertex at `path`."""
    sub = f.trees[tree_idx].subtree(path)
    if isinstance(sub, int):
        raise ValidationError("anti-symmetry needs an internal vertex")
    left, right = sub
    a, b = _node_size(left), _node_size(right)
    swapped = _with_tree(f, tree_idx, _replace_subtree(f.trees[tree_idx].node, path, (right, left)))

    def instance(d):
        return LinCombo([(f, 1), (swapped, -anti_sign(a, b, d))])
    return instance


def jacobi_instance(f: Forest, tree_idx: int, path):
    """d -> s1*[[T1,T2],T3] + s2*[[T2,T3],T1] + s3*[[T3,T1],T2] at `path`,
    or None when the vertex does not match the pattern [[.,.],.]."""
    sub = f.trees[tree_idx].subtree(path)
    if isinstance(sub, int) or isinstance(sub[0], int):
        return None
    (t1, t2), t3 = sub
    sizes = tuple(_node_size(t) for t in (t1, t2, t3))
    variants = [((t1, t2), t3), ((t2, t3), t1), ((t3, t1), t2)]
    forests = [
        _with_tree(f, tree_idx, _replace_subtree(f.trees[tree_idx].node, path, v))
        for v in variants
    ]

    def instance(d):
        signs = jacobi_signs(*sizes, d)
        return LinCombo(list(zip(forests, signs)))
    return instance


def commutativity_instance(trees, n):
    """d -> PlanarForest(trees as given) - sigma^(d-1) * canonical forest."""
    permuted = PlanarForest(tuple(trees), n)
    ordered, parity = sort_trees_with_parity(tuple(trees))
    canonical = PlanarForest(ordered, n)

    def instance(d):
        return LinCombo([(permuted, 1), (canonical, -eps(parity, d))])
    return instance


def tree_instances(f: Forest):
    """All anti-symmetry and Jacobi instance builders rooted in f."""
    out = []
    for idx, t in enumerate(f.trees):
        for path in t.vertex_paths:
            out.append(antisymmetry_instance(f, idx, path))
            jac = jacobi_instance(f, idx, path)
            if jac is not None:
                out.append(jac)
    return out


def commutativity_instances(f: Forest):
    """Instance builders for every permutation of f's trees (n small)."""
    out = []
    if len(f.trees) < 2:
        return out
    for perm in itertools.permutations(f.trees):
        if perm != f.trees:
            out.append(commutativity_instance(perm, f.n))
    return out


# ---------------------------------------------------------------------------
# graph side

def arrow_reversal_instance(g: Graph, flip_mask, perm):
    """d -> G - sign * G2 where G2 reverses the masked arrows and reorders
    edges by `perm` (new position p holds old edge perm[p])."""
    flipped = [
        (j, i) if flip_mask[idx] else (i, j)
        for idx, (i, j) in enumerate(g.edges)
    ]
    g2 = Graph(g.n, tuple(flipped[p] for p in perm))
    flips = sum(flip_mask)
    parity = inversion_parity(perm)

    def instance(d):
        return LinCombo([(g, 1), (g2, -reversal_sign(flips, parity, d))])
    return instance


def arnold_instance(n, j, k, l, prefix=(), suffix=()):
    """The Arnold element W1 (a_jk a_kl + a_kl a_lj + a_lj a_jk) W2."""
    if len({j, k, l}) != 3:
        raise ValidationError("Arnold needs three distinct vertices")
    words = [((j, k), (k, l)), ((k, l), (l, j)), ((l, j), (j, k))]
    graphs = [Graph(n, tuple(prefix) + w + tuple(suffix)) for w in words]

    def instance(d):
        return LinCombo([(g, 1) for g in graphs])
    return instance


def double_edge_graph(n, i, j, prefix=(), middle=(), suffix=()) -> Graph:
    """A word containing the unordered pair {i, j} twice; zero in the quotient."""
    return Graph(n, tuple(prefix) + ((i, j),) + tuple(middle) + ((i, j),) + tuple(suffix))
