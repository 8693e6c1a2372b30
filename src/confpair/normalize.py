"""Normalization onto the canonical bases.

Tree side: by the Gram identity <G_P, F_Q> = delta_PQ, the coefficient of
the tall forest F_P in a forest combination x is the pairing <G_P, x> with
the dual long graph.  For a single forest that pairing is nonzero only when
each block of P runs through the leaves of one tree, starting at its
minimum, with pairwise distinct nadirs between consecutive leaves, so
normalize_pois lists exactly those P (_tall_chains) and reads each
coefficient off pair_basis; its cost follows the size of the output.

The rewriting engine stays as the reference the tests check that against:
anti-symmetry orients every vertex so the smaller minimal label sits on
the left, and the (graded) Jacobi identity pushes the minimal leaf
deeper-left until every tree is a tall comb (normalize_forest).  With
a = |T1|, b = |T2| internal vertices, swapping the arguments of a bracket
costs

    (-1)^(d + (a + b + ab)(d-1))

(the antipode on the swapped vertex's sphere factor plus the block
permutation of the vertex order; equivalently -(-1)^((a+1)(b+1)(d-1)) in
shifted degrees), and the cyclic Jacobi relation reads

    sum_cyc (-1)^((|X|+1)(|Z|+1)(d-1)) [[X, Y], Z]  =  0.

For odd d these reduce to the classical unsigned identities.

Graph side, by rewriting: repeated vertex pairs and cycles die; arrow
reversal costs (-1)^d per arrow and a transposition of edges costs
(-1)^(d-1); the Arnold identity a_jk a_kl + a_kl a_lj + a_lj a_jk = 0
eliminates branch vertices.  Each Arnold step pushes a subtree one level
deeper, so the depth-sum measure terminates at disjoint chains, which are
then ordered canonically.  Its correctness is certified post hoc by the
pairing oracle (coefficients against the dual basis), not by a
critical-pair analysis.
"""

from __future__ import annotations

import itertools

from .errors import ValidationError
from .graphs import Graph, graph_of_ordered_partition
from .lincombo import LinCombo
from .pairing import pair_basis
from .trees import (Forest, OrderedPartition, Tree, _node_size, forest_of_ordered_partition,
                    inversion_parity, sort_trees_with_parity)


def eps(exponent: int, d: int) -> int:
    """(-1)^(exponent * (d-1))."""
    return -1 if (exponent * (d - 1)) % 2 else 1


def anti_sign(a: int, b: int, d: int) -> int:
    """Sign relating [T1,T2] and [T2,T1] with a, b internal vertices below."""
    return -1 if (d + (a + b + a * b) * (d - 1)) % 2 else 1


def jacobi_signs(a1: int, a2: int, a3: int, d: int):
    """Signs (s1, s2, s3) of [[T1,T2],T3], [[T2,T3],T1], [[T3,T1],T2]."""
    return (
        eps((a1 + 1) * (a3 + 1), d),
        eps((a2 + 1) * (a1 + 1), d),
        eps((a3 + 1) * (a2 + 1), d),
    )


def reversal_sign(flips: int, perm_parity: int, d: int) -> int:
    """Sign relating graphs differing by `flips` arrow reversals and an edge
    permutation of the given parity: (-1)^(flips*d) * (-1)^(parity*(d-1))."""
    return -1 if (flips * d + perm_parity * (d - 1)) % 2 else 1


def _node_min(node):
    if isinstance(node, int):
        return node
    return min(_node_min(node[0]), _node_min(node[1]))


def _combine(a_node, b_node, d) -> LinCombo:
    """Tall combination of [A, B] for tall inputs A, B with disjoint labels."""
    if _node_min(a_node) > _node_min(b_node):
        s = anti_sign(_node_size(a_node), _node_size(b_node), d)
        return s * _combine(b_node, a_node, d)
    if isinstance(b_node, int):
        # A tall with the global minimum deepest-left, B a leaf: still a comb
        return LinCombo.single((a_node, b_node))
    b1, b2 = b_node
    s_swap = anti_sign(_node_size(a_node), _node_size(b_node), d)
    s1, s2, s3 = jacobi_signs(_node_size(a_node), _node_size(b1), _node_size(b2), d)
    # [A,[B1,B2]] = s_swap [[B1,B2],A];  s1[[A,B1],B2] + s2[[B1,B2],A] + s3[[B2,A],B1] = 0
    c1 = -s_swap * s1 * s2  # s2 in {-1,1} so 1/s2 = s2
    terms = [(u, c1 * c * cu) for t, c in _combine(a_node, b1, d) for u, cu in _combine(t, b2, d)]
    s_inner = anti_sign(_node_size(b2), _node_size(a_node), d)
    c2 = -s_swap * s3 * s2 * s_inner
    terms += [(u, c2 * c * cu) for t, c in _combine(a_node, b2, d) for u, cu in _combine(t, b1, d)]
    return LinCombo(terms)


def tall_tree_combo(t: Tree, d: int) -> LinCombo:
    """Rewrite one tree into the tall basis (a LinCombo of tree nodes)."""
    def go(node):
        if isinstance(node, int):
            return LinCombo.single(node)
        left, right = go(node[0]), go(node[1])
        return LinCombo([(u, lc * rc * cu) for ln, lc in left for rn, rc in right
                         for u, cu in _combine(ln, rn, d)])
    return go(t.node)


def normalize_forest(f: Forest, d: int) -> LinCombo:
    out = LinCombo.single((), 1)  # combos of tree-node tuples
    for t in f.trees:
        tree_combo = LinCombo.single(t.node) if t.is_tall else tall_tree_combo(t, d)
        out = LinCombo([(nodes + (node,), c * ct)
                        for nodes, c in out for node, ct in tree_combo])
    terms = []
    for nodes, c in out:
        ordered, parity = sort_trees_with_parity(tuple(Tree(nd) for nd in nodes))
        terms.append((Forest(ordered, f.n), c * eps(parity, d)))
    return LinCombo(terms)


def _tall_chains(t: Tree):
    """The leaf orders P of t, led by its minimum, with <G_P, t> != 0.

    That pairing is nonzero exactly when consecutive leaves of P have
    pairwise distinct nadirs.  An edge lands inside a subtree exactly when
    both its leaves are below it, so then the s - 1 vertices of a subtree
    with s leaves take s - 1 edges between its own leaves: those leaves
    are consecutive in P.  Conversely, when they are for every subtree,
    exactly one edge joins the two sides of each vertex.  So P runs over
    the leaf orders of t's planar flips that keep the side of the minimum
    first at each vertex above it: a product of choices, with no dead end.
    """

    def orders(node, lead):
        # lead: the path from node down to the leaf that must come first
        if isinstance(node, int):
            return [(node,)]
        if lead is None:
            left, right = orders(node[0], None), orders(node[1], None)
            return [a + b for a in left for b in right] + [b + a for a in left for b in right]
        first, rest = orders(node[lead[0]], lead[1:]), orders(node[1 - lead[0]], None)
        return [a + b for a in first for b in rest]

    return orders(t.node, t.leaf_paths[t.min_label])


def normalize_pois(x, d: int) -> LinCombo:
    """Express a forest combination in the tall basis; idempotent and linear.

    Each non-tall forest f contributes c * <G_P, f> * F_P for every P in
    the product of its trees' chains (see _tall_chains).
    """
    combo = LinCombo.of(x)
    sizes = {f.n for f, _ in combo}
    if len(sizes) > 1:
        raise ValidationError(f"mixed n across terms: {sorted(sizes)}")
    terms = []
    for f, c in combo:
        if f.is_tall:
            terms.append((f, c))
            continue
        # a PlanarForest may list its trees out of order; pair_basis keeps its sign
        trees = sorted(f.trees, key=lambda t: t.min_label)
        for blocks in itertools.product(*map(_tall_chains, trees)):
            p = OrderedPartition(blocks)
            value = pair_basis(graph_of_ordered_partition(p, f.n), f, d).value
            terms.append((forest_of_ordered_partition(p, f.n), c * value))
    return LinCombo(terms)


# ---------------------------------------------------------------------------
# graph side

def _orient_away(g: Graph):
    """Reorient each edge of g away from its component minimum.

    Returns (new edges, flip count) or None when some component has a cycle
    or a repeated vertex pair (a forest has exactly n - #components edges).
    """
    if len(g.edges) > g.n - len(g.components):
        return None
    adj = {v: [] for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = {}
    for comp in g.components:
        stack = [comp[0]]  # components are sorted tuples: comp[0] is the minimum
        parent[comp[0]] = None
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    stack.append(w)
    flips = 0
    oriented = []
    for i, j in g.edges:
        if parent[j] == i:
            oriented.append((i, j))
        else:
            oriented.append((j, i))
            flips += 1
    return tuple(oriented), flips


def _find_branch(edges):
    """Smallest vertex with two or more out-edges, with its two smallest
    children's edge positions; None when every component is a chain."""
    children = {}
    for idx, (i, j) in enumerate(edges):
        children.setdefault(i, []).append((j, idx))
    branches = {v: out for v, out in children.items() if len(out) >= 2}
    if not branches:
        return None
    v = min(branches)
    out = sorted(branches[v])
    (a, pa), (b, pb) = out[0], out[1]
    return v, a, pa, b, pb


def _long_order(edges):
    """Edge permutation parity from `edges` to canonical chain order."""
    succ = dict(edges)
    starts = sorted(set(succ) - set(succ.values()))
    target = []
    for s in starts:
        v = s
        while v in succ:
            target.append((v, succ[v]))
            v = succ[v]
    index = {}
    for pos, e in enumerate(edges):
        index[e] = pos
    return tuple(target), inversion_parity([index[e] for e in target])


def normalize_graph(g: Graph, d: int) -> LinCombo:
    pairs = [frozenset(e) for e in g.edges]
    if len(set(pairs)) != len(pairs):
        return LinCombo.zero()
    oriented = _orient_away(g)
    if oriented is None:
        return LinCombo.zero()
    edges, flips = oriented
    sign = reversal_sign(flips, 0, d)
    terms = []
    work = [(sign, edges)]
    while work:
        sign, edges = work.pop()
        branch = _find_branch(edges)
        if branch is None:
            target, parity = _long_order(edges)
            terms.append((Graph(g.n, target), sign * reversal_sign(0, parity, d)))
            continue
        v, a, pa, b, pb = branch
        # bring (v,a) just before (v,b), flip it to (a,v), then Arnold:
        #   a_av a_vb = -a_vb a_ba - a_ba a_av
        rest = list(edges)
        del rest[pa]
        insert_at = pb - 1 if pa < pb else pb
        moves = abs(insert_at - pa)
        sign *= reversal_sign(1, moves % 2, d)
        word1 = rest[:insert_at] + [(v, b), (b, a)] + rest[insert_at + 1:]
        word2 = rest[:insert_at] + [(a, b), (v, a)] + rest[insert_at + 1:]
        work.append((-sign, tuple(word1)))
        # (b,a),(a,v) reversed in place to stay oriented away: two flips
        work.append((-sign * reversal_sign(2, 0, d), tuple(word2)))
    return LinCombo(terms)


def normalize_siop(x, d: int) -> LinCombo:
    """Express a graph combination in the long basis; kills doubles and cycles."""
    combo = LinCombo.of(x)
    sizes = {g.n for g, _ in combo}
    if len(sizes) > 1:
        raise ValidationError(f"mixed n across terms: {sorted(sizes)}")
    terms = []
    for g, c in combo:
        if g.is_long:
            terms.append((g, c))
        else:
            terms.extend((h, c * ch) for h, ch in normalize_graph(g, d))
    return LinCombo(terms)
