"""Normalization onto the canonical bases.

Tree side: by the Gram identity <G_P, F_Q> = delta_PQ, the coefficient of
the tall forest F_P in a forest combination x is the pairing <G_P, x> with
the dual long graph.  For a single forest that pairing is nonzero only when
each block of P runs through the leaves of one tree, starting at its
minimum, with pairwise distinct nadirs between consecutive leaves, so
normalize_pois lists exactly those P (_tall_chains) and reads each
coefficient off pair_basis; its cost follows the size of the output.

The rewriting reference that the tests check this against lives in
tests/oracles.py.

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
import math

from .errors import ValidationError
from .graphs import Graph, graph_of_ordered_partition
from .lincombo import LinCombo
from .pairing import pair_basis
from .trees import Forest, OrderedPartition, Tree, forest_of_ordered_partition, inversion_parity


def eps(exponent: int, d: int) -> int:
    """(-1)^(exponent * (d-1))."""
    return -1 if (exponent * (d - 1)) % 2 else 1


def anti_sign(a: int, b: int, d: int) -> int:
    """Sign relating [T1,T2] and [T2,T1] with a, b internal vertices below:

        (-1)^(d + (a + b + ab)(d-1))

    (the antipode on the swapped vertex's sphere factor plus the block
    permutation of the vertex order; equivalently -(-1)^((a+1)(b+1)(d-1))
    in shifted degrees).
    """
    return -1 if (d + (a + b + a * b) * (d - 1)) % 2 else 1


def reversal_sign(flips: int, perm_parity: int, d: int) -> int:
    """Sign relating graphs differing by `flips` arrow reversals and an edge
    permutation of the given parity: (-1)^(flips*d) * (-1)^(parity*(d-1))."""
    return -1 if (flips * d + perm_parity * (d - 1)) % 2 else 1


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


def _support_size(f: Forest) -> int:
    """How many tall forests normalize_pois lists for f, without listing them.

    Every vertex off the root path of a tree's minimum may flip: 2^(size -
    depth of the minimum) chains per tree, multiplied over the trees.
    """
    if f.is_tall:
        return 1
    return math.prod(2 ** (t.size - len(t.leaf_paths[t.min_label])) for t in f.trees)


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
