"""Normalization onto the canonical bases.

Tree side: by the Gram identity <G_P, F_Q> = delta_PQ, the coefficient of
the tall forest F_P in a forest combination x is the pairing <G_P, x> with
the dual long graph.  For a tree t it is nonzero only when P runs through
t's leaves from its minimum with distinct nadirs between consecutive leaves
(_tall_chains).  Such a P crosses each vertex once; entering the right side
first makes sigma = -1 on the crossing edge and adds a*b + a + b inversions
(a, b: the vertex counts of the two sides), so <G_P, t> is the product of
anti_sign(a, b, d) over those vertices.  A forest is the product of its
trees, sorted at the cost eps(parity, d).

Graph side, by the same identity: the coefficient of G_P in a graph g is
<g, F_P>.  A cycle or a repeated vertex pair makes g zero.  Otherwise orient
each edge away from its component's minimum, `flips` of them reversed.  The
edge into a vertex v lands on the comb vertex of F_P where v joins its
block, so <g, F_P> != 0 exactly when each block of P orders one component
with every vertex after its parent (_long_chains).  An oriented edge then
runs from a leaf to a later one, so sigma_e = -1 exactly for a reversed
edge of g; and the comb vertices come in in-order, which is the order of
the heads in P with each block's first element dropped.  So <g, F_P> =
reversal_sign(flips, inversion parity of the heads' positions, d).  The
walk reads that parity one vertex at a time: placing v adds the placed
vertices whose edge comes after v's in g.  Heads in different components
invert exactly when the later component's edge comes first in g, whatever
P is, so those inversions are one constant of g.  The walk also lists each
term's edges, P's consecutive pairs: vertices of the checked g, so the
term's Graph skips Graph's edge checks (graphs._unchecked_graph).

tall_support and long_support count the terms of the two expansions
without listing them.  The rewriting references that the tests check both
sides against live in tests/oracles.py.
"""

from __future__ import annotations

import itertools
import math

from .errors import ValidationError
from .graphs import Graph, _unchecked_graph
from .lincombo import LinCombo
from .trees import Forest, inversion_parity, sort_trees_with_parity, tree_from_leaf_order


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


def _tall_chains(t, d: int):
    """(P, <G_P, t>) for the leaf orders P of t, led by its minimum, with
    <G_P, t> != 0; the sign is the product of anti_sign over the vertices
    whose right side P enters first, forced or chosen.  t is a Tree or a
    brackets._Block, which share the record tall_terms reads.

    That pairing is nonzero exactly when consecutive leaves of P have
    pairwise distinct nadirs.  An edge lands inside a subtree exactly when
    both its leaves are below it, so then the s - 1 vertices of a subtree
    with s leaves take s - 1 edges between its own leaves: those leaves
    are consecutive in P.  Conversely, when they are for every subtree,
    exactly one edge joins the two sides of each vertex.  So P runs over
    the leaf orders of t's planar flips that keep the side of the minimum
    first at each vertex above it: a product of choices, with no dead end.
    """

    def orders(node):
        # -> (vertex count, chains); a chain through the minimum starts with it
        if isinstance(node, int):
            return 0, [((node,), 1)]
        a, left = orders(node[0])
        b, right = orders(node[1])
        out = []
        if right[0][0][0] != t.min_label:  # the left side may come first
            out += [(x + y, u * v) for x, u in left for y, v in right]
        if left[0][0][0] != t.min_label:  # the right side may come first
            swap = anti_sign(a, b, d)
            out += [(y + x, u * v * swap) for x, u in left for y, v in right]
        return a + b + 1, out

    return orders(t.node)[1]


def tall_terms(terms, n: int, d: int, _table=None) -> LinCombo:
    """The tall normalization of (coeff, trees) terms, each term's trees
    sorted by minimum label: each tree's chains (_tall_chains) are listed
    once per distinct node, and each term of their product is one Forest.
    A tree is a Tree or a brackets._Block: both carry node, min_label, size
    and depth, which is all that sorting, the chains and the count read.

    _table, internal: a (chains, forests) pair of dicts that calls at one d
    share, node -> signed chains and tuple of trees -> Forest, so each is
    built once across the calls.  Sharing is sound because a node's chains
    depend only on the node and d, and a tuple of trees fixes the n that
    its Forest partitions.  Without it each call keeps its own chains and
    builds every Forest afresh."""
    chains, forests = ({}, None) if _table is None else _table

    def listed(block):
        got = chains.get(block.node)
        if got is None:
            got = chains[block.node] = [(tree_from_leaf_order(order), sign)
                                        for order, sign in _tall_chains(block, d)]
        return got
    out = []
    for c, blocks in terms:
        for picks in itertools.product(*map(listed, blocks)):
            trees, signs = zip(*picks)
            if forests is None:
                f = Forest(trees, n)
            elif (f := forests.get(trees)) is None:
                f = forests[trees] = Forest(trees, n)
            out.append((f, c * math.prod(signs)))
    return LinCombo(out)


def tall_support(terms) -> int:
    """How many tall forests tall_terms lists for the terms, without listing
    them: every vertex off the root path of a tree's minimum may flip, so
    2^(size - depth) chains per tree, multiplied (1 for a tall forest)."""
    return sum(2 ** sum(t.size - t.depth for t in trees) for _, trees in terms)


def _common_n(combo) -> int:
    """The n that every term of a combination has, 0 for an empty one."""
    sizes = {x.n for x, _ in combo}
    if len(sizes) > 1:
        raise ValidationError(f"mixed n across terms: {sorted(sizes)}")
    return next(iter(sizes), 0)


def normalize_pois(x, d: int) -> LinCombo:
    """Express a forest combination in the tall basis; idempotent and linear.

    Each forest f but a canonical tall one contributes c * <G_P, f> * F_P
    for every P in the product of its trees' chains (see tall_terms).
    """
    combo = LinCombo.of(x)
    n = _common_n(combo)
    kept, terms = [], []
    for f, c in combo:
        if type(f) is Forest and f.is_tall:  # a subclass may list its trees out of order
            kept.append((f, c))
        else:
            trees, parity = sort_trees_with_parity(f.trees)
            terms.append((c * eps(parity, d), trees))
    return LinCombo([*kept, *tall_terms(terms, n, d)])


# ---------------------------------------------------------------------------
# graph side

def _orient_away(g: Graph):
    """Reorient each edge of g away from its component minimum.

    Returns (oriented edges, flip count, vertex -> children), all read off
    one walk, or None when some component has a cycle or a repeated vertex
    pair (a forest has exactly n - #components edges).
    """
    if len(g.edges) > g.n - len(g.components):
        return None
    adj = {v: [] for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = {}
    children = {v: [] for v in adj}
    for comp in g.components:
        stack = [comp[0]]  # components are sorted tuples: comp[0] is the minimum
        parent[comp[0]] = None
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    children[v].append(w)
                    stack.append(w)
    oriented = tuple((i, j) if parent[j] == i else (j, i) for i, j in g.edges)
    return oriented, sum(parent[j] != i for i, j in g.edges), children


def _long_chains(root, children, index):
    """(P's consecutive pairs, inversions) for the vertex orders P of a
    component, led by its root, with <g, F_P> != 0: every vertex after its
    parent, by a depth-first search with no dead end.  Placing v adds the
    placed vertices whose edge comes after v's, at index[v], in g."""
    stack = [((), root, tuple(children[root]), 0, 0)]
    while stack:
        edges, last, ready, placed, inv = stack.pop()
        if not ready:
            yield edges, inv
        for a, v in enumerate(ready):
            i = index[v]
            stack.append((edges + ((last, v),), v, (*ready[:a], *ready[a + 1:], *children[v]),
                          placed | 1 << i, inv + (placed >> i).bit_count()))


def long_support(g: Graph) -> int:
    """How many long graphs normalize_siop lists for g, without listing them:
    per component |C|! over the product of its subtree sizes (the hook-length
    formula for rooted trees), multiplied over the components; 0 for a dead g."""
    oriented = _orient_away(g)
    if oriented is None:
        return 0
    children = oriented[2]
    order = [comp[0] for comp in g.components]
    for v in order:  # breadth first: each parent before its children
        order.extend(children[v])
    below = {}  # subtree sizes, from the leaves up
    for v in reversed(order):
        below[v] = 1 + sum(below[c] for c in children[v])
    orders = math.prod(math.factorial(len(comp)) for comp in g.components)
    return orders // math.prod(below.values())


def _long_terms(g: Graph, d: int):
    """(G_P, <g, F_P>) over the product of g's components' chains; `across`
    is the parity of the inversions between components, a constant of g."""
    oriented = _orient_away(g)
    if oriented is None:
        return
    edges, flips, children = oriented
    index = {j: a for a, (_, j) in enumerate(edges)}
    comp = {v: c for c, vs in enumerate(g.components) for v in vs}
    across = inversion_parity([comp[j] for _, j in edges])
    for picks in itertools.product(*(_long_chains(vs[0], children, index)
                                     for vs in g.components)):
        chains, invs = zip(*picks) if picks else ((), ())  # n = 0 has one empty pick
        yield (_unchecked_graph(g.n, sum(chains, ())),
               reversal_sign(flips, across + sum(invs), d))


def normalize_siop(x, d: int) -> LinCombo:
    """Express a graph combination in the long basis (_long_terms); kills doubles and cycles."""
    combo = LinCombo.of(x)
    _common_n(combo)
    return LinCombo((h, c * ch) for g, c in combo for h, ch in _long_terms(g, d))
