"""Reference implementations the tests check the package against.

Tree rewriting.  normalize_pois reads each tall coefficient as a sign in
closed form; the reference here reaches the same combination by term
rewriting instead: anti-symmetry orients every vertex so the smaller
minimal label sits on the left, and the (graded) Jacobi identity pushes
the minimal leaf deeper-left until every tree is a tall comb
(normalize_forest).  Swapping the arguments of a bracket costs
normalize.anti_sign, and the cyclic Jacobi relation reads

    sum_cyc (-1)^((|X|+1)(|Z|+1)(d-1)) [[X, Y], Z]  =  0.

For odd d these reduce to the classical unsigned identities.

Graph rewriting.  normalize_siop reads each long coefficient as a sign as
well; the reference here rewrites instead (rewrite_graph), from an
orientation walk of its own (_orient_from_minima), not normalize's:
repeated vertex pairs and cycles die; arrow reversal costs (-1)^d per arrow
and a transposition of edges costs (-1)^(d-1); the Arnold identity
a_jk a_kl + a_kl a_lj + a_lj a_jk = 0 eliminates branch vertices.  Each
Arnold step pushes a subtree one level deeper, so the depth-sum measure
terminates at disjoint chains, which are then ordered canonically.  Its
correctness is certified by the pairing, not by a critical-pair analysis.
normalize_siop reads each long term's edges and sign off its walk; the
route it replaced builds each term from its vertex orders instead
(long_terms_by_partition): an OrderedPartition, graph_of_ordered_partition,
and the inversion parity of g's heads at their comb vertices.

Leibniz reduction.  brackets._bracket_monomials is the package's one
Leibniz step, on blocks, with its signs derived in brackets.py; the
reference here (bracket_monomials) applies the rule to bare tree nodes one
factor of W at a time,

    [X, Y.Z]  =  [X, Y].Z  +  eps((|X| + 1) |Y|)  Y.[X, Z],

recounting each size with _node_size, and swaps its arguments when U has
several factors.

Composition.  operad.compose takes the Leibniz expansion of a substitution
one bracket over the leaf at a time, each bracket one step; the reference
here (compose_by_substitution) substitutes bracket expressions, reduces
them with brackets.reduce_expr and normalizes with normalize_pois.  Both
routes share the step, so this checks the walk, the Koszul factor and the
tall expansion, and bracket_monomials checks the step.  operad's duality
sweep reads both sides off pair_matrix blocks; the reference (check_cases)
checks one case at a time with pair_basis and pair, over the cases that
exhaustive_cases and sampled_cases list in check_duality's and
sample_duality's order.

Explicit relation instances, for annihilation testing against the pairing.
Every element built here lies in the kernel of the quotient map, so it must
pair to zero against the whole dual spanning set.  Tree-side instances are
anti-symmetry, (graded) Jacobi, and forest commutativity; graph-side
instances are arrow reversal / edge reordering, Arnold, and repeated-edge
words.

The first-degree dual bases, built by hand: single edges i->j against
single pairs [i,j], i < j, in lexicographic order (first_degree_bases).
"""

from __future__ import annotations

import functools
import itertools
import random

from confpair.brackets import forest_to_expr, map_vars, reduce_expr
from confpair.errors import ValidationError
from confpair.graphs import Graph, enumerate_long_graphs, graph_of_ordered_partition
from confpair.lincombo import LinCombo
from confpair.normalize import anti_sign, eps, normalize_pois, reversal_sign
from confpair.operad import DualityReport, cooperad, two_level_sites
from confpair.otrees import render_otree
from confpair.pairing import pair, pair_basis
from confpair.trees import (Forest, OrderedPartition, Tree, enumerate_tall_forests,
                            inversion_parity, single_tree_forest, sort_trees_with_parity,
                            vertices_before_leaf)


class PlanarForest(Forest):
    """Forest with an arbitrary planar tree order (commutativity not applied).

    Only the canonical-order invariant is relaxed; used to state the
    commutativity relation, whose two sides differ exactly by tree order.
    """

    def __post_init__(self):
        self._check_partition()


# ---------------------------------------------------------------------------
# tree rewriting onto the tall basis

def _node_size(node):
    """Internal vertex count of a tree node."""
    if isinstance(node, int):
        return 0
    return _node_size(node[0]) + _node_size(node[1]) + 1


def jacobi_signs(a1: int, a2: int, a3: int, d: int):
    """Signs (s1, s2, s3) of [[T1,T2],T3], [[T2,T3],T1], [[T3,T1],T2]."""
    return (
        eps((a1 + 1) * (a3 + 1), d),
        eps((a2 + 1) * (a1 + 1), d),
        eps((a3 + 1) * (a2 + 1), d),
    )


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


# ---------------------------------------------------------------------------
# graph rewriting onto the long basis

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


def _orient_from_minima(g: Graph):
    """(edges of g pointed away from their component's minimum, how many
    turned), by a depth-first walk from each minimum; None when a walk meets
    a vertex twice, i.e. g has a cycle or a repeated vertex pair."""
    incident = {v: [] for v in range(1, g.n + 1)}
    for idx, (i, j) in enumerate(g.edges):
        incident[i].append(idx)
        incident[j].append(idx)
    oriented = [None] * len(g.edges)
    seen = set()
    for root in range(1, g.n + 1):  # the first vertex not seen is its component's minimum
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for idx in incident[v]:
                if oriented[idx] is None:
                    i, j = g.edges[idx]
                    w = j if i == v else i
                    if w in seen:
                        return None
                    seen.add(w)
                    oriented[idx] = (v, w)
                    stack.append(w)
    return tuple(oriented), sum(e != o for e, o in zip(g.edges, oriented))


def rewrite_graph(g: Graph, d: int) -> LinCombo:
    """Rewrite one graph into the long basis (the reference for normalize_siop)."""
    oriented = _orient_from_minima(g)
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


def _vertex_orders(root, children):
    """The vertex orders of a component, led by its root, with every vertex
    after its parent, in the order normalize's walk lists them."""
    stack = [((root,), tuple(children[root]))]
    while stack:
        order, ready = stack.pop()
        if not ready:
            yield order
        for a, v in enumerate(ready):
            stack.append((order + (v,), (*ready[:a], *ready[a + 1:], *children[v])))


def long_terms_by_partition(g: Graph, d: int) -> LinCombo:
    """normalize_siop's terms for g built one vertex order P at a time, the route
    that its walk replaced: the long graph through OrderedPartition and
    graph_of_ordered_partition, and the sign from the inversion parity of
    g's heads' comb vertices (the edge into v pairs with the comb vertex
    where v joins its block)."""
    oriented = _orient_from_minima(g)
    if oriented is None:
        return LinCombo.zero()
    edges, flips = oriented
    children = {v: [] for v in range(1, g.n + 1)}
    for i, j in edges:  # in g's edge order, as normalize lists them
        children[i].append(j)
    terms = []
    for blocks in itertools.product(*(_vertex_orders(comp[0], children)
                                      for comp in g.components)):
        joins = {v: a for a, v in enumerate(v for b in blocks for v in b[1:])}
        parity = inversion_parity([joins[j] for _, j in edges])
        terms.append((graph_of_ordered_partition(OrderedPartition(blocks), g.n),
                      reversal_sign(flips, parity, d)))
    return LinCombo(terms)


# ---------------------------------------------------------------------------
# the Leibniz rule one factor at a time

def _monomial_brackets(trees):
    return sum(_node_size(t) for t in trees)


def bracket_monomials(u_trees, w_trees, d):
    """[U, W] for dot-monomials of tree nodes, by the Leibniz rule in W's
    first factor and an argument swap when U has several (the reference for
    brackets._bracket_monomials); a list of (coeff, tree tuple)."""
    if len(u_trees) == 1 and len(w_trees) == 1:
        return [(1, ((u_trees[0], w_trees[0]),))]
    if len(w_trees) > 1:
        bu = _monomial_brackets(u_trees)
        y, z = w_trees[0], w_trees[1:]
        out = []
        # [X, Y].Z
        for c, trees in bracket_monomials(u_trees, (y,), d):
            out.append((c, trees + z))
        # sign * Y.[X, Z]
        s = eps((bu + 1) * _node_size(y), d)
        for c, trees in bracket_monomials(u_trees, z, d):
            out.append((s * c, (y,) + trees))
        return out
    # len(u_trees) > 1: swap arguments
    s = anti_sign(_monomial_brackets(u_trees), _monomial_brackets(w_trees), d)
    return [(s * c, trees) for c, trees in bracket_monomials(w_trees, u_trees, d)]


# ---------------------------------------------------------------------------
# composition by substitution and the duality sweep case by case

def substitute_basis(f1: Forest, i: int, f2: Forest, d: int) -> LinCombo:
    """One compose term before tall normalization: substitute, Leibniz-reduce, sign."""
    n, m = f1.n, f2.n
    if not 1 <= i <= n:
        raise ValidationError(f"composition index {i} out of range 1..{n}")
    inner = map_vars(forest_to_expr(f2), lambda v: v + i - 1)
    combined = map_vars(forest_to_expr(f1),
                        lambda v: inner if v == i else v + m - 1 if v > i else v)
    sign = eps(f2.size * vertices_before_leaf(f1, i), d)
    return sign * reduce_expr(combined, d)


def compose_by_substitution(b1, i: int, b2, d: int) -> LinCombo:
    """Bilinear composition through substitute_basis and normalize_pois (the
    reference for operad.compose)."""
    left, right = LinCombo.of(b1), LinCombo.of(b2)
    return LinCombo([(f, c1 * c2 * c) for f1, c1 in left for f2, c2 in right
                     for f, c in normalize_pois(substitute_basis(f1, i, f2, d), d)])


def compose_along_by_substitution(tau, f0, inner, d) -> LinCombo:
    """operad.compose_along through compose_by_substitution."""
    result = LinCombo.single(f0)
    for pos, _ in sorted(two_level_sites(tau), reverse=True):
        result = compose_by_substitution(result, pos, inner[pos], d)
    return result


def _bases(tau):
    sites = two_level_sites(tau)
    outer = [f for k in range(len(tau.node)) for f in enumerate_tall_forests(len(tau.node), k)]
    inner = [[f for k in range(m) for f in enumerate_tall_forests(m, k)] for _, m in sites]
    graphs = [enumerate_long_graphs(tau.n_leaves, k) for k in range(tau.n_leaves)]
    return [pos for pos, _ in sites], outer, inner, graphs


def exhaustive_cases(tau):
    """check_duality's (f0, inner, graphs) cases, in its order."""
    positions, outer, inner, graphs = _bases(tau)
    for f0 in outer:
        for picked in itertools.product(*inner):
            yield f0, dict(zip(positions, picked)), graphs[f0.size + sum(f.size for f in picked)]


def sampled_cases(tau, trials, seed):
    """sample_duality's cases, drawn in its order from random.Random(seed)."""
    positions, outer, inner, graphs = _bases(tau)
    rng = random.Random(seed)
    for _ in range(trials):
        f0 = rng.choice(outer)
        picked = [rng.choice(basis) for basis in inner]
        yield f0, dict(zip(positions, picked)), [
            rng.choice(graphs[f0.size + sum(f.size for f in picked)])]


def cooperad_combo(x, tau, d: int) -> LinCombo:
    """operad.cooperad extended bilinearly: a LinCombo over factor tuples."""
    results = ((cooperad(g, tau, d), c) for g, c in LinCombo.of(x))
    return LinCombo([(res.factors, c * res.sign) for res, c in results])


def check_cases(tau, d, cases) -> DualityReport:
    """The duality sweep one case at a time (the reference for
    operad._check_cases): each graph is split once, its factors are paired
    with pair_basis and the composed side with pair."""
    split = functools.cache(lambda g: cooperad(g, tau, d))
    checked = 0
    failures = []
    for f0, inner, graphs in cases:
        composed = compose_along_by_substitution(tau, f0, inner, d)
        koszul = eps(f0.size * sum(f.size for f in inner.values()), d)
        bases = (f0, *inner.values())
        for g in graphs:
            res = split(g)
            lhs = res.sign * koszul
            for factor, fv in zip(res.factors, bases):
                lhs *= pair_basis(factor, fv, d).value
            rhs = pair(g, composed, d)
            checked += 1
            if lhs != rhs:
                failures.append({"graph": g, "outer": f0, "inner": inner,
                                 "lhs": lhs, "rhs": rhs})
    return DualityReport(render_otree(tau), d, checked, failures)


# ---------------------------------------------------------------------------
# tree-side relation instances

def _subtree(node, path):
    for step in path:
        node = node[step]
    return node


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
    sub = _subtree(f.trees[tree_idx].node, path)
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
    sub = _subtree(f.trees[tree_idx].node, path)
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
# graph-side relation instances

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


# ---------------------------------------------------------------------------
# first-degree dual bases

def first_degree_bases(n):
    """The degree-(d-1) dual bases: single edges i->j and single pairs [i,j], i<j."""
    graphs, forests = [], []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            graphs.append(Graph(n, ((i, j),)))
            forests.append(single_tree_forest(Tree((i, j)), n))
    return graphs, forests
