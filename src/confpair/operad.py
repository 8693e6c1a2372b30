"""Operadic composition on forests and the dual structure map on graphs.

compose substitutes the inner forest (the product u_1...u_r of its trees,
relabelled to x_i..x_{i+m-1}) for x_i in the outer one, whose later
variables shift up by m-1, Leibniz-reduces, and lands in the tall basis.
Substitution alone is not well-defined on the quotient when d is even: a
positive-degree element entering a degree-0 variable slot retroactively
changes every commutation the variable took part in.  The honest graded
composition therefore carries the Koszul factor

    (-1)^((d-1) * |inner| * #{outer internal vertices before leaf i})

(the inner block moves from the tensor position into the leaf slot).  It
is trivial for odd d, and with it the nested and disjoint composition
axioms hold (disjoint sites commute up to (-1)^((d-1)|x||y|)).

The Leibniz reduction (leibniz_terms) walks tree nodes from the bottom
bracket over leaf i up to its root.  Below a bracket with sibling S the
leaf side is a product W of r blocks (w_a is u_a with the siblings that
picked it bracketed on), and the bracket is one brackets._bracket_monomials
step, [W, S] or [S, W], which picks one factor with the Leibniz sign
derived there.  A term's sign is the Koszul factor times its h steps'
signs, times eps of the parity that sorts the trees by minimum label.
The r^h terms are distinct forests (each puts the siblings' labels with
other inner labels), so none cancel, and normalize.tall_support counts
their tall expansions without listing them.  The terms stay blocks;
normalize.tall_terms expands each node's chains once and builds one
Forest per output term.
tests/oracles.py keeps substitution, reduce_expr and normalize_pois as the
reference.

The graph-side structure map for an o-tree splits a graph into one factor
per internal vertex: each edge j->k lands at the nadir of the leaf paths,
as the edge between the branches carrying j and k; factor edge lists keep
the input order.  Its sign is (sign pi)^(d-1) for the permutation pi
relating the concatenated factor order (depth-first vertex order, root
first) to the input edge order.  Duality then holds in the form

  (sign pi)^(d-1) (-1)^((d-1)|F_0| sum_v |F_v|) prod_v <G_v, F_v>
      =  <G, compose_along(tau; F_0, F_*)>

with the composed side assembled by iterated composition, rightmost site
first.  check_duality verifies this for every case, composing each basis
triple once, through tall_terms with one intern table per call that builds
each node's chains and each output Forest once: chains depend only on the
node and d, and a tuple of trees fixes its Forest's n.  It splits each graph
once, and reads both sides off pairing.pair_matrix blocks over what the
cases use: the left side as a product of factor entries, the right side
as the block of a degree times the composed coefficients.  Block entries
are -1, 0 or 1, so a right side is at most the sum of |coeff| over its
composed support: the product is taken in int64 while that sum is below
2^63, and in Python ints above.  tests/oracles.py keeps the case-by-case
route through pairing.pair_basis and pairing.pair as the reference.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from .brackets import _block, _bracket_monomials
from .errors import ValidationError
from .graphs import Graph, enumerate_long_graphs
from .lincombo import LinCombo
from .normalize import eps, tall_terms
from .otrees import LEAF, OTree, leaf_nadir, may_tree, render_otree
from .pairing import pair_matrix
from .trees import (Forest, enumerate_tall_forests, inversion_parity, sort_trees_with_parity,
                    vertices_before_leaf)


def _root_path(node, i):
    """[(sibling, leaf i on the left?)] for the brackets over leaf i, bottom
    up, or None when i is not below node."""
    if isinstance(node, int):
        return [] if node == i else None
    for side in (0, 1):
        below = _root_path(node[side], i)
        if below is not None:
            below.append((node[1 - side], side == 0))
            return below
    return None


def leibniz_terms(f1: Forest, i: int, f2: Forest, d: int) -> list:
    """The Leibniz expansion of f2 substituted at leaf i of f1.

    A list of (coeff, blocks): blocks are the trees of one term sorted by
    minimum label, the sort parity and the Koszul factor in coeff.  Each
    bracket over the leaf picks one of the r factors (see the module
    docstring), so there are r^h terms for h brackets, and no Forest is built.
    """
    n, m = f1.n, f2.n
    if not 1 <= i <= n:
        raise ValidationError(f"composition index {i} out of range 1..{n}")
    if not f2.trees:
        raise ValidationError("an empty forest has no bracket expression")
    factors = tuple(_block(t.node, lambda v: v + i - 1) for t in f2.trees)
    before, after, path = [], [], None

    def shift(v):
        return v + m - 1 if v > i else v
    for t in f1.trees:
        if path is None and i in t.labels:
            path = _root_path(t.node, i)
        else:
            (before if path is None else after).append(_block(t.node, shift))
    terms = [(eps(f2.size * vertices_before_leaf(f1, i), d), factors)]
    for node, leaf_left in path:
        sib = (_block(node, shift),)
        terms = [(c * c2, grown) for c, fs in terms for c2, grown in
                 (_bracket_monomials(fs, sib, d) if leaf_left else _bracket_monomials(sib, fs, d))]
    out = []
    for c, fs in terms:
        blocks, parity = sort_trees_with_parity((*before, *fs, *after))
        out.append((c * eps(parity, d), blocks))
    return out


def compose(b1, i: int, b2, d: int) -> LinCombo:
    """Bilinear composition; slots accept a Forest or a LinCombo of forests."""
    left, right = LinCombo.of(b1), LinCombo.of(b2)
    return LinCombo([(f, c1 * c2 * c) for f1, c1 in left for f2, c2 in right
                     for f, c in tall_terms(leibniz_terms(f1, i, f2, d), f1.n + f2.n - 1, d)])


# ---------------------------------------------------------------------------
# cooperad structure map

@dataclass(frozen=True)
class CooperadOutput:
    sign: int
    vertices: tuple          # internal vertex paths of tau, depth-first
    factors: tuple           # one Graph per vertex, same order


def cooperad(g: Graph, tau: OTree, d: int) -> CooperadOutput:
    """Split g along tau; each edge lands at the nadir vertex of its leaves."""
    if g.n != tau.n_leaves:
        raise ValidationError(
            f"graph on {g.n} vertices vs o-tree with {tau.n_leaves} leaves")
    vertices = tau.internal_vertices
    factor_edges = {v: [] for v in vertices}
    placements = []
    for i, j in g.edges:
        v, branch_i, branch_j = leaf_nadir(tau, i, j)
        factor_edges[v].append((branch_i, branch_j))
        placements.append(v)
    # pi stably sorts the edges by factor; ties are no inversions
    rank = {v: r for r, v in enumerate(vertices)}
    sign = eps(inversion_parity([rank[v] for v in placements]), d)
    factors = tuple(Graph(tau.arity(v), tuple(factor_edges[v])) for v in vertices)
    return CooperadOutput(sign, vertices, factors)


# ---------------------------------------------------------------------------
# duality for two-level trees (May structure maps)

def two_level_sites(tau: OTree):
    """[(1-based root input, child arity)] for vertex children; validates shape."""
    if not tau.node:
        raise ValidationError("a root with no inputs has no composition meaning here")
    sites = []
    for pos, child in enumerate(tau.node):
        if child == LEAF:
            continue
        if not isinstance(child, tuple) or any(c != LEAF for c in child):
            raise ValidationError("o-tree is not two-level")
        if len(child) == 0:
            raise ValidationError("arity-0 child has no composition meaning here")
        sites.append((pos + 1, len(child)))
    return sites


def compose_along(tau: OTree, f0: Forest, inner: dict, d: int, step=compose) -> LinCombo:
    """Iterated composition over a two-level tree, rightmost site first; each
    site is one step(result, pos, inner forest, d)."""
    sites = two_level_sites(tau)
    if f0.n != len(tau.node):
        raise ValidationError("outer arity mismatch")
    result = LinCombo.single(f0)
    for pos, arity in sorted(sites, reverse=True):
        f_inner = inner[pos]
        if f_inner.n != arity:
            raise ValidationError(f"inner arity mismatch at site {pos}")
        result = step(result, pos, f_inner, d)
    return result


@dataclass
class DualityReport:
    tau: str
    d: int
    cases_checked: int
    failures: list

    @property
    def ok(self):
        return not self.failures


def _duality_bases(tau: OTree):
    """Site positions, outer basis, inner bases per site, long graphs per degree."""
    sites = two_level_sites(tau)
    r = len(tau.node)
    outer_basis = [f for k in range(r) for f in enumerate_tall_forests(r, k)]
    inner_bases = {
        pos: [f for k in range(m) for f in enumerate_tall_forests(m, k)]
        for pos, m in sites
    }
    n_total = tau.n_leaves
    graphs_by_degree = {k: enumerate_long_graphs(n_total, k) for k in range(n_total)}
    return [pos for pos, _ in sites], outer_basis, inner_bases, graphs_by_degree


def _degree(f0, inner):
    return f0.size + sum(f.size for f in inner.values())


def _positions(items):
    """The distinct items in first-seen order, and each item's index among them."""
    index = {}
    return index, np.array([index.setdefault(x, len(index)) for x in items], dtype=np.intp)


def _check_cases(tau: OTree, d: int, cases) -> DualityReport:
    """Compare the two routes on each (f0, inner, graphs) case group.

    Every case is composed first, and each graph split once.  Both sides are
    then read off pair_matrix blocks over what the cases use: per vertex of
    tau, its factor graphs against the forests the cases put there; and per
    degree, the graphs against the tall forests of the composed supports.
    A case's graphs are checked in order, and so are the cases.
    """
    table = {}, {}  # tall_terms' chains and forests, shared by this sweep's compositions
    basis = functools.cache(
        lambda f1, i, f2: tall_terms(leibniz_terms(f1, i, f2, d), f1.n + f2.n - 1, d, table))

    def step(b1, i, f2, d):  # compose, with each basis composition made once
        return LinCombo([(f, c1 * c) for f1, c1 in b1 for f, c in basis(f1, i, f2)])
    cases = [(f0, inner, graphs, compose_along(tau, f0, inner, d, step))
             for f0, inner, graphs in cases]
    # the checks, one per (case, graph), in order: the case's and the graph's index
    case_at = np.repeat(np.arange(len(cases)), [len(graphs) for _, _, graphs, _ in cases])
    if not len(case_at):
        return DualityReport(render_otree(tau), d, 0, [])
    graphs, graph_at = _positions(g for _, _, graphs, _ in cases for g in graphs)
    graphs = list(graphs)
    splits = [cooperad(g, tau, d) for g in graphs]
    degree = [_degree(f0, inner) for f0, inner, _, _ in cases]
    koszul = np.array([eps(f0.size * (k - f0.size), d) for (f0, *_), k in zip(cases, degree)])
    lhs = np.array([res.sign for res in splits])[graph_at] * koszul[case_at]
    # two-level: cooperad's vertices are the root, then the sites left to right
    for v in range(1 + len(cases[0][1])):
        factors, factor_at = _positions(res.factors[v] for res in splits)
        bases, basis_at = _positions((f0, *inner.values())[v] for f0, inner, _, _ in cases)
        block = pair_matrix(list(factors), list(bases), d)
        lhs *= block[factor_at[graph_at], basis_at[case_at]]
    # a right-hand side is at most the sum of |coeff| over its composed
    # support, so int64 is exact while that sum stays below 2^63
    bound = max(sum(abs(c) for _, c in composed) for *_, composed in cases)
    rhs = np.zeros(len(case_at), dtype=np.int64 if bound < 2 ** 63 else object)
    degree_at = np.array(degree)[case_at]
    for k in set(degree):
        at = np.flatnonzero(degree_at == k)
        rows, row_at = _positions(graph_at[at].tolist())
        used, case_row = _positions(case_at[at].tolist())
        support, _ = _positions(f for c in used for f, _ in cases[c][3])
        coeffs = np.zeros((len(used), len(support)), dtype=rhs.dtype)
        for row, c in zip(coeffs, used):
            for f, coeff in cases[c][3]:
                row[support[f]] = coeff
        block = pair_matrix([graphs[r] for r in rows], list(support), d)
        rhs[at] = (coeffs @ block.T.astype(rhs.dtype))[case_row, row_at]
    failures = []
    for p in np.flatnonzero(lhs != rhs).tolist():
        f0, inner, _, _ = cases[case_at[p]]
        failures.append({"graph": graphs[graph_at[p]], "outer": f0, "inner": inner,
                         "lhs": int(lhs[p]), "rhs": int(rhs[p])})
    return DualityReport(render_otree(tau), d, len(case_at), failures)


def check_duality(tau: OTree, d: int) -> DualityReport:
    """Exhaustively compare the two routes over basis tuples and long graphs."""
    positions, outer_basis, inner_bases, graphs_by_degree = _duality_bases(tau)

    def cases():
        for f0 in outer_basis:
            for picked in itertools.product(*(inner_bases[pos] for pos in positions)):
                inner = dict(zip(positions, picked))
                yield f0, inner, graphs_by_degree[_degree(f0, inner)]
    return _check_cases(tau, d, cases())


def sample_duality(tau: OTree, d: int, trials: int = 200, seed: int = 0) -> DualityReport:
    """Randomized duality spot-check for trees too large to exhaust."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    positions, outer_basis, inner_bases, graphs_by_degree = _duality_bases(tau)
    rng = random.Random(seed)

    def cases():
        for _ in range(trials):
            f0 = rng.choice(outer_basis)
            inner = {pos: rng.choice(inner_bases[pos]) for pos in positions}
            yield f0, inner, [rng.choice(graphs_by_degree[_degree(f0, inner)])]
    return _check_cases(tau, d, cases())


def all_two_level_trees(n_total: int):
    """Every two-level o-tree (root arity r, children arities summing to n)."""
    out = []
    for r in range(1, n_total + 1):
        for cuts in itertools.combinations(range(1, n_total), r - 1):
            bounds = (0,) + cuts + (n_total,)
            out.append(may_tree(r, [bounds[a + 1] - bounds[a] for a in range(r)]))
    return out
