"""Operadic composition on forests and the dual structure map on graphs.

compose substitutes the inner expression (the product of its trees' nodes,
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

The graph-side structure map for an o-tree splits a graph into one factor
per internal vertex: each edge j->k lands at the nadir of the leaf paths,
as the edge between the branches carrying j and k; factor edge lists keep
the input order.  Its sign is (sign pi)^(d-1) for the permutation pi
relating the concatenated factor order (depth-first vertex order, root
first) to the input edge order.  Duality then holds in the form

  (sign pi)^(d-1) (-1)^((d-1)|F_0| sum_v |F_v|) prod_v <G_v, F_v>
      =  <G, compose_along(tau; F_0, F_*)>

with the composed side assembled by iterated composition, rightmost site
first; check_duality verifies this case by case, splitting each graph once
and reading both sides through pairing.pair_basis and pairing.pair.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .brackets import forest_to_expr, map_vars, reduce_expr
from .errors import ValidationError
from .graphs import Graph, enumerate_long_graphs
from .lincombo import LinCombo
from .normalize import eps, normalize_pois
from .otrees import LEAF, OTree, leaf_nadir, may_tree, render_otree
from .pairing import pair, pair_basis
from .trees import Forest, enumerate_tall_forests, inversion_parity, vertices_before_leaf


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


def compose(b1, i: int, b2, d: int) -> LinCombo:
    """Bilinear composition; slots accept a Forest or a LinCombo of forests."""
    left, right = LinCombo.of(b1), LinCombo.of(b2)
    return LinCombo([(f, c1 * c2 * c) for f1, c1 in left for f2, c2 in right
                     for f, c in normalize_pois(substitute_basis(f1, i, f2, d), d)])


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


def cooperad_combo(x, tau: OTree, d: int) -> LinCombo:
    """Bilinear extension: LinCombo over factor tuples."""
    results = ((cooperad(g, tau, d), c) for g, c in LinCombo.of(x))
    return LinCombo([(res.factors, c * res.sign) for res, c in results])


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


def compose_along(tau: OTree, f0: Forest, inner: dict, d: int) -> LinCombo:
    """Iterated composition over a two-level tree, rightmost site first."""
    sites = two_level_sites(tau)
    if f0.n != len(tau.node):
        raise ValidationError("outer arity mismatch")
    result = LinCombo.single(f0)
    for pos, arity in sorted(sites, reverse=True):
        f_inner = inner[pos]
        if f_inner.n != arity:
            raise ValidationError(f"inner arity mismatch at site {pos}")
        result = compose(result, pos, f_inner, d)
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


def _check_cases(tau: OTree, d: int, cases) -> DualityReport:
    """Compare the two routes on each (f0, inner, graphs) case group.

    One composition serves every graph of its group; each graph is a case,
    split once per call when a case first needs it.
    """
    split = functools.cache(lambda g: cooperad(g, tau, d))
    checked = 0
    failures = []
    for f0, inner, graphs in cases:
        composed = compose_along(tau, f0, inner, d)
        koszul = eps(f0.size * sum(f.size for f in inner.values()), d)
        # two-level: cooperad's vertices are the root, then the sites left to right
        bases = (f0, *inner.values())
        for g in graphs:
            res = split(g)
            lhs = res.sign * koszul
            for factor, fv in zip(res.factors, bases):
                if lhs == 0:
                    break
                lhs *= pair_basis(factor, fv, d).value
            rhs = pair(g, composed, d)
            checked += 1
            if lhs != rhs:
                failures.append({"graph": g, "outer": f0, "inner": inner,
                                 "lhs": lhs, "rhs": rhs})
    return DualityReport(render_otree(tau), d, checked, failures)


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
