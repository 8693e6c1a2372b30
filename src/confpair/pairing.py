"""The dimension-d configuration pairing of graphs against forests.

Each graph edge i->j is sent to the nadir of the leaf path between i and j;
the pairing is zero unless that map is a bijection onto the internal
vertices (in particular zero whenever an edge joins two components, or the
edge count differs from the vertex count).  On a bijection the value is

    (prod_e sigma_e)^d  *  (sign pi)^(d-1)

where sigma_e is +1 when leaf i sits left of leaf j in the planar order and
-1 otherwise, and pi is the permutation relating the graph's edge order to
the forest's global in-order internal-vertex sequence.  For odd d this is
(-1)^#{right-pointing edges}; for even d it is sign pi -- the degree of the
sign-permutation torus map realized by the planetary systems.

Gram matrices over the long-graph x tall-forest bases, the Poincare
polynomial rank table, and the perfect-pairing verifier live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError
from .graphs import Graph, enumerate_long_graphs, render_graph
from .lincombo import LinCombo
from .trees import (Forest, Tree, check_degree, enumerate_tall_forests, inversion_parity,
                    render_forest, single_tree_forest)


@dataclass(frozen=True)
class PairingResult:
    value: int
    beta_witness: tuple | None = None  # ((edge, (tree_idx, path)), ...) when bijective


def pair_basis(g: Graph, f: Forest, d: int) -> PairingResult:
    """Configuration pairing of a single graph against a single forest."""
    if g.n != f.n:
        raise ValidationError(f"graph n={g.n} and forest n={f.n} differ")
    if len(g.edges) != f.size:
        return PairingResult(0)
    verts = []
    sigma = 1
    leaf_info = f.leaf_info
    for i, j in g.edges:
        ti, pi = leaf_info[i]
        tj, pj = leaf_info[j]
        if ti != tj:
            return PairingResult(0)
        c = 0
        while c < len(pi) and c < len(pj) and pi[c] == pj[c]:
            c += 1
        verts.append((ti, pi[:c]))
        if pi[c] == 1:  # leaf i over the right edge of the nadir
            sigma = -sigma
    if len(set(verts)) != len(verts):
        return PairingResult(0)
    positions = [f.vertex_index[v] for v in verts]
    value = sigma if d % 2 else (-1 if inversion_parity(positions) else 1)
    return PairingResult(value, tuple(zip(g.edges, verts)))


def pair(g, f, d: int) -> int:
    """Bilinear extension: either slot may be a Graph/Forest or a LinCombo."""
    gs = list(g.terms.items()) if isinstance(g, LinCombo) else [(g, 1)]
    fs = list(f.terms.items()) if isinstance(f, LinCombo) else [(f, 1)]
    sizes = {graph.n for graph, _ in gs} | {forest.n for forest, _ in fs}
    if len(sizes) > 1:
        raise ValidationError(f"mismatched n across pairing arguments: {sorted(sizes)}")
    total = 0
    for graph, cg in gs:
        for forest, cf in fs:
            if len(graph.edges) != forest.size:
                continue
            total += cg * cf * pair_basis(graph, forest, d).value
    return total


# ---------------------------------------------------------------------------
# Gram matrices

@dataclass
class GramMatrix:
    n: int
    k: int
    parity: str  # "even" | "odd"
    entries: tuple  # rows: long graphs, cols: tall forests, canonical order
    graphs: list = field(default=None, repr=False)
    forests: list = field(default=None, repr=False)

    @property
    def size(self):
        return len(self.entries)

    def is_identity(self):
        return not self.failures()

    def failures(self):
        return _delta_failures(self.entries)


def _delta_failures(rows):
    """(row, col, value) for every entry of rows that differs from the identity."""
    return [(r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row)
            if v != (1 if r == c else 0)]


def parity_name(d: int) -> str:
    return "even" if d % 2 == 0 else "odd"


def gram_matrix(n: int, k: int, d: int) -> GramMatrix:
    """Pairing matrix over enumerate_long_graphs x enumerate_tall_forests.

    Rows and columns are both in canonical (ordered partition) order, so the
    Kronecker property of the pairing makes this the identity.
    """
    return _gram(n, k, d, pair_basis)


def _gram(n, k, d, pf):
    graphs = enumerate_long_graphs(n, k)
    forests = enumerate_tall_forests(n, k)
    entries = tuple(tuple(pf(g, f, d).value for f in forests) for g in graphs)
    return GramMatrix(n, k, parity_name(d), entries, graphs, forests)


# ---------------------------------------------------------------------------
# rank tables

@dataclass(frozen=True)
class RankTable:
    """Betti numbers of the n-point configuration space of R^d.

    coefficients[k] is the rank in degree k(d-1): the t^k coefficient of
    prod_{i=1}^{n-1} (1 + i t).  They sum to n!.
    """

    n: int
    d: int
    coefficients: tuple

    @property
    def degrees(self):
        return tuple(k * (self.d - 1) for k in range(len(self.coefficients)))

    def csv_rows(self):
        return [(deg, q) for deg, q in zip(self.degrees, self.coefficients)]


def poincare_coefficients(n: int):
    coeffs = [1]
    for i in range(1, n):
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c
            nxt[k + 1] += c * i
        coeffs = nxt
    return tuple(coeffs)


def rank_table(n: int, d: int) -> RankTable:
    if n < 1:
        raise ValidationError("n must be >= 1")
    if d < 2:
        raise ValidationError("d must be >= 2")
    coeffs = poincare_coefficients(n)
    assert sum(coeffs) == math.factorial(n)
    return RankTable(n, d, coeffs)


# ---------------------------------------------------------------------------
# perfect-pairing verification

@dataclass
class DegreeReport:
    k: int
    size: int
    identity: bool
    failures: list  # (row index, col index, value) triples


@dataclass
class PerfectReport:
    n: int
    parity: str
    degrees: list
    first_degree_size: int
    first_degree_identity: bool
    first_degree_failures: list
    ok: bool

    def to_json(self):
        return {
            "n": self.n,
            "parity": self.parity,
            "degrees": [
                {"k": r.k, "size": r.size, "identity": r.identity,
                 "failures": [list(t) for t in r.failures]}
                for r in self.degrees
            ],
            "first_degree": {
                "size": self.first_degree_size,
                "identity": self.first_degree_identity,
                "failures": [list(t) for t in self.first_degree_failures],
            },
            "ok": self.ok,
        }


def first_degree_bases(n):
    """The degree-(d-1) dual bases: single edges i->j and single pairs [i,j], i<j."""
    graphs, forests = [], []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            graphs.append(Graph(n, ((i, j),)))
            forests.append(single_tree_forest(Tree((i, j)), n))
    return graphs, forests


def verify_perfect(n: int, d: int, pair_fn=None) -> PerfectReport:
    """Check the Gram identity in every degree plus the first-degree structure.

    pair_fn exists so tests can inject a corrupted sign convention as a
    negative control; the default is the real pairing.
    """
    check_degree(n, 0)
    if n > 7:
        raise ValidationError("verify_perfect is desk-scale: n <= 7")
    pf = pair_fn or pair_basis
    degrees = []
    ok = True
    for k in range(n):
        gm = _gram(n, k, d, pf)
        failures = gm.failures()
        degrees.append(DegreeReport(k, gm.size, not failures, failures))
        ok = ok and not failures
    fg, ff = first_degree_bases(n)
    fd_failures = _delta_failures((pf(g, f, d).value for f in ff) for g in fg)
    ok = ok and not fd_failures
    return PerfectReport(
        n, parity_name(d), degrees,
        len(fg), not fd_failures, fd_failures, ok,
    )


def describe_pair(g: Graph, f: Forest, d: int) -> dict:
    res = pair_basis(g, f, d)
    return {
        "graph": render_graph(g),
        "forest": render_forest(f),
        "d": d,
        "value": res.value,
        "beta": None if res.beta_witness is None else [
            {"edge": list(e), "vertex": {"tree": v[0], "path": list(v[1])}}
            for e, v in res.beta_witness
        ],
    }
