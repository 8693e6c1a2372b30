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
Batch entries come from one array core, _pair_block, which pairs edge-end
arrays against flat nadir and side tables; pair_matrix feeds it what it
reads off Graph and Forest objects, and gram_matrix what the comb lemma
below reads off the ordered partitions, with no object built.  pair_basis,
one entry per call, stays as the oracle of both.  A Gram block is a
GramMatrix whose entries are the int8 array the core fills; verify_perfect
and the CLI read their verdicts off it with GramMatrix.failures.

Block lemma: <g, F> = 0 unless the components of g and the trees of F
partition {1..n} the same way.  It holds for every graph g.  A nonzero
entry needs each of g's k edges inside a tree (an edge across two trees
has no nadir) and their k nadirs pairwise distinct.  A cycle of g, a pair
listed twice included, has its leaves in one tree, on both sides of their
lowest common ancestor v; going round, it crosses from one side of v to
the other at least twice, so two of its edges share the nadir v.  So g is
acyclic, with n - k components, each inside a tree; F has k vertices, so
n - k trees, and the components are the trees.  pair_matrix skips the
entries it makes 0 in its larger blocks.

verify_perfect checks the top-degree blocks only, by the block lemma and
a factorization lemma: for a long graph g and a tall forest F whose
partitions agree, <g, F> is the product over the blocks B of the
top-degree entry T_|B|[g|B, F|B], both restricted to B and relabelled
order-preservingly to 1..|B|.  The nadirs
of B's edges are the vertices of B's tree, so the side bits split over
blocks; g lists its edges block by block in the order of the blocks'
minima, as F lists its trees, so no inversion crosses two blocks.
Relabelling keeps the long-chain/tall-comb correspondence of the bases,
so every degree-k block is the identity exactly when every T_m, m <= n,
is.  The degree sizes then follow from the |T_m| built: with s(a, b)
the tall forests on a labels in b trees, choosing the block of label 1,

    s(a, b) = sum_m C(a-1, m-1) |T_m| s(a-m, b-1),    s(0, 0) = 1,

and degree k has s(n, n-k) rows.  That is sum_{m<=n} ((m-1)!)^2 entries in
place of sum_k c(n, k)^2 (15,018 against 147,552 at n=6).  A T_m off the
identity sends verify_perfect to the dense route, which names each failing
entry; both routes refuse an n whose entries pass ENTRY_BUDGET.

Comb lemma: the tables of a tall forest follow from its ordered partition.
The tall tree of a block (s_0, ..., s_{m-1}) is the left comb
[[...[s_0, s_1], ...], s_{m-1}], so its leaves sit at places 0..m-1 in
that order.  In-order alternates leaf and vertex, so vertex a lies between
the leaves at places a and a+1: it joins the comb over s_0..s_a to s_{a+1},
at depth m-2-a.  The vertices between the places a < b are a..b-1, and
since the nesting is deepest first, the shallowest of them, the nadir, is
b-1.  The forest lists its trees in the partition's order, and each tree
has one vertex fewer than leaves.  So with the blocks concatenated, the
leaves at places p < q of block t have global nadir q - t - 1: one is
subtracted per earlier block, and one for the nadir b-1.  Leaf i lies right
of leaf j exactly when its place is the later.  The long graph is the chain
through each block, so its edges are the consecutive pairs inside a block,
in the order of the places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, VerificationFailure
from .graphs import Graph, graph_of_ordered_partition
from .lincombo import LinCombo
from .trees import (Forest, _common_prefix, check_degree, forest_of_ordered_partition,
                    inversion_parity, ordered_partitions)


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
        c = _common_prefix(pi, pj)
        verts.append((ti, pi[:c]))
        if pi[c] == 1:  # leaf i over the right edge of the nadir
            sigma = -sigma
    if len(set(verts)) != len(verts):
        return PairingResult(0)
    positions = [f.vertex_index[v] for v in verts]
    value = sigma if d % 2 else (-1 if inversion_parity(positions) else 1)
    return PairingResult(value, tuple(zip(g.edges, verts)))


def _vertex_depths(node, depth, out):
    """Depths of the internal vertices of a tree node, in in-order."""
    if not isinstance(node, int):
        _vertex_depths(node[0], depth + 1, out)
        out.append(depth)
        _vertex_depths(node[1], depth + 1, out)


def _forest_tables(f: Forest):
    """Two flat (n+1)^2 tables of f, read at i*(n+1)+j for leaves i and j.

    nadir: the global in-order index of the nadir of i and j, or -1 when
    they lie in different trees.  In-order alternates leaf and vertex, so
    the vertices between the leaves at planar positions a < b are those
    at a..b-1 of the tree, and the nadir is the shallowest of them.
    side: 1 when leaf i lies right of leaf j.
    """
    width = f.n + 1
    nadir, side = [-1] * width ** 2, [0] * width ** 2
    offset = 0
    for t in f.trees:
        seq, depths = t.leaf_seq, []
        _vertex_depths(t.node, 0, depths)
        for a, i in enumerate(seq):
            best = len(seq)  # deeper than any vertex
            for b in range(a + 1, len(seq)):
                if depths[b - 1] < best:
                    best, v = depths[b - 1], offset + b - 1
                j = seq[b]
                nadir[i * width + j] = nadir[j * width + i] = v
                side[j * width + i] = 1
        offset += len(depths)
    return nadir, side


_CHUNK = 128  # forests per gather, so no temporary grows with the block


def _forest_labels(nadirs, width):
    """Each forest's set partition, from its flat nadir table: label v maps
    to the least label u whose nadir with v exists, or to v itself."""
    linked = nadirs.reshape(-1, width, width) >= 0
    linked |= np.eye(width, dtype=bool)
    return linked.argmax(axis=2)


def _graph_labels(ends, width):
    """Each graph's set partition (its components), from its (graphs, k, 2)
    edge ends: every label starts as its own class, and each edge position
    relabels the larger class of its two ends to the smaller."""
    labels = np.tile(np.arange(width), (len(ends), 1))
    at = np.arange(len(ends))
    for e in range(ends.shape[1]):
        a, b = labels[at, ends[:, e, 0]], labels[at, ends[:, e, 1]]
        labels = np.where(labels == np.maximum(a, b)[:, None], np.minimum(a, b)[:, None], labels)
    return labels


def _partition_keys(labels):
    """An int64 sort key per row of least-of-class labels.  Equal partitions
    give equal keys; the dot product wraps, so two partitions may share a
    key, which costs only entries gathered in vain."""
    return labels @ (labels.shape[1] | 1) ** np.arange(labels.shape[1], dtype=np.int64)


def pair_matrix(graphs, forests, d: int) -> np.ndarray:
    """The pairing of every graph against every forest, as an int8 array:
    entry (r, c) is pair_basis(graphs[r], forests[c], d).value.

    Each forest is read into its nadir and side tables once, and the graphs
    are grouped by edge count; _pair_block pairs each group against the
    forests with as many vertices, and every other entry is 0.
    """
    sizes = {g.n for g in graphs} | {f.n for f in forests}
    if len(sizes) > 1:
        raise ValidationError(f"mismatched n across pairing arguments: {sorted(sizes)}")
    out = np.zeros((len(graphs), len(forests)), dtype=np.int8)
    if graphs and forests:
        width = sizes.pop() + 1
        nadir_rows, side_rows = zip(*map(_forest_tables, forests))
        nadirs = np.array(nadir_rows, dtype=np.min_scalar_type(-width))
        sides = np.array(side_rows, dtype=np.int8)
        f_sizes = np.array([f.size for f in forests])
        by_k = {}
        for r, g in enumerate(graphs):
            by_k.setdefault(len(g.edges), []).append(r)
        for k, rows in by_k.items():
            ends = np.array([graphs[r].edges for r in rows], dtype=np.intp).reshape(len(rows), k, 2)
            cols = np.flatnonzero(f_sizes == k)
            out[np.ix_(rows, cols)] = _pair_block(ends, nadirs[cols], sides[cols], width, d)
    return out


def _pair_block(ends, nadirs, sides, width, d):
    """The int8 block of one edge-count group: graphs given by their
    (rows, k, 2) edge ends, against forests with k vertices given by their
    flat nadir and side tables, one row per forest, read at i*width+j.

    Each chunk of forests gathers the entries of the graphs' edges in one
    step.  An entry is nonzero when the edges' nadirs exist (no -1) and are
    pairwise distinct.  Its sign is the parity of the side bits for odd d
    and the inversion parity of the nadirs in edge order for even d; the
    even-d inversions and the distinctness test run over the same k(k-1)/2
    pairs of edges.

    When the forests fill more than one chunk the block is banded by the
    block lemma (module docstring): rows and columns are sorted by a key of
    their set partition, and each chunk of columns gathers only the rows
    whose keys fall in the chunk's key range.  Every other entry joins two
    partitions and is 0.
    """
    banded = len(nadirs) > _CHUNK
    if banded:
        r_key = _partition_keys(_graph_labels(ends, width))
        c_key = _partition_keys(_forest_labels(nadirs, width))
        rows, cols = np.argsort(r_key), np.argsort(c_key)
        ends, r_key, c_key = ends[rows], r_key[rows], c_key[cols]
        nadirs, sides = nadirs[cols], sides[cols]
    edges = (ends[:, :, 0] * width + ends[:, :, 1]).T  # (k, rows)
    # one row per leaf pair, so a chunk's columns are contiguous
    vert_table, side_table = nadirs.T.copy(), sides.T.copy()
    if not banded:
        return _chunk_entries(edges, vert_table, side_table, d)
    block = np.zeros((len(ends), len(nadirs)), dtype=np.int8)
    starts = range(0, len(cols), _CHUNK)
    last = np.minimum(np.array(starts) + _CHUNK, len(cols)) - 1
    bands = zip(np.searchsorted(r_key, c_key[starts], side="left"),
                np.searchsorted(r_key, c_key[last], side="right"))
    for lo, (a, b) in zip(starts, bands):
        chunk = slice(lo, lo + _CHUNK)
        block[np.ix_(rows[a:b], cols[chunk])] = _chunk_entries(
            edges[:, a:b], vert_table[:, chunk], side_table[:, chunk], d)
    return block


def _chunk_entries(edges, vert_table, side_table, d):
    """The int8 entries of the graphs whose (k, rows) edge indices are
    edges against the forests whose tables, one row per leaf pair, are
    vert_table and side_table."""
    verts = vert_table[edges]  # (k, rows, forests)
    bijective = (verts >= 0).all(axis=0)
    if d % 2:
        odd = np.bitwise_xor.reduce(side_table[edges])
    else:
        odd = np.zeros(bijective.shape, dtype=np.int8)
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            bijective &= verts[i] != verts[j]
            if not d % 2:
                odd ^= verts[i] > verts[j]
    return bijective * (1 - 2 * odd)


def _partition_arrays(parts, n):
    """The edge ends of the long graphs of parts, ordered partitions of
    1..n into equally many blocks, and the flat nadir and side tables of
    their tall forests, in closed form by the comb lemma (module docstring):
    row c of each is what pair_matrix reads off the objects of parts[c]."""
    width, count = n + 1, len(parts)
    order = np.array([x for p in parts for b in p.blocks for x in b], dtype=np.intp)
    order = order.reshape(count, n)
    lengths = np.array([len(b) for p in parts for b in p.blocks])
    first = np.zeros(count * n, dtype=bool)  # the places that start a block
    first[np.cumsum(lengths) - lengths] = True
    first = first.reshape(count, n)
    block = np.cumsum(first, axis=1) - 1
    at, pos = np.nonzero(~first[:, 1:])  # the edge (order[pos], order[pos+1])
    ends = np.stack([order[at, pos], order[at, pos + 1]], axis=-1).reshape(count, -1, 2)
    small = np.min_scalar_type(-width)
    place, tree = np.full((count, width), -1, dtype=small), np.full((count, width), -1, dtype=small)
    row = np.arange(count)[:, None]
    place[row, order], tree[row, order] = np.arange(n), block
    p, q, t = place[:, :, None], place[:, None, :], tree[:, :, None]
    same = (t == tree[:, None, :]) & (p != q)
    nadirs = np.where(same, np.maximum(p, q) - t - 1, -1).astype(small, copy=False)
    sides = (same & (p > q)).astype(np.int8)
    return ends, nadirs.reshape(count, -1), sides.reshape(count, -1)


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
    entries: np.ndarray  # int8; rows: long graphs, cols: tall forests, canonical order
    partitions: list = field(repr=False)  # row and column i come from partitions[i]

    @property
    def graphs(self):
        """The long graphs of the rows, built on each read."""
        return [graph_of_ordered_partition(p, self.n) for p in self.partitions]

    @property
    def forests(self):
        """The tall forests of the columns, built on each read."""
        return [forest_of_ordered_partition(p, self.n) for p in self.partitions]

    def __eq__(self, other):
        if not isinstance(other, GramMatrix):
            return NotImplemented
        return ((self.n, self.k, self.parity, self.partitions)
                == (other.n, other.k, other.parity, other.partitions)
                and np.array_equal(self.entries, other.entries))

    @property
    def size(self):
        return len(self.entries)

    def is_identity(self):
        return not self.failures()

    def failures(self):
        """(row, col, value) of each entry off the identity, row-major, in Python ints."""
        block = self.entries
        rows, cols = np.nonzero(block != np.eye(*block.shape, dtype=block.dtype))
        return list(zip(rows.tolist(), cols.tolist(), block[rows, cols].tolist()))


def parity_name(d: int) -> str:
    return "even" if d % 2 == 0 else "odd"


def gram_matrix(n: int, k: int, d: int, pair_fn=None) -> GramMatrix:
    """Pairing matrix over enumerate_long_graphs x enumerate_tall_forests.

    Row and column i come from the same ordered partition, walked once, so
    both are in canonical order and the Kronecker property of the pairing
    makes this the identity.  The entries are the array core's, fed the
    arrays _partition_arrays reads off the partitions, so no Graph, Tree or
    Forest is built; or one pair_fn call per entry on the built bases, where
    a value out of int8 range raises.
    """
    parts = list(ordered_partitions(n, k))
    if pair_fn is None:
        ends, nadirs, sides = _partition_arrays(parts, n)
        block = _pair_block(ends, nadirs, sides, n + 1, d)
    else:
        graphs = [graph_of_ordered_partition(p, n) for p in parts]
        forests = [forest_of_ordered_partition(p, n) for p in parts]
        block = np.zeros((len(graphs), len(forests)), dtype=np.int8)
        for r, g in enumerate(graphs):
            for c, f in enumerate(forests):
                block[r, c] = pair_fn(g, f, d).value
    return GramMatrix(n, k, parity_name(d), block, parts)


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


ENTRY_BUDGET = 2 ** 25  # most Gram entries one verify_perfect call builds


def _gram_entries(n: int, exhaustive: bool) -> int:
    """The Gram entries verify_perfect(n) builds, or a partial sum past
    ENTRY_BUDGET: sum_{m<=n} ((m-1)!)^2 for the top-degree blocks, or
    sum_k c(n, k)^2 for the dense ones, c(n, k) = poincare_coefficients(n)[k].
    The dense count is the larger (c(n, k) >= c(k+1, k) = k!), so it is
    only summed under the budget, and a huge n stops the first sum at m = 9."""
    entries = 0
    for m in range(1, n + 1):
        entries += math.factorial(m - 1) ** 2
        if entries > ENTRY_BUDGET:
            return entries
    return sum(c * c for c in poincare_coefficients(n)) if exhaustive else entries


def _degree_sizes(top):
    """Rows of each degree-k block of n = len(top), from top[m-1] = |T_m|:
    s(n, n-k) by the recurrence in the module docstring."""
    s = [[1]]  # s[a][b]: tall forests on a labels in b trees
    for a in range(1, len(top) + 1):
        s.append([0] + [sum(math.comb(a - 1, m - 1) * top[m - 1] * s[a - m][b - 1]
                            for m in range(1, a - b + 2))
                        for b in range(1, a + 1)])
    return [s[-1][len(top) - k] for k in range(len(top))]


def verify_perfect(n: int, d: int, pair_fn=None, exhaustive=False) -> PerfectReport:
    """Check the Gram identity in every degree k < n.

    By default only the top-degree blocks T_1..T_n are built (see the
    module docstring for the lemmas that make that enough); when all are
    the identity, every degree is reported as the identity, with its size
    counted from the |T_m|.  At the first T_m off the identity the report
    is the dense one, as with exhaustive=True; when the dense blocks exceed
    ENTRY_BUDGET, VerificationFailure names m and T_m's first failing
    (row, col, value) instead.

    exhaustive=True builds one dense block per degree.  Its first-degree
    report is the k=1 block (single edges i->j against single pairs
    [i,j]), its failures indexed by the lexicographic order of (i, j).

    Blocks are read off pair_matrix.  A pair_fn is called once per entry
    instead: pair_basis is the kernel's oracle, and a corrupted sign
    convention is a negative control.  An n whose blocks hold more than
    ENTRY_BUDGET entries is refused before any block is built.
    """
    check_degree(n, 0)
    if _gram_entries(n, exhaustive) > ENTRY_BUDGET:
        kind = "dense" if exhaustive else "top-degree"
        raise ValidationError(f"n={n} needs more {kind} Gram entries than the budget "
                              f"of {ENTRY_BUDGET}")
    if exhaustive:
        return _dense_report(n, d, pair_fn)
    top = []
    for m in range(1, n + 1):
        gm = gram_matrix(m, m - 1, d, pair_fn)
        failures = gm.failures()
        if failures:
            if _gram_entries(n, True) > ENTRY_BUDGET:
                raise VerificationFailure(
                    f"perfect-pairing verification failed for n={n}: T_{m} is not the "
                    f"identity, first at (row, col, value) = {failures[0]}")
            return _dense_report(n, d, pair_fn)
        top.append(gm.size)
    sizes = _degree_sizes(top)
    return PerfectReport(
        n, parity_name(d), [DegreeReport(k, size, True, []) for k, size in enumerate(sizes)],
        sizes[1] if n > 1 else 0, True, [], True,
    )


def _dense_report(n, d, pair_fn):
    """verify_perfect's report read off one dense block per degree."""
    degrees = []
    first = DegreeReport(1, 0, True, [])  # n = 1 has no degree-1 block
    for k in range(n):
        gm = gram_matrix(n, k, d, pair_fn)
        failures = gm.failures()
        degrees.append(DegreeReport(k, gm.size, not failures, failures))
        if k == 1:
            # row r and column r come from one ordered partition, so the
            # order of its one edge, its block of two, re-indexes both
            edge = [next(b for b in p.blocks if len(b) == 2) for p in gm.partitions]
            lex = sorted(range(gm.size), key=edge.__getitem__)
            rank = {r: p for p, r in enumerate(lex)}
            first = DegreeReport(1, gm.size, not failures,
                                 sorted((rank[r], rank[c], v) for r, c, v in failures))
    return PerfectReport(
        n, parity_name(d), degrees,
        first.size, first.identity, first.failures,
        all(r.identity for r in degrees),
    )
