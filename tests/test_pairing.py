import dataclasses
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confpair.errors import ValidationError
from confpair.graphs import Graph, enumerate_long_graphs, graph_of_ordered_partition, parse_graph
from confpair import pairing
from confpair.lincombo import LinCombo
from confpair.cli import main
from confpair.pairing import (GramMatrix, PairingResult, gram_matrix, pair, pair_basis,
                              pair_matrix, poincare_coefficients, rank_table, verify_perfect)
from confpair.pairing import _pair_block as pair_block
from confpair.trees import (Forest, Tree, enumerate_tall_forests, forest_of_ordered_partition,
                            ordered_partitions, parse_forest)

from conftest import all_forests, basis_count_oracle, random_tree_node
from oracles import PlanarForest, first_degree_bases


def test_smallest_pair():
    g = parse_graph("n=2; 1->2")
    f = parse_forest("[1,2]")
    for d in (2, 3):
        assert pair_basis(g, f, d).value == 1


def test_paper_figure_values():
    g = parse_graph("n=3; 1->2, 2->3")
    assert pair_basis(g, parse_forest("[[2,1],3]"), 3).value == -1
    assert pair_basis(g, parse_forest("[[2,1],3]"), 2).value == 1
    for d in (2, 3):
        assert pair_basis(g, parse_forest("[[1,3],2]"), d).value == 0


def test_cross_component_zero():
    g = parse_graph("n=4; 1->2")
    f = parse_forest("[3,4] ; [1] ; [2]")
    for d in (2, 3):
        assert pair_basis(g, f, d).value == 0


def test_degree_mismatch_zero():
    g = parse_graph("n=3; 1->2")
    f = parse_forest("[[1,2],3]")
    assert pair_basis(g, f, 2).value == 0
    assert pair_basis(g, f, 2).beta_witness is None


def test_beta_witness_is_bijection():
    res = pair_basis(parse_graph("n=3; 1->2, 2->3"), parse_forest("[[2,1],3]"), 3)
    assert res.value != 0
    vertices = [v for _, v in res.beta_witness]
    assert len(set(vertices)) == len(vertices) == 2


def test_repeated_edge_pairs_to_zero():
    # the two edges share a nadir, so beta is never bijective
    f3 = parse_forest("[[1,2],3]")
    for d in (2, 3):
        assert pair_basis(Graph(3, ((1, 2), (2, 1))), f3, d).value == 0
        assert pair_basis(Graph(3, ((1, 2), (1, 2))), f3, d).value == 0


def test_mismatched_n_raises():
    with pytest.raises(ValidationError):
        pair_basis(parse_graph("n=3; 1->2"), parse_forest("[1,2]"), 2)


def test_bilinearity():
    n, d = 4, 2
    graphs = enumerate_long_graphs(n, 2)
    forests = enumerate_tall_forests(n, 2)
    x = LinCombo([(graphs[0], 3), (graphs[2], -2)])
    y = LinCombo([(forests[1], 5), (forests[3], 1)])
    direct = pair(x, y, d)
    expanded = sum(
        cx * cy * pair_basis(g, f, d).value for g, cx in x for f, cy in y
    )
    assert direct == expanded
    # scaling
    assert pair(2 * x, y, d) == 2 * direct
    assert pair(x, -1 * y, d) == -direct


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2)])
def test_gram_small_identity(n, k):
    for d in (2, 3):
        gm = gram_matrix(n, k, d)
        assert gm.is_identity()
        assert gm.size == basis_count_oracle(n, k)


def test_gram_6_5_identity_both_parities():
    for d in (2, 3):
        gm = gram_matrix(6, 5, d)
        assert gm.size == 120
        assert gm.is_identity()


def test_gram_entries_in_unit_range():
    gm = gram_matrix(4, 2, 3)
    assert all(v in (-1, 0, 1) for row in gm.entries for v in row)


def test_rank_table_examples():
    assert rank_table(2, 3).coefficients == (1, 1)
    t = rank_table(3, 3)
    assert t.coefficients == (1, 3, 2)
    assert t.degrees == (0, 2, 4)
    assert rank_table(4, 2).coefficients == (1, 6, 11, 6)


def test_rank_table_matches_enumeration():
    for n in range(1, 7):
        coeffs = poincare_coefficients(n)
        for k in range(n):
            assert coeffs[k] == len(enumerate_tall_forests(n, k))


def test_rank_csv_rows():
    rows = rank_table(4, 3).csv_rows()
    assert rows == [(0, 1), (2, 6), (4, 11), (6, 6)]


def test_verify_perfect_passes():
    for d in (2, 3):
        rep = verify_perfect(2, d)
        assert rep.ok
    rep = verify_perfect(5, 3)
    assert rep.ok
    assert [r.size for r in rep.degrees] == [1, 10, 35, 50, 24]


@pytest.mark.parametrize("n", [0, -3, 8, 9])
def test_verify_perfect_refuses_n_outside_one_to_seven(monkeypatch, n):
    """n < 1 and n = 9 are refused on both routes, before any block is
    built; n = 8 only on the dense route, whose 418,389,078 entries pass
    the budget that its 25,935,018 top-degree entries stay within."""
    def no_block(*args):
        raise AssertionError("a Gram block was built")

    monkeypatch.setattr(pairing, "gram_matrix", no_block)
    with pytest.raises(ValidationError):
        verify_perfect(n, 2, exhaustive=True)
    if n != 8:
        with pytest.raises(ValidationError):
            verify_perfect(n, 2)


def test_verify_perfect_negative_control():
    # corrupt the sign convention: flip the value whenever the graph has
    # 2 edges; the report must name offending pairs
    def corrupted(g, f, d):
        res = pair_basis(g, f, d)
        if len(g.edges) == 2:
            return PairingResult(-res.value, res.beta_witness)
        return res

    rep = verify_perfect(3, 2, pair_fn=corrupted)
    assert not rep.ok
    bad = [r for r in rep.degrees if not r.identity]
    assert bad and bad[0].k == 2
    assert bad[0].failures  # (row, col, value) triples name the pair


@pytest.mark.parametrize("n,d", [(3, 2), (4, 3)])
def test_verify_perfect_pair_fn_path_matches_the_gram_path(n, d):
    assert verify_perfect(n, d, pair_fn=pair_basis) == verify_perfect(n, d)


def flip_two_edge_rows(ends, nadirs, sides, width, d):
    """The array core with the sign of every 2-edge graph's row flipped."""
    block = pair_block(ends, nadirs, sides, width, d)
    if ends.shape[1] == 2:
        block *= -1
    return block


def flip_two_edges(g, f, d):
    """pair_basis with the sign of every 2-edge graph's entry flipped."""
    res = pair_basis(g, f, d)
    return PairingResult(-res.value, res.beta_witness) if len(g.edges) == 2 else res


def test_verify_perfect_reads_each_degree_off_one_gram_matrix(monkeypatch):
    """Both paths take each degree's verdict from GramMatrix.failures, and the
    default path looks the array core up when it is called."""
    monkeypatch.setattr("confpair.pairing._pair_block", flip_two_edge_rows)
    assert not verify_perfect(3, 2).ok
    assert verify_perfect(3, 2, pair_fn=pair_basis).ok
    monkeypatch.setattr(GramMatrix, "failures", lambda self: [])
    assert verify_perfect(3, 2).ok
    assert verify_perfect(3, 2, pair_fn=flip_two_edges).ok


def test_verify_perfect_names_first_degree_failures():
    # first_degree_failures index (i, j) lexicographically, the k=1 block by enumeration
    for n in (3, 4, 5):
        singles = enumerate_long_graphs(n, 1)
        for p, edge in enumerate(itertools.combinations(range(1, n + 1), 2)):
            e = singles.index(Graph(n, (edge,)))

            def flip_edge(g, f, d):
                res = pair_basis(g, f, d)
                return PairingResult(-res.value, res.beta_witness) if g.edges == (edge,) else res

            for d in (2, 3):
                # one labelled edge is not a relabelling-invariant change, so
                # only the dense route sees it
                rep = verify_perfect(n, d, pair_fn=flip_edge, exhaustive=True)
                assert not rep.ok and not rep.first_degree_identity
                assert rep.first_degree_failures == [(p, p, -1)]
                assert [r.failures for r in rep.degrees] == (
                    [[], [(e, e, -1)]] + [[]] * (n - 2))


def test_verify_perfect_builds_one_block_per_degree(monkeypatch):
    calls = []

    def counted(ends, nadirs, sides, width, d):
        calls.append(len(ends))
        return pair_block(ends, nadirs, sides, width, d)

    monkeypatch.setattr(pairing, "_pair_block", counted)
    for n in range(1, 7):
        for d in (2, 3):
            for exhaustive, rows in ((False, [math.factorial(m - 1) for m in range(1, n + 1)]),
                                     (True, list(poincare_coefficients(n)))):
                # T_1..T_n by default, one dense block per degree k < n otherwise
                calls.clear()
                rep = verify_perfect(n, d, exhaustive=exhaustive)
                assert rep.ok and calls == rows
                assert rep.first_degree_size == n * (n - 1) // 2


# (degree, row, col, value): diagonal entries flipped or zeroed and
# off-diagonal ones set, in several degrees; a spot outside its block is skipped
SPOTS = [(1, 0, 0, -1), (2, 1, 1, 0), (2, 0, 2, -1), (3, 2, 0, 1), (3, 3, 3, -1), (4, 5, 5, 0)]


def corrupted_entries(n):
    """(graph, forest) -> value for every spot inside a Gram block of n."""
    out = {}
    for k, r, c, v in SPOTS:
        if k < n:
            graphs, forests = enumerate_long_graphs(n, k), enumerate_tall_forests(n, k)
            if r < len(graphs) and c < len(forests):
                out[graphs[r], forests[c]] = v
    return out


def corrupt_the_kernel(monkeypatch, n):
    """The array core with the entry of each spot inside a Gram block of n
    replaced: Gram blocks reach it whole, rows and columns in canonical order."""
    def corrupted(ends, nadirs, sides, width, d):
        block = pair_block(ends, nadirs, sides, width, d)
        if width == n + 1:
            for k, r, c, v in SPOTS:
                if k == ends.shape[1] and r < len(ends) and c < len(nadirs):
                    block[r, c] = v
        return block
    monkeypatch.setattr(pairing, "_pair_block", corrupted)


@pytest.mark.parametrize("n", range(1, 6))
def test_a_corrupted_kernel_fails_as_the_same_corruption_per_entry_does(monkeypatch, n):
    spots = corrupted_entries(n)

    def corrupted_entry(g, f, d):
        return PairingResult(spots.get((g, f), pair_basis(g, f, d).value))

    for d in (2, 3):
        by_entry = verify_perfect(n, d, pair_fn=corrupted_entry)
        with monkeypatch.context() as m:
            corrupt_the_kernel(m, n)
            by_kernel = verify_perfect(n, d)
            grams = [gram_matrix(n, k, d).failures() for k in range(n)]
        assert by_kernel.degrees == by_entry.degrees
        assert (by_kernel.first_degree_size, by_kernel.first_degree_identity,
                by_kernel.first_degree_failures) == (
            by_entry.first_degree_size, by_entry.first_degree_identity,
            by_entry.first_degree_failures)
        assert grams == [r.failures for r in by_kernel.degrees]
        assert sum(len(f) for f in grams) == len(spots) and by_kernel.ok == (not spots)
        triples = [t for r in by_kernel.degrees for t in r.failures]
        assert all(type(x) is int for t in triples + by_kernel.first_degree_failures for x in t)


def test_verify_json_prints_the_failures_of_a_corrupted_kernel(capsys, monkeypatch):
    corrupt_the_kernel(monkeypatch, 5)
    report = verify_perfect(5, 2)
    assert main(["verify", "--n", "5", "--d", "2", "--format", "json"]) == 3
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["ok"] is False and "verification failed" in out.err
    assert [r["failures"] for r in payload["degrees"]] == [
        [list(t) for t in r.failures] for r in report.degrees]
    assert payload["first_degree"]["failures"] == list(map(list, report.first_degree_failures))
    assert [bool(r["failures"]) for r in payload["degrees"]] == [False, True, True, True, True]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gram_reads_its_verdict_off_a_corrupted_kernel(capsys, monkeypatch, fmt):
    """`gram` prints the kernel's block and exits 3 on it."""
    corrupt_the_kernel(monkeypatch, 5)
    assert main(["gram", "--n", "5", "--k", "2", "--d", "2", "--format", fmt]) == 3
    out = capsys.readouterr()
    assert out.err == "verification failure: Gram matrix n=5 k=2 is not the identity\n"
    if fmt == "json":
        payload = json.loads(out.out)
        assert payload["identity"] is False
        rows = payload["entries"]
    else:
        lines = out.out.splitlines()
        assert lines[-1] == "identity: False"
        rows = [list(map(int, line.split())) for line in lines[:-1]]
    assert (len(rows), rows[1][1], rows[0][2], rows[0][0]) == (35, 0, -1, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_gram_matrix_entries_are_the_kernels_int8_block(n):
    # the array route against the object route and the per-entry oracle
    for k in range(n):
        for d in range(2, 6):
            gm = gram_matrix(n, k, d)
            assert type(gm.entries) is np.ndarray and gm.entries.dtype == np.int8
            assert np.array_equal(gm.entries, pair_matrix(gm.graphs, gm.forests, d))
            assert np.array_equal(gm.entries, gram_matrix(n, k, d, pair_fn=pair_basis).entries)
            flipped = dataclasses.replace(gm, entries=-gm.entries)
            failures = flipped.failures()
            assert failures == [(r, r, -1) for r in range(gm.size)]
            assert all(type(x) is int for t in failures for x in t)


@pytest.mark.parametrize("d", [2, 3])
def test_gram_matrices_compare_by_value(d):
    a, b = gram_matrix(5, 2, d), gram_matrix(5, 2, d)
    assert a.entries is not b.entries
    assert a == b and (a != b) is False
    entries = b.entries.copy()
    entries[3, 4] = -1
    flipped = dataclasses.replace(b, entries=entries)
    assert a != flipped and not a == flipped
    assert a != gram_matrix(5, 2, 5 - d)  # the same entries at the other parity


def test_first_degree_bases_count():
    graphs, forests = first_degree_bases(5)
    assert len(graphs) == len(forests) == 10


# ---------------------------------------------------------------------------
# the factorized verifier: the two lemmas it rests on, and both routes

def tree_partition(f):
    """The set partition of 1..n that f's trees give, as Graph.components."""
    return tuple(sorted(tuple(sorted(t.labels)) for t in f.trees))


def relabel_node(node, lab):
    return lab[node] if isinstance(node, int) else (relabel_node(node[0], lab),
                                                    relabel_node(node[1], lab))


def graph_blocks(g):
    """g restricted to each component, relabelled to 1..m in order."""
    out = []
    for block in g.components:
        lab = {v: i for i, v in enumerate(block, 1)}
        out.append(Graph(len(block), tuple((lab[i], lab[j]) for i, j in g.edges if i in lab)))
    return out


def forest_blocks(f):
    """Each tree of f as a one-tree forest on 1..m, relabelled in order."""
    out = []
    for t in f.trees:
        lab = {v: i for i, v in enumerate(sorted(t.labels), 1)}
        out.append(Forest((Tree(relabel_node(t.node, lab)),), len(lab)))
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_block_lemma_entries_across_set_partitions_are_zero(d):
    checked = 0
    for n in range(1, 6):
        for k in range(n):
            graphs, forests = enumerate_long_graphs(n, k), enumerate_tall_forests(n, k)
            for g in graphs:
                for f in forests:
                    if g.components != tree_partition(f):
                        assert pair_basis(g, f, d).value == 0
                        checked += 1
    assert checked == 3678  # of the 4,613 dense entries with n <= 5


@pytest.mark.parametrize("d", [2, 3])
def test_block_lemma_holds_for_every_graph(d):
    # every multiset of at most n - 1 pairs, so cycles, repeated pairs and
    # graphs that are not long; edge order and orientation move only signs
    rng = random.Random(19)
    checked = 0
    for n in range(1, 6):
        forests = [f for k in range(n) for f in enumerate_tall_forests(n, k)]
        forests += all_forests(n) if n <= 4 else [
            random_planar_forest(rng, n, rng.randint(1, n)) for _ in range(300)]
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for k in range(n):
            same_size = [f for f in forests if f.size == k]
            for edges in itertools.combinations_with_replacement(pairs, k):
                g = Graph(n, edges)
                for f in same_size:
                    if g.components != tree_partition(f):
                        assert pair_basis(g, f, d).value == 0
                        checked += 1
    assert checked == 87661  # entries across two set partitions


@pytest.mark.parametrize("d", [2, 3])
def test_factorization_lemma_entries_are_products_of_top_degree_entries(d):
    top = {}  # (graph, forest) -> T_m entry, for every m <= 6
    for m in range(1, 7):
        for g in enumerate_long_graphs(m, m - 1):
            for f in enumerate_tall_forests(m, m - 1):
                top[g, f] = pair_basis(g, f, d).value
    matching = [0] * 7
    for n, k in ((n, k) for n in range(1, 7) for k in range(n)):
        by_partition = {}
        for g in enumerate_long_graphs(n, k):
            by_partition.setdefault(g.components, ([], []))[0].append(g)
        for f in enumerate_tall_forests(n, k):
            by_partition[tree_partition(f)][1].append(f)
        for graphs, forests in by_partition.values():
            split = [forest_blocks(f) for f in forests]
            for g in graphs:
                parts = graph_blocks(g)
                for f, f_parts in zip(forests, split):
                    product = math.prod(top[pair] for pair in zip(parts, f_parts))
                    assert pair_basis(g, f, d).value == product
                    matching[n] += 1
    assert matching[6] == 19492  # 38,984 pairs at n = 6 over both parities


def test_entry_budget_counts_both_routes():
    counts = [pairing._gram_entries(n, False) for n in (6, 7, 8, 9)]
    assert counts == [15018, 533418, 25935018, 1651637418]
    assert [pairing._gram_entries(n, True) for n in (6, 7, 8)] == [147552, 6838764, 418389078]
    budget = pairing.ENTRY_BUDGET
    assert pairing._gram_entries(8, False) <= budget < pairing._gram_entries(9, False)
    assert pairing._gram_entries(7, True) <= budget < pairing._gram_entries(8, True)
    assert pairing._gram_entries(10 ** 20, True) > budget


def test_degree_sizes_of_the_top_degree_counts_are_the_betti_numbers():
    for n in range(1, 13):
        top = [math.factorial(m - 1) for m in range(1, n + 1)]
        assert tuple(pairing._degree_sizes(top)) == poincare_coefficients(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_factorized_verify_equals_the_dense_route(n):
    for d in (2, 3, 4, 5):
        assert verify_perfect(n, d) == verify_perfect(n, d, exhaustive=True)
        assert (verify_perfect(n, d, pair_fn=pair_basis)
                == verify_perfect(n, d, pair_fn=pair_basis, exhaustive=True))


@pytest.mark.parametrize("d", [2, 3])
def test_factorized_verify_equals_the_dense_route_at_n7(d):
    assert verify_perfect(7, d) == verify_perfect(7, d, exhaustive=True)


def test_a_relabelling_invariant_corruption_fails_the_factorized_route(monkeypatch):
    """Flipping every 2-edge entry flips T_3, so the default route falls
    back to the dense report, naming every degree-2 entry."""
    for n in range(3, 6):
        for d in (2, 3):
            rep = verify_perfect(n, d, pair_fn=flip_two_edges)
            assert rep == verify_perfect(n, d, pair_fn=flip_two_edges, exhaustive=True)
            assert [bool(r.failures) for r in rep.degrees] == [k == 2 for k in range(n)]
            assert not rep.ok
            with monkeypatch.context() as m:
                m.setattr(pairing, "_pair_block", flip_two_edge_rows)
                assert verify_perfect(n, d) == rep


def test_a_labelled_entry_below_the_top_degree_passes_only_the_dense_route():
    """Flipping 2->3 against [2,3] at n = 4 moves no T_m entry (T_2 holds
    1->2 against [1,2]), so the factorized route passes such a kernel: it
    trusts the lemmas, which the lemma tests above check for pair_basis.
    The dense route names the entry."""
    def flip_edge(g, f, d):
        res = pair_basis(g, f, d)
        return PairingResult(-res.value, res.beta_witness) if g.edges == ((2, 3),) else res

    for d in (2, 3):
        assert verify_perfect(4, d, pair_fn=flip_edge).ok
        dense = verify_perfect(4, d, pair_fn=flip_edge, exhaustive=True)
        assert not dense.ok and dense.first_degree_failures == [(3, 3, -1)]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_n8_stops_at_a_corrupted_top_degree_block(capsys, monkeypatch, fmt):
    """Past the dense budget there is no report to fall back to: `verify
    --n 8` stops at T_3 with one line naming it and its first bad entry."""
    sizes = []

    def counted(ends, nadirs, sides, width, d):
        sizes.append(len(ends))
        return flip_two_edge_rows(ends, nadirs, sides, width, d)

    monkeypatch.setattr(pairing, "_pair_block", counted)
    assert main(["verify", "--n", "8", "--d", "2", "--format", fmt]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("verification failure: perfect-pairing verification failed for n=8: "
                       "T_3 is not the identity, first at (row, col, value) = (0, 0, -1)\n")
    assert sizes == [1, 1, 2]


# ---------------------------------------------------------------------------
# the batch kernel against the per-entry oracle

def per_entry(graphs, forests, d):
    return tuple(tuple(pair_basis(g, f, d).value for f in forests) for g in graphs)


@st.composite
def tree_nodes(draw, labels):
    if len(labels) == 1:
        return labels[0]
    cut = draw(st.integers(1, len(labels) - 1))
    return (draw(tree_nodes(labels[:cut])), draw(tree_nodes(labels[cut:])))


@st.composite
def planar_forests(draw, n):
    """Any planar forest on 1..n: trees of any shape, in any order."""
    labels = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0] + cuts + [n]
    trees = tuple(Tree(draw(tree_nodes(labels[a:b]))) for a, b in zip(bounds, bounds[1:]))
    return PlanarForest(trees, n)


def leaves(node):
    return [node] if isinstance(node, int) else leaves(node[0]) + leaves(node[1])


@st.composite
def matched_graphs(draw, f):
    """A graph with one edge per vertex of f, between a leaf on each side of
    it, in any order and orientation: its pairing with f is nonzero."""
    edges = []

    def walk(node):
        if not isinstance(node, int):
            i, j = draw(st.sampled_from(leaves(node[0]))), draw(st.sampled_from(leaves(node[1])))
            edges.append((i, j) if draw(st.booleans()) else (j, i))
            walk(node[0])
            walk(node[1])
    for t in f.trees:
        walk(t.node)
    return Graph(f.n, tuple(draw(st.permutations(edges))))


@st.composite
def batches(draw):
    n = draw(st.integers(1, 7))
    forests = draw(st.lists(planar_forests(n), min_size=1, max_size=4))
    matched = [draw(matched_graphs(f)) for f in forests]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    graphs = list(matched)
    if pairs:
        graphs += [Graph(n, tuple(edges)) for edges in
                   draw(st.lists(st.lists(st.sampled_from(pairs), max_size=n), max_size=6))]
        graphs += [Graph(n, ((1, 2), (1, 2))), Graph(n, ((1, 2), (2, 1)))]
    if n >= 3:
        graphs.append(Graph(n, ((1, 2), (2, 3), (3, 1))))
    for f, g in zip(forests, matched):  # a cross-tree edge in place of the first
        if len(f.trees) > 1 and g.edges:
            cross = (f.trees[0].leaf_seq[0], f.trees[1].leaf_seq[0])
            graphs.append(Graph(n, (cross,) + g.edges[1:]))
    return draw(st.permutations(graphs)), forests, matched


@settings(max_examples=300, deadline=None)
@given(batches(), st.integers(2, 5))
def test_pair_matrix_equals_pair_basis_on_random_batches(batch, d):
    graphs, forests, matched = batch
    rows = pair_matrix(graphs, forests, d).tolist()
    assert rows == list(map(list, per_entry(graphs, forests, d)))
    for f, g in zip(forests, matched):
        assert rows[graphs.index(g)][forests.index(f)] in (-1, 1)


def random_planar_forest(rng, n, count):
    """A planar forest on 1..n with count trees of any shape, in any order."""
    labels = rng.sample(range(1, n + 1), n)
    bounds = [0, *sorted(rng.sample(range(1, n), count - 1)), n]
    return PlanarForest(tuple(Tree(random_tree_node(rng, labels[a:b]))
                              for a, b in zip(bounds, bounds[1:])), n)


def random_matched_graph(rng, f):
    """As matched_graphs, drawn with rng: its pairing with f is nonzero."""
    edges = []
    for t in f.trees:
        stack = [t.node]
        while stack:
            node = stack.pop()
            if not isinstance(node, int):
                i, j = rng.choice(leaves(node[0])), rng.choice(leaves(node[1]))
                edges.append((i, j) if rng.random() < 0.5 else (j, i))
                stack += node
    rng.shuffle(edges)
    return Graph(f.n, tuple(edges))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_pair_matrix_equals_pair_basis_on_banded_batches(n):
    # more than one chunk of forests with k vertices, so that group is banded
    rng = random.Random(1900 + n)
    k = n - 3
    forests = [random_planar_forest(rng, n, n - k) for _ in range(pairing._CHUNK + 40)]
    forests += [random_planar_forest(rng, n, rng.randint(1, n)) for _ in range(20)]
    rng.shuffle(forests)
    assert len({tree_partition(f) for f in forests if f.size == k}) > 50
    matched = [random_matched_graph(rng, f) for f in forests]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    graphs = matched + rng.sample(enumerate_long_graphs(n, k), 20)
    graphs += [Graph(n, tuple(rng.choices(pairs, k=k))) for _ in range(40)]
    for _ in range(10):
        cycle = rng.sample(range(1, n + 1), k)  # a k-cycle, and a pair both ways
        graphs.append(Graph(n, tuple(zip(cycle, cycle[1:] + cycle[:1]))))
        graphs.append(Graph(n, tuple(rng.sample(pairs, k - 2)) + ((cycle[0], cycle[1]),
                                                                  (cycle[1], cycle[0]))))
    for f, g in zip(forests, matched):  # a cross-tree edge in place of the first
        if len(f.trees) > 1 and g.edges and rng.random() < 0.2:
            cross = (f.trees[0].leaf_seq[0], f.trees[-1].leaf_seq[0])
            graphs.append(Graph(n, (cross,) + g.edges[1:]))
    rng.shuffle(graphs)
    for d in range(2, 6):
        rows = pair_matrix(graphs, forests, d).tolist()
        assert rows == list(map(list, per_entry(graphs, forests, d)))
        for f, g in zip(forests, matched):
            assert rows[graphs.index(g)][forests.index(f)] in (-1, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_matrix_equals_pair_basis_on_every_gram_block(n):
    for k in range(n):
        for d in (2, 3):
            gm = gram_matrix(n, k, d)
            assert gm.entries.tolist() == list(map(list, per_entry(gm.graphs, gm.forests, d)))


def test_pair_matrix_equals_pair_basis_on_the_n7_blocks_up_to_degree_3():
    for k in range(4):
        gm = gram_matrix(7, k, 2)
        assert gm.entries.tolist() == list(map(list, per_entry(gm.graphs, gm.forests, 2)))


def test_pair_matrix_edge_cases():
    forests = [parse_forest("[1] ; [2] ; [3]"), parse_forest("[1,2] ; [3]")]
    empty, edge = Graph(3, ()), Graph(3, ((2, 1),))
    for d in (2, 3):
        assert pair_matrix([empty, edge], forests, d).tolist() == [[1, 0], [0, -1 if d % 2 else 1]]
        assert pair_matrix([], forests, d).tolist() == []
        assert pair_matrix([empty, edge], [], d).tolist() == [[], []]
        assert pair_matrix([], [], d).tolist() == []
    with pytest.raises(ValidationError):
        pair_matrix([Graph(2, ())], forests, 2)


# ---------------------------------------------------------------------------
# the array route: gram_matrix's tables in closed form, no objects built

def test_comb_tables_equal_the_forest_tables_on_every_tall_forest():
    checked = 0
    for n in range(1, 7):
        for k in range(n):
            parts = list(ordered_partitions(n, k))
            ends, nadirs, sides = pairing._partition_arrays(parts, n)
            assert ends.shape == (len(parts), k, 2)
            for p, e, nadir, side in zip(parts, ends.tolist(), nadirs.tolist(), sides.tolist()):
                assert (nadir, side) == pairing._forest_tables(forest_of_ordered_partition(p, n))
                assert tuple(map(tuple, e)) == graph_of_ordered_partition(p, n).edges
                checked += 1
    assert checked == sum(math.factorial(n) for n in range(1, 7))


@pytest.mark.parametrize("d", [2, 3])
def test_the_array_route_equals_the_object_route_at_n7(d):
    for k in range(7):
        gm = gram_matrix(7, k, d)
        assert np.array_equal(gm.entries, pair_matrix(gm.graphs, gm.forests, d))


def test_gram_blocks_build_no_graph_tree_or_forest(monkeypatch):
    def refuse(self):
        raise AssertionError(f"a {type(self).__name__} was built")

    blocks = {}
    with monkeypatch.context() as m:
        for cls in (Graph, Tree, Forest):
            m.setattr(cls, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            Tree(1)  # the patch is live
        for d in (2, 3):
            for k in range(6):
                blocks[k, d] = gram_matrix(6, k, d)
            assert verify_perfect(6, d).ok
    for (k, d), gm in blocks.items():
        assert gm.is_identity()
        assert gm.graphs == enumerate_long_graphs(6, k)
        assert gm.forests == enumerate_tall_forests(6, k)
        flipped = dataclasses.replace(gm, entries=-gm.entries)
        assert flipped.partitions is gm.partitions and flipped != gm
        assert flipped.failures() == [(r, r, -1) for r in range(gm.size)]
