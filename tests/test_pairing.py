import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from confpair.errors import ValidationError
from confpair.graphs import Graph, enumerate_long_graphs, parse_graph
from confpair import pairing
from confpair.lincombo import LinCombo
from confpair.cli import main
from confpair.pairing import (GramMatrix, PairingResult, gram_matrix, pair, pair_basis,
                              pair_matrix, poincare_coefficients, rank_table, verify_perfect)
from confpair.trees import Tree, enumerate_tall_forests, parse_forest

from conftest import basis_count_oracle
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


@pytest.mark.parametrize("n", [0, -3, 8])
def test_verify_perfect_refuses_n_outside_one_to_seven(n):
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


def test_verify_perfect_reads_each_degree_off_one_gram_matrix(monkeypatch):
    """Both paths take each degree's verdict from _identity_failures, and the
    default path looks pair_matrix up when it is called."""
    def flip_two_edge_rows(graphs, forests, d):
        block = pair_matrix(graphs, forests, d)
        block[[len(g.edges) == 2 for g in graphs]] *= -1
        return block

    def flip_two_edges(g, f, d):
        res = pair_basis(g, f, d)
        return PairingResult(-res.value, res.beta_witness) if len(g.edges) == 2 else res

    monkeypatch.setattr("confpair.pairing.pair_matrix", flip_two_edge_rows)
    assert not verify_perfect(3, 2).ok
    assert verify_perfect(3, 2, pair_fn=pair_basis).ok
    monkeypatch.setattr(pairing, "_identity_failures", lambda block: [])
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
                rep = verify_perfect(n, d, pair_fn=flip_edge)
                assert not rep.ok and not rep.first_degree_identity
                assert rep.first_degree_failures == [(p, p, -1)]
                assert [r.failures for r in rep.degrees] == (
                    [[], [(e, e, -1)]] + [[]] * (n - 2))


def test_verify_perfect_builds_one_block_per_degree(monkeypatch):
    calls = []

    def counted(graphs, forests, d):
        calls.append(len(graphs))
        return pair_matrix(graphs, forests, d)

    monkeypatch.setattr(pairing, "pair_matrix", counted)
    for n in range(1, 7):
        for d in (2, 3):
            calls.clear()
            rep = verify_perfect(n, d)
            assert rep.ok and len(calls) == n
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


def corrupt_the_kernel(monkeypatch, spots):
    """pair_matrix with each spot's entry replaced, wherever the spot's pair lands."""
    def corrupted(graphs, forests, d):
        block = pair_matrix(graphs, forests, d)
        for (g, f), v in spots.items():
            if g in graphs and f in forests:
                block[graphs.index(g), forests.index(f)] = v
        return block
    monkeypatch.setattr(pairing, "pair_matrix", corrupted)


@pytest.mark.parametrize("n", range(1, 6))
def test_a_corrupted_kernel_fails_as_the_same_corruption_per_entry_does(monkeypatch, n):
    spots = corrupted_entries(n)

    def corrupted_entry(g, f, d):
        return PairingResult(spots.get((g, f), pair_basis(g, f, d).value))

    for d in (2, 3):
        by_entry = verify_perfect(n, d, pair_fn=corrupted_entry)
        with monkeypatch.context() as m:
            corrupt_the_kernel(m, spots)
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
    corrupt_the_kernel(monkeypatch, corrupted_entries(5))
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
    """`gram` prints the kernel's block and exits 3 on it, though the
    tuple-row verdict it no longer reads is blanked."""
    corrupt_the_kernel(monkeypatch, corrupted_entries(5))
    monkeypatch.setattr(GramMatrix, "failures", lambda self: [])
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


def test_verify_perfect_builds_no_gram_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_perfect built a GramMatrix")

    monkeypatch.setattr(pairing, "GramMatrix", refuse)
    for n in range(1, 7):
        for d in (2, 3):
            assert verify_perfect(n, d).ok


@pytest.mark.parametrize("n", range(1, 6))
def test_gram_matrix_entries_are_rows_of_python_ints(n):
    for k in range(n):
        for d in (2, 3):
            gm = gram_matrix(n, k, d)
            assert type(gm.entries) is tuple and all(type(row) is tuple for row in gm.entries)
            assert all(type(v) is int for row in gm.entries for v in row)
            assert list(map(list, gm.entries)) == pair_matrix(gm.graphs, gm.forests, d).tolist()


def test_first_degree_bases_count():
    graphs, forests = first_degree_bases(5)
    assert len(graphs) == len(forests) == 10


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


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_matrix_equals_pair_basis_on_every_gram_block(n):
    for k in range(n):
        for d in (2, 3):
            gm = gram_matrix(n, k, d)
            assert gm.entries == per_entry(gm.graphs, gm.forests, d)


def test_pair_matrix_equals_pair_basis_on_the_n7_blocks_up_to_degree_3():
    for k in range(4):
        gm = gram_matrix(7, k, 2)
        assert gm.entries == per_entry(gm.graphs, gm.forests, 2)


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
