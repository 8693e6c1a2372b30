import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from confpair.brackets import _block
from confpair.errors import ValidationError
from confpair.graphs import (Graph, enumerate_long_graphs, graph_of_ordered_partition,
                             ordered_partition_of_graph, parse_graph, render_graph)
from confpair.lincombo import LinCombo
from confpair.normalize import (_tall_chains, anti_sign, eps, long_support, normalize_pois,
                                normalize_siop, tall_support)
from confpair.pairing import pair, pair_basis
from confpair.trees import (Forest, OrderedPartition, Tree, enumerate_tall_forests,
                            forest_of_ordered_partition, parse_forest, render_forest)

from conftest import (all_forests, all_tree_nodes, leaf_depths, random_forest,
                      random_graph_edges, random_tree_node, set_partitions)
from oracles import PlanarForest, long_terms_by_partition, normalize_forest, rewrite_graph


def as_dict(combo, render):
    return {render(key): c for key, c in combo}


def test_tall_fixed_point():
    f = parse_forest("[[1,2],3] ; [4,5]")
    combo = normalize_pois(LinCombo.single(f, 7), 2)
    assert combo == LinCombo.single(f, 7)


@pytest.mark.parametrize("d,expected", [(2, 1), (3, -1)])
def test_antisymmetry_of_smallest_tree(d, expected):
    out = normalize_pois(parse_forest("[2,1]"), d)
    assert as_dict(out, render_forest) == {"[1,2]": expected}


@pytest.mark.parametrize("d", [2, 3])
def test_jacobi_rewrite_example(d):
    # [[2,3],1] -> -[[1,2],3] - (-1)^d [[1,3],2], confirmed by the pairing
    out = normalize_pois(parse_forest("[[2,3],1]"), d)
    sign = 1 if d % 2 == 0 else -1
    assert as_dict(out, render_forest) == {"[[1,2],3]": -1, "[[1,3],2]": -sign}
    for g in enumerate_long_graphs(3, 2):
        assert pair(g, out, d) == pair(g, parse_forest("[[2,3],1]"), d)


def test_mixed_n_rejected():
    combo = LinCombo([(parse_forest("[1,2]"), 1), (parse_forest("[1,2] ; 3"), 1)])
    with pytest.raises(ValidationError):
        normalize_pois(combo, 2)
    bad = LinCombo([(parse_graph("n=2; 1->2"), 1), (parse_graph("n=3; 1->2"), 1)])
    with pytest.raises(ValidationError):
        normalize_siop(bad, 2)


def test_long_fixed_point():
    g = parse_graph("n=4; 1->3, 3->2")
    assert normalize_siop(LinCombo.single(g, -4), 3) == LinCombo.single(g, -4)


@pytest.mark.parametrize("d", [2, 3])
def test_edge_swap_sign(d):
    # swapping two edges costs (-1)^(d-1); the pairing oracle fixes the sign
    out = normalize_siop(parse_graph("n=3; 2->3, 1->2"), d)
    expected = eps(1, d)
    assert as_dict(out, render_graph) == {"n=3; 1->2, 2->3": expected}
    for f in enumerate_tall_forests(3, 2):
        assert pair(out, f, d) == pair(parse_graph("n=3; 2->3, 1->2"), f, d)


@pytest.mark.parametrize("d", [2, 3])
def test_arnold_rewrite_example(d):
    out = normalize_siop(parse_graph("n=3; 3->1, 1->2"), d)
    sign = 1 if d % 2 == 0 else -1
    assert as_dict(out, render_graph) == {
        "n=3; 1->2, 2->3": -1, "n=3; 1->3, 3->2": sign}


@pytest.mark.parametrize("d", [2, 3])
def test_arnold_sum_normalizes_to_zero(d):
    combo = LinCombo([
        (parse_graph("n=3; 1->2, 2->3"), 1),
        (parse_graph("n=3; 2->3, 3->1"), 1),
        (parse_graph("n=3; 3->1, 1->2"), 1),
    ])
    assert normalize_siop(combo, d) == LinCombo.zero()


def test_double_edge_killed():
    assert normalize_siop(Graph(2, ((1, 2), (1, 2))), 2) == LinCombo.zero()
    assert normalize_siop(Graph(3, ((1, 2), (2, 1))), 3) == LinCombo.zero()


def test_cycle_killed():
    g = Graph(3, ((1, 2), (2, 3), (3, 1)))
    for d in (2, 3):
        assert normalize_siop(g, d) == LinCombo.zero()
    g4 = Graph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    assert normalize_siop(g4, 2) == LinCombo.zero()


def test_cyclic_graph_pairs_to_zero_raw():
    # a cyclic graph is already in the kernel of the raw pairing
    g = Graph(4, ((1, 2), (2, 3), (3, 1)))
    for d in (2, 3):
        for f in enumerate_tall_forests(4, 3):
            assert pair(g, f, d) == 0


@pytest.mark.parametrize("d", [2, 3])
def test_branch_elimination_matches_pairing(d):
    # star at vertex 1: branch rewriting must preserve all pairings
    g = parse_graph("n=4; 1->2, 1->3, 1->4")
    out = normalize_siop(g, d)
    assert all(key.is_long for key, _ in out)
    for f in enumerate_tall_forests(4, 3):
        assert pair(out, f, d) == pair(g, f, d)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_normalize_pois_soundness_random(n, d):
    rng = random.Random(1000 * n + d)
    duals = {k: enumerate_long_graphs(n, k) for k in range(n)}
    for _ in range(60):
        combo = LinCombo([
            (random_forest(rng, n), rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))
        ])
        out = normalize_pois(combo, d)
        assert all(key.is_tall for key, _ in out)
        assert normalize_pois(out, d) == out
        for k, graphs in duals.items():
            for g in graphs:
                assert pair(g, out, d) == pair(g, combo, d)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_normalize_siop_soundness_random(n, d):
    rng = random.Random(2000 * n + d)
    duals = {k: enumerate_tall_forests(n, k) for k in range(n)}
    for _ in range(60):
        combo = LinCombo([
            (Graph(n, random_graph_edges(rng, n, rng.randint(0, n - 1))), rng.randint(-5, 5))
            for _ in range(rng.randint(1, 3))
        ])
        out = normalize_siop(combo, d)
        assert all(key.is_long for key, _ in out)
        assert normalize_siop(out, d) == out
        for k, forests in duals.items():
            for f in forests:
                assert pair(out, f, d) == pair(combo, f, d)


def test_normalize_dimension_matches_basis_counts():
    # normalizing the span of all degree-k forests stays within the tall basis
    for d in (2, 3):
        out = normalize_pois(parse_forest("[1,[2,[3,4]]]"), d)
        assert {key.size for key, _ in out} == {3}
        assert all(key.is_tall for key, _ in out)


def test_anti_sign_symmetry():
    for d in (2, 3):
        for a in range(3):
            for b in range(3):
                assert anti_sign(a, b, d) == anti_sign(b, a, d)
                assert anti_sign(a, b, d) in (-1, 1)


def test_normalize_graph_empty():
    g = Graph(3, ())
    assert normalize_siop(g, 2) == LinCombo.single(g)


# ---------------------------------------------------------------------------
# normalize_pois against the rewriting engine it replaced

def rewriting_reference(combo, d):
    out = LinCombo.zero()
    for f, c in combo:
        out = out + c * normalize_forest(f, d)
    return out


def right_comb(n):
    node = n
    for lab in range(n - 1, 0, -1):
        node = (lab, node)
    return Forest((Tree(node),), n)


@st.composite
def pois_cases(draw):
    """(combo, swap pair, d): a random combo of 1-4 forests plus one forest
    minus its anti-symmetry-signed root swap, and that pair alone."""
    n = draw(st.integers(min_value=2, max_value=7))
    d = draw(st.sampled_from((2, 3)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    terms = [(random_forest(rng, n), draw(st.integers(min_value=-5, max_value=5)))
             for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    f = random_forest(rng, n)
    while not any(t.size for t in f.trees):
        f = random_forest(rng, n)
    idx = next(i for i, t in enumerate(f.trees) if t.size)
    left, right = f.trees[idx].node
    swapped = Forest(f.trees[:idx] + (Tree((right, left)),) + f.trees[idx + 1:], n)
    # [L, R] = anti_sign * [R, L]
    swap = LinCombo([(f, 1), (swapped, -anti_sign(Tree(left).size, Tree(right).size, d))])
    c = draw(st.integers(min_value=1, max_value=3))
    return LinCombo(terms + [(key, c * v) for key, v in swap]), swap, d


@settings(max_examples=80, deadline=None)
@given(pois_cases())
def test_normalize_pois_matches_rewriting(case):
    combo, swap, d = case
    out = normalize_pois(combo, d)
    assert out == rewriting_reference(combo, d)
    assert all(key.is_tall for key, _ in out)
    assert normalize_pois(swap, d) == LinCombo.zero()
    assert rewriting_reference(swap, d) == LinCombo.zero()


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("d", [2, 3])
def test_right_comb_matches_rewriting(n, d):
    f = right_comb(n)
    assert normalize_pois(f, d) == normalize_forest(f, d)


@pytest.mark.parametrize("d", [2, 3])
def test_planar_forest_matches_rewriting(d):
    # trees out of min-label order, tall or not: the commutativity sign is eps(parity, d)
    for nodes in [((4, 3), (2, 1)), ((3, 4), (1, 2)), (3, (1, 2))]:
        trees = tuple(map(Tree, nodes))
        n = sum(len(t.leaf_seq) for t in trees)
        f = PlanarForest(trees, n)
        out = normalize_pois(f, d)
        assert out == normalize_forest(f, d), nodes
        parity = trees[0].size * trees[1].size
        assert out == eps(parity, d) * normalize_pois(Forest(trees[::-1], n), d), nodes


@pytest.mark.parametrize("n", range(2, 13))
def test_right_comb_support_is_output_sized(n):
    # [1,[2,...,[n-1,n]]]: every vertex but the root may flip
    for d in (2, 3):
        out = normalize_pois(right_comb(n), d)
        assert len(out) == 2 ** (n - 2)
        assert all(key.is_tall and key.size == n - 1 for key, _ in out)


def test_trees_and_leibniz_blocks_share_one_record():
    # sorting, the tall chains and tall_support read node, min_label, size, depth
    nodes = 0
    for n in range(1, 7):
        for node in all_tree_nodes(range(1, n + 1)):
            t, block = Tree(node), _block(node, int)
            assert block.node == t.node, node
            assert (block.min_label, block.size, block.depth) == (t.min_label, t.size, t.depth)
            assert t.depth == dict(leaf_depths(node))[t.min_label], node
            nodes += 1
    assert nodes == 1 + 2 + 12 + 120 + 1680 + 30240


def test_support_size_counts_the_listed_chains():
    rng = random.Random(11)
    forests = [f for n in range(1, 6) for f in all_forests(n)]
    forests += [random_forest(rng, rng.randint(6, 10)) for _ in range(300)]
    for f in forests:
        for d in (2, 3):
            listed = 1
            if not f.is_tall:
                for t in f.trees:
                    listed *= len(_tall_chains(t, d))
            assert tall_support([(1, f.trees)]) == listed, (f, d)


def dual_pairing(blocks, f, d):
    """<G_P, f> for the ordered partition P with these blocks, by the pairing oracle."""
    return pair_basis(graph_of_ordered_partition(OrderedPartition(blocks), f.n), f, d).value


@pytest.mark.parametrize("d", [2, 3])
def test_tall_chain_signs_match_the_pairing_on_every_small_tree(d):
    chains = 0
    for n in range(1, 6):
        for node in all_tree_nodes(range(1, n + 1)):
            t = Tree(node)
            f = Forest((t,), n)
            for order, sign in _tall_chains(t, d):
                assert sign == dual_pairing((order,), f, d), (node, order)
                chains += 1
    assert chains == 5635


@pytest.mark.parametrize("d", [2, 3])
def test_normalize_pois_coefficients_match_the_pairing_on_planar_forests(d):
    # trees of any shape in any order, so the sort sign eps(parity, d) is exercised
    rng = random.Random(40 + d)
    for _ in range(300):
        n = rng.randint(1, 8)
        labels = rng.sample(range(1, n + 1), n)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
        bounds = [0, *cuts, n]
        f = PlanarForest(tuple(Tree(random_tree_node(rng, labels[a:b]))
                               for a, b in zip(bounds, bounds[1:])), n)
        out = normalize_pois(f, d)
        assert len(out) == tall_support([(1, f.trees)])
        for key, c in out:
            assert c == dual_pairing(tuple(t.leaf_seq for t in key.trees), f, d), (f, key)


# ---------------------------------------------------------------------------
# normalize_siop on one graph against the rewriting engine it replaced

def small_edge_words():
    """Every edge word with n <= 4 vertices and k <= 4 edges."""
    for n in range(1, 5):
        directed = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for k in range(5):
            for edges in itertools.product(directed, repeat=k):
                yield Graph(n, edges)


def test_normalize_graph_matches_rewriting_on_every_small_word():
    words = 0
    for g in small_edge_words():
        for d in (2, 3):
            out = normalize_siop(g, d)
            assert out == rewrite_graph(g, d), (g, d)
        assert long_support(g) == len(out), g
        words += 1
    assert words == 24208


def random_forest_graph(rng, n):
    """A forest graph on 1..n: each vertex but the first of a shuffled order
    joins an earlier one (4 times in 5) with a random arrow, or starts a new
    component."""
    order = rng.sample(range(1, n + 1), n)
    edges = []
    for idx in range(1, n):
        if rng.random() < 0.8:
            parent = order[rng.randrange(idx)]
            edges.append(rng.choice(((parent, order[idx]), (order[idx], parent))))
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


@st.composite
def graph_words(draw):
    """A forest graph on n <= 8 vertices plus up to two random edges, which
    may close a cycle or repeat a vertex pair; the edges shuffled."""
    n = draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    edges = list(random_forest_graph(rng, n).edges)
    if n > 1:
        edges += random_graph_edges(rng, n, draw(st.integers(min_value=0, max_value=2)))
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


@settings(max_examples=150, deadline=None)
@given(graph_words(), st.sampled_from((2, 3)))
def test_normalize_graph_matches_rewriting(g, d):
    out = normalize_siop(g, d)
    assert out == rewrite_graph(g, d)
    assert all(key.is_long for key, _ in out)
    assert long_support(g) == len(out)


@pytest.mark.parametrize("d", [2, 3])
def test_long_coefficients_are_dual_pairings(d):
    rng = random.Random(80 + d)
    for _ in range(100):
        n = rng.randint(2, 7)
        g = Graph(n, random_graph_edges(rng, n, rng.randint(0, n - 1)))
        for h, c in normalize_siop(g, d):
            dual = forest_of_ordered_partition(ordered_partition_of_graph(h), n)
            assert pair_basis(g, dual, d).value == c, (g, h)


@pytest.mark.parametrize("d", [2, 3])
def test_reversed_long_chain_normalizes_without_recursion(d):
    # 1000 <- 999 <- ... <- 1, listed from the far end: every edge reversed
    g = Graph(1000, tuple((i + 1, i) for i in range(999, 0, -1)))
    chain = Graph(1000, tuple((i, i + 1) for i in range(1, 1000)))
    # 999 reversals, and the edge order reversed: 999 * 998 / 2 inversions
    sign = (-1) ** (999 * d) * eps(999 * 998 // 2, d)
    assert normalize_siop(g, d) == LinCombo.single(chain, sign)


def test_long_support_size_counts_the_listed_chains():
    rng = random.Random(12)
    graphs = []
    for n in range(1, 6):
        # every forest on n vertices: per block, each set of |b| - 1 pairs
        # in it that connects it; then random arrows and a random order
        for blocks in set_partitions(list(range(1, n + 1))):
            per_block = []
            for b in blocks:
                pairs = list(itertools.combinations(b, 2))
                per_block.append([t for t in itertools.combinations(pairs, len(b) - 1)
                                  if len(Graph(n, t).components) == n - len(b) + 1])
            for trees in itertools.product(*per_block):
                edges = [rng.choice((e, e[::-1])) for t in trees for e in t]
                rng.shuffle(edges)
                graphs.append(Graph(n, tuple(edges)))
    assert len(graphs) == 1 + 2 + 7 + 38 + 291  # forests on n labeled vertices
    graphs += [random_forest_graph(rng, rng.randint(6, 10)) for _ in range(200)]
    for g in graphs:
        assert long_support(g) == len(normalize_siop(g, 2)), g


# ---------------------------------------------------------------------------
# normalize_siop on one graph against the partition route its walk replaced

def seeded_forest_graphs():
    """200 forest graphs on n = 6..9 vertices with 1 to 4 components."""
    rng = random.Random(23)
    graphs = []
    while len(graphs) < 200:
        g = random_forest_graph(rng, rng.randint(6, 9))
        if len(g.components) <= 4:
            graphs.append(g)
    return graphs


def test_normalize_graph_matches_the_partition_route_on_every_small_word():
    for g in small_edge_words():
        for d in (2, 3, 4, 5):
            assert list(normalize_siop(g, d)) == list(long_terms_by_partition(g, d)), (g, d)


def test_normalize_graph_matches_the_partition_route_on_seeded_forests():
    graphs = seeded_forest_graphs()
    assert {len(g.components) for g in graphs} == {1, 2, 3, 4}
    assert {g.n for g in graphs} == {6, 7, 8, 9}
    for g in graphs:
        for d in (2, 3):
            assert list(normalize_siop(g, d)) == list(long_terms_by_partition(g, d)), (g, d)


@pytest.mark.parametrize("d", [2, 3])
def test_the_empty_graph_is_its_own_long_term(d):
    empty = Graph(0, ())
    assert list(normalize_siop(empty, d)) == list(long_terms_by_partition(empty, d))
    assert normalize_siop(empty, d) == LinCombo.single(empty)


@pytest.mark.parametrize("d, sign", [(2, -1), (3, 1)])
def test_heads_in_different_components_invert_by_edge_order(d, sign):
    # 3->4 before 1->2: the head of the later component comes first, one inversion
    out = normalize_siop(parse_graph("n=4; 3->4, 1->2"), d)
    assert out == LinCombo.single(parse_graph("n=4; 1->2, 3->4"), sign)


# the graphs of tests/test_cli.py's --kind siop inputs
CLI_SIOP_GRAPHS = ("n=3; 1->2, 2->3", "n=3; 2->3, 3->1", "n=3; 3->1, 1->2", "n=2; 1->2",
                   "n=2; 2->1", "n=4; 2->1", "n=3; 1->2, 2->1", "n=3; 3->1, 2->1")


def test_long_terms_equal_the_checked_graphs_with_their_edges():
    inputs = [parse_graph(text) for text in CLI_SIOP_GRAPHS] + seeded_forest_graphs()
    # the cli refuses the star at n = 9 by size, with 1->2 or 1->3 reversed or
    # neither; the three share their 8! long graphs
    inputs.append(parse_graph("n=9; 2->1, " + ", ".join(f"1->{j}" for j in range(3, 10))))
    outputs = 0
    for g in inputs:
        for h, _ in normalize_siop(g, 2):
            checked = Graph(h.n, h.edges)
            assert type(h) is Graph and h == checked and hash(h) == hash(checked), h
            assert repr(h) == repr(checked) and h.components == checked.components, h
            assert h.is_long, h
            outputs += 1
    assert outputs > 40320
