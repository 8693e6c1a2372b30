import itertools

import pytest

from confpair.errors import ParseError, ValidationError
from confpair.graphs import (Graph, enumerate_long_graphs, graph_of_ordered_partition,
                             graph_to_json, long_chain_order, ordered_partition_of_graph,
                             parse_edges, parse_graph, render_graph)
from confpair.trees import enumerate_tall_forests, ordered_partition_of_forest

from conftest import basis_count_oracle


def test_parse_graph():
    g = parse_graph("n=3; 1->2, 2->3")
    assert g.n == 3
    assert g.edges == ((1, 2), (2, 3))


def test_parse_empty_graph():
    assert parse_graph("n=4").edges == ()


@pytest.mark.parametrize("text", ["1->2", "n=3; 1->", "n=3; 1-2", "n=; 1->2"])
def test_parse_graph_errors(text):
    with pytest.raises(ParseError):
        parse_graph(text)


@pytest.mark.parametrize("text,pos", [
    ("n=3; 1-2", 4),
    ("n=3; 1->2, 1-2", 10),
    ("n=3; 1->2, 2->1, 2", 16),  # the chunk " 2" also occurs at 10
    ("n=4; 1->2,1->2,1->2,,", 20),  # the empty chunk "" occurs at 0
])
def test_parse_graph_error_position(text, pos):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert info.value.pos == pos


def test_graph_validation():
    with pytest.raises(ValidationError):
        Graph(3, ((1, 4),))
    with pytest.raises(ValidationError):
        Graph(3, ((2, 2),))


@pytest.mark.parametrize("edges", [(1,), ((1, 2.0),), ((True, 2),), ([1, 2],), ((1, 2, 3),)],
                         ids=repr)
def test_graph_refuses_an_edge_that_is_not_a_pair_of_ints(edges):
    with pytest.raises(ValidationError, match="is not a pair of ints"):
        Graph(3, edges)


def test_repeated_edges_allowed_at_this_level():
    g = Graph(3, ((1, 2), (1, 2)))
    assert g.k == 2


def test_render_roundtrip():
    for text, edges in [("n=3; 1->2, 2->3", [[1, 2], [2, 3]]),
                        ("n=5; 3->1, 1->2", [[3, 1], [1, 2]]), ("n=2", [])]:
        g = parse_graph(text)
        assert parse_graph(render_graph(g)) == g
        assert graph_to_json(g) == {"kind": "graph", "n": g.n, "edges": edges}


def test_long_examples():
    assert [render_graph(g) for g in enumerate_long_graphs(2, 1)] == ["n=2; 1->2"]
    got1 = {render_graph(g) for g in enumerate_long_graphs(3, 1)}
    assert got1 == {"n=3; 1->2", "n=3; 1->3", "n=3; 2->3"}
    got2 = {render_graph(g) for g in enumerate_long_graphs(3, 2)}
    assert got2 == {"n=3; 1->2, 2->3", "n=3; 1->3, 3->2"}


def _is_long_oracle(g: Graph) -> bool:
    """Each component a chain from its minimum, edges oriented away and
    listed consecutively, chains in block order; stated straight from the
    basis description."""
    comps = {}
    for v in g.components:
        comps[min(v)] = set(v)
    expected_chunks = []
    succ = dict(g.edges)
    if len(succ) != len(g.edges):
        return False
    indeg = {}
    for i, j in g.edges:
        indeg[j] = indeg.get(j, 0) + 1
        if indeg[j] > 1:
            return False
    for start in sorted(comps):
        members = comps[start]
        if len(members) == 1:
            continue
        chain = [start]
        while chain[-1] in succ:
            nxt = succ[chain[-1]]
            if nxt in chain:
                return False
            chain.append(nxt)
        if set(chain) != members:
            return False
        expected_chunks.extend((chain[a], chain[a + 1]) for a in range(len(chain) - 1))
    return tuple(expected_chunks) == g.edges


@pytest.mark.parametrize("n", [2, 3, 4])
def test_long_enumeration_matches_brute_force(n):
    directed = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for k in range(n):
        brute = set()
        for edges in itertools.product(directed, repeat=k):
            g = Graph(n, edges)
            if _is_long_oracle(g):
                brute.add(g)
        assert set(enumerate_long_graphs(n, k)) == brute
        assert len(brute) == basis_count_oracle(n, k)


def test_long_chain_order_matches_the_oracle_on_every_small_word():
    words, long = 0, 0
    for n in range(1, 5):
        directed = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for k in range(5):
            for edges in itertools.product(directed, repeat=k):
                g = Graph(n, edges)
                blocks = long_chain_order(g)
                assert (blocks is not None) == _is_long_oracle(g), g
                words += 1
                if blocks is not None:
                    long += 1
                    assert blocks == ordered_partition_of_graph(g).blocks
                    assert sorted(map(sorted, blocks)) == sorted(map(list, g.components))
    assert (words, long) == (24208, 33)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_partition_bijection_with_tall_forests(n):
    for k in range(n):
        forests = enumerate_tall_forests(n, k)
        graphs = enumerate_long_graphs(n, k)
        assert len(forests) == len(graphs)
        for f, g in zip(forests, graphs):
            assert ordered_partition_of_forest(f) == ordered_partition_of_graph(g)


def test_ordered_partition_examples():
    assert ordered_partition_of_graph(parse_graph("n=3; 1->3, 3->2")).blocks == ((1, 3, 2),)
    g = graph_of_ordered_partition(ordered_partition_of_graph(parse_graph("n=3; 1->2, 2->3")))
    assert render_graph(g) == "n=3; 1->2, 2->3"


def test_not_long_rejected():
    assert long_chain_order(parse_graph("n=3; 2->1")) is None  # oriented toward min
    assert long_chain_order(parse_graph("n=3; 2->3, 1->2")) is None  # wrong edge order
    assert long_chain_order(parse_graph("n=2; 1->2, 2->1")) is None
    with pytest.raises(ValidationError):
        ordered_partition_of_graph(parse_graph("n=3; 2->1"))


def test_parse_edges_helper():
    assert parse_edges("1->2, 2->3", 4).n == 4
    assert parse_edges("", 3).edges == ()


@pytest.mark.parametrize("text,pos", [("1->x", 0), ("1->2, 2-3", 5), ("1->2,,", 5)])
def test_parse_edges_error_position(text, pos):
    with pytest.raises(ParseError) as info:
        parse_edges(text, 3)
    assert info.value.pos == pos
    assert info.value.text == text


def test_parse_graph_checks_a_given_n():
    assert parse_graph("n=4; 2->1", n=4) == parse_graph("n=4; 2->1")
    with pytest.raises(ValidationError):
        parse_graph("n=4; 2->1", n=5)
