import itertools

import pytest
from hypothesis import given, settings, strategies as st

from confpair.errors import ParseError, ValidationError
from confpair.graphs import enumerate_long_graphs, graph_of_ordered_partition
from confpair.otrees import OTree
from confpair.trees import (Forest, OrderedPartition, Tree, enumerate_tall_forests,
                            forest, forest_of_ordered_partition, inversion_parity, nadir,
                            ordered_partition_of_forest, ordered_partitions,
                            parse_forest, parse_tree,
                            render_forest, single_tree_forest,
                            sort_trees_with_parity, tree_from_leaf_order,
                            vertices_before_leaf, forest_to_json)

from conftest import (all_forests, basis_count_oracle, is_tall_oracle,
                      ordered_partitions_oracle, reduced_otree_nodes)


def test_parse_smallest_tree():
    t = parse_tree("[1,2]")
    assert t.node == (1, 2)
    assert t.size == 1
    assert t.leaf_seq == (1, 2)


def test_parse_seven_leaf_forest():
    f = parse_forest("[[2,6],[[1,7],3]] ; [4,5]")
    assert f.n == 7
    assert len(f.trees) == 2
    assert f.trees[0].leaf_seq == (2, 6, 1, 7, 3)
    assert f.trees[1].leaf_seq == (4, 5)
    assert f.size == 5


@pytest.mark.parametrize("text", ["[1,2", "[1 2]", "[]", "1,2]", "[1,[2]", "x"])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_tree(text)


def test_duplicate_label_rejected():
    with pytest.raises(ValidationError):
        parse_tree("[1,[2,1]]")


@pytest.mark.parametrize("node", ["ab", 1.5, None, (1,), ((1, 2), "x"), [1, 2]], ids=repr)
def test_malformed_tree_nodes_are_refused(node):
    with pytest.raises(ValidationError, match="malformed tree node"):
        Tree(node)


@pytest.mark.parametrize("node", [0, (1, -2)])
def test_leaf_labels_below_one_are_refused(node):
    with pytest.raises(ValidationError, match="leaf labels must be positive ints"):
        Tree(node)


def test_forest_must_partition():
    with pytest.raises(ValidationError):
        parse_forest("[1,2] ; [4,5]", n=5)


def test_forest_canonical_order_enforced():
    t1, t2 = parse_tree("[3,4]"), parse_tree("[1,2]")
    with pytest.raises(ValidationError):
        Forest((t1, t2), 4)
    assert forest([t1, t2]).trees[0].leaf_seq == (1, 2)


def test_render_roundtrip_examples():
    for text in ["[1,2]", "[[2,6],[[1,7],3]] ; [4,5]", "1 ; [2,3]"]:
        f = parse_forest(text)
        assert parse_forest(render_forest(f)) == f


def test_bracketed_singleton_accepted():
    assert parse_forest("[1,2] ; [3]") == parse_forest("[1,2] ; 3")


def test_parse_canonicalizes_tree_order():
    # render(parse(.)) sorts trees by minimal label
    f = parse_forest("[3,4] ; [1,2]")
    assert render_forest(f) == "[1,2] ; [3,4]"


def test_enumeration_range_checks():
    with pytest.raises(ValidationError):
        enumerate_tall_forests(3, 5)
    with pytest.raises(ValidationError):
        enumerate_tall_forests(3, -1)


def test_in_order_vertex_sequence():
    # [[2,6],[[1,7],3]]: vertices in order are [2,6], root, [1,7], [[1,7],3]
    t = parse_tree("[[2,6],[[1,7],3]]")
    assert t.vertex_paths == ((0,), (), (1, 0), (1,))


@pytest.mark.parametrize("text,pair,expected", [
    ("[1,2]", (1, 2), (0, ())),
    ("[[2,1],3]", (1, 2), (0, (0,))),
    ("[[2,1],3]", (1, 3), (0, ())),
])
def test_nadir_examples(text, pair, expected):
    f = parse_forest(text)
    assert nadir(f, *pair) == expected


def test_nadir_cross_component_is_none():
    assert nadir(parse_forest("[1,2] ; [3]"), 1, 3) is None


def test_nadir_symmetry_and_range():
    f = parse_forest("[[2,6],[[1,7],3]] ; [4,5]")
    for i in range(1, 8):
        for j in range(1, 8):
            if i != j:
                assert nadir(f, i, j) == nadir(f, j, i)
    with pytest.raises(ValidationError):
        nadir(f, 1, 8)
    with pytest.raises(ValidationError):
        nadir(f, 2, 2)


def test_tall_enumeration_smallest():
    assert [render_forest(f) for f in enumerate_tall_forests(2, 1)] == ["[1,2]"]


def test_tall_enumeration_n3():
    got = {render_forest(f) for f in enumerate_tall_forests(3, 2)}
    assert got == {"[[1,2],3]", "[[1,3],2]"}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tall_enumeration_matches_brute_force(n):
    brute = {}
    for f in all_forests(n):
        if all(is_tall_oracle(t) for t in f.trees):
            brute.setdefault(f.size, set()).add(f)
    for k in range(n):
        assert set(enumerate_tall_forests(n, k)) == brute.get(k, set())
        assert len(enumerate_tall_forests(n, k)) == basis_count_oracle(n, k)


def test_n4_counts():
    assert [len(enumerate_tall_forests(4, k)) for k in range(4)] == [1, 6, 11, 6]


def test_ordered_partition_roundtrip():
    f = parse_forest("[[1,3],2] ; [4,5]")
    p = ordered_partition_of_forest(f)
    assert p.blocks == ((1, 3, 2), (4, 5))
    assert forest_of_ordered_partition(p) == f


def test_ordered_partition_rejects_non_tall():
    with pytest.raises(ValidationError):
        ordered_partition_of_forest(parse_forest("[1,[2,3]]"))


def test_ordered_partition_validation():
    with pytest.raises(ValidationError):
        OrderedPartition(((2, 1),))
    with pytest.raises(ValidationError):
        OrderedPartition(((3, 4), (1, 2)))


@pytest.mark.parametrize("blocks", [((),), ((1,), ()), ((0,),), ((0, 1),), ((-2,), (1,))],
                         ids=repr)
def test_ordered_partition_refuses_an_empty_block_or_a_label_below_one(blocks):
    with pytest.raises(ValidationError, match="is empty or leads with a label below 1"):
        OrderedPartition(blocks)


def test_sort_parity_counts_vertex_blocks():
    a = tree_from_leaf_order((3, 4))     # one vertex
    b = tree_from_leaf_order((1, 2, 5))  # two vertices
    ordered, parity = sort_trees_with_parity((a, b))
    assert ordered[0].min_label == 1 and parity == 0  # 2*1 transpositions? no: a after b -> 1*2
    ordered2, parity2 = sort_trees_with_parity((b, a))
    assert ordered2 == ordered and parity2 == 0
    # moving a 1-vertex tree past another 1-vertex tree is odd
    c = tree_from_leaf_order((1, 2))
    _, parity3 = sort_trees_with_parity((a, c))
    assert parity3 == 1


def pairwise_inversion_parity(seq):
    """The definition, pair by pair: a tie is no inversion."""
    return sum(x > y for a, x in enumerate(seq) for y in seq[a + 1:]) % 2


def test_inversion_parity_matches_the_pairwise_count():
    for k in range(8):
        for seq in itertools.product("abcd", repeat=k):
            assert inversion_parity(seq) == pairwise_inversion_parity(seq), seq


def test_inversion_parity_of_a_long_reversal():
    """16,000 entries, where a pair-by-pair count would compare 128M pairs."""
    for k in (16_000, 16_001, 16_002, 16_003):
        assert inversion_parity(list(range(k, 0, -1))) == (k * (k - 1) // 2) % 2


def test_vertices_before_leaf():
    f = parse_forest("[[1,3],2] ; [4,5]")
    # in-order: 1, v, 3, w, 2 | 4, u, 5
    assert vertices_before_leaf(f, 1) == 0
    assert vertices_before_leaf(f, 3) == 1
    assert vertices_before_leaf(f, 2) == 2
    assert vertices_before_leaf(f, 4) == 2
    assert vertices_before_leaf(f, 5) == 3


def test_json_roundtrip():
    f = parse_forest("[[2,6],[[1,7],3]] ; [4,5]")
    assert forest_to_json(f) == {"kind": "forest", "n": 7, "trees": [
        {"left": {"left": {"leaf": 2}, "right": {"leaf": 6}},
         "right": {"left": {"left": {"leaf": 1}, "right": {"leaf": 7}}, "right": {"leaf": 3}}},
        {"left": {"leaf": 4}, "right": {"leaf": 5}}]}


def _node_json(node):
    if isinstance(node, int):
        return {"leaf": node}
    return {"left": _node_json(node[0]), "right": _node_json(node[1])}


@st.composite
def tree_nodes(draw, labels):
    if len(labels) == 1:
        return labels[0]
    cut = draw(st.integers(min_value=1, max_value=len(labels) - 1))
    perm = draw(st.permutations(labels))
    return (draw(tree_nodes(tuple(perm[:cut]))), draw(tree_nodes(tuple(perm[cut:]))))


@st.composite
def forests(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = list(range(1, n + 1))
    n_blocks = draw(st.integers(min_value=1, max_value=n))
    assignment = [draw(st.integers(min_value=0, max_value=n_blocks - 1)) for _ in labels]
    blocks = [[lab for lab, b in zip(labels, assignment) if b == blk] for blk in range(n_blocks)]
    blocks = [b for b in blocks if b]
    trees = tuple(Tree(draw(tree_nodes(tuple(b)))) for b in blocks)
    return forest(trees, n)


def _in_order_vertex_paths(node, path=()):
    if isinstance(node, int):
        return []
    return (_in_order_vertex_paths(node[0], path + (0,)) + [path]
            + _in_order_vertex_paths(node[1], path + (1,)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(
    lambda n: tree_nodes(tuple(range(1, n + 1)))))
def test_vertex_paths_are_the_in_order_walk(node):
    assert Tree(node).vertex_paths == tuple(_in_order_vertex_paths(node))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(lambda n: tree_nodes(tuple(range(1, n + 1)))),
       st.integers(min_value=2, max_value=5).flatmap(
           lambda m: st.sampled_from(reduced_otree_nodes(m))))
def test_trees_and_otrees_are_complete_when_built(node, onode):
    """The constructors store every value their walk reads off, so reading
    the derived values writes nothing to the instance."""
    for obj, names in [(Tree(node), ("leaf_seq", "labels", "min_label", "size", "is_tall")),
                       (OTree(onode), ("internal_vertices", "leaf_paths", "n_leaves",
                                       "leaf_numbering"))]:
        built = dict(vars(obj))
        for name in names:
            getattr(obj, name)
        assert vars(obj) == built


@settings(max_examples=60, deadline=None)
@given(forests())
def test_parse_render_roundtrip_property(f):
    assert parse_forest(render_forest(f), n=f.n) == f
    assert forest_to_json(f) == {"kind": "forest", "n": f.n,
                                 "trees": [_node_json(t.node) for t in f.trees]}


@settings(max_examples=60, deadline=None)
@given(forests(max_n=5))
def test_nadir_lies_on_both_root_paths(f):
    for i in f.leaf_info:
        for j in f.leaf_info:
            if i == j:
                continue
            v = nadir(f, i, j)
            ti, pi = f.leaf_info[i]
            tj, pj = f.leaf_info[j]
            if ti != tj:
                assert v is None
            else:
                assert v[0] == ti
                assert pi[:len(v[1])] == v[1]
                assert pj[:len(v[1])] == v[1]


def test_single_tree_forest_pads_singletons():
    f = single_tree_forest(Tree((2, 4)), 5)
    assert render_forest(f) == "1 ; [2,4] ; 3 ; 5"


@pytest.mark.parametrize("n", range(1, 8))
def test_ordered_partitions_follow_the_sorted_oracle(n):
    oracle = ordered_partitions_oracle(n)
    for k in range(n):
        want = [OrderedPartition(b) for b in oracle if n - len(b) == k]
        assert list(ordered_partitions(n, k)) == want
        assert enumerate_tall_forests(n, k) == [forest_of_ordered_partition(p, n) for p in want]
        assert enumerate_long_graphs(n, k) == [graph_of_ordered_partition(p, n) for p in want]


def test_ordered_partitions_run_past_the_recursion_limit():
    singletons = tuple((x,) for x in range(1, 1101))
    assert next(ordered_partitions(1100, 0)).blocks == singletons
    assert next(ordered_partitions(1100, 1)).blocks == singletons[:-2] + ((1099, 1100),)


@pytest.mark.parametrize("n, k", [(0, 0), (-1, 0), (3, -1), (3, 3)])
def test_ordered_partitions_refuse_bad_degrees(n, k):
    with pytest.raises(ValidationError):
        next(ordered_partitions(n, k))


def _vertices_before_oracle(f, label):
    """Walk the forest in in-order and count the vertices met before the leaf."""
    seq = []

    def walk(node):
        if isinstance(node, int):
            seq.append(node)
        else:
            walk(node[0])
            seq.append(None)
            walk(node[1])

    for t in f.trees:
        walk(t.node)
    return seq[:seq.index(label)].count(None)


@settings(max_examples=60, deadline=None)
@given(forests())
def test_vertices_before_leaf_matches_in_order_walk(f):
    for label in range(1, f.n + 1):
        assert vertices_before_leaf(f, label) == _vertices_before_oracle(f, label)
    with pytest.raises(ValidationError):
        vertices_before_leaf(f, f.n + 1)
