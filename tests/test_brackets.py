import itertools
import random

import pytest

from conftest import all_tree_nodes, set_partitions
from confpair.brackets import (DOT, _block, _bracket_monomials, _dot_factors, br, dot,
                               dot_list, forest_to_expr, map_vars, reduce_bracket, reduce_expr,
                               render_expr, var)
from confpair.errors import ValidationError
from confpair.lincombo import LinCombo
from confpair.trees import Forest, Tree, parse_forest, render_forest
from oracles import bracket_monomials, substitute_basis


def as_dict(combo):
    return {render_forest(f): c for f, c in combo}


def test_pure_bracket_word_is_its_forest():
    e = br(var(1), br(var(2), var(3)))
    for d in (2, 3):
        assert as_dict(reduce_expr(e, d)) == {"[1,[2,3]]": 1}


def test_forest_expression_roundtrip():
    f = parse_forest("[[2,6],[[1,7],3]] ; [4,5]")
    e = forest_to_expr(f)
    for d in (2, 3):
        assert reduce_expr(e, d) == LinCombo.single(f)


def test_four_term_expansion_even_d():
    e = br(var(1), br(var(2), dot(var(3), var(4))))
    assert as_dict(reduce_expr(e, 2)) == {
        "[1,[2,3]] ; 4": 1,
        "[1,4] ; [2,3]": 1,
        "[1,3] ; [2,4]": 1,
        "[1,[2,4]] ; 3": 1,
    }


def test_simple_leibniz_odd_d():
    # [x1, x2.x3] with d odd: both terms positive
    e = br(var(1), dot(var(2), var(3)))
    assert as_dict(reduce_expr(e, 3)) == {"[1,2] ; 3": 1, "[1,3] ; 2": 1}


def test_left_slot_leibniz():
    # [x1.x2, x3]: the bracket is a derivation in its first slot too; after
    # tall normalization both parities give [x1,x3].x2 + x1.[x2,x3]
    from confpair.normalize import normalize_pois
    e = br(dot(var(1), var(2)), var(3))
    for d in (2, 3):
        out = as_dict(normalize_pois(reduce_expr(e, d), d))
        assert out == {"[1,3] ; 2": 1, "1 ; [2,3]": 1}


def test_repeated_variable_rejected():
    with pytest.raises(ValidationError):
        reduce_expr(br(var(1), var(1)), 2)


def test_non_contiguous_variables_rejected():
    with pytest.raises(ValidationError):
        reduce_expr(br(var(1), var(3)), 2)


def test_reduce_bracket_accepts_combos():
    from confpair.normalize import normalize_pois
    e1 = br(var(1), var(2))
    e2 = br(var(2), var(1))
    combo = LinCombo([(e1, 1), (e2, 1)])
    # [x1,x2] + [x2,x1] = (1 + (-1)^d) [x1,x2] after normalization
    assert as_dict(normalize_pois(reduce_bracket(combo, 3), 3)) == {}
    assert as_dict(normalize_pois(reduce_bracket(combo, 2), 2)) == {"[1,2]": 2}
    # reduction itself keeps the raw trees
    assert as_dict(reduce_bracket(combo, 3)) == {"[1,2]": 1, "[2,1]": 1}


def test_render_expr():
    e = br(dot(var(1), var(2)), var(3))
    assert render_expr(e) == "[x1*x2,x3]"
    assert render_expr(dot_list([var(1), var(2), var(3)])) == "(x1*x2)*x3"


def test_degree_additivity_of_reduction():
    # bracket count is preserved term by term
    e = br(var(1), br(var(2), dot(var(3), var(4))))
    for d in (2, 3):
        for f, _ in reduce_expr(e, d):
            assert f.size == 2


def test_expressions_are_tree_nodes_with_a_product_tag():
    assert var(3) == 3
    assert br(var(1), var(2)) == (1, 2)
    assert dot(var(1), var(2)) == (DOT, 1, 2)
    f = parse_forest("[[2,6],[[1,7],3]] ; [4,5] ; 8")
    assert forest_to_expr(f) == dot_list([t.node for t in f.trees])
    assert render_expr(forest_to_expr(f)) == "([[x2,x6],[[x1,x7],x3]]*[x4,x5])*x8"


def test_map_vars_relabels_and_substitutes():
    e = br(var(1), dot(var(2), var(3)))
    assert map_vars(e, lambda v: v + 1) == br(var(2), dot(var(3), var(4)))
    inner = br(var(2), var(3))
    assert map_vars(br(var(1), var(2)), lambda v: inner if v == 2 else v) == (1, (2, 3))
    assert render_expr(map_vars(e, lambda v: dot(var(3), var(4)) if v == 3 else v)) == \
        "[x1,x2*(x3*x4)]"


MALFORMED = [(1,), "ab", (1, 2, 3), [1, 2], (DOT, 1), None]


@pytest.mark.parametrize("node", MALFORMED, ids=repr)
@pytest.mark.parametrize("reduce", [reduce_expr, reduce_bracket])
def test_malformed_expression_nodes_are_refused(reduce, node):
    for e in (node, br(var(1), node), dot(node, var(1))):
        with pytest.raises(ValidationError, match="malformed expression node"):
            reduce(e, 2)


def _random_node(labels, rng):
    """A random planar tree node on the given labels."""
    if len(labels) == 1:
        return labels[0]
    cut = rng.randrange(1, len(labels))
    return (_random_node(labels[:cut], rng), _random_node(labels[cut:], rng))


def _random_monomial(labels, factors, rng):
    """`factors` random tree nodes whose labels are `labels`, in order."""
    cuts = sorted(rng.sample(range(1, len(labels)), factors - 1))
    return tuple(_random_node(labels[a:b], rng)
                 for a, b in zip([0] + cuts, cuts + [len(labels)]))


def _monomials(n):
    """Every ordered product of tree nodes whose labels are 1..n."""
    for blocks in set_partitions(list(range(1, n + 1))):
        for order in itertools.permutations(blocks):
            yield from itertools.product(*(list(all_tree_nodes(b)) for b in order))


def _blocks(nodes):
    return tuple(_block(node, int) for node in nodes)


def _read(blocks):
    """The tree nodes of blocks, after checking that each block's min_label,
    size and depth are the ones of its node read afresh."""
    for b in blocks:
        fresh = _block(b.node, int)
        assert (b.min_label, b.size, b.depth) == (fresh.min_label, fresh.size, fresh.depth)
    return tuple(b.node for b in blocks)


def test_bracket_monomials_match_one_factor_at_a_time():
    """The step on blocks is the Leibniz recursion's list on tree nodes,
    order included: on seeded random monomials with p, q <= 4 factors, on
    every split of a product of tree nodes on <= 4 labels into U and W, and
    on the shapes composition uses, one sibling of up to 4 vertices against
    1-4 factors on either side."""
    rng = random.Random(14)
    pairs = []
    for _ in range(1500):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        labels = list(range(1, p + q + rng.randint(0, 4) + 1))
        rng.shuffle(labels)
        cut = rng.randint(p, len(labels) - q)
        pairs.append((_random_monomial(labels[:cut], p, rng),
                      _random_monomial(labels[cut:], q, rng)))
    for n in range(2, 5):
        for mono in _monomials(n):
            pairs += [(mono[:k], mono[k:]) for k in range(1, len(mono))]
    for _ in range(600):
        r, sib_size = rng.randint(1, 4), rng.randint(0, 4)
        labels = list(range(1, r + sib_size + rng.randint(1, 6) + 1))
        rng.shuffle(labels)
        sib = (_random_node(labels[:sib_size + 1], rng),)
        factors = _random_monomial(labels[sib_size + 1:], r, rng)
        pairs += [(factors, sib), (sib, factors)]
    for u, w in pairs:
        for d in (2, 3, 4, 5):
            got = _bracket_monomials(_blocks(u), _blocks(w), d)
            want = bracket_monomials(u, w, d)
            assert [(c, _read(blocks)) for c, blocks in got] == want, (u, w, d)


def test_long_products_reduce_without_recursion():
    # the product spine of a forest's expression nests once per tree
    for n in (900, 1200):
        f = Forest(tuple(Tree(v) for v in range(1, n + 1)), n)
        for d in (2, 3):
            assert reduce_expr(forest_to_expr(f), d) == LinCombo.single(f)


def test_long_products_render_and_map_without_recursion():
    # render_expr, map_vars and the substitution oracle walk the spine in a loop
    for n in (1200, 3000):
        f = Forest(tuple(Tree(v) for v in range(1, n + 1)), n)
        want = "x1"
        for v in range(2, n + 1):
            want = f"{want if v == 2 else f'({want})'}*x{v}"
        assert render_expr(forest_to_expr(f)) == want
        shifted = map_vars(forest_to_expr(f), lambda v: v + 1)
        assert _dot_factors(shifted) == list(range(2, n + 2))
        grafted = Forest((Tree((1, 2)), *(Tree(v) for v in range(3, n + 2))), n + 1)
        for d in (2, 3):
            assert substitute_basis(f, 1, parse_forest("[1,2]"), d) == LinCombo.single(grafted)


def test_an_empty_product_is_refused():
    with pytest.raises(ValidationError, match="an empty forest has no bracket expression"):
        dot_list([])
    with pytest.raises(ValidationError, match="an empty forest has no bracket expression"):
        forest_to_expr(Forest((), 0))
