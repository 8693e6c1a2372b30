import itertools
import random

import pytest

from confpair.errors import ParseError, ValidationError
from confpair.otrees import (LEAF, OTree, contract, contract_all, corolla,
                             graft_tree, leaf_nadir, may_tree, parse_otree, render_otree)

from conftest import reduced_otree_nodes


def test_corolla():
    g3 = corolla(3)
    assert g3.n_leaves == 3
    assert g3.is_corolla
    assert g3.internal_vertices == ((),)
    assert render_otree(g3) == "(*,*,*)"


def test_parse_render_roundtrip():
    for text in ["(*,*)", "((*,*),*,*)", "(*,(*),*)", "((*,*,*),(*,*))", "()"]:
        t = parse_otree(text)
        assert render_otree(t) == text


@pytest.mark.parametrize("text", ["*", "(*,", "(,*)", "((*)", ""])
def test_parse_errors(text):
    with pytest.raises((ParseError, ValidationError)):
        parse_otree(text)


def test_zero_corolla_admitted():
    t = parse_otree("()")
    assert t.n_leaves == 0
    assert t.arity(()) == 0


def test_contract_single_insertion():
    # root arity 2, child of arity 2 over input 1: contraction is the corolla
    # with the child's leaves labeled 1,2 and the sibling relabeled 3
    t = graft_tree(2, 1, 2)
    c = contract(t, (0,))
    assert c == corolla(3)
    # leaf numbering before contraction matches the contracted labels
    assert t.leaf_numbering == {(0, 0): 1, (0, 1): 2, (1,): 3}


def test_contract_redundant_edge():
    t = parse_otree("((*),*)")  # arity-1 child over input 1
    c = contract(t, (0,))
    assert c == corolla(2)


def test_contract_errors():
    t = graft_tree(2, 1, 2)
    with pytest.raises(ValidationError):
        contract(t, ())
    with pytest.raises(ValidationError):
        contract(t, (1,))  # leaf edge


def test_may_tree_contraction_confluence():
    # root arity 2 with children of arities 2 and 3: both orders reach the
    # same corolla on 5 leaves (the second child sits at input 3 after the
    # first contraction splices two leaves in)
    t = may_tree(2, (2, 3))
    a = contract(contract(t, (0,)), (2,))
    b = contract(contract(t, (1,)), (0,))
    assert a == b == corolla(5)


def test_contract_all_and_numbering_agree():
    t = parse_otree("((*,(*,*)),*,(*,*))")
    assert contract_all(t) == corolla(t.n_leaves)
    # all maximal contraction sequences end at the same corolla
    paths = [p for p in t.internal_vertices if p]
    for order in itertools.permutations(range(len(paths))):
        current = t
        while True:
            cands = [p for p in current.internal_vertices if p]
            if not cands:
                break
            current = contract(current, cands[order[0] % len(cands)])
        assert current == corolla(t.n_leaves)


def test_leaf_nadir_branches():
    tau = graft_tree(4, 3, 2)  # leaves 1,2 at root; 3,4 under the child; 5 at root
    v, bi, bj = leaf_nadir(tau, 3, 4)
    assert v == (2,) and (bi, bj) == (1, 2)
    v, bi, bj = leaf_nadir(tau, 5, 4)
    assert v == () and (bi, bj) == (4, 3)
    v, bi, bj = leaf_nadir(tau, 1, 3)
    assert v == () and (bi, bj) == (1, 3)


def test_leaf_paths_invert_leaf_numbering():
    tau = graft_tree(4, 3, 2)
    assert tau.leaf_paths == {lab: p for p, lab in tau.leaf_numbering.items()}
    assert tau.leaf_paths[4] == (2, 1)


def test_leaf_nadir_unknown_label():
    with pytest.raises(ValidationError, match="no leaf labeled 6"):
        leaf_nadir(graft_tree(4, 3, 2), 1, 6)


def test_bare_leaf_root_rejected():
    with pytest.raises(ValidationError):
        OTree(LEAF)


def test_bad_node_rejected():
    with pytest.raises(ValidationError, match="bad o-tree node 5"):
        OTree((LEAF, (LEAF, 5)))


def _recursive_walk(node):
    """(vertex paths, leaf paths), depth-first, by plain recursion."""
    vertices, leaves = [], []

    def walk(node, path):
        if node == LEAF:
            leaves.append(path)
            return
        vertices.append(path)
        for pos, child in enumerate(node):
            walk(child, path + (pos,))
    walk(node, ())
    return vertices, leaves


def _random_otree_node(rng, depth):
    """Arities 0..3, so arity-0 and arity-1 vertices occur."""
    if depth == 0 or rng.random() < 0.35:
        return LEAF
    return tuple(_random_otree_node(rng, depth - 1) for _ in range(rng.randrange(4)))


def test_shape_matches_a_recursive_walk():
    trees = [OTree(node) for m in range(2, 6) for node in reduced_otree_nodes(m)]
    rng = random.Random(2006)
    nodes = (_random_otree_node(rng, 5) for _ in range(400))
    randoms = [OTree(node) for node in nodes if node != LEAF]
    arities = {t.arity(v) for t in randoms for v in t.internal_vertices}
    assert {0, 1} <= arities
    for t in trees + randoms:
        vertices, leaves = _recursive_walk(t.node)
        assert t.n_leaves == len(leaves)
        assert t.internal_vertices == tuple(vertices)
        assert list(t.leaf_paths.items()) == list(enumerate(leaves, 1))
        assert list(t.leaf_numbering.items()) == [(p, lab) for lab, p in enumerate(leaves, 1)]
