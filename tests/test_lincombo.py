import pytest

from confpair.brackets import br, dot, reduce_bracket, var
from confpair.graphs import Graph, parse_graph
from confpair.lincombo import LinCombo
from confpair.normalize import normalize_pois, normalize_siop
from confpair.operad import check_duality, compose, compose_along
from confpair.otrees import parse_otree
from confpair.trees import parse_forest

from oracles import (antisymmetry_instance, arnold_instance, arrow_reversal_instance,
                     commutativity_instance, cooperad_combo, jacobi_instance, normalize_forest)


def test_add_sub_neg_against_dicts():
    x = LinCombo({"a": 2, "b": -1})
    y = LinCombo({"b": 3, "c": 5})
    assert (x + y).terms == {"a": 2, "b": 2, "c": 5}
    assert (x - y).terms == {"a": 2, "b": -4, "c": -5}
    assert (-x).terms == {"a": -2, "b": 1}
    assert x.terms == {"a": 2, "b": -1} and y.terms == {"b": 3, "c": 5}


def test_sum_that_cancels_is_zero():
    x = LinCombo({"a": 2, "b": -1})
    assert x + (-x) == LinCombo.zero()
    assert x - x == LinCombo.zero()
    assert not (x - x).terms
    assert LinCombo([("a", 1), ("b", 2), ("a", -1)]).terms == {"b": 2}


def test_zero_coefficient_is_never_stored():
    assert LinCombo([("a", 0)]).terms == {}
    assert LinCombo.single("a", 0).terms == {}
    assert (LinCombo.single("a", 1) + LinCombo.single("a", -1)).terms == {}
    assert (0 * LinCombo.single("a", 3)).terms == {}


def test_non_int_coefficient_raises():
    with pytest.raises(TypeError):
        LinCombo([("a", 1.5)])
    with pytest.raises(TypeError):
        LinCombo({"a": "1"})
    bad = LinCombo.single("a")
    bad.terms["a"] = 1.5  # mutated behind the constructor's back
    with pytest.raises(TypeError):
        LinCombo.single("b") + bad


def test_of_coerces_a_basis_element_and_passes_a_combo_through():
    f = parse_forest("[1,2]")
    assert LinCombo.of(f) == LinCombo.single(f)
    assert LinCombo.of(f).terms == {f: 1}
    combo = LinCombo([(f, 3)])
    assert LinCombo.of(combo) is combo


@pytest.fixture
def no_add(monkeypatch):
    """Make LinCombo.__add__ raise: a producer must sum with one LinCombo(terms)."""
    def refuse(self, other):
        raise AssertionError("LinCombo.__add__ called")
    monkeypatch.setattr(LinCombo, "__add__", refuse)


F, G = parse_forest("[[2,1],3]"), parse_forest("[1,2]")
TAU = parse_otree("(*,(*,*))")
NON_TALL = parse_forest("[[3,[2,4]],1] ; [5,6]")
GRAPHS = LinCombo([(parse_graph("n=3; 2->3"), 1), (parse_graph("n=3; 1->3"), -2)])
EXPRS = LinCombo([(br(var(1), dot(var(2), var(3))), 1), (dot(var(1), br(var(2), var(3))), 3)])

PRODUCERS = {
    "compose": lambda d: compose(F, 2, G, d),
    "compose of combos": lambda d: compose(
        LinCombo([(F, 1), (parse_forest("[1,3];2"), 2)]), 1, LinCombo([(G, -1)]), d),
    "compose_along": lambda d: compose_along(TAU, G, {2: G}, d),
    "check_duality": lambda d: check_duality(TAU, d).ok,
    "cooperad_combo": lambda d: len(cooperad_combo(GRAPHS, TAU, d)) == 2,
    "reduce_bracket": lambda d: reduce_bracket(EXPRS, d),
    "normalize_forest": lambda d: (not NON_TALL.trees[0].is_tall
                                   and normalize_forest(NON_TALL, d) == normalize_pois(NON_TALL, d)),
    "normalize_siop": lambda d: normalize_siop(parse_graph("n=3; 2->1, 2->3"), d),
    "antisymmetry": lambda d: len(antisymmetry_instance(NON_TALL, 0, (0,))(d)) == 2,
    "jacobi": lambda d: len(jacobi_instance(NON_TALL, 0, ())(d)) == 3,
    "commutativity": lambda d: len(commutativity_instance(NON_TALL.trees[::-1], 6)(d)) == 2,
    "arrow reversal": lambda d: len(arrow_reversal_instance(
        Graph(3, ((1, 2), (2, 3))), (1, 0), (1, 0))(d)) == 2,
    "arnold": lambda d: len(arnold_instance(3, 1, 2, 3)(d)) == 3,
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", PRODUCERS)
def test_producers_build_one_lincombo(no_add, name, d):
    assert PRODUCERS[name](d)
