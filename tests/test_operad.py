import dataclasses
import itertools
import random
from collections import Counter

import pytest

from confpair import normalize, operad
from confpair.errors import ValidationError
from confpair.graphs import Graph, graph_of_ordered_partition, parse_graph, render_graph
from confpair.lincombo import LinCombo
from confpair.normalize import eps, normalize_pois
from confpair.operad import (all_two_level_trees, check_duality, compose, compose_along,
                             cooperad, sample_duality, two_level_sites)
from confpair.otrees import LEAF, OTree, corolla, graft_tree, may_tree, parse_otree
from confpair.trees import (Forest, Tree, enumerate_tall_forests, ordered_partition_of_forest,
                            parse_forest, render_forest)

import oracles
from conftest import random_forest, reduced_otree_nodes
from oracles import (PlanarForest, check_cases, compose_by_substitution, cooperad_combo,
                     exhaustive_cases, sampled_cases)


def as_dict(combo):
    return {render_forest(f): c for f, c in combo}


def tall_basis(n):
    return [f for k in range(n) for f in enumerate_tall_forests(n, k)]


def test_unit_laws():
    unit = parse_forest("1")
    for d in (2, 3):
        for f in tall_basis(3):
            for i in range(1, 4):
                assert compose(f, i, unit, d) == LinCombo.single(f)
            assert compose(unit, 1, f, d) == LinCombo.single(f)


def test_grafting_without_dots():
    out = compose(parse_forest("[1,2]"), 1, parse_forest("[1,2]"), 3)
    assert as_dict(out) == {"[[1,2],3]": 1}
    out2 = compose(parse_forest("[1,2]"), 1, parse_forest("[1,2]"), 2)
    assert as_dict(out2) == {"[[1,2],3]": 1}


def test_paper_composition_example_even_d():
    out = compose(parse_forest("[1,[2,3]]"), 3, parse_forest("1 ; 2"), 2)
    # tall-normalized version of the four-term expansion
    expected = normalize_pois(LinCombo([
        (parse_forest("[1,[2,3]] ; 4"), 1),
        (parse_forest("[1,4] ; [2,3]"), 1),
        (parse_forest("[1,3] ; [2,4]"), 1),
        (parse_forest("[1,[2,4]] ; 3"), 1),
    ]), 2)
    assert out == expected


def test_compose_index_range():
    with pytest.raises(ValidationError):
        compose(parse_forest("[1,2]"), 3, parse_forest("1"), 2)


def test_degree_additivity():
    for d in (2, 3):
        out = compose(parse_forest("[1,2]"), 2, parse_forest("[[1,2],3]"), d)
        assert {f.size for f, _ in out} == {3}


def test_nested_associativity():
    for d in (2, 3):
        for a in tall_basis(2):
            for b in tall_basis(2):
                for c in tall_basis(2):
                    for i in (1, 2):
                        for j in (1, 2):
                            lhs = compose(compose(a, i, b, d), i + j - 1, c, d)
                            rhs = compose(a, i, compose(b, j, c, d), d)
                            assert lhs == rhs


def test_disjoint_sites_graded_commutation():
    for d in (2, 3):
        for a in tall_basis(3):
            for x in tall_basis(2):
                for y in tall_basis(2):
                    for i in (1, 2, 3):
                        for j in range(i + 1, 4):
                            lhs = compose(compose(a, j, y, d), i, x, d)
                            rhs = compose(compose(a, i, x, d), j + 1, y, d)
                            assert lhs == eps(x.size * y.size, d) * rhs


def test_cooperad_corolla_identity():
    g = parse_graph("n=3; 1->2, 2->3")
    res = cooperad(g, corolla(3), 2)
    assert res.sign == 1
    assert res.factors == (g,)


def test_cooperad_paper_example():
    tau = graft_tree(4, 3, 2)
    res = cooperad(Graph(5, ((3, 4),)), tau, 3)
    factors = dict(zip(res.vertices, res.factors))
    assert render_graph(factors[(2,)]) == "n=2; 1->2"
    assert factors[()].edges == ()

    res = cooperad(Graph(5, ((5, 4),)), tau, 3)
    factors = dict(zip(res.vertices, res.factors))
    assert factors[()].edges == ((4, 3),)
    assert factors[(2,)].edges == ()

    for edge in ((1, 3), (1, 4)):
        res = cooperad(Graph(5, (edge,)), tau, 3)
        factors = dict(zip(res.vertices, res.factors))
        assert factors[()].edges == ((1, 3),)


def test_cooperad_root_carries_cross_edges():
    tau = may_tree(2, (2, 2))
    res = cooperad(Graph(4, ((1, 3),)), tau, 2)
    factors = dict(zip(res.vertices, res.factors))
    assert factors[()].edges == ((1, 2),)
    assert factors[(0,)].edges == ()
    assert factors[(1,)].edges == ()


def test_cooperad_factor_edges_keep_input_order():
    tau = graft_tree(4, 3, 2)
    g = Graph(5, ((5, 4), (1, 3), (2, 3), (3, 4)))
    res = cooperad(g, tau, 2)
    factors = dict(zip(res.vertices, res.factors))
    # root receives edges 1, 2, 3 in their original order
    assert factors[()].edges == ((4, 3), (1, 3), (2, 3))
    assert factors[(2,)].edges == ((1, 2),)


def test_cooperad_edge_conservation():
    tau = may_tree(2, (2, 3))
    g = parse_graph("n=5; 1->2, 3->4, 2->5, 4->5")
    for d in (2, 3):
        res = cooperad(g, tau, d)
        assert sum(len(f.edges) for f in res.factors) == len(g.edges)


def test_cooperad_leaf_count_mismatch():
    with pytest.raises(ValidationError):
        cooperad(parse_graph("n=3; 1->2"), corolla(4), 2)


def test_cooperad_combo_bilinearity():
    tau = may_tree(2, (2, 2))
    g1 = Graph(4, ((1, 2),))
    g2 = Graph(4, ((3, 4),))
    combo = cooperad_combo(LinCombo([(g1, 2), (g2, -1)]), tau, 2)
    assert len(combo) == 2


def test_two_level_sites():
    tau = graft_tree(4, 3, 2)
    assert two_level_sites(tau) == [(3, 2)]
    with pytest.raises(ValidationError):
        two_level_sites(parse_otree("((*,(*,*)),*)"))


def test_a_root_with_no_inputs_is_refused_for_duality():
    tau = parse_otree("()")
    for d in (2, 3):
        for check in (check_duality, sample_duality):
            with pytest.raises(ValidationError, match="root with no inputs"):
                check(tau, d)
        assert cooperad(Graph(0, ()), tau, d).factors == (Graph(0, ()),)


def test_duality_corolla_reduces_to_plain_pairing():
    for n in (2, 3):
        for d in (2, 3):
            rep = check_duality(corolla(n), d)
            assert rep.ok and rep.cases_checked > 0


@pytest.mark.parametrize("arities", [(2, (2, 1)), (2, (2, 2))])
def test_duality_spec_examples(arities):
    root, children = arities
    tau = may_tree(root, children)
    for d in (2, 3):
        rep = check_duality(tau, d)
        assert rep.ok and rep.cases_checked > 0


def test_compose_along_single_site_is_compose():
    tau = graft_tree(3, 2, 2)
    f0 = parse_forest("[[1,3],2]")
    inner = {2: parse_forest("[1,2]")}
    for d in (2, 3):
        assert compose_along(tau, f0, inner, d) == compose(f0, 2, inner[2], d)


def test_sampled_duality_beyond_exhaustive_range():
    # six leaves: too large to exhaust, spot-checked with a fixed seed
    for arities, d in [((3, 3), 2), ((2, 2, 2), 3)]:
        tau = may_tree(len(arities), arities)
        rep = sample_duality(tau, d, trials=120, seed=61)
        assert rep.ok and rep.cases_checked == 120


# g is long of degree 3, and it pairs nonzero with both compositions of its
# degree on this tree: [1,2] outside with each 2-vertex tall forest at site 2
CORRUPTED_TAU, CORRUPTED_G = "((*),(*,*,*))", "n=4; 1->3, 3->2, 2->4"


def corrupted_sweep(monkeypatch, name, corrupt, d):
    """check_duality with operad.<name> replaced by corrupt(real, g), which
    corrupts it on CORRUPTED_G only; every case of that graph must fail, and
    no other."""
    tau, g = parse_otree(CORRUPTED_TAU), parse_graph(CORRUPTED_G)
    clean = check_duality(tau, d)
    assert clean.ok
    monkeypatch.setattr(operad, name, corrupt(getattr(operad, name), g))
    rep = check_duality(tau, d)
    cases = [(parse_forest("[1,2]"), {1: parse_forest("1"), 2: f})
             for f in enumerate_tall_forests(3, 2)]
    assert rep.cases_checked == clean.cases_checked
    assert [(c["graph"], c["outer"], c["inner"]) for c in rep.failures] == [(g, *c) for c in cases]
    assert all(c["lhs"] == -c["rhs"] != 0 for c in rep.failures)


@pytest.mark.parametrize("d", [2, 3])
def test_duality_sweep_catches_a_corrupted_split_in_every_case(monkeypatch, d):
    splits = Counter()
    real = operad.cooperad

    def counted(h, tau, d):
        splits[h] += 1
        return real(h, tau, d)

    def negated(real, g):
        def split(h, tau, d):
            res = real(h, tau, d)
            return dataclasses.replace(res, sign=-res.sign) if h == g else res
        return split

    monkeypatch.setattr(operad, "cooperad", counted)
    corrupted_sweep(monkeypatch, "cooperad", negated, d)
    assert set(splits.values()) == {2}  # once per graph in each of the two sweeps


@pytest.mark.parametrize("d", [2, 3])
def test_duality_sweep_catches_a_corrupted_pairing_in_every_case(monkeypatch, d):
    # the right-hand side reads g's row of the kernel's block over the composed supports
    def negated_rows(real, g):
        def block(graphs, forests, d):
            out = real(graphs, forests, d)
            out[[r for r, h in enumerate(graphs) if h == g]] *= -1
            return out
        return block

    corrupted_sweep(monkeypatch, "pair_matrix", negated_rows, d)


@pytest.mark.parametrize("d", [2, 3])
def test_duality_sweep_reads_the_interned_composition(monkeypatch, d):
    """The sweep's compositions run through tall_terms with its intern table;
    negating one tall forest there fails exactly the cases whose composed
    support holds it, against the graph dual to it."""
    tau, target = parse_otree("((*,*),(*,*,*))"), parse_forest("[[[1,4],3],5] ; 2")
    dual = graph_of_ordered_partition(ordered_partition_of_forest(target), 5)
    clean = check_duality(tau, d)
    assert clean.ok
    real, tabled = operad.tall_terms, []

    def negated(terms, n, d, *table):
        tabled.append(bool(table))
        return LinCombo([(f, -c if f == target else c) for f, c in real(terms, n, d, *table)])

    monkeypatch.setattr(operad, "tall_terms", negated)
    rep = check_duality(tau, d)
    cases = [(f0, inner) for f0, inner, _ in exhaustive_cases(tau)
             if oracles.compose_along_by_substitution(tau, f0, inner, d)[target]]
    assert tabled and all(tabled)
    assert rep.cases_checked == clean.cases_checked and len(cases) == 2
    assert [(c["graph"], c["outer"], c["inner"]) for c in rep.failures] == [
        (dual, *c) for c in cases]
    assert all(c["lhs"] == -c["rhs"] != 0 for c in rep.failures)


def test_a_sweep_keeps_its_intern_table_to_its_own_call():
    # chains are signed by d: a table that outlived a call, or ignored d,
    # would carry the first sweep's signs into the next
    tau = parse_otree("((*,*),(*,*,*))")
    for d in (2, 3, 2):
        assert check_duality(tau, d) == check_cases(tau, d, exhaustive_cases(tau)), d


def test_all_two_level_trees_counts():
    assert len(all_two_level_trees(3)) == 4  # compositions of 3
    assert len(all_two_level_trees(5)) == 16


def sorted_split_sign(g, tau, d):
    """(sign pi)^(d-1), pi the sort of edge indices by (factor rank, input position)."""
    leaf_path, vertices = {}, []

    def walk(node, path):
        if node == LEAF:
            leaf_path[len(leaf_path) + 1] = path
            return
        vertices.append(path)
        for pos, child in enumerate(node):
            walk(child, path + (pos,))
    walk(tau.node, ())
    rank = {v: r for r, v in enumerate(vertices)}

    def factor_rank(edge):
        a, b = (leaf_path[x] for x in edge)
        k = 0
        while a[k] == b[k]:
            k += 1
        return rank[a[:k]]
    pi = sorted(range(len(g.edges)), key=lambda e: (factor_rank(g.edges[e]), e))
    seen, cycles = set(), 0
    for start in range(len(pi)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = pi[start]
    return -1 if (len(pi) - cycles) * (d - 1) % 2 else 1


def test_cooperad_sign_at_every_depth():
    """Every o-tree with at most 5 leaves, at every depth: every word of up to
    2 distinct pairs, and seeded words of 3 and 4 edges with random arrows."""
    rng = random.Random(2006)
    trees = [OTree(node) for m in range(2, 6) for node in reduced_otree_nodes(m)]
    trees += [t for m in range(2, 6) for t in all_two_level_trees(m)]
    assert max(len(v) for t in trees for v in t.internal_vertices) == 3  # depth 0..3
    checked = 0
    for tau in trees:
        n = tau.n_leaves
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        words = [w for k in range(3) for w in itertools.permutations(pairs, k)]
        words += [[e[::rng.choice((1, -1))] for e in rng.sample(pairs, k)]
                  for k in (3, 4) for _ in range(40) if len(pairs) >= k]
        for word in words:
            g = Graph(n, tuple(word))
            for d in (2, 3):
                assert cooperad(g, tau, d).sign == sorted_split_sign(g, tau, d), (word, tau)
                checked += 1
    assert checked > 20_000


def test_cooperad_sign_of_a_depth_three_split():
    g, tau = parse_graph("n=4; 1->2, 3->4, 2->3"), parse_otree("((*,(*,*)),*)")
    assert [cooperad(g, tau, d).sign for d in (2, 3)] == [-1, 1]
    assert [sorted_split_sign(g, tau, d) for d in (2, 3)] == [-1, 1]


# ---------------------------------------------------------------------------
# the closed-form composition and the batched sweep against their references

def left_comb(k):
    """[[...[1,2],3]...,k]: leaf 1 sits under k - 1 brackets."""
    node = 1
    for lab in range(2, k + 1):
        node = (node, lab)
    return Forest((Tree(node),), k)


def right_comb(k):
    """[1,[2,...[k-1,k]]]."""
    node = k
    for lab in range(k - 1, 0, -1):
        node = (lab, node)
    return Forest((Tree(node),), k)


@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_compose_equals_substitution_on_every_tall_pair(d):
    checked = 0
    for n in range(1, 6):
        for m in range(1, 7 - n):
            for f1, f2 in itertools.product(tall_basis(n), tall_basis(m)):
                for i in range(1, n + 1):
                    assert compose(f1, i, f2, d) == compose_by_substitution(f1, i, f2, d), (
                        f1, i, f2)
                    checked += 1
    assert checked == 1_335  # sum over n + m <= 6 of n! * m! * n


def test_closed_form_compose_equals_substitution_on_random_forests():
    rng = random.Random(2006)
    for _ in range(400):
        n, m, d = rng.randint(1, 5), rng.randint(1, 5), rng.randint(2, 5)
        f1, f2 = random_forest(rng, n), random_forest(rng, m)
        for x, y in ((f1, f2), (PlanarForest(tuple(rng.sample(f1.trees, len(f1.trees))), n),
                               PlanarForest(tuple(rng.sample(f2.trees, len(f2.trees))), m))):
            i = rng.randint(1, n)
            assert compose(x, i, y, d) == compose_by_substitution(x, i, y, d), (x, i, y, d)
    combo = LinCombo([(random_forest(rng, 4), 3), (random_forest(rng, 4), -2)])
    inner = LinCombo([(random_forest(rng, 3), 5), (random_forest(rng, 3), 1)])
    for d in (2, 3):
        assert compose(combo, 2, inner, d) == compose_by_substitution(combo, 2, inner, d)


@pytest.mark.parametrize("outer, index, inner", [
    ("[1,[2,3]]", 3, "1 ; 2"),  # the README example
    ("[1,2]", 1, "[1,[2,[3,[4,[5,[6,[7,8]]]]]]]"),  # a right comb inside: 2^6 tall terms
    ("[[[[[[1,2],3],4],5],6],7]", 1, "1 ; 2 ; 3"),  # a left comb outside: 3^6 terms
    ("[[[[[[1,2],3],4],5],6],7]", 4, "[2,1] ; 3"),
    ("[1,[2,[3,[4,[5,6]]]]]", 6, "1 ; [2,3] ; 4"),
    ("[1,[2,[3,[4,[5,6]]]]]", 1, "[[1,2],3] ; 4"),
], ids=["readme", "right-inner", "left-outer", "left-outer-middle", "right-outer-deepest",
        "right-outer-top"])
def test_closed_form_compose_equals_substitution_on_combs(outer, index, inner):
    f1, f2 = parse_forest(outer), parse_forest(inner)
    for d in (2, 3):
        assert compose(f1, index, f2, d) == compose_by_substitution(f1, index, f2, d)


@pytest.mark.parametrize("d", [2, 3])
def test_interned_tall_terms_equal_compose_on_every_tall_pair(d):
    """One intern table across every tall pair of total arity at most 5, as
    a duality sweep shares it: the same terms as compose, in the same order,
    and every interned Forest equal to one built afresh."""
    table = {}, {}
    for n in range(1, 6):
        for m in range(1, 7 - n):
            for f1, f2 in itertools.product(tall_basis(n), tall_basis(m)):
                for i in range(1, n + 1):
                    got = normalize.tall_terms(operad.leibniz_terms(f1, i, f2, d), n + m - 1, d,
                                               table)
                    assert list(got) == list(compose(f1, i, f2, d)), (f1, i, f2)
    chains, forests = table
    assert chains and forests
    for trees, f in forests.items():
        fresh = Forest(trees, sum(len(t.leaf_seq) for t in trees))
        assert f == fresh and hash(f) == hash(fresh)


def test_combs_compose_as_their_size_formulas_say():
    for d in (2, 3):
        assert len(compose(left_comb(7), 1, parse_forest("1 ; 2 ; 3"), d)) == 3 ** 6
        assert len(compose(parse_forest("[1,2]"), 1, right_comb(8), d)) == 2 ** 6
        assert compose(left_comb(5), 1, left_comb(4), d) == LinCombo.single(
            parse_forest("[[[[[[[1,2],3],4],5],6],7],8]"))


@pytest.mark.parametrize("d", [2, 3])
def test_batched_sweep_equals_the_case_by_case_route(d):
    for tau in all_two_level_trees(5):
        assert check_duality(tau, d) == check_cases(tau, d, exhaustive_cases(tau)), tau


@pytest.mark.parametrize("seed", [0, 7, 61])
def test_sampled_sweep_draws_and_reports_as_the_case_by_case_route(seed):
    tau = parse_otree("((*,*,*),(*,*,*))")
    for d in (2, 3):
        rep = sample_duality(tau, d, trials=60, seed=seed)
        assert rep == check_cases(tau, d, sampled_cases(tau, 60, seed))
        assert rep.ok and rep.cases_checked == 60


@pytest.mark.parametrize("d", [2, 3])
def test_a_corrupted_split_fails_as_in_the_case_by_case_route(monkeypatch, d):
    """Many failures, in order: every graph whose first edge is 1->2 splits
    with the wrong sign, in the sweep and in its reference alike."""
    real = operad.cooperad

    def corrupted(g, tau, d):
        res = real(g, tau, d)
        return dataclasses.replace(res, sign=-res.sign) if g.edges[:1] == ((1, 2),) else res

    monkeypatch.setattr(operad, "cooperad", corrupted)
    monkeypatch.setattr(oracles, "cooperad", corrupted)
    for tau in map(parse_otree, ("((*,*),(*,*,*))", "(*,(*,*,*),*)", "((*,*,*,*),*)")):
        rep = check_duality(tau, d)
        assert rep == check_cases(tau, d, exhaustive_cases(tau))
        assert rep.failures and all(c["lhs"] == -c["rhs"] for c in rep.failures)


def test_a_right_side_beyond_int64_is_compared_exactly(monkeypatch):
    """Coefficients past 2^63 switch the right side to Python ints."""
    big, tau = 2 ** 70 + 1, parse_otree("((*,*),(*,*))")
    clean = [check_duality(tau, d) for d in (2, 3)]
    real = operad.compose_along
    monkeypatch.setattr(operad, "compose_along", lambda *args: big * real(*args))
    for d, before in zip((2, 3), clean):
        rep = check_duality(tau, d)
        assert rep.cases_checked == before.cases_checked and before.ok and rep.failures
        assert all(type(c["rhs"]) is int and c["rhs"] == big * c["lhs"] != 0 for c in rep.failures)
