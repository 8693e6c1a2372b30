"""Acceptance criteria, one test per criterion, each printing a status line.

Everything exact is checked exactly (integer pairings, enumeration counts);
the numeric criteria use the stated tolerances (1e-9 identities, 1e-2 limit
deviation at eps = 1e-3).
"""

import itertools
import math
import random

import numpy as np

from confpair.brackets import br, dot, reduce_expr, var
from confpair.geometry import (eval_system, limit_check, random_torus_point,
                               system_identities)
from confpair.graphs import Graph, enumerate_long_graphs, render_graph
from confpair.lincombo import LinCombo
from confpair.normalize import normalize_pois, normalize_siop
from confpair.operad import all_two_level_trees, check_duality, cooperad
from confpair.otrees import graft_tree
from confpair.pairing import gram_matrix, pair, pair_basis, rank_table
from confpair.trees import (Tree, enumerate_tall_forests, forest, parse_forest,
                            render_forest, tree_from_leaf_order)

from conftest import (all_forests, basis_count_oracle, random_forest,
                      random_graph_edges)
from oracles import (arnold_instance, arrow_reversal_instance, commutativity_instances,
                     double_edge_graph, first_degree_bases, normalize_forest, rewrite_graph,
                     tree_instances)


def report(ok, line):
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


def test_criterion_1_gram_identity():
    failures = []
    for n in range(2, 7):
        for d in (2, 3):
            for k in range(n):
                gm = gram_matrix(n, k, d)
                if not gm.is_identity():
                    failures.append((n, k, d, gm.failures()[:3]))
    report(not failures,
           f"criterion 1: Gram identity for n<=6, all degrees, both parities {failures or ''}")


def test_criterion_2_rank_agreement():
    ok = True
    for n in range(1, 8):
        total_f = total_g = 0
        for k in range(max(n, 1)):
            expected = basis_count_oracle(n, k)
            nf = len(enumerate_tall_forests(n, k))
            ng = len(enumerate_long_graphs(n, k))
            ok = ok and nf == ng == expected
            total_f += nf
            total_g += ng
        ok = ok and total_f == total_g == math.factorial(n)
        for d in (2, 3):
            table = rank_table(n, d)
            ok = ok and list(table.coefficients) == [
                basis_count_oracle(n, k) for k in range(max(n - 1, 0) + 1)]
            ok = ok and table.degrees == tuple(k * (d - 1) for k in range(len(table.coefficients)))
    report(ok, "criterion 2: basis counts match prod(1+i t^(d-1)); totals n! (5040 at n=7)")


def _graph_side_instances(n, rng):
    """Arrow-reversal, Arnold, and double-edge kernel elements on n vertices."""
    edge_pool = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    instances = []
    base_graphs = [g for k in range(n) for g in enumerate_long_graphs(n, k)]
    base_graphs += [Graph(n, random_graph_edges(rng, n, rng.randint(1, n - 1)))
                    for _ in range(10)]
    for g in base_graphs:
        k = len(g.edges)
        if k == 0:
            continue
        perms = list(itertools.permutations(range(k))) if k <= 3 else (
            [tuple(range(k)), tuple(reversed(range(k)))] +
            [tuple(rng.sample(range(k), k)) for _ in range(6)])
        masks = list(itertools.product((False, True), repeat=k))
        for mask in masks:
            instances.append(arrow_reversal_instance(g, mask, tuple(range(k))))
        for perm in perms:
            instances.append(arrow_reversal_instance(g, (False,) * k, perm))
        for _ in range(4):
            mask = tuple(rng.random() < 0.5 for _ in range(k))
            perm = tuple(rng.sample(range(k), k))
            instances.append(arrow_reversal_instance(g, mask, perm))
    for j, k, l in itertools.permutations(range(1, n + 1), 3):
        instances.append(arnold_instance(n, j, k, l))
        if n >= 4:
            for extra in edge_pool:
                instances.append(arnold_instance(n, j, k, l, prefix=(extra,)))
                instances.append(arnold_instance(n, j, k, l, suffix=(extra,)))
            if n >= 5:
                for _ in range(3):
                    e1 = edge_pool[rng.randrange(len(edge_pool))]
                    e2 = edge_pool[rng.randrange(len(edge_pool))]
                    instances.append(arnold_instance(n, j, k, l, prefix=(e1,), suffix=(e2,)))
    return instances


def _double_edge_graphs(n, rng):
    edge_pool = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            out.append(double_edge_graph(n, i, j))
            out.append(Graph(n, ((i, j), (j, i))))
            if n >= 4:
                extra = edge_pool[rng.randrange(len(edge_pool))]
                out.append(double_edge_graph(n, i, j, middle=(extra,)))
    return out


def test_criterion_3_relation_annihilation():
    bad = []
    for n in range(2, 6):
        all_long = [g for k in range(n) for g in enumerate_long_graphs(n, k)]
        all_tall = [f for k in range(n) for f in enumerate_tall_forests(n, k)]
        for f in all_forests(n):
            builders = tree_instances(f) + commutativity_instances(f)
            for builder in builders:
                for d in (2, 3):
                    combo = builder(d)
                    for g in all_long:
                        if pair(g, combo, d) != 0:
                            bad.append(("tree", n, d, render_graph(g)))
        rng = random.Random(300 + n)
        for builder in _graph_side_instances(n, rng):
            for d in (2, 3):
                combo = builder(d)
                if not combo:  # e.g. identity reversal: G - G
                    continue
                for tf in all_tall:
                    if pair(combo, tf, d) != 0:
                        bad.append(("graph", n, d, render_forest(tf)))
        for g in _double_edge_graphs(n, rng):
            for d in (2, 3):
                for tf in all_tall:
                    if pair_basis(g, tf, d).value != 0:
                        bad.append(("double", n, d, render_graph(g)))
    report(not bad, f"criterion 3: relation annihilation for n<=5, both parities {bad[:3]}")


def test_criterion_4_normalization_soundness():
    bad = []
    for n in range(2, 6):
        duals_g = [g for k in range(n) for g in enumerate_long_graphs(n, k)]
        duals_f = [f for k in range(n) for f in enumerate_tall_forests(n, k)]
        rng = random.Random(40 + n)
        for trial in range(1000):
            combo = LinCombo([
                (random_forest(rng, n), rng.randint(-9, 9))
                for _ in range(rng.randint(1, 4))
            ])
            d = rng.choice((2, 3))
            out = normalize_pois(combo, d)
            if normalize_pois(out, d) != out:
                bad.append(("pois idempotence", n, trial))
                break
            # the anti-symmetry/Jacobi rewriting, certified by the same pairings
            reference = LinCombo.zero()
            for f, c in combo:
                reference = reference + c * normalize_forest(f, d)
            if reference != out:
                bad.append(("pois rewriting reference", n, trial))
                break
            for g in duals_g:
                if pair(g, combo, d) != pair(g, out, d):
                    bad.append(("pois pairing", n, trial, render_graph(g)))
                    break
        for trial in range(1000):
            combo = LinCombo([
                (Graph(n, random_graph_edges(rng, n, rng.randint(0, n - 1))), rng.randint(-9, 9))
                for _ in range(rng.randint(1, 4))
            ])
            d = rng.choice((2, 3))
            out = normalize_siop(combo, d)
            if normalize_siop(out, d) != out:
                bad.append(("siop idempotence", n, trial))
                break
            # the reversal/Arnold rewriting, certified by the same pairings
            reference = LinCombo.zero()
            for g, c in combo:
                reference = reference + c * rewrite_graph(g, d)
            if reference != out:
                bad.append(("siop rewriting reference", n, trial))
                break
            for f in duals_f:
                if pair(combo, f, d) != pair(out, f, d):
                    bad.append(("siop pairing", n, trial, render_forest(f)))
                    break
    report(not bad, f"criterion 4: normalization pairing-invariant and idempotent {bad[:3]}")


def test_criterion_5_operad_cooperad_duality():
    bad = []
    total = 0
    for n_total in range(2, 6):
        for tau in all_two_level_trees(n_total):
            for d in (2, 3):
                rep = check_duality(tau, d)
                total += rep.cases_checked
                if not rep.ok:
                    bad.append((rep.tau, d, len(rep.failures)))
    # the worked example: edges 3->4 and 5->4 split as stated
    tau = graft_tree(4, 3, 2)
    res = cooperad(Graph(5, ((3, 4),)), tau, 3)
    factors = dict(zip(res.vertices, res.factors))
    ok_example = factors[(2,)].edges == ((1, 2),) and factors[()].edges == ()
    res = cooperad(Graph(5, ((5, 4),)), tau, 3)
    factors = dict(zip(res.vertices, res.factors))
    ok_example = ok_example and factors[()].edges == ((4, 3),)
    report(not bad and ok_example,
           f"criterion 5: operad/cooperad duality, {total} cases over two-level trees N<=5 {bad[:3]}")


def test_criterion_6_leibniz_fidelity():
    e = br(var(1), br(var(2), dot(var(3), var(4))))
    out = reduce_expr(e, 2)
    expected = LinCombo([
        (parse_forest("[1,[2,3]] ; 4"), 1),
        (parse_forest("[1,4] ; [2,3]"), 1),
        (parse_forest("[1,3] ; [2,4]"), 1),
        (parse_forest("[1,[2,4]] ; 3"), 1),
    ])
    report(out == expected,
           "criterion 6: Leibniz expansion of [x1,[x2,x3.x4]] matches the four-term form (d even)")


def test_criterion_7_first_degree_structure():
    ok = True
    for n in range(2, 8):
        graphs, forests = first_degree_bases(n)
        ok = ok and len(graphs) == n * (n - 1) // 2
        # the dense verify_perfect route reads its first-degree report off the k=1 block
        ok = ok and set(graphs) == set(enumerate_long_graphs(n, 1))
        ok = ok and set(forests) == set(enumerate_tall_forests(n, 1))
        for d in (2, 3):
            for r, g in enumerate(graphs):
                for c, f in enumerate(forests):
                    v = pair_basis(g, f, d).value
                    ok = ok and v == (1 if r == c else 0)
    report(ok, "criterion 7: degree-(d-1) Gram of single edges vs single pairs is the identity, "
               "and they are the k=1 long graphs and tall forests, n<=7")


def _geometry_suite(n, rng):
    suite = [forest([Tree(tree_from_leaf_order(tuple(range(1, n + 1))).node)], n)] if n >= 2 else []
    for _ in range(3):
        suite.append(random_forest(rng, n))
    return suite


def test_criterion_8_geometry_identities():
    worst = 0.0
    rng_struct = random.Random(80)
    for n in range(2, 8):
        for f in _geometry_suite(n, rng_struct):
            for d in (2, 3, 4):
                rng = np.random.default_rng(800 + 10 * n + d)
                for _ in range(100):
                    u = random_torus_point(f, d, rng)
                    x = eval_system(f, 0.3, u, d)
                    dev = system_identities(f, 0.3, x)
                    worst = max(worst, dev["root_center"], dev["orbit_distance"])
    report(worst < 1e-9,
           f"criterion 8: planetary-system identities hold to 1e-9 (worst {worst:.2e})")


def test_criterion_9_limit_behavior():
    rng = random.Random(90)
    pairs = []
    while len(pairs) < 20:
        n = rng.randint(2, 5)
        f = random_forest(rng, n)
        edges = tuple(random_graph_edges(rng, n, rng.randint(1, n - 1)))
        pairs.append((f, Graph(n, edges)))
    ok = True
    worst_final = 0.0
    for f, g in pairs:
        rep = limit_check(f, g, 3, [1e-1, 1e-2, 1e-3], seed=9, samples=4)
        per_eps = rep["results"]
        for edge_idx in range(len(g.edges)):
            devs = [r["per_edge"][edge_idx]["deviation"] for r in per_eps]
            ok = ok and devs[-1] < 1e-2
            ok = ok and devs[1] <= devs[0] + 1e-9 and devs[2] <= devs[1] + 1e-9
        worst_final = max(worst_final, per_eps[-1]["max_deviation"])
    report(ok, f"criterion 9: limit deviations < 1e-2 at eps=1e-3 and decreasing (worst {worst_final:.2e})")
