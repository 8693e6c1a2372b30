import numpy as np
import pytest

from confpair.errors import ValidationError
from confpair.geometry import (alpha, check_epsilon, check_torus_point, eval_system,
                               limit_check, min_separation, random_torus_point,
                               s_ratio, system_centers, system_identities)
from confpair.graphs import parse_edges
from confpair.trees import parse_forest


def test_epsilon_range():
    with pytest.raises(ValidationError):
        check_epsilon(0.4)
    with pytest.raises(ValidationError):
        check_epsilon(0.0)
    assert check_epsilon(0.25) == 0.25


def test_two_point_system():
    # single tree [1,2] in component 1: the root vertex orbits at radius eps
    f = parse_forest("[1,2]")
    u = np.array([[1.0, 0.0, 0.0]])
    x = eval_system(f, 0.25, u, 3)
    assert np.allclose(x[0], [1.25, 0, 0])
    assert np.allclose(x[1], [0.75, 0, 0])


def test_root_center_is_component_offset():
    rng = np.random.default_rng(3)
    f = parse_forest("[[2,1],3] ; [4,5]")
    u = random_torus_point(f, 4, rng)
    x = eval_system(f, 0.2, u, 4)
    centers = system_centers(f, x)
    assert np.linalg.norm(centers[(0, ())] - np.array([1, 0, 0, 0])) < 1e-12
    assert np.linalg.norm(centers[(1, ())] - np.array([2, 0, 0, 0])) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_identities_on_seven_leaf_forest(d):
    rng = np.random.default_rng(11)
    f = parse_forest("[[2,6],[[1,7],3]] ; [4,5]")
    for _ in range(20):
        u = random_torus_point(f, d, rng)
        x = eval_system(f, 0.3, u, d)
        dev = system_identities(f, 0.3, x)
        assert dev["root_center"] < 1e-9
        assert dev["orbit_distance"] < 1e-9


def test_torus_point_validation():
    f = parse_forest("[1,2]")
    with pytest.raises(ValidationError):
        check_torus_point(f, np.ones((1, 3)) * 2.0, 3)
    with pytest.raises(ValidationError):
        check_torus_point(f, np.ones((2, 3)), 3)


def test_points_distinct_for_random_samples():
    rng = np.random.default_rng(5)
    for text in ["[1,2] ; [3]", "[[1,2],3] ; [4,5]", "[[2,6],[[1,7],3]] ; [4,5]"]:
        f = parse_forest(text)
        u = random_torus_point(f, 3, rng)
        x = eval_system(f, 0.3, u, 3)
        assert min_separation(x) > 1e-6


def test_separation_lower_bound_report():
    # separation >= eps^(max height) * (1 - 3 eps) for eps < 1/3
    rng = np.random.default_rng(17)
    for text in ["[1,2]", "[[1,2],3] ; [4,5]", "[[2,6],[[1,7],3]] ; [4,5]"]:
        f = parse_forest(text)
        h_max = max((len(p) + 1 for t in f.trees for p in t.vertex_paths), default=0)
        for eps in (0.1, 0.25, 0.32):
            bound = eps ** h_max * (1 - 3 * eps)
            worst = min(
                min_separation(eval_system(f, eps, random_torus_point(f, 3, rng), 3))
                for _ in range(25)
            )
            print(f"separation {text!r} eps={eps}: measured {worst:.4g} >= bound {bound:.4g}")
            assert worst >= bound


def test_alpha_basic():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.allclose(alpha(x, 1, 2), [1, 0])
    assert np.allclose(alpha(x, 1, 2), -alpha(x, 2, 1))


def test_alpha_antisymmetry_random():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3))
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                assert np.linalg.norm(alpha(x, i, j) + alpha(x, j, i)) < 1e-12


def test_alpha_recovers_orbit_direction():
    f = parse_forest("[1,2]")
    rng = np.random.default_rng(2)
    u = random_torus_point(f, 3, rng)
    x = eval_system(f, 0.1, u, 3)
    # x1 - x2 = 2 eps u, so the unit vector from x2 to x1 is exactly u
    assert np.linalg.norm(alpha(x, 2, 1) - u[0]) < 1e-12


def test_alpha_coincident_points():
    x = np.zeros((2, 3))
    with pytest.raises(ValidationError):
        alpha(x, 1, 2)


def test_s_ratio_basic():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    assert abs(s_ratio(x, 1, 2, 3) - 1.0) < 1e-12
    x2 = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert s_ratio(x2, 1, 2, 3) == 0.0
    assert s_ratio(x2, 1, 3, 2) == float("inf")
    with pytest.raises(ValidationError):
        s_ratio(x, 1, 1, 2)


def test_s_ratio_multiplicativity():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((5, 3))
    for i, j, k in [(1, 2, 3), (2, 4, 5), (3, 1, 4)]:
        assert abs(s_ratio(x, i, j, k) * s_ratio(x, i, k, j) - 1.0) < 1e-9


def test_sibling_ratio_is_eps():
    f = parse_forest("[[1,2],3]")
    rng = np.random.default_rng(4)
    eps = 0.05
    u = random_torus_point(f, 3, rng)
    x = eval_system(f, eps, u, 3)
    # |x1 - x2| = 2 eps^2, |c([1,2]) - x3| = 2 eps: their ratio is eps
    assert abs(np.linalg.norm(x[0] - x[1]) / (2 * eps ** 2) - 1.0) < 1e-12


def test_limit_check_two_point_exact():
    rep = limit_check(parse_forest("[1,2]"), parse_edges("1->2", 2), 3, [0.3, 0.1])
    for r in rep["results"]:
        assert r["max_deviation"] < 1e-12


def test_limit_check_same_tree_prediction():
    # sibling leaves: the direction equals -u at the nadir exactly, so the
    # deviation sits at float noise for every eps
    rep = limit_check(parse_forest("[[2,1],3]"), parse_edges("1->2", 3), 3,
                      [1e-1, 1e-2, 1e-3], seed=7)
    devs = [r["max_deviation"] for r in rep["results"]]
    assert devs[-1] < 1e-2
    assert all(dev < 1e-9 for dev in devs)


def test_limit_check_deeper_edge_decays():
    rep = limit_check(parse_forest("[[2,1],3]"), parse_edges("1->3", 3), 3,
                      [1e-1, 1e-2, 1e-3], seed=7)
    devs = [r["max_deviation"] for r in rep["results"]]
    assert devs[-1] < 1e-2
    assert devs[0] > devs[1] > devs[2]


def test_limit_check_cross_component_direction():
    rep = limit_check(parse_forest("[1,2] ; [3]"), parse_edges("1->3", 3), 3,
                      [1e-1, 1e-2, 1e-3], seed=7)
    devs = [r["max_deviation"] for r in rep["results"]]
    assert devs[-1] < 1e-2
    assert devs[0] >= devs[1] >= devs[2]


def test_pairing_recovered_from_geometric_limit():
    # read beta and the sigma signs off the eps -> 0 directions, rebuild the
    # pairing value as (prod sigma)^d * (sign pi)^(d-1), and compare with the
    # combinatorial pairing
    from confpair.pairing import pair_basis
    from confpair.graphs import Graph

    cases = [
        ("[[2,1],3]", ((1, 2), (2, 3))),
        ("[[1,2],3]", ((1, 2), (2, 3))),
        ("[[1,3],2] ; [4,5]", ((1, 3), (3, 2), (4, 5))),
        ("[1,[2,[3,4]]]", ((1, 2), (2, 3), (3, 4))),
    ]
    rng = np.random.default_rng(31)
    eps = 1e-4
    for text, edges in cases:
        f = parse_forest(text)
        g = Graph(f.n, edges)
        for d in (2, 3):
            u = random_torus_point(f, d, rng)
            x = eval_system(f, eps, u, d)
            beta, sigma_prod = [], 1
            for i, j in edges:
                direction = alpha(x, j, i)
                hits = [
                    (v_idx, s)
                    for v_idx in range(f.size)
                    for s in (1, -1)
                    if np.linalg.norm(direction - s * u[v_idx]) < 1e-2
                ]
                assert len(hits) == 1, (text, (i, j), hits)
                beta.append(hits[0][0])
                sigma_prod *= hits[0][1]
            assert len(set(beta)) == len(beta)
            inversions = sum(
                1 for a in range(len(beta)) for b in range(a + 1, len(beta))
                if beta[a] > beta[b]
            )
            geometric = (sigma_prod if d % 2 else 1) * (
                (-1) ** inversions if d % 2 == 0 else 1)
            assert geometric == pair_basis(g, f, d).value
            # beta itself matches the combinatorial witness
            witness = [f.vertex_index[v] for _, v in pair_basis(g, f, d).beta_witness]
            assert witness == beta


def test_limit_check_report_shape():
    rep = limit_check(parse_forest("[1,2] ; [3]"), parse_edges("1->3", 3), 2, [0.1])
    assert sorted(rep) == ["d", "results", "samples", "seed"]  # cli.py renders the inputs
    assert rep["d"] == 2
    assert rep["results"][0]["per_edge"][0]["edge"] == [1, 3]


@pytest.mark.parametrize("samples", [0, -4])
def test_limit_check_refuses_a_sample_count_below_one(samples):
    with pytest.raises(ValidationError, match=f"samples must be >= 1, got {samples}"):
        limit_check(parse_forest("[1,2]"), parse_edges("1->2", 2), 3, [0.1], samples=samples)


def test_limit_check_refuses_a_negative_seed():
    """numpy's default_rng takes no negative seed; the refusal comes first."""
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        limit_check(parse_forest("[1,2]"), parse_edges("1->2", 2), 3, [0.1], seed=-1)
