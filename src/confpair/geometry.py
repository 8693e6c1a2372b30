"""Planetary-system configurations and the sphere/ratio projection maps.

A forest parameterizes a family of configurations in R^d: tree number i is
translated to (i, 0, ..., 0), and each internal vertex v contributes an
orbit term +-eps^h(v) u_v to the leaves above it (+ over the left edge,
- over the right).  Heights count edges down to the univalent root vertex,
so the lowest internal vertex of a tree has h = 1 and orbit radius eps;
with eps < 1/3 every tree fits in a ball of radius eps/(1-eps) < 1/2 and
distinct trees cannot collide.

As eps -> 0 the unit vector from x_j to x_i tends to +-e_1 for leaves in
different trees and to sigma_e u_nadir otherwise (sigma_e = +1 when leaf i
is left of leaf j), which limit_check measures empirically.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .graphs import Graph
from .trees import LEFT, Forest, nadir

UNIT_TOL = 1e-12


def check_epsilon(eps: float) -> float:
    if not 0 < eps < 1 / 3:
        raise ValidationError(f"eps must lie in (0, 1/3), got {eps}")
    return float(eps)


def check_torus_point(f: Forest, u, d: int):
    u = np.asarray(u, dtype=float)
    if u.shape != (f.size, d):
        raise ValidationError(
            f"torus point shape {u.shape} != ({f.size}, {d}) for this forest")
    norms = np.linalg.norm(u, axis=1)
    if u.size and np.max(np.abs(norms - 1.0)) > UNIT_TOL:
        raise ValidationError("torus point rows must be unit vectors")
    return u


def random_torus_point(f: Forest, d: int, rng) -> np.ndarray:
    v = rng.standard_normal((f.size, d))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / norms


def height(path) -> int:
    """Edges from the vertex to the univalent root: depth + 1."""
    return len(path) + 1


def eval_system(f: Forest, eps: float, u, d: int) -> np.ndarray:
    """Configuration of n points; rows indexed by label 1..n (row label-1)."""
    eps = check_epsilon(eps)
    u = check_torus_point(f, u, d)
    x = np.zeros((f.n, d))
    for label, (tree_idx, path) in f.leaf_info.items():
        point = np.zeros(d)
        point[0] = tree_idx + 1
        for t in range(len(path)):
            v = (tree_idx, path[:t])
            sign = 1.0 if path[t] == 0 else -1.0
            point = point + sign * eps ** height(path[:t]) * u[f.vertex_index[v]]
        x[label - 1] = point
    return x


def system_centers(f: Forest, x) -> dict:
    """c(x, T_v) for every subtree, by the inductive midpoint rule."""
    centers = {}

    def go(node, tree_idx, path):
        if isinstance(node, int):
            centers[(tree_idx, path)] = x[node - 1]
            return centers[(tree_idx, path)]
        left = go(node[0], tree_idx, path + (0,))
        right = go(node[1], tree_idx, path + (1,))
        centers[(tree_idx, path)] = (left + right) / 2.0
        return centers[(tree_idx, path)]

    for idx, t in enumerate(f.trees):
        go(t.node, idx, ())
    return centers


def system_identities(f: Forest, eps: float, x) -> dict:
    """Deviations of the defining identities: root centers at (i, 0, ...)
    and |c_child - c_v| = eps^h(v) on both sides of every internal vertex."""
    centers = system_centers(f, x)
    d = x.shape[1]
    root_dev = 0.0
    for idx in range(len(f.trees)):
        target = np.zeros(d)
        target[0] = idx + 1
        root_dev = max(root_dev, float(np.linalg.norm(centers[(idx, ())] - target)))
    dist_dev = 0.0
    for idx, t in enumerate(f.trees):
        for path in t.vertex_paths:
            r = eps ** height(path)
            c = centers[(idx, path)]
            for side in (0, 1):
                dist = float(np.linalg.norm(centers[(idx, path + (side,))] - c))
                dist_dev = max(dist_dev, abs(dist - r))
    return {"root_center": root_dev, "orbit_distance": dist_dev}


def min_separation(x) -> float:
    n = x.shape[0]
    best = float("inf")
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, float(np.linalg.norm(x[i] - x[j])))
    return best


def alpha(x, i: int, j: int, tol: float = 1e-12) -> np.ndarray:
    """Unit vector from x_i to x_j."""
    diff = np.asarray(x[j - 1]) - np.asarray(x[i - 1])
    norm = float(np.linalg.norm(diff))
    if norm <= tol:
        raise ValidationError(f"points {i} and {j} coincide")
    return diff / norm


def s_ratio(x, i: int, j: int, k: int, tol: float = 1e-12) -> float:
    """|x_i - x_j| / |x_i - x_k|, with inf at x_i = x_k."""
    if len({i, j, k}) != 3:
        raise ValidationError("s_ratio needs three distinct indices")
    num = float(np.linalg.norm(np.asarray(x[i - 1]) - np.asarray(x[j - 1])))
    den = float(np.linalg.norm(np.asarray(x[i - 1]) - np.asarray(x[k - 1])))
    if den <= tol:
        return float("inf")
    return num / den


def limit_check(f: Forest, g: Graph, d: int, eps_list, seed: int = 0,
                samples: int = 8) -> dict:
    """Deviation of the edge directions from their eps -> 0 limits.

    For an edge i->j the monitored vector is the unit direction of
    x_i - x_j; the limit is sigma_e u_nadir within one tree and the +-e_1
    axis direction across trees.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if seed < 0:  # numpy's default_rng refuses a negative seed
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if g.n != f.n:
        raise ValidationError("graph and forest sizes differ")
    rng = np.random.default_rng(seed)
    us = [random_torus_point(f, d, rng) for _ in range(samples)]
    per_eps = []
    for eps in eps_list:
        eps = check_epsilon(eps)
        xs = [eval_system(f, eps, u, d) for u in us]
        per_edge = []
        for i, j in g.edges:
            ti, pi = f.leaf_info[i]
            tj, _ = f.leaf_info[j]
            v = nadir(f, i, j)
            worst = 0.0
            for u, x in zip(us, xs):
                direction = alpha(x, j, i)
                if v is None:
                    predicted = np.zeros(d)
                    predicted[0] = 1.0 if ti > tj else -1.0
                else:
                    sigma = 1.0 if pi[len(v[1])] == LEFT else -1.0
                    predicted = sigma * u[f.vertex_index[v]]
                worst = max(worst, float(np.linalg.norm(direction - predicted)))
            per_edge.append({"edge": [i, j], "deviation": worst})
        per_eps.append({
            "eps": eps,
            "max_deviation": max((e["deviation"] for e in per_edge), default=0.0),
            "per_edge": per_edge,
        })
    return {"d": d, "samples": samples, "seed": seed, "results": per_eps}
