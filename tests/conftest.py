"""Shared brute-force oracles, independent of the package's enumerators."""

import itertools

from confpair.otrees import LEAF
from confpair.trees import Forest, Tree, forest


def all_tree_nodes(labels):
    """Every planar binary tree on the given label sequence (as nested tuples)."""
    labels = tuple(labels)
    if len(labels) == 1:
        yield labels[0]
        return
    for mask in range(1, (1 << len(labels)) - 1):
        left = tuple(labels[b] for b in range(len(labels)) if mask >> b & 1)
        right = tuple(labels[b] for b in range(len(labels)) if not mask >> b & 1)
        for ln in all_tree_nodes(left):
            for rn in all_tree_nodes(right):
                yield (ln, rn)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in range(1 << len(rest)):
        block = [first] + [rest[b] for b in range(len(rest)) if sub >> b & 1]
        remaining = [rest[b] for b in range(len(rest)) if not sub >> b & 1]
        for tail in set_partitions(remaining):
            yield [tuple(block)] + tail


def ordered_partitions_oracle(n):
    """Every ordered partition of {1..n} as a tuple of blocks, each block led
    by its minimum: set partitions times per-block orderings, fully sorted."""
    out = []
    for blocks in set_partitions(list(range(1, n + 1))):
        choices = [[(b[0],) + perm for perm in itertools.permutations(b[1:])]
                   for b in blocks]
        for picked in itertools.product(*choices):
            out.append(tuple(sorted(picked)))
    out.sort()
    return out


def all_forests(n):
    """Every n-forest (canonical storage), by brute force."""
    out = []
    for blocks in set_partitions(list(range(1, n + 1))):
        for nodes in itertools.product(*(list(all_tree_nodes(b)) for b in blocks)):
            out.append(forest(tuple(Tree(nd) for nd in nodes), n))
    return out


def leaf_depths(node, depth=0):
    if isinstance(node, int):
        yield node, depth
        return
    yield from leaf_depths(node[0], depth + 1)
    yield from leaf_depths(node[1], depth + 1)


def is_tall_oracle(tree: Tree) -> bool:
    """Minimal label leftmost, at maximal distance from the root."""
    if tree.size == 0:
        return True
    depths = dict(leaf_depths(tree.node))
    m = tree.min_label
    return tree.leaf_seq[0] == m and depths[m] == tree.size


def unsigned_stirling_first(n, k):
    """c(n, k): permutations of n with k cycles (recurrence oracle)."""
    if n == 0:
        return 1 if k == 0 else 0
    if k <= 0 or k > n:
        return 0
    return unsigned_stirling_first(n - 1, k - 1) + (n - 1) * unsigned_stirling_first(n - 1, k)


def basis_count_oracle(n, k):
    """Expected number of degree-k basis elements: coeff of t^k in prod (1+it)."""
    return unsigned_stirling_first(n, n - k)


def random_tree_node(rng, labels):
    labels = list(labels)
    if len(labels) == 1:
        return labels[0]
    cut = rng.randrange(1, len(labels))
    rng.shuffle(labels)
    return (random_tree_node(rng, labels[:cut]), random_tree_node(rng, labels[cut:]))


def random_forest(rng, n) -> Forest:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    blocks = []
    idx = 0
    while idx < len(labels):
        size = rng.randrange(1, len(labels) - idx + 1)
        blocks.append(labels[idx:idx + size])
        idx += size
    trees = tuple(Tree(random_tree_node(rng, b)) for b in blocks)
    return forest(trees, n)


def random_graph_edges(rng, n, k):
    edges = []
    for _ in range(k):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        while j == i:
            j = rng.randrange(1, n + 1)
        edges.append((i, j))
    return tuple(edges)


def reduced_otree_nodes(m):
    """Every o-tree node over m leaves whose vertices all have arity >= 2."""
    if m == 1:
        return [LEAF]
    out = []
    for cuts in range(1, 1 << (m - 1)):  # compositions of m into >= 2 parts
        bounds = [0] + [b + 1 for b in range(m - 1) if cuts >> b & 1] + [m]
        parts = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        out.extend(itertools.product(*map(reduced_otree_nodes, parts)))
    return out
