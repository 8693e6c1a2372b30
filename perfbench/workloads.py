"""Seeded inputs, operations and oracles for the confpair benchmark.

A workload builder takes the seed and returns a list of `Op`: a label, a
zero-argument callable into confpair's public API, and an oracle that
returns None when the output is right and a reason string when it is not.
The callables reach confpair through module attributes (`confpair.x`,
`confpair.cli.main`), so the tracer's wrappers see every top-level call.

Costs are kept equal across seeds: every workload's expensive inputs are
fixed, and the random forests and graphs of `normalize` come from a fixed
corpus that the seed transforms by moves that change each input but not
the amount of rewriting it needs (planar flips at tree vertices, arrow
reversals, edge order, coefficients, operation order).  With plain random
inputs, op_p50_ms and op_tail_ms moved by 20-25% from seed to seed on a
2-vCPU Xeon VM.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import namedtuple

import confpair
import confpair.cli
from confpair import Forest, Graph, LinCombo, Tree

Op = namedtuple("Op", "label run check")

CORPUS_SEED = 20060610   # fixed: the normalize corpus is the same for every seed
CORPUS_PER_N = 24        # random forests, and graphs, per n in the corpus


# ---------------------------------------------------------------------------
# independent facts the oracles rely on

def betti(n):
    """Basis sizes per degree: the coefficients of prod_{i<n} (1 + i t)."""
    coeffs = [1]
    for i in range(1, n):
        coeffs = [a + i * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def comb_node(block):
    """Left comb [[b0,b1],b2]... over a block led by its minimum."""
    node = block[0]
    for lab in block[1:]:
        node = (node, lab)
    return node


def comb_blocks(f):
    """Blocks of a tall forest (each tree a left comb with its minimum
    deepest-left, trees in minimum order), or None if f is not tall."""
    blocks = []
    for t in f.trees:
        node, right = t.node, []
        while not isinstance(node, int):
            if not isinstance(node[1], int):
                return None
            right.append(node[1])
            node = node[0]
        block = [node] + right[::-1]
        if node != min(block):
            return None
        blocks.append(tuple(block))
    if [b[0] for b in blocks] != sorted(b[0] for b in blocks):
        return None
    return tuple(blocks)


def chain_blocks(g):
    """Blocks of a long graph (chains from their minimum, listed chain by
    chain in minimum order, singletons implied), or None if g is not long."""
    chains = []
    for a, b in g.edges:
        if chains and chains[-1][-1] == a:
            chains[-1].append(b)
        else:
            chains.append([a, b])
    verts = [v for c in chains for v in c]
    if len(set(verts)) != len(verts) or any(c[0] != min(c) for c in chains):
        return None
    if [c[0] for c in chains] != sorted(c[0] for c in chains):
        return None
    singles = [(v,) for v in range(1, g.n + 1) if v not in set(verts)]
    return tuple(sorted([tuple(c) for c in chains] + singles))


def tall_forest(blocks, n):
    return Forest(tuple(Tree(comb_node(b)) for b in sorted(blocks)), n)


def long_graph(blocks, n):
    edges = tuple((b[a], b[a + 1]) for b in sorted(blocks) for a in range(len(b) - 1))
    return Graph(n, edges)


def random_blocks(rng, n, k):
    """A random ordered partition of 1..n into n-k blocks, minimum first."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    cuts = sorted(rng.sample(range(1, n), n - k - 1))
    blocks = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        blk = perm[lo:hi]
        m = blk.index(min(blk))
        blocks.append(tuple([blk[m]] + blk[:m] + blk[m + 1:]))
    return sorted(blocks)


def tree_chains(node):
    """Leaf orders of one tree, from its minimum, whose consecutive leaves
    have pairwise distinct nadirs: the blocks b with <chain b, tree> != 0."""
    paths = {}

    def walk(nd, path):
        if isinstance(nd, int):
            paths[nd] = path
        else:
            walk(nd[0], path + (0,))
            walk(nd[1], path + (1,))

    def nadir(a, b):
        pa, pb = paths[a], paths[b]
        c = 0
        while pa[c] == pb[c]:
            c += 1
        return pa[:c]

    def extend(chain, used, rest):
        if not rest:
            out.append(tuple(chain))
        for v in sorted(rest):
            w = nadir(chain[-1], v)
            if w not in used:
                extend(chain + [v], used | {w}, rest - {v})

    walk(node, ())
    out = []
    start = min(paths)
    extend([start], frozenset(), frozenset(paths) - {start})
    return out


def forest_support(f):
    """Every ordered partition P with <G_P, f> != 0: one chain per tree."""
    return set(itertools.product(*(tree_chains(t.node) for t in f.trees)))


def graph_support(g):
    """Every ordered partition P with <g, F_P> != 0: one block per component,
    a linear extension of the component's tree rooted at its minimum.  A
    component with a cycle or a repeated vertex pair has none."""
    adj = {v: [] for v in range(1, g.n + 1)}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)

    def extend(order, avail, out):
        if not avail:
            out.append(tuple(order))
        for v in sorted(avail):
            extend(order + [v], (avail - {v}) | (set(adj[v]) - set(order)), out)

    per_component, seen = [], set()
    for root in range(1, g.n + 1):
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        if sum(1 for a, _ in g.edges if a in comp) != len(comp) - 1:
            return set()
        orders = []
        extend([root], set(adj[root]), orders)
        per_component.append(orders)
    return set(itertools.product(*per_component))


def check_normalized(x, y, kind, d, n, expect_zero=False):
    """Oracle for normalization onto the tall (pois) or long (siop) basis.

    Every output term must be a basis element.  By the Gram identity the
    coefficient of the basis element of P is the pairing of the input with
    the dual of P, and that pairing is 0 outside the support computed
    directly from the input terms (forest_support, graph_support).  So the
    check is complete: every output term lies in the support, and every P
    in the support gets the coefficient the pairing gives.
    """
    if expect_zero and y:
        return f"expected 0, got {len(y)} terms"
    to_blocks, support_of = ((comb_blocks, forest_support) if kind == "pois"
                             else (chain_blocks, graph_support))
    support = set()
    for elem, _ in x:
        support |= support_of(elem)
    for elem, _ in y:
        blocks = to_blocks(elem)
        if blocks is None:
            return f"output term {elem!r} is not in the basis"
        if blocks not in support:
            return f"output term {blocks} pairs to 0 with every input term"
    for blocks in sorted(support):
        if kind == "pois":
            want = confpair.pair(long_graph(blocks, n), x, d)
            got = y[tall_forest(blocks, n)]
        else:
            want = confpair.pair(x, tall_forest(blocks, n), d)
            got = y[long_graph(blocks, n)]
        if got != want:
            return f"coefficient of {blocks} is {got}, pairing with the dual gives {want}"
    return None


def duality_cases(tau_node):
    """Number of (graph, outer, inner) cases check_duality sweeps on a
    two-level o-tree: every basis tuple below top degree times every long
    graph of the total degree."""
    r = len(tau_node)
    sites = [len(child) for child in tau_node if child != "*"]
    n_total = sum(1 if child == "*" else len(child) for child in tau_node)
    total_cases = 0
    for k0 in range(r):
        for ks in itertools.product(*(range(m) for m in sites)):
            deg = k0 + sum(ks)
            if deg >= n_total:
                continue
            count = betti(r)[k0] * betti(n_total)[deg]
            for m, k in zip(sites, ks):
                count *= betti(m)[k]
            total_cases += count
    return total_cases


# ---------------------------------------------------------------------------
# verify: the perfect-pairing check

def check_perfect(report, n, d):
    """verify_perfect's verdict, and its Gram blocks recomputed and read
    entry by entry, so a verdict that misses a bad entry still fails."""
    if not report.ok:
        return "verify_perfect reported a failure"
    sizes = [r.size for r in report.degrees]
    if sizes != betti(n):
        return f"degree sizes {sizes} != {betti(n)}"
    if any(r.failures or not r.identity for r in report.degrees):
        return "a degree block is not the identity"
    if report.first_degree_size != n * (n - 1) // 2 or report.first_degree_failures:
        return "first-degree block is not the identity"
    for k in range(n):
        why = check_gram(confpair.gram_matrix(n, k, d), n, k)
        if why:
            return why
    return None


def check_gram(gm, n, k):
    size = betti(n)[k]
    if len(gm.entries) != size or any(len(row) != size for row in gm.entries):
        return f"Gram block n={n} k={k} is not {size}x{size}"
    for r, row in enumerate(gm.entries):
        for c, v in enumerate(row):
            if v != (1 if r == c else 0):
                return f"Gram entry ({r},{c}) = {v}"
    for g, f in zip(gm.graphs, gm.forests):
        blocks = chain_blocks(g)
        if blocks is None or blocks != comb_blocks(f):
            return "rows and columns are not aligned by ordered partition"
    return None


def verify_ops(seed):
    ops = []
    for d in (2, 3):
        ops.append(Op(f"verify_perfect n=6 d={d}",
                      lambda d=d: confpair.verify_perfect(6, d),
                      lambda out, d=d: check_perfect(out, 6, d)))
    for k in range(4):
        ops.append(Op(f"gram_matrix n=7 k={k} d=2",
                      lambda k=k: confpair.gram_matrix(7, k, 2),
                      lambda out, k=k: check_gram(out, 7, k)))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# normalize: rewriting onto the tall and long bases

def _random_node(rng, labels):
    if len(labels) == 1:
        return labels[0]
    cut = rng.randint(1, len(labels) - 1)
    return (_random_node(rng, labels[:cut]), _random_node(rng, labels[cut:]))


def _random_forest(rng, n, ntrees):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n), ntrees - 1))
    nodes = [_random_node(rng, labels[lo:hi]) for lo, hi in zip([0] + cuts, cuts + [n])]
    return sorted(nodes, key=_node_min)


def _random_tree_edges(rng, n, k):
    """k edges of a random forest on 1..n, each joining a new vertex."""
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    return [(verts[i], verts[rng.randrange(i)]) for i in range(1, k + 1)]


def _with_triangle(edges):
    """Add the edge closing a triangle on the first two edges that meet."""
    for (a, b), (c, e) in itertools.combinations(edges, 2):
        shared = {a, b} & {c, e}
        if shared:
            u, v = sorted({a, b, c, e} - shared)
            return edges + [(u, v)]
    raise ValueError("no two edges meet")


def _node_min(node):
    return node if isinstance(node, int) else min(_node_min(node[0]), _node_min(node[1]))


def _node_size(node):
    return 0 if isinstance(node, int) else _node_size(node[0]) + _node_size(node[1]) + 1


def _flip(rng, node):
    """Swap the children of each vertex with probability 1/2."""
    if isinstance(node, int):
        return node
    left, right = _flip(rng, node[0]), _flip(rng, node[1])
    return (right, left) if rng.random() < 0.5 else (left, right)


def _forest(nodes, n):
    return Forest(tuple(Tree(nd) for nd in nodes), n)


def _reverse_some(rng, edges):
    out = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in edges]
    rng.shuffle(out)
    return out


def _coeff(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def normalize_corpus():
    """Fixed inputs: (kind, n, d, payload) drawn once from CORPUS_SEED."""
    rng = random.Random(CORPUS_SEED)
    corpus = []
    for n in range(6, 10):
        for i in range(CORPUS_PER_N):
            corpus.append(("forest", n, 2 + i % 2, _random_forest(rng, n, 1 + i % 3)))
    for n in range(6, 9):
        for i in range(CORPUS_PER_N):
            if i % 4 == 0:   # a repeated vertex pair: dies
                edges = _random_tree_edges(rng, n, n - 2)
                edges.insert(rng.randrange(len(edges) + 1), edges[rng.randrange(len(edges))][::-1])
                corpus.append(("dead", n, 2 + i % 2, edges))
            elif i % 4 == 1:  # a cycle: dies
                corpus.append(("dead", n, 2 + i % 2, _with_triangle(_random_tree_edges(rng, n, n - 2))))
            else:
                corpus.append(("graph", n, 2 + i % 2, _random_tree_edges(rng, n, n - 1 - i % 2)))
    for n in range(6, 10):
        for i in range(2):
            corpus.append(("forest-cancel", n, 2 + i, (_random_forest(rng, n, 1)[0],
                                                       _random_forest(rng, n, 1 + i))))
    for n in (6, 7, 7, 8):
        for i in range(2):
            corpus.append(("graph-cancel", n, 2 + i, (_random_tree_edges(rng, n, n - 1),
                                                      _random_tree_edges(rng, n, n - 2))))
    return corpus


def _anti_sign(a, b, d):
    """[T1,T2] = s [T2,T1] with a, b internal vertices below (paper's sign)."""
    return -1 if (d + (a + b + a * b) * (d - 1)) % 2 else 1


def right_comb(n):
    node = (n - 1, n)
    for lab in range(n - 2, 0, -1):
        node = (lab, node)
    return node


def _normalize_op(label, kind, x, d, n, expect_zero=False):
    def run():  # looked up per call, so the tracer's wrapper is seen
        fn = confpair.normalize_pois if kind == "pois" else confpair.normalize_siop
        return fn(x, d)
    return Op(label, run,
              lambda out: check_normalized(x, out, kind, d, n, expect_zero))


def normalize_ops(seed):
    rng = random.Random(seed)
    ops = []
    for idx, (what, n, d, payload) in enumerate(normalize_corpus()):
        label = f"{what} n={n} d={d} #{idx}"
        if what == "forest":
            x = LinCombo.single(_forest([_flip(rng, nd) for nd in payload], n), _coeff(rng))
            ops.append(_normalize_op(label, "pois", x, d, n))
        elif what in ("graph", "dead"):
            x = LinCombo.single(Graph(n, tuple(_reverse_some(rng, payload))), _coeff(rng))
            ops.append(_normalize_op(label, "siop", x, d, n, what == "dead"))
        elif what == "forest-cancel":
            # c F - c s F' with F' the root swap of F cancels; c2 H remains
            tree, other = payload
            node = _flip(rng, tree)
            swapped = (node[1], node[0])
            s = _anti_sign(_node_size(node[0]), _node_size(node[1]), d)
            c = _coeff(rng)
            x = LinCombo([(_forest([node], n), c), (_forest([swapped], n), -c * s),
                          (_forest([_flip(rng, nd) for nd in other], n), _coeff(rng))])
            ops.append(_normalize_op(label, "pois", x, d, n))
        else:
            # c g - c (-1)^d g' with g' one arrow reversed cancels; c2 h remains
            edges, other = payload
            edges = _reverse_some(rng, edges)
            pos = rng.randrange(len(edges))
            flipped = list(edges)
            flipped[pos] = flipped[pos][::-1]
            c = _coeff(rng)
            x = LinCombo([(Graph(n, tuple(edges)), c),
                          (Graph(n, tuple(flipped)), -c * (-1) ** d),
                          (Graph(n, tuple(_reverse_some(rng, other))), _coeff(rng))])
            ops.append(_normalize_op(label, "siop", x, d, n))
    # the worst cases of each rewriting engine, unchanged by the seed
    for d in (2, 3):
        comb = LinCombo.single(_forest([right_comb(10)], 10))
        ops.append(_normalize_op(f"right comb n=10 d={d}", "pois", comb, d, 10))
        star = LinCombo.single(Graph(8, tuple((1, j) for j in range(2, 9))))
        ops.append(_normalize_op(f"star n=8 d={d}", "siop", star, d, 8))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# duality: the operad/cooperad duality sweep

SAMPLE_OTREE = "((*,*,*),(*,*,*))"
SAMPLE_TRIALS = 200


def check_duality_report(report, expected_cases):
    if report.failures:
        return f"{len(report.failures)} duality failures"
    if report.cases_checked != expected_cases:
        return f"{report.cases_checked} cases checked, expected {expected_cases}"
    return None


def duality_ops(seed):
    rng = random.Random(seed)
    ops = []
    for tau in confpair.all_two_level_trees(5):
        cases = duality_cases(tau.node)
        for d in (2, 3):
            ops.append(Op(f"check_duality {confpair.render_otree(tau)} d={d}",
                          lambda tau=tau, d=d: confpair.check_duality(tau, d),
                          lambda out, cases=cases: check_duality_report(out, cases)))
    tau6 = confpair.parse_otree(SAMPLE_OTREE)
    for d in (2, 3):
        sample_seed = rng.randrange(2 ** 31)
        ops.append(Op(f"sample_duality {SAMPLE_OTREE} d={d}",
                      lambda d=d, s=sample_seed: confpair.sample_duality(
                          tau6, d, trials=SAMPLE_TRIALS, seed=s),
                      lambda out: check_duality_report(out, SAMPLE_TRIALS)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli: in-process calls of confpair.cli.main with stdout captured

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = confpair.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
    return code, out.getvalue()


def _parse_terms(text, parse):
    terms = []
    for line in text.splitlines():
        coeff, elem = line.split("*", 1)
        terms.append((parse(elem.strip()), int(coeff)))
    return LinCombo(terms)


def cli_checker(expect_fn):
    """Wrap an oracle over stdout so that a non-zero exit code fails first."""
    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        try:
            return expect_fn(text)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
    return check


def _expect_value(expected, fmt):
    def check(text):
        got = json.loads(text)["value"] if fmt == "json" else int(text)
        return None if got == expected else f"value {got}, expected {expected}"
    return check


def _expect_normalized(kind, x, d, n):
    def check(text):
        parse = (lambda s: confpair.parse_forest(s, n=n)) if kind == "pois" else confpair.parse_graph
        return check_normalized(x, _parse_terms(text, parse), kind, d, n)
    return check


def _expect_compose(outer, index, inner, d):
    def check(text):
        got = _parse_terms(text, confpair.parse_forest)
        if any(comb_blocks(f) is None for f, _ in got):
            return "composition output is not in the tall basis"
        want = confpair.compose(confpair.parse_forest(outer), index,
                                confpair.parse_forest(inner), d)
        return None if got == want else "composition output differs from the API"
    return check


def _expect_cooperad(n_vertices, n_edges):
    def check(text):
        lines = text.splitlines()
        if lines[0] not in ("sign 1", "sign -1"):
            return f"bad sign line {lines[0]!r}"
        factors = [confpair.parse_graph(line.split(": ", 1)[1]) for line in lines[1:]]
        if len(factors) != n_vertices:
            return f"{len(factors)} factors for {n_vertices} vertices"
        if sum(len(g.edges) for g in factors) != n_edges:
            return "factor edges do not add up to the graph's edges"
        return None
    return check


def _expect_enumerate(kind, n, k):
    def check(text):
        lines = text.splitlines()
        if len(lines) != betti(n)[k] or len(set(lines)) != len(lines):
            return f"{len(lines)} elements, expected {betti(n)[k]} distinct"
        for line in lines:
            if kind == "tall-forests":
                blocks = comb_blocks(confpair.parse_forest(line, n=n))
            else:
                blocks = chain_blocks(confpair.parse_graph(line))
            if blocks is None or len(blocks) != n - k:
                return f"{line!r} is not a basis element of degree {k}"
        return None
    return check


def _expect_ranks(n, d):
    want = ["degree,rank"] + [f"{k * (d - 1)},{c}" for k, c in enumerate(betti(n))]
    return lambda text: None if text.splitlines() == want else "rank table differs"


def _expect_gram(n, k):
    size = betti(n)[k]

    def check(text):
        lines = text.splitlines()
        rows = [[int(v) for v in line.split()] for line in lines[:-1]]
        ident = [[1 if r == c else 0 for c in range(size)] for r in range(size)]
        if rows != ident or lines[-1] != "identity: True":
            return "Gram block is not the identity"
        return None
    return check


def _expect_verify(n):
    want = [f"k={k}: size {c} identity True" for k, c in enumerate(betti(n))]
    want += [f"first degree: size {n * (n - 1) // 2} identity True", "ok: True"]
    return lambda text: None if text.splitlines() == want else "verify report differs"


def _expect_duality(cases):
    want = f"cases {cases} failures 0"
    return lambda text: None if text.strip() == want else f"{text.strip()!r} != {want!r}"


def _expect_limits(text):
    devs = [float(line.rsplit(" ", 1)[1]) for line in text.splitlines()]
    if len(devs) != 3 or devs[-1] >= 1e-2:
        return f"deviations {devs} do not reach the limit"
    if any(b > a + 1e-9 for a, b in zip(devs, devs[1:])):
        return f"deviations {devs} grow as eps shrinks"
    return None


def _random_forest_text(rng, n):
    return confpair.render_forest(_forest(_random_forest(rng, n, rng.randint(1, 2)), n))


def _graph_text(n, edges):
    return confpair.render_graph(Graph(n, tuple(edges)))


def cli_ops(seed):
    rng = random.Random(seed)
    calls = [(["pair", "--d", "3", "--graph", "n=3; 1->2, 2->3", "--forest", "[[2,1],3]"],
              _expect_value(-1, "text"))]
    for _ in range(29):
        n = rng.randint(3, 6)
        k = rng.randrange(n)
        p = random_blocks(rng, n, k)
        q = p if rng.random() < 0.5 else random_blocks(rng, n, k)
        fmt = rng.choice(("text", "json"))
        argv = ["pair", "--d", str(rng.randint(2, 5)), "--format", fmt,
                "--graph", confpair.render_graph(long_graph(p, n)),
                "--forest", confpair.render_forest(tall_forest(q, n))]
        calls.append((argv, _expect_value(1 if p == q else 0, fmt)))
    for kind in ("pois", "siop"):
        for _ in range(8):
            n, d = rng.randint(4, 5), rng.randint(2, 3)
            lines, terms = [], []
            for _ in range(rng.randint(1, 2)):
                c = _coeff(rng)
                if kind == "pois":
                    text = _random_forest_text(rng, n)
                    lines.append(f"{c} * {text}")
                    terms.append((confpair.parse_forest(text, n=n), c))
                else:
                    edges = _reverse_some(rng, _random_tree_edges(rng, n, rng.randint(1, n - 1)))
                    lines.append(f"{c} * {_graph_text(n, edges)}")
                    terms.append((Graph(n, tuple(edges)), c))
            x = LinCombo(terms)
            argv = ["normalize", "--kind", kind, "--n", str(n), "--d", str(d),
                    "--input", "\n".join(lines)]
            calls.append((argv, _expect_normalized(kind, x, d, n)))
    for _ in range(10):
        outer_n = rng.randint(2, 3)
        outer = _random_forest_text(rng, outer_n)
        inner = _random_forest_text(rng, rng.randint(2, 3))
        index = rng.randint(1, outer_n)
        d = rng.randint(2, 3)
        argv = ["compose", "--outer", outer, "--index", str(index), "--inner", inner,
                "--d", str(d)]
        calls.append((argv, _expect_compose(outer, index, inner, d)))
    for _ in range(12):
        n_total = rng.randint(3, 5)
        tau = rng.choice(confpair.all_two_level_trees(n_total))
        edges = _reverse_some(rng, _random_tree_edges(rng, n_total, rng.randint(1, n_total - 1)))
        argv = ["cooperad", "--graph", _graph_text(n_total, edges),
                "--otree", confpair.render_otree(tau), "--d", str(rng.randint(2, 3))]
        n_vertices = 1 + sum(child != "*" for child in tau.node)
        calls.append((argv, _expect_cooperad(n_vertices, len(edges))))
    for _ in range(10):
        kind = rng.choice(("tall-forests", "long-graphs"))
        n = rng.randint(3, 5)
        k = rng.randrange(n)
        calls.append((["enumerate", "--kind", kind, "--n", str(n), "--k", str(k)],
                      _expect_enumerate(kind, n, k)))
    for _ in range(8):
        n, d = rng.randint(2, 7), rng.randint(2, 5)
        calls.append((["ranks", "--n", str(n), "--d", str(d)], _expect_ranks(n, d)))
    for k in (2, 3, 4):
        for d in (2, 3):
            calls.append((["gram", "--n", "5", "--k", str(k), "--d", str(d)], _expect_gram(5, k)))
    for d in (2, 3, 4):
        calls.append((["verify", "--n", "5", "--d", str(d)], _expect_verify(5)))
    for tau in confpair.all_two_level_trees(4) + [confpair.parse_otree("(*,(*,*))")]:
        argv = ["duality", "--otree", confpair.render_otree(tau), "--d", str(rng.randint(2, 3))]
        calls.append((argv, _expect_duality(duality_cases(tau.node))))
    for _ in range(8):
        forest_text = _random_forest_text(rng, 4)
        edges = _reverse_some(rng, _random_tree_edges(rng, 4, 2))
        argv = ["geom-check", "--forest", forest_text,
                "--graph", _graph_text(4, edges), "--d", str(rng.randint(2, 3)),
                "--seed", str(rng.randrange(1000))]
        calls.append((argv, _expect_limits))
    rng.shuffle(calls)
    return [Op(argv[0], lambda argv=argv: run_cli(argv), cli_checker(expect))
            for argv, expect in calls]


BUILDERS = {
    "verify": verify_ops,
    "normalize": normalize_ops,
    "duality": duality_ops,
    "cli": cli_ops,
}


def build(name, seed):
    return BUILDERS[name](seed)
