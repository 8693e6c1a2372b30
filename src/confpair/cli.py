"""Command-line surface.

Subcommands: pair, normalize, compose, cooperad, gram, ranks, enumerate,
verify, duality, geom-check.  Global flags live on every subcommand: --d
(integer dimension, >= 2; signs only use its parity but rank tables use
the true degrees k(d-1)), --format text|json, --cache-dir, --seed.
--cache-dir is accepted for compatibility and ignored: every result is
recomputed, nothing is read from or written to disk.  geom-check seeds
numpy's generator, which takes no negative --seed (exit 2).

Sizes are checked against SIZE_BUDGET before any work starts; for
geom-check the size is its coordinates, samples x eps values x n x d.
verify checks its Gram entries against pairing.ENTRY_BUDGET instead.

A command builds only the format --format names, and this module turns
the library's results into text lines and JSON payloads; geom-check's
JSON is the report geometry.limit_check returns, with both inputs rendered.

Exit codes: 0 success, 1 parse error, 2 validation error, 3 a structural
verification failed.  Output is byte-deterministic for fixed (argv, seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import ParseError, ValidationError, VerificationFailure
from .geometry import limit_check
from .graphs import enumerate_long_graphs, graph_to_json, parse_edges, parse_graph, render_graph
from .lincombo import LinCombo
from .normalize import long_support, normalize_pois, normalize_siop, tall_support, tall_terms
from .operad import check_duality, cooperad, leibniz_terms, sample_duality
from .otrees import parse_otree
from .pairing import gram_matrix, pair_basis, poincare_coefficients, rank_table, verify_perfect
from .trees import (MAX_NESTING, Forest, check_degree, enumerate_tall_forests, forest_to_json,
                    parse_forest, render_forest, tree_node_to_json)

SIZE_BUDGET = 1_000_000  # most labels, coordinates, Gram entries or rank digits to build


def _compact(size):
    """size in full up to 15 digits, else `more than 10^N` with N = digits - 1."""
    if size < 10 ** 15:
        return str(size)
    n = int(math.log10(size))  # log10 reads a big int without float(), which overflows
    n += 10 ** (n + 1) <= size  # and may round either way next to a power of 10
    n -= 10 ** n > size
    return f"more than 10^{n}"


def _refuse_above_budget(size, needs):
    """Refuse work of the given size above SIZE_BUDGET; `needs` says what it needs."""
    if size > SIZE_BUDGET:
        raise ValidationError(f"{needs}, above the budget of {SIZE_BUDGET}")


def _check_budget(n, k, cost, what):
    """Refuse degree k of n when cost(basis size, n) is above SIZE_BUDGET.

    For n >= 4 the coefficients of prod_{i<n} (1 + i t) are log-concave, so
    those of degrees 1..n-1 are all at least the degree-1 one, n(n-1)/2.
    An n whose degree 1 is over budget is refused in every degree, before
    the product is multiplied out.
    """
    check_degree(n, k)
    least = cost(n * (n - 1) // 2, n)
    if n >= 4:
        _refuse_above_budget(least, f"n={n} is too large: each degree 1..{n - 1} needs "
                                    f"at least {_compact(least)} {what}")
    size = cost(poincare_coefficients(n)[k], n)
    _refuse_above_budget(size, f"n={n} k={k} needs {_compact(size)} {what}")


def _parse_combo(text, parse_element):
    terms = []
    pos = 0
    for raw in text.splitlines(keepends=True):
        line_start, pos = pos, pos + len(raw)
        line = raw.strip()
        if not line:
            continue
        start = line_start + raw.find(line)
        if "*" in line:
            coeff_text, element_text = line.split("*", 1)
            coeff = _parse_number(int, coeff_text, text, start)
        else:
            coeff, element_text = 1, line
        element_text = element_text.strip()
        try:
            terms.append((parse_element(element_text), coeff))
        except ParseError as exc:  # the element ends where the line does
            raise exc.within(text, start + len(line) - len(element_text)) from None
    return terms


def _parse_number(kind, chunk, text, pos):
    """kind(chunk), or a ParseError pointing at pos in text."""
    try:
        return kind(chunk)
    except ValueError:
        raise ParseError(f"expected a number, got {chunk.strip()!r}", text, pos) from None


def _combo_lines(combo, render_element):
    rendered = sorted((render_element(e), c) for e, c in combo)
    return [f"{c} * {text}" for text, c in rendered]


def _node_code(node):
    """A tree node's JSON text with its fixed parts dropped, ordered as that
    text: a leaf `a<v>}` before a pair `f<left><right>` ('a' < 'f' as in
    `{"leaf"` and `{"left"`), and no code is a prefix of another."""
    if isinstance(node, int):
        return f"a{node}}}"
    return f"f{_node_code(node[0])}{_node_code(node[1])}"


def _json_order(e, node_code=_node_code):
    """A string that sorts forests and graphs as json.dumps(element, sort_keys=True)
    sorts their JSON elements: each decisive character of that text is kept
    (the ones after a number, `,` or `]` after a list item, the `]` of an
    empty list), and a graph's `{"e` sorts before a forest's `{"k`."""
    if isinstance(e, Forest):
        return f"k{e.n}," + ",".join(node_code(t.node) for t in e.trees) + "]"
    return "e" + ",".join(f"[{i},{j}]" for i, j in e.edges) + f"]{e.n}}}"


def _forest_json():
    """forest_to_json, with the JSON of each distinct tree built once: the
    forests of a tall expansion share their trees."""
    return functools.partial(forest_to_json, node_json=functools.cache(tree_node_to_json))


def _combo_json(combo, n, element_json):
    node_code = functools.cache(_node_code)  # the trees of a tall expansion repeat
    ordered = sorted(combo, key=lambda item: _json_order(item[0], node_code))
    return {"n": n, "terms": [{"coeff": c, "element": element_json(e)} for e, c in ordered]}


def _emit(args, text_lines, payload):
    """Print the format args.format names; only its function is called."""
    if args.format == "json":
        print(json.dumps(payload(), sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def describe_pair(g, f, d, res):
    """The JSON of pair: both inputs, d, and res = pair_basis(g, f, d)."""
    return {
        "graph": render_graph(g),
        "forest": render_forest(f),
        "d": d,
        "value": res.value,
        "beta": None if res.beta_witness is None else [
            {"edge": list(e), "vertex": {"tree": v[0], "path": list(v[1])}}
            for e, v in res.beta_witness
        ],
    }


def cmd_pair(args):
    g = parse_graph(args.graph)
    f = parse_forest(args.forest, n=g.n)
    res = pair_basis(g, f, args.d)
    _emit(args, lambda: [str(res.value)], lambda: describe_pair(g, f, args.d, res))
    return 0


def cmd_normalize(args):
    parse, normalize, render, to_json, support, basis = {
        "pois": (parse_forest, normalize_pois, render_forest, _forest_json(),
                 lambda f: tall_support([(1, f.trees)]), "tall"),
        "siop": (parse_graph, normalize_siop, render_graph, graph_to_json,
                 long_support, "long"),
    }[args.kind]
    text = args.input if args.input is not None else sys.stdin.read()
    terms = _parse_combo(text, lambda s: parse(s, n=args.n))
    combo = LinCombo(terms)
    for x, _ in combo:  # reading an element's support walks all n of its labels
        _refuse_above_budget(x.n, f"reading an element walks {_compact(x.n)} labels")
    labels = sum(support(x) * x.n for x, _ in combo)
    _refuse_above_budget(labels, f"the {basis} expansion needs {_compact(labels)} labels")
    out = normalize(combo, args.d)
    n = args.n or next((x.n for x, _ in combo or terms), 0)  # a zero result keeps the input's n
    _emit(args, lambda: _combo_lines(out, render), lambda: _combo_json(out, n, to_json))
    return 0


def cmd_compose(args):
    outer = parse_forest(args.outer)
    inner = parse_forest(args.inner)
    n = outer.n + inner.n - 1
    # leaf i sits under h brackets (none for a bad index, which leibniz_terms refuses)
    h = len(outer.leaf_info.get(args.index, (0, ()))[1])
    depth = h + max(len(path) for _, path in inner.leaf_info.values())
    if depth > MAX_NESTING:
        raise ValidationError(f"the composite nests up to {depth} levels, "
                              f"deeper than {MAX_NESTING}")
    forests = len(inner.trees) ** h  # r inner trees under h brackets expand to r^h forests
    _refuse_above_budget(forests * n,
                         f"the Leibniz expansion has {_compact(forests)} forests of {n} labels")
    terms = leibniz_terms(outer, args.index, inner, args.d)
    labels = tall_support(terms) * n
    _refuse_above_budget(labels, f"the tall expansion needs {_compact(labels)} labels")
    out = tall_terms(terms, n, args.d)
    _emit(args, lambda: _combo_lines(out, render_forest),
          lambda: _combo_json(out, n, _forest_json()))
    return 0


def cmd_cooperad(args):
    g = parse_graph(args.graph)
    tau = parse_otree(args.otree)
    res = cooperad(g, tau, args.d)
    _emit(args,
          lambda: [f"sign {res.sign}"] + [f"vertex {list(v)}: {render_graph(factor)}"
                                          for v, factor in zip(res.vertices, res.factors)],
          lambda: {"sign": res.sign,
                   "factors": [{"vertex": list(v), "graph": render_graph(factor)}
                               for v, factor in zip(res.vertices, res.factors)]})
    return 0


def cmd_gram(args):
    _check_budget(args.n, args.k, lambda size, n: size ** 2, "entries")
    gm = gram_matrix(args.n, args.k, args.d)
    identity = gm.is_identity()
    _emit(args,
          lambda: [" ".join(f"{v:2d}" for v in row.tolist()) for row in gm.entries]
          + [f"identity: {identity}"],
          lambda: {"n": args.n, "k": args.k, "parity": gm.parity, "identity": identity,
                   "entries": gm.entries.tolist()})
    if not identity:
        raise VerificationFailure(f"Gram matrix n={args.n} k={args.k} is not the identity")
    return 0


def cmd_ranks(args):
    check_degree(args.n, 0)
    # n ranks of one digit or more: refuse n above the budget before lgamma floats it
    _refuse_above_budget(args.n, f"{_compact(args.n)} ranks need at least as many digits")
    digits = args.n * math.lgamma(args.n + 1) / math.log(10)  # n ranks, each below n!
    _refuse_above_budget(digits, f"n={args.n} needs up to {digits:.0f} digits")
    table = rank_table(args.n, args.d)
    rows = table.csv_rows()
    _emit(args, lambda: ["degree,rank"] + [f"{deg},{q}" for deg, q in rows],
          lambda: {"n": table.n, "d": table.d,
                   "ranks": [{"degree": deg, "rank": q} for deg, q in rows]})
    return 0


def cmd_enumerate(args):
    _check_budget(args.n, args.k, lambda size, n: size * n, "labels")
    if args.kind == "tall-forests":
        items = [render_forest(f) for f in enumerate_tall_forests(args.n, args.k)]
    else:
        items = [render_graph(g) for g in enumerate_long_graphs(args.n, args.k)]
    _emit(args, lambda: items, lambda: {"n": args.n, "k": args.k, "kind": args.kind,
                                        "count": len(items), "elements": items})
    return 0


def _perfect_lines(report):
    return [
        f"k={r.k}: size {r.size} identity {r.identity}" for r in report.degrees
    ] + [f"first degree: size {report.first_degree_size} "
         f"identity {report.first_degree_identity}",
         f"ok: {report.ok}"]


def _perfect_json(report):
    return {
        "n": report.n,
        "parity": report.parity,
        "degrees": [
            {"k": r.k, "size": r.size, "identity": r.identity,
             "failures": [list(t) for t in r.failures]}
            for r in report.degrees
        ],
        "first_degree": {
            "size": report.first_degree_size,
            "identity": report.first_degree_identity,
            "failures": [list(t) for t in report.first_degree_failures],
        },
        "ok": report.ok,
    }


def cmd_verify(args):
    report = verify_perfect(args.n, args.d)
    _emit(args, lambda: _perfect_lines(report), lambda: _perfect_json(report))
    if not report.ok:
        raise VerificationFailure(f"perfect-pairing verification failed for n={args.n}")
    return 0


def _duality_json(report):
    return {
        "tau": report.tau,
        "d": report.d,
        "cases_checked": report.cases_checked,
        "failures": [
            {"graph": render_graph(c["graph"]),
             "outer": render_forest(c["outer"]),
             "inner": {str(k): render_forest(v) for k, v in c["inner"].items()},
             "lhs": c["lhs"], "rhs": c["rhs"]}
            for c in report.failures
        ],
    }


def cmd_duality(args):
    tau = parse_otree(args.otree)
    n = tau.n_leaves
    labels = math.factorial(n) * n  # the long graphs of every degree of n
    _refuse_above_budget(labels, f"an o-tree with {n} leaves needs {_compact(labels)} labels "
                                 f"of long graphs")
    if n <= 5:
        report = check_duality(tau, args.d)
    else:  # too large to exhaust: seeded random spot-check
        labels = args.trials * n
        _refuse_above_budget(labels, f"{args.trials} trials need {_compact(labels)} labels")
        report = sample_duality(tau, args.d, trials=args.trials, seed=args.seed)
    _emit(args, lambda: [f"cases {report.cases_checked} failures {len(report.failures)}"],
          lambda: _duality_json(report))
    if not report.ok:
        raise VerificationFailure("operad/cooperad duality failed")
    return 0


def cmd_geom_check(args):
    f = parse_forest(args.forest)
    g = (parse_graph(args.graph) if args.graph.strip().startswith("n=")
         else parse_edges(args.graph, f.n))
    eps_list, pos = [], 0
    for chunk in args.eps.split(","):
        eps_list.append(_parse_number(float, chunk, args.eps, pos))
        pos += len(chunk) + 1
    coords = args.samples * len(eps_list) * f.n * args.d  # n points in R^d per sample and eps
    _refuse_above_budget(coords, f"{args.samples} samples at {len(eps_list)} eps "
                                 f"need {_compact(coords)} coordinates")
    report = limit_check(f, g, args.d, eps_list, seed=args.seed,
                         samples=args.samples)
    _emit(args, lambda: [f"eps {r['eps']}: max deviation {r['max_deviation']:.3e}"
                         for r in report["results"]],
          lambda: {**report, "forest": render_forest(f), "graph": render_graph(g)})
    return 0


def _add_common(p, fn):
    """Give subparser p the global flags and fn, the cmd_<name> that main calls."""
    p.set_defaults(fn=fn)
    p.add_argument("--d", type=int, default=3, help="ambient dimension, >= 2")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cache-dir", default=None,
                   help="accepted for compatibility and ignored; nothing is cached")
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confpair",
        description="Exact tree/graph calculus for configuration spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", help="configuration pairing of a graph and a forest")
    p.add_argument("--graph", required=True)
    p.add_argument("--forest", required=True)
    _add_common(p, cmd_pair)

    p = sub.add_parser("normalize", help="rewrite onto the tall/long basis")
    p.add_argument("--kind", choices=("pois", "siop"), required=True)
    p.add_argument("--input", default=None,
                   help="lines 'coeff * element'; reads stdin when omitted")
    p.add_argument("--n", type=int, default=None)
    _add_common(p, cmd_normalize)

    p = sub.add_parser("compose", help="operadic composition of forests")
    p.add_argument("--outer", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--inner", required=True)
    _add_common(p, cmd_compose)

    p = sub.add_parser("cooperad", help="graph-side structure map along an o-tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--otree", required=True)
    _add_common(p, cmd_cooperad)

    p = sub.add_parser("gram", help="pairing matrix of long graphs vs tall forests")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, cmd_gram)

    p = sub.add_parser("ranks", help="Betti numbers (CSV degree,rank)")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, cmd_ranks)

    p = sub.add_parser("enumerate", help="canonical basis elements")
    p.add_argument("--kind", choices=("tall-forests", "long-graphs"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, cmd_enumerate)

    p = sub.add_parser("verify", help="perfect-pairing verification for one n")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, cmd_verify)

    p = sub.add_parser("duality", help="operad/cooperad duality for a two-level o-tree")
    p.add_argument("--otree", required=True)
    p.add_argument("--trials", type=int, default=200,
                   help="sample size when the tree has more than 5 leaves")
    _add_common(p, cmd_duality)

    p = sub.add_parser("geom-check", help="eps -> 0 limit deviations")
    p.add_argument("--forest", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--eps", default="0.1,0.01,0.001")
    p.add_argument("--samples", type=int, default=8)
    _add_common(p, cmd_geom_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.d < 2:
            raise ValidationError("d must be >= 2")
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
