"""Bracket expressions over variables x_1..x_n and their forest reduction.

An expression is a tree node plus a product tag: an int i is the variable
x_i, a pair (a, b) the bracket [a, b], a triple (DOT, a, b) the product
a.b, so a forest is the product of its trees' nodes.  Each variable
appears at most once.  A general expression (products inside brackets)
reduces to forests by the graded Leibniz rule, the one Leibniz step of the
package (operad.leibniz_terms takes its brackets from here too).  With |x|
the bracket count of x and eps(e) = (-1)^(e(d-1)), [x, -] for one tree x
is a derivation of degree |x| + d-1:

    [x, w_1...w_q]  =  sum_b  eps((|x| + 1) |w_<b|)  w_<b [x, w_b] w_>b.

A product U = u_1...u_p (p > 1) against one tree swaps first, [U, w] =
anti_sign(|U|, |w|) [w, U], the derivation [w, -] over U; against a
product W, [U, -] is the derivation over W of those swapped brackets.
The step reads blocks (tree nodes with their minimum label and size), and
reduce_expr builds Trees only after product factors reorder into
canonical (min-label) forest storage, with the usual permutation sign on
internal vertices.
"""

from __future__ import annotations

import functools

from .errors import ValidationError
from .lincombo import LinCombo
from .normalize import anti_sign, eps
from .trees import Forest, Tree, sort_trees_with_parity

DOT = "dot"  # tag of a product triple (DOT, a, b)


def _kind(e):
    """The kind of a node, "var", "br" or DOT; the one check of its shape."""
    if isinstance(e, int):
        return "var"
    if isinstance(e, tuple) and (len(e) == 2 or len(e) == 3 and e[0] == DOT):
        return DOT if len(e) == 3 else "br"
    raise ValidationError(f"malformed expression node {e!r}")


def var(i):
    if not isinstance(i, int) or i < 1:
        raise ValidationError(f"variable index must be a positive int, got {i!r}")
    return i


def br(a, b):
    return (a, b)


def dot(a, b):
    return (DOT, a, b)


def dot_list(exprs):
    if not exprs:
        raise ValidationError("an empty forest has no bracket expression")
    return functools.reduce(dot, exprs)


def expr_vars(e):
    kind = _kind(e)
    if kind == "var":
        return (e,)
    if kind == "br":
        return expr_vars(e[0]) + expr_vars(e[1])
    return tuple(v for factor in _dot_factors(e) for v in expr_vars(factor))


def render_expr(e):
    kind = _kind(e)
    if kind == "var":
        return f"x{e}"
    if kind == "br":
        return f"[{render_expr(e[0])},{render_expr(e[1])}]"
    first, *rest = _dot_factors(e)
    out = render_expr(first)
    for b, factor in enumerate(rest):  # a product factor renders in parentheses
        right = render_expr(factor)
        if _kind(factor) == DOT:
            right = f"({right})"
        out = f"({out})*{right}" if b else f"{out}*{right}"
    return out


def forest_to_expr(f: Forest):
    """Canonical expression of a forest: the product of its trees' nodes."""
    return dot_list([t.node for t in f.trees])


def map_vars(e, fn):
    """Replace each variable v of e by the expression fn(v)."""
    kind = _kind(e)
    if kind == "var":
        return fn(e)
    if kind == "br":
        return (map_vars(e[0], fn), map_vars(e[1], fn))
    return functools.reduce(dot, [map_vars(factor, fn) for factor in _dot_factors(e)])


# ---------------------------------------------------------------------------
# reduction to forests

class _Block:
    """A tree node with what the Leibniz step and tall_terms read off it: its
    min_label and size (the keys of sort_trees_with_parity) and depth.  A
    Tree carries the same four fields, node, min_label, size and depth, so
    sorting, normalize's chains and its count take either."""

    __slots__ = ("node", "min_label", "size", "depth")

    def __init__(self, node, min_label: int, size: int, depth: int):
        self.node = node
        self.min_label = min_label
        self.size = size
        self.depth = depth  # of the minimum leaf, as Tree.depth


def _join(a: _Block, b: _Block) -> _Block:
    """The bracket [a, b]."""
    low = a if a.min_label < b.min_label else b
    return _Block((a.node, b.node), low.min_label, a.size + b.size + 1, low.depth + 1)


def _block(node, relabel) -> _Block:
    """node with each label v replaced by relabel(v), read in one walk."""
    if isinstance(node, int):
        v = relabel(node)
        return _Block(v, v, 0, 0)
    return _join(_block(node[0], relabel), _block(node[1], relabel))


def _bracket_monomials(us, ws, d):
    """[U, W] for products of blocks (see the module docstring); a list of
    (coeff, block tuple), the swap sign taken once per bracket."""
    if len(us) > 1 < len(ws):  # [U, -] is a derivation over W
        size, out, before = sum(u.size for u in us), [], 0
        for b, w in enumerate(ws):
            s, head, tail = eps((size + 1) * before, d), ws[:b], ws[b + 1:]
            before += w.size
            out += [(s * c, head + bs + tail) for c, bs in _bracket_monomials(us, (w,), d)]
        return out
    if len(us) == 1:
        s, x, factors = 1, us[0], ws
    else:  # [U, w] = anti_sign(|U|, |w|) [w, U]
        s, x, factors = anti_sign(sum(u.size for u in us), ws[0].size, d), ws[0], us
    out, before = [], 0
    for a, f in enumerate(factors):  # [x, -] is a derivation
        out.append((s * eps((x.size + 1) * before, d),
                    factors[:a] + (_join(x, f),) + factors[a + 1:]))
        before += f.size
    return out


def _dot_factors(e):
    """The factors of e's left-nested product spine, left to right."""
    out = []
    while _kind(e) == DOT:
        out.append(e[2])
        e = e[1]
    out.append(e)
    return out[::-1]


def _reduce_monomials(e, d):
    """Expression -> list of (coeff, tuple of blocks in product order)."""
    kind = _kind(e)
    if kind == "var":
        return [(1, (_Block(e, e, 0, 0),))]
    if kind == "br":
        left, right = _reduce_monomials(e[0], d), _reduce_monomials(e[1], d)
        return [(ca * cb * c, blocks) for ca, ta in left for cb, tb in right
                for c, blocks in _bracket_monomials(ta, tb, d)]
    out = [(1, ())]
    for factor in _dot_factors(e):
        right = _reduce_monomials(factor, d)
        out = [(ca * cb, ta + tb) for ca, ta in out for cb, tb in right]
    return out


def reduce_expr(e, d: int) -> LinCombo:
    """Leibniz-expand one expression into canonical forests."""
    labels = expr_vars(e)
    if len(set(labels)) != len(labels):
        raise ValidationError(f"expression repeats a variable: {labels}")
    n = max(labels)
    if set(labels) != set(range(1, n + 1)):
        raise ValidationError(f"expression variables {sorted(labels)} not contiguous 1..{n}")
    terms = []
    for coeff, blocks in _reduce_monomials(e, d):
        ordered, parity = sort_trees_with_parity(blocks)
        terms.append((Forest(tuple(Tree(b.node) for b in ordered), n), coeff * eps(parity, d)))
    return LinCombo(terms)


def reduce_bracket(b, d: int) -> LinCombo:
    """Reduce a LinCombo of expressions (or one expression) to forests."""
    if not isinstance(b, LinCombo):
        return reduce_expr(b, d)
    return LinCombo([(f, c * cf) for e, c in b for f, cf in reduce_expr(e, d)])
