"""Bracket expressions over variables x_1..x_n and their forest reduction.

An expression is a tree node plus a product tag: an int i is the variable
x_i, a pair (a, b) the bracket [a, b], a triple (DOT, a, b) the product
a.b, so a forest is the product of its trees' nodes.  Each variable
appears at most once.  A general expression (products inside brackets)
reduces to forests by the Leibniz rule

    [X, Y.Z]  =  [X, Y].Z  +  (-1)^((|X| + d-1)|Y|)  Y.[X, Z]

where |X| counts (brackets of X)*(d-1): the operator [X, -] is a derivation
of degree |X| + d - 1.  In both slots at once, [u_1...u_p, w_1...w_q] sums
over factor pairs: term (a, b) is w_<b u_<a [w_b, u_a] u_>a w_>b, signed for
[U, -] passing w_<b, swapping U and w_b, and [w_b, -] passing u_<a (for p =
1, [u, w_b] with the first sign).  Bracket arguments swap with the
shifted-degree sign, and product factors reorder into canonical (min-label)
forest storage with the usual permutation sign on internal vertices.
"""

from __future__ import annotations

import functools
import itertools

from .errors import ValidationError
from .lincombo import LinCombo
from .normalize import anti_sign, eps
from .trees import Forest, Tree, _node_size, sort_trees_with_parity

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
    return functools.reduce(dot, exprs)


def expr_vars(e):
    if _kind(e) == "var":
        return (e,)
    return expr_vars(e[-2]) + expr_vars(e[-1])


def render_expr(e):
    kind = _kind(e)
    if kind == "var":
        return f"x{e}"
    left, right = render_expr(e[-2]), render_expr(e[-1])
    if kind == "br":
        return f"[{left},{right}]"
    if _kind(e[1]) == DOT:
        left = f"({left})"
    if _kind(e[2]) == DOT:
        right = f"({right})"
    return f"{left}*{right}"


def forest_to_expr(f: Forest):
    """Canonical expression of a forest: the product of its trees' nodes."""
    if not f.trees:
        raise ValidationError("an empty forest has no bracket expression")
    return dot_list([t.node for t in f.trees])


def map_vars(e, fn):
    """Replace each variable v of e by the expression fn(v)."""
    if _kind(e) == "var":
        return fn(e)
    return e[:-2] + (map_vars(e[-2], fn), map_vars(e[-1], fn))  # e[:-2]: () or (DOT,)


# ---------------------------------------------------------------------------
# reduction to forests

def _bracket_monomials(u_trees, w_trees, d):
    """[U, W] for dot-monomials of tree nodes; a list of (coeff, tree tuple)."""
    if len(u_trees) == 1 and len(w_trees) == 1:
        return [(1, ((u_trees[0], w_trees[0]),))]
    u_before = list(itertools.accumulate(map(_node_size, u_trees), initial=0))  # |u_<a|
    bu, w_before, out = u_before[-1], 0, []
    for b, w in enumerate(w_trees):
        bw = _node_size(w)
        head, tail = w_trees[:b], w_trees[b + 1:]
        s = eps((bu + 1) * w_before, d)
        w_before += bw
        if len(u_trees) == 1:
            out.append((s, head + ((u_trees[0], w),) + tail))
        else:  # [U, w_b] = anti_sign * [w_b, U], expanded over U's factors
            s *= anti_sign(bu, bw, d)
            out += [(s * eps((bw + 1) * u_before[a], d),
                     head + u_trees[:a] + ((w, u),) + u_trees[a + 1:] + tail)
                    for a, u in enumerate(u_trees)]
    return out


def _reduce_monomials(e, d):
    """Expression -> list of (coeff, tuple of tree nodes in product order)."""
    kind = _kind(e)
    if kind == "var":
        return [(1, (e,))]
    left = _reduce_monomials(e[-2], d)
    right = _reduce_monomials(e[-1], d)
    if kind == DOT:
        return [(ca * cb, ta + tb) for ca, ta in left for cb, tb in right]
    out = []
    for ca, ta in left:
        for cb, tb in right:
            for c, trees in _bracket_monomials(ta, tb, d):
                out.append((ca * cb * c, trees))
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
    for coeff, tree_nodes in _reduce_monomials(e, d):
        ordered, parity = sort_trees_with_parity(tuple(Tree(t) for t in tree_nodes))
        terms.append((Forest(ordered, n), coeff * eps(parity, d)))
    return LinCombo(terms)


def reduce_bracket(b, d: int) -> LinCombo:
    """Reduce a LinCombo of expressions (or one expression) to forests."""
    if not isinstance(b, LinCombo):
        return reduce_expr(b, d)
    return LinCombo([(f, c * cf) for e, c in b for f, cf in reduce_expr(e, d)])
