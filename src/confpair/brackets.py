"""Bracket expressions over variables x_1..x_n and their forest reduction.

An expression is a nested tuple: ("x", i) a variable, ("b", a, b) a bracket
[a, b], ("d", a, b) a product a.b.  Each variable may appear at most once.
Forests embed as products of pure bracket words; a general expression (dots
inside brackets) reduces to that form by the Leibniz rule

    [X, Y.Z]  =  [X, Y].Z  +  (-1)^((|X| + d-1)|Y|)  Y.[X, Z]

where |X| counts (brackets of X)*(d-1): the operator [X, -] is a derivation
of degree |X| + d - 1.  Bracket arguments swap with the shifted-degree sign,
and product factors reorder into canonical (min-label) forest storage with
the usual permutation sign on internal vertices.
"""

from __future__ import annotations

from .errors import ValidationError
from .lincombo import LinCombo
from .normalize import anti_sign, eps
from .trees import Forest, Tree, _node_size, sort_trees_with_parity


def var(i):
    if not isinstance(i, int) or i < 1:
        raise ValidationError(f"variable index must be a positive int, got {i!r}")
    return ("x", i)


def br(a, b):
    return ("b", a, b)


def dot(a, b):
    return ("d", a, b)


def dot_list(exprs):
    out = exprs[0]
    for e in exprs[1:]:
        out = dot(out, e)
    return out


def expr_vars(e):
    if e[0] == "x":
        return (e[1],)
    return expr_vars(e[1]) + expr_vars(e[2])


def render_expr(e):
    if e[0] == "x":
        return f"x{e[1]}"
    if e[0] == "b":
        return f"[{render_expr(e[1])},{render_expr(e[2])}]"
    left = render_expr(e[1])
    right = render_expr(e[2])
    if e[1][0] == "d":
        left = f"({left})"
    if e[2][0] == "d":
        right = f"({right})"
    return f"{left}*{right}"


def tree_to_expr(node):
    if isinstance(node, int):
        return var(node)
    return br(tree_to_expr(node[0]), tree_to_expr(node[1]))


def forest_to_expr(f: Forest):
    """Canonical expression of a forest: dot product of its bracket words."""
    if not f.trees:
        raise ValidationError("an empty forest has no bracket expression")
    return dot_list([tree_to_expr(t.node) for t in f.trees])


def relabel_expr(e, mapping):
    if e[0] == "x":
        return ("x", mapping(e[1]))
    return (e[0], relabel_expr(e[1], mapping), relabel_expr(e[2], mapping))


def substitute(e, i, replacement):
    """Replace the variable x_i by `replacement` (which must not reuse vars)."""
    if e[0] == "x":
        return replacement if e[1] == i else e
    return (e[0], substitute(e[1], i, replacement), substitute(e[2], i, replacement))


# ---------------------------------------------------------------------------
# reduction to forests

def _monomial_brackets(trees):
    return sum(_node_size(t) for t in trees)


def _bracket_monomials(u_trees, w_trees, d):
    """[U, W] for dot-monomials of tree nodes; yields (coeff, tree tuple)."""
    if len(u_trees) == 1 and len(w_trees) == 1:
        return [(1, ((u_trees[0], w_trees[0]),))]
    if len(w_trees) > 1:
        bu = _monomial_brackets(u_trees)
        y, z = w_trees[0], w_trees[1:]
        out = []
        # [X, Y].Z
        for c, trees in _bracket_monomials(u_trees, (y,), d):
            out.append((c, trees + z))
        # sign * Y.[X, Z]
        s = eps((bu + 1) * _node_size(y), d)
        for c, trees in _bracket_monomials(u_trees, z, d):
            out.append((s * c, (y,) + trees))
        return out
    # len(u_trees) > 1: swap arguments
    s = anti_sign(_monomial_brackets(u_trees), _monomial_brackets(w_trees), d)
    return [(s * c, trees) for c, trees in _bracket_monomials(w_trees, u_trees, d)]


def _reduce_monomials(e, d):
    """Expression -> list of (coeff, tuple of tree nodes in product order)."""
    if e[0] == "x":
        return [(1, (e[1],))]
    if e[0] == "d":
        left = _reduce_monomials(e[1], d)
        right = _reduce_monomials(e[2], d)
        return [(ca * cb, ta + tb) for ca, ta in left for cb, tb in right]
    if e[0] == "b":
        left = _reduce_monomials(e[1], d)
        right = _reduce_monomials(e[2], d)
        out = []
        for ca, ta in left:
            for cb, tb in right:
                for c, trees in _bracket_monomials(ta, tb, d):
                    out.append((ca * cb * c, trees))
        return out
    raise ValidationError(f"malformed expression node {e!r}")


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
    if isinstance(b, tuple):
        return reduce_expr(b, d)
    return LinCombo([(f, c * cf) for e, c in b for f, cf in reduce_expr(e, d)])
