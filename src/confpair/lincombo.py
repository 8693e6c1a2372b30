"""Finitely supported integer linear combinations over a hashable basis.

Coefficients are Python ints (arbitrary precision); zero coefficients are
never stored.  Keys are canonical basis elements (Forest, Graph, or any
hashable term); callers are responsible for canonicalizing keys before
insertion.

Sums are built as one LinCombo(terms), which adds the (key, coeff) pairs up
in place, O(N) for N terms; a running `+` copies the whole total at every
step, O(N^2).  `+` is the same merge for two operands.
"""

from __future__ import annotations


class LinCombo:
    """Immutable-by-convention dict from basis elements to nonzero ints."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient must be int, got {type(coeff).__name__}")
                c = data.get(key, 0) + coeff
                if c:
                    data[key] = c
                elif key in data:
                    del data[key]
        self.terms = data

    @classmethod
    def single(cls, key, coeff=1):
        return cls({key: coeff} if coeff else {})

    @classmethod
    def of(cls, x):
        """x itself when it is a LinCombo, else x with coefficient 1."""
        return x if isinstance(x, LinCombo) else cls.single(x)

    @classmethod
    def zero(cls):
        return cls()

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __getitem__(self, key):
        return self.terms.get(key, 0)

    def __eq__(self, other):
        return isinstance(other, LinCombo) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return LinCombo([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            raise TypeError("scalar must be int")
        if scalar == 0:
            return LinCombo.zero()
        result = LinCombo.__new__(LinCombo)
        result.terms = {key: scalar * coeff for key, coeff in self.terms.items()}
        return result

    def __repr__(self):
        if not self.terms:
            return "LinCombo(0)"
        bits = ", ".join(f"{c}*{k!r}" for k, c in self.terms.items())
        return f"LinCombo({bits})"
