"""Directed graphs with ordered edge lists on vertices {1..n}.

The edge list order is structural (it is the "ordering" of the generators
in the graph ring); repeated and cyclic edges are legal here and only die
in the quotient.  Long graphs -- disjoint unions of chains, each starting
at its block minimum with edges oriented away from it and listed
consecutively, chains concatenated in block order -- are the canonical
cohomology basis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError, ValidationError
from .trees import OrderedPartition, ordered_partitions


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple  # tuple of (i, j) pairs, order significant

    def __post_init__(self):
        n = self.n
        for e in self.edges:
            i, j = e if type(e) is tuple and len(e) == 2 else (None, None)
            if type(i) is not int or type(j) is not int:
                raise ValidationError(f"edge {e!r} is not a pair of ints")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValidationError(f"edge {e} out of range 1..{self.n}")
            if i == j:
                raise ValidationError(f"edge {e} is a self-loop")

    @property
    def k(self):
        return len(self.edges)

    @cached_property
    def components(self):
        """Partition of {1..n} into undirected connected components."""
        parent = list(range(self.n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in self.edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        groups = {}
        for v in range(1, self.n + 1):
            groups.setdefault(find(v), []).append(v)
        return tuple(tuple(g) for g in sorted(groups.values()))

    @property
    def is_long(self):
        return long_chain_order(self) is not None

    def __repr__(self):
        return f"Graph({render_graph(self)})"


def long_chain_order(g: Graph):
    """If g is long, its ordered partition blocks (chain sequences); else None.

    An edge continues the current chain when it starts where the previous
    one ended.  g is long exactly when those chains, with each untouched
    vertex as a singleton, form an ordered partition whose long graph is g.
    """
    chains = []
    for i, j in g.edges:
        if chains and chains[-1][-1] == i:
            chains[-1].append(j)
        else:
            chains.append([i, j])
    touched = {v for c in chains for v in c}
    blocks = [tuple(c) for c in chains] + [(v,) for v in range(1, g.n + 1) if v not in touched]
    try:
        p = OrderedPartition(tuple(sorted(blocks)))
    except ValidationError:
        return None
    return p.blocks if graph_of_ordered_partition(p, g.n) == g else None


def ordered_partition_of_graph(g: Graph) -> OrderedPartition:
    blocks = long_chain_order(g)
    if blocks is None:
        raise ValidationError("graph is not long")
    return OrderedPartition(blocks)


def _unchecked_graph(n: int, edges: tuple) -> Graph:
    """Graph(n, edges) without its edge checks, for normalize's long terms
    only: their edges pair vertices of a graph that was checked.  The fields
    are set as the frozen dataclass's own __init__ sets them."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", edges)
    return g


def graph_of_ordered_partition(p: OrderedPartition, n=None) -> Graph:
    edges = [(b[a], b[a + 1]) for b in p.blocks for a in range(len(b) - 1)]
    return Graph(n if n is not None else p.n, tuple(edges))


def enumerate_long_graphs(n, k):
    """All long n-graphs with k edges, aligned with enumerate_tall_forests."""
    return [graph_of_ordered_partition(p, n) for p in ordered_partitions(n, k)]


# ---------------------------------------------------------------------------
# text grammar:  "n=" INT ";" edge ("," edge)*     edge := INT "->" INT

_GRAPH_RE = re.compile(r"^\s*n\s*=\s*(\d+)\s*(?:;(.*))?$", re.S)
_EDGE_RE = re.compile(r"^\s*(\d+)\s*->\s*(\d+)\s*$")


def _parse_edge_list(text, start):
    """The edges 'i->j, k->l' of text[start:]; a bad edge's error points at
    the start of its chunk in text."""
    edges = []
    if text[start:].strip():
        for chunk in text[start:].split(","):
            em = _EDGE_RE.match(chunk)
            if not em:
                raise ParseError(f"bad edge {chunk.strip()!r}", text, start)
            edges.append((int(em.group(1)), int(em.group(2))))
            start += len(chunk) + 1
    return tuple(edges)


def parse_graph(text, n=None) -> Graph:
    """Parse 'n=<int>; i->j, ...'; a given n must match the stated one."""
    m = _GRAPH_RE.match(text)
    if not m:
        raise ParseError("graph must start with 'n=<int>'", text, 0)
    stated = int(m.group(1))
    if n is not None and stated != n:
        raise ValidationError(f"graph states n={stated}, expected n={n}")
    return Graph(stated, _parse_edge_list(text, m.start(2) if m.group(2) else len(text)))


def parse_edges(text, n) -> Graph:
    """Parse a bare edge list 'i->j, k->l' against a known n."""
    return Graph(n, _parse_edge_list(text, 0))


def render_graph(g: Graph) -> str:
    if not g.edges:
        return f"n={g.n}"
    return f"n={g.n}; " + ", ".join(f"{i}->{j}" for i, j in g.edges)


def graph_to_json(g: Graph):
    return {"kind": "graph", "n": g.n, "edges": [list(e) for e in g.edges]}
