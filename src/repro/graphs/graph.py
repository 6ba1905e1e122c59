"""A small, dependency-free undirected graph used throughout the library.

The subflow contention graphs manipulated by the allocation algorithms are
tiny (tens of vertices), so the emphasis here is on clarity and on exposing
exactly the operations the paper's analysis needs: adjacency queries,
induced subgraphs, connected components, and vertex attributes (weights).

``networkx`` is available in the environment and is used by the test suite
to cross-check these implementations, but the library itself is
self-contained so that the algorithmic core of the reproduction does not
depend on an external graph package.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

Vertex = Hashable


class Graph:
    """An undirected simple graph with optional per-vertex attributes.

    Vertices may be any hashable object.  Self-loops are rejected because a
    subflow never contends with itself in the paper's model.
    """

    def __init__(self) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._attrs: Dict[Vertex, dict] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex, **attrs: object) -> None:
        """Add vertex ``v``; merging ``attrs`` into its attribute dict."""
        if v not in self._adj:
            self._adj[v] = set()
            self._attrs[v] = {}
        if attrs:
            self._attrs[v].update(attrs)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``, creating vertices as needed."""
        if u == v:
            raise ValueError(f"self-loop on {u!r} is not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u].add(v)
        self._adj[v].add(u)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        if v not in self._adj.get(u, ()):  # pragma: no branch
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def remove_vertex(self, v: Vertex) -> None:
        """Remove vertex ``v`` and all incident edges."""
        for u in self._adj.pop(v):
            self._adj[u].discard(v)
        self._attrs.pop(v, None)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Vertex, Vertex]],
        vertices: Iterable[Vertex] = (),
    ) -> "Graph":
        """Build a graph from an edge list plus optional isolated vertices."""
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def vertices(self) -> List[Vertex]:
        """All vertices, in insertion order."""
        return list(self._adj)

    def edges(self) -> List[Tuple[Vertex, Vertex]]:
        """Each undirected edge exactly once."""
        seen: Set[frozenset] = set()
        out: List[Tuple[Vertex, Vertex]] = []
        for u in self._adj:
            for v in self._adj[u]:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    out.append((u, v))
        return out

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """The (open) neighborhood of ``v``."""
        return set(self._adj[v])

    def degree(self, v: Vertex) -> int:
        return len(self._adj[v])

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adj and v in self._adj[u]

    def attr(self, v: Vertex, key: str, default: object = None) -> object:
        """Read attribute ``key`` of vertex ``v``."""
        return self._attrs[v].get(key, default)

    def set_attr(self, v: Vertex, key: str, value: object) -> None:
        self._attrs[v][key] = value

    def num_vertices(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return sum(len(n) for n in self._adj.values()) // 2

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        """The subgraph induced by ``keep`` (attributes are copied).

        Vertices keep their insertion order; adjacency is built by set
        intersection rather than re-adding edges one by one.
        """
        keep_set = set(keep)
        g = Graph()
        for v in self._adj:
            if v in keep_set:
                g._adj[v] = self._adj[v] & keep_set
                g._attrs[v] = dict(self._attrs[v])
        return g

    def complement(self) -> "Graph":
        """The complement graph on the same vertex set."""
        g = Graph()
        verts = self.vertices()
        for v in verts:
            g.add_vertex(v, **self._attrs[v])
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                if not self.has_edge(u, v):
                    g.add_edge(u, v)
        return g

    def copy(self) -> "Graph":
        g = Graph()
        for v in self._adj:
            g.add_vertex(v, **self._attrs[v])
        for u, v in self.edges():
            g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def is_clique(self, verts: Iterable[Vertex]) -> bool:
        """True iff ``verts`` induce a complete subgraph."""
        vs = list(verts)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if not self.has_edge(u, v):
                    return False
        return True

    def is_independent_set(self, verts: Iterable[Vertex]) -> bool:
        """True iff no two vertices of ``verts`` are adjacent."""
        vs = list(verts)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if self.has_edge(u, v):
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(|V|={self.num_vertices()}, |E|={self.num_edges()})"


def to_networkx(graph: Graph):
    """Convert to a ``networkx.Graph`` (used by tests for cross-checking)."""
    import networkx as nx

    g = nx.Graph()
    for v in graph.vertices():
        g.add_node(v)
    g.add_edges_from(graph.edges())
    return g
