"""Access-Causality Graph.

A weighted directed graph over file ids: an edge (fA, fB, w) means fA was a
content producer of fB in ``w`` observed co-accesses.  Partitioning works on
the *undirected* view (the cut cost of an index partition does not care
about edge direction), so the class exposes both.
"""

from __future__ import annotations

from collections import deque
from typing import (Dict, Iterable, Iterator, ItemsView, List, Sequence, Set,
                    Tuple)


class AccessCausalityGraph:
    """Weighted directed multigraph of file access causality."""

    def __init__(self) -> None:
        # out[u][v] = weight of directed edge u -> v; in[v][u] mirrors it.
        # Both always hold the same vertices, inserted in the same order.
        self._out: Dict[int, Dict[int, int]] = {}
        self._in: Dict[int, Dict[int, int]] = {}

    # -- construction --------------------------------------------------------

    def add_file(self, file_id: int) -> None:
        """Ensure a vertex exists (isolated files are valid graph members)."""
        if file_id not in self._out:
            self._out[file_id] = {}
            self._in[file_id] = {}

    def add_causality(self, producer: int, consumer: int, weight: int = 1) -> None:
        """Record ``weight`` observations of producer → consumer."""
        if weight <= 0:
            raise ValueError(f"weight must be positive: {weight}")
        if producer == consumer:
            raise ValueError("self-causality is not recorded")
        targets = self._out.get(producer)
        if targets is None:
            targets = self._out[producer] = {}
            self._in[producer] = {}
        sources = self._in.get(consumer)
        if sources is None:
            self._out[consumer] = {}
            sources = self._in[consumer] = {}
        targets[consumer] = targets.get(consumer, 0) + weight
        sources[producer] = sources.get(producer, 0) + weight

    def add_pairs(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Record a stream of (producer, consumer) causality pairs."""
        for producer, consumer in pairs:
            self.add_causality(producer, consumer)

    def remove_file(self, file_id: int) -> None:
        """Delete a vertex and its incident edges (file was unlinked)."""
        for consumer in list(self._out.get(file_id, ())):
            del self._in[consumer][file_id]
        for producer in list(self._in.get(file_id, ())):
            del self._out[producer][file_id]
        self._out.pop(file_id, None)
        self._in.pop(file_id, None)

    def merge(self, records: Sequence[Tuple[int, int, int]]) -> None:
        """Fold ACG records — :meth:`to_records`' ``(u, v, w)`` edges and
        ``(v, -1, 0)`` isolated vertices — into this graph in one pass,
        summing edge weights.

        This is what an Index Node does when a client flushes its cached
        in-RAM ACG after a process finishes.  A new vertex joins when a
        record first names it (an edge's producer before its consumer).
        A record set holding a self-loop or a weight <= 0 raises
        ValueError and leaves the graph as it was.
        """
        out, inn = self._out, self._in
        known = len(out)
        for u, v, w in records:
            if v == -1:
                if u not in out:
                    out[u] = {}
                    inn[u] = {}
                continue
            if w <= 0 or u == v:
                self._unfold(records, known)
                raise ValueError(f"weight must be positive: {w}" if w <= 0
                                 else "self-causality is not recorded")
            targets = out.get(u)
            if targets is None:
                targets = out[u] = {}
                inn[u] = {}
            sources = inn.get(v)
            if sources is None:
                out[v] = {}
                sources = inn[v] = {}
            targets[v] = targets.get(v, 0) + w
            sources[u] = sources.get(u, 0) + w

    def _unfold(self, records: Sequence[Tuple[int, int, int]],
                known: int) -> None:
        """Undo a :meth:`merge` stopped at the first bad record of
        ``records``: take back the weights folded before it (every weight
        held is positive, so one that falls to 0 was an edge the merge
        added) and drop the vertices past the first ``known``."""
        out, inn = self._out, self._in
        for u, v, w in records:
            if v == -1:
                continue
            if w <= 0 or u == v:
                break
            left = out[u][v] - w
            if left:
                out[u][v] = inn[v][u] = left
            else:
                del out[u][v]
                del inn[v][u]
        for vertex in list(out)[known:]:
            del out[vertex]
            del inn[vertex]

    # -- inspection -------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        """Number of files in the graph."""
        return len(self._out)

    @property
    def edge_count(self) -> int:
        """Number of directed edges."""
        return sum(len(t) for t in self._out.values())

    @property
    def total_weight(self) -> int:
        """Sum of directed edge weights (Table II's 'total weight')."""
        return sum(w for t in self._out.values() for w in t.values())

    def vertices(self) -> Iterator[int]:
        """Iterate all file ids in the graph."""
        return iter(self._out)

    def has_vertex(self, file_id: int) -> bool:
        """Whether a file id is a vertex of this graph."""
        return file_id in self._out

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Directed (producer, consumer, weight) triples."""
        for u, targets in self._out.items():
            for v, w in targets.items():
                yield u, v, w

    def weight(self, producer: int, consumer: int) -> int:
        """Weight of the directed edge producer -> consumer (0 if absent)."""
        return self._out.get(producer, {}).get(consumer, 0)

    def adjacency(self) -> ItemsView[int, Dict[int, int]]:
        """Each vertex with its outgoing edges ``{consumer: weight}``, in
        vertex order: the graph's own dicts, to read, not to change."""
        return self._out.items()

    def first_producers(self) -> Dict[int, int]:
        """Each consumer's first producer in :meth:`edges` order."""
        first: Dict[int, int] = {}
        for u, targets in self._out.items():
            for v in targets:
                first.setdefault(v, u)
        return first

    def successors(self, file_id: int) -> Dict[int, int]:
        """Outgoing edges of a file: {consumer: weight}."""
        return dict(self._out.get(file_id, {}))

    def predecessors(self, file_id: int) -> Dict[int, int]:
        """Incoming edges of a file: {producer: weight}."""
        return dict(self._in.get(file_id, {}))

    # -- undirected view (what partitioning operates on) ---------------------------

    def undirected_adjacency(self) -> Dict[int, Dict[int, int]]:
        """Symmetric adjacency with weights summed across both directions."""
        adj: Dict[int, Dict[int, int]] = {u: {} for u in self._out}
        for u, v, w in self.edges():
            adj[u][v] = adj[u].get(v, 0) + w
            adj[v][u] = adj[v].get(u, 0) + w
        return adj

    def neighbors(self, file_id: int) -> Set[int]:
        """All files connected to this one, ignoring direction."""
        return set(self._out.get(file_id, ())) | set(self._in.get(file_id, ()))

    def connected_components(self) -> List[Set[int]]:
        """Connected components of the undirected view, largest first."""
        seen: Set[int] = set()
        components: List[Set[int]] = []
        for start in self._out:
            if start in seen:
                continue
            component = {start}
            queue = deque([start])
            seen.add(start)
            while queue:
                node = queue.popleft()
                for neighbor in self.neighbors(node):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        component.add(neighbor)
                        queue.append(neighbor)
            components.append(component)
        components.sort(key=len, reverse=True)
        return components

    def subgraph(self, vertices: Set[int]) -> "AccessCausalityGraph":
        """The induced subgraph on ``vertices`` (used when splitting)."""
        sub = AccessCausalityGraph()
        for v in vertices:
            if v in self._out:
                sub.add_file(v)
        for u, v, w in self.edges():
            if u in vertices and v in vertices:
                sub.add_causality(u, v, w)
        return sub

    def cut_weight(self, side_a: Set[int]) -> int:
        """Total weight of edges crossing between ``side_a`` and the rest."""
        return sum(w for u, v, w in self.edges() if (u in side_a) != (v in side_a))

    # -- aging -----------------------------------------------------------------------

    def decay(self, factor: float) -> None:
        """Scale every edge weight by ``factor`` (0 < factor <= 1),
        dropping edges whose weight rounds to zero.

        Application behaviour is stable but not eternal; deployments age
        causality so that a workload shift (files repurposed by another
        application) can eventually re-partition.  Vertices are kept even
        when they lose their last edge — files still exist.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"decay factor must be in (0, 1]: {factor}")
        for u in list(self._out):
            for v in list(self._out[u]):
                scaled = int(self._out[u][v] * factor)
                if scaled <= 0:
                    del self._out[u][v]
                    del self._in[v][u]
                else:
                    self._out[u][v] = scaled
                    self._in[v][u] = scaled

    def prune_below(self, min_weight: int) -> int:
        """Drop every edge lighter than ``min_weight``; returns count.

        Weak causality (one-off co-accesses) adds noise to partitioning;
        pruning keeps the graph dominated by the stable application
        structure.
        """
        removed = 0
        for u in list(self._out):
            for v in list(self._out[u]):
                if self._out[u][v] < min_weight:
                    del self._out[u][v]
                    del self._in[v][u]
                    removed += 1
        return removed

    # -- serialization ---------------------------------------------------------------

    def to_records(self) -> List[Tuple[int, int, int]]:
        """Edge list plus isolated vertices encoded as (v, -1, 0)."""
        records = list(self.edges())
        connected = {u for u, _, _ in records} | {v for _, v, _ in records}
        records.extend((v, -1, 0) for v in self._out if v not in connected)
        return records

    @classmethod
    def from_records(cls, records: Sequence[Tuple[int, int, int]]) -> "AccessCausalityGraph":
        """Rebuild a graph from :meth:`to_records` output."""
        graph = cls()
        graph.merge(records)
        return graph

    def __repr__(self) -> str:
        return (f"AccessCausalityGraph(vertices={self.vertex_count}, "
                f"edges={self.edge_count}, weight={self.total_weight})")
