"""BFS-based graph partitioning for the graph-partition (GP) scheme.

The paper contrasts the mini-batch scheme with model-agnostic graph
partitioning (Section 2.2): the graph is cut into roughly equal clusters
that are trained as independent subgraphs, which keeps memory bounded but
severs cross-cluster edges and degrades expressiveness. This module
implements a lightweight METIS-style partitioner: seeded BFS growth with a
size cap, which produces contiguous, balanced clusters.
"""

from __future__ import annotations

from collections import deque
from typing import List

import numpy as np

from ..errors import GraphError
from .graph import Graph


def bfs_partition(
    graph: Graph,
    num_parts: int,
    rng: np.random.Generator | None = None,
) -> List[np.ndarray]:
    """Partition nodes into ``num_parts`` contiguous clusters via capped BFS.

    Returns a list of node-index arrays covering all nodes exactly once,
    every part non-empty. Clusters are grown breadth-first from random
    unassigned seeds up to a balanced size cap; leftovers (disconnected
    components the BFS never reached) attach to the smallest cluster, and
    a final rebalance pass steals nodes from the largest clusters so no
    part comes back empty. A requested ``num_parts`` larger than the node
    count is clamped to ``n`` (yielding singleton parts) rather than
    raising — the caller asked for "as many parts as possible".
    """
    if num_parts < 1:
        raise GraphError(f"num_parts must be >= 1, got {num_parts}")
    n = graph.num_nodes
    if n == 0:
        raise GraphError("cannot partition an empty graph")
    num_parts = min(num_parts, n)
    rng = rng or np.random.default_rng()
    cap = int(np.ceil(n / num_parts))
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices

    assignment = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    cursor = 0
    parts: List[list] = []
    for part_id in range(num_parts):
        # Find an unassigned seed.
        while cursor < n and assignment[order[cursor]] >= 0:
            cursor += 1
        if cursor >= n:
            parts.append([])
            continue
        seed = order[cursor]
        members: list = []
        queue = deque([seed])
        assignment[seed] = part_id
        while queue and len(members) < cap:
            node = queue.popleft()
            members.append(node)
            for neighbour in indices[indptr[node]:indptr[node + 1]]:
                if assignment[neighbour] < 0 and len(members) + len(queue) < cap:
                    assignment[neighbour] = part_id
                    queue.append(neighbour)
        # Nodes admitted to the queue but not dequeued still belong here.
        members.extend(queue)
        parts.append(members)

    # Attach any stragglers (disconnected leftovers) round-robin to the
    # smallest parts so every node is covered.
    leftovers = np.flatnonzero(assignment < 0)
    for node in leftovers:
        smallest = min(range(num_parts), key=lambda i: len(parts[i]))
        parts[smallest].append(node)
        assignment[node] = smallest

    # Rebalance: a BFS sweep that exhausted the node supply early (or a
    # num_parts close to n) can leave empty parts behind. Steal frontier
    # nodes from the currently-largest part until every part is non-empty;
    # num_parts <= n guarantees termination.
    for part_id in range(num_parts):
        while not parts[part_id]:
            largest = max(range(num_parts), key=lambda i: len(parts[i]))
            stolen = parts[largest].pop()
            parts[part_id].append(stolen)
            assignment[stolen] = part_id

    return [np.sort(np.asarray(part, dtype=np.int64)) for part in parts]


def cut_edges(graph: Graph, parts: List[np.ndarray]) -> int:
    """Count directed edges severed by a partition (expressiveness loss proxy)."""
    assignment = np.empty(graph.num_nodes, dtype=np.int64)
    for part_id, part in enumerate(parts):
        assignment[part] = part_id
    coo = graph.adjacency.tocoo()
    return int((assignment[coo.row] != assignment[coo.col]).sum())
