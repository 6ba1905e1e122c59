"""Random ad hoc topologies for scaling studies and property-based tests.

Places nodes uniformly in a square field, connects nodes within the radio
range, and routes a configurable number of flows along shortest paths —
the standard workload model for evaluating ad hoc allocation algorithms
beyond the paper's two hand-built scenarios.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..graphs import Graph, bfs_shortest_path, is_connected
from ..core.model import Flow, Network, Scenario


def node_graph(network: Network) -> Graph:
    """The node-level connectivity graph of a network."""
    g = Graph()
    for n in network.nodes:
        g.add_vertex(n)
    for a, b in network.links():
        g.add_edge(a, b)
    return g


def default_field_size(num_nodes: int, tx_range: float = 250.0) -> float:
    """A field size giving comfortably-connected random placements.

    Scales the side with ``sqrt(num_nodes)`` so the expected node degree
    stays roughly constant (~6) as networks grow.
    """
    return tx_range * max(1.5, (num_nodes / 4.0) ** 0.5)


def random_connected_network(
    num_nodes: int,
    field_size: Optional[float] = None,
    tx_range: float = 250.0,
    seed: int = 0,
    max_attempts: int = 200,
) -> Network:
    """A uniformly-random node placement whose graph is connected.

    Redraws placements (deterministically from ``seed``) until the radio
    graph is connected; raises ``RuntimeError`` after ``max_attempts``
    (increase the range or density instead of the attempt budget).
    ``field_size`` defaults to :func:`default_field_size`.
    """
    if field_size is None:
        field_size = default_field_size(num_nodes, tx_range)
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        positions = {
            f"n{i}": (
                float(rng.uniform(0, field_size)),
                float(rng.uniform(0, field_size)),
            )
            for i in range(num_nodes)
        }
        network = Network.from_positions(positions, tx_range)
        if is_connected(node_graph(network)):
            return network
    raise RuntimeError(
        f"no connected placement of {num_nodes} nodes in "
        f"{field_size}x{field_size} with range {tx_range} after "
        f"{max_attempts} attempts"
    )


def random_flows(
    network: Network,
    num_flows: int,
    seed: int = 0,
    min_hops: int = 1,
    max_hops: Optional[int] = None,
    weights: Optional[List[float]] = None,
) -> List[Flow]:
    """Shortest-path flows between random distinct endpoint pairs.

    Endpoint pairs are redrawn until the shortest path length lies in
    ``[min_hops, max_hops]``.  ``weights`` (cycled) assigns flow weights;
    default all 1.
    """
    rng = np.random.default_rng(seed)
    graph = node_graph(network)
    nodes = network.nodes
    flows: List[Flow] = []
    attempts = 0
    while len(flows) < num_flows:
        attempts += 1
        if attempts > 1000 * num_flows:
            raise RuntimeError(
                "could not sample enough flows; relax hop bounds"
            )
        src, dst = rng.choice(len(nodes), size=2, replace=False)
        path = bfs_shortest_path(graph, nodes[int(src)], nodes[int(dst)])
        if path is None:
            continue
        hops = len(path) - 1
        if hops < min_hops or (max_hops is not None and hops > max_hops):
            continue
        weight = 1.0
        if weights:
            weight = float(weights[len(flows) % len(weights)])
        flows.append(Flow(str(len(flows) + 1), path, weight))
    return flows


def make_random_scenario(
    num_nodes: int = 25,
    num_flows: int = 5,
    field_size: Optional[float] = None,
    tx_range: float = 250.0,
    seed: int = 0,
    min_hops: int = 1,
    max_hops: Optional[int] = None,
    capacity: float = 1.0,
) -> Scenario:
    """A complete random scenario (network + shortest-path flows)."""
    network = random_connected_network(
        num_nodes, field_size, tx_range, seed
    )
    flows = random_flows(
        network, num_flows, seed=seed + 1, min_hops=min_hops,
        max_hops=max_hops,
    )
    return Scenario(
        network, flows, name=f"random-n{num_nodes}-f{num_flows}-s{seed}",
        capacity=capacity,
    )


def _scenario_from_params(params: dict) -> Scenario:
    """Picklable single-argument adapter for parallel scenario sweeps."""
    return make_random_scenario(**params)


def random_scenario_sweep(
    param_sets: List[dict],
    jobs: int = 1,
) -> List[Scenario]:
    """Build one seeded random scenario per parameter dict.

    Each dict holds :func:`make_random_scenario` keyword arguments;
    every scenario is a pure function of its own parameters (all
    randomness is seeded), so ``jobs > 1`` builds them across worker
    processes (``jobs=0``: all cores) with a bit-identical result to
    the serial sweep — the list order matches ``param_sets``.
    """
    from ..perf.parallel import ParallelSweep

    return ParallelSweep(jobs).map(
        _scenario_from_params, [dict(p) for p in param_sets]
    )
