"""Scenario of Fig. 3: flows with and without shortcuts, virtual length.

* Fig. 3(b)/(c): a shortcut-free 6-hop chain (nodes 200 m apart, 250 m
  range) — its subflow contention graph is the square of a path, 3-colored
  into the concurrent sets {F1.1, F1.4}, {F1.2, F1.5}, {F1.3, F1.6}.
* Fig. 3(a): the same chain with one node displaced so that two
  non-consecutive path nodes come into range — a *shortcut*, which the
  virtual-length argument excludes.
"""

from __future__ import annotations

from ..core.model import Flow, Network, Scenario

#: Paper's 3-coloring of the 6-subflow chain (1-based hop -> color class).
PAPER_COLOR_CLASSES = [[1, 4], [2, 5], [3, 6]]


def make_chain_scenario(
    hops: int = 6, capacity: float = 1.0, weight: float = 1.0
) -> Scenario:
    """A shortcut-free ``hops``-hop chain flow (Fig. 3(b)/(c))."""
    if hops < 1:
        raise ValueError("need at least one hop")
    spacing = 200.0
    positions = {
        f"N{i}": (i * spacing, 0.0) for i in range(hops + 1)
    }
    network = Network.from_positions(positions, tx_range=250.0)
    flow = Flow("1", [f"N{i}" for i in range(hops + 1)], weight)
    return Scenario(network, [flow], name=f"chain{hops}", capacity=capacity)


def make_shortcut_scenario(capacity: float = 1.0) -> Scenario:
    """Fig. 3(a): a chain where N1 and N3 are in range (a shortcut).

    The path still uses every hop (as a non-shortest route would), but the
    shortcut invalidates the clean j±1/j±2 contention structure.
    """
    positions = {
        "N0": (0.0, 0.0),
        "N1": (200.0, 0.0),
        "N2": (310.0, 170.0),   # detour bump
        "N3": (420.0, 0.0),     # N1–N3 = 220 m: shortcut!
        "N4": (620.0, 0.0),
    }
    network = Network.from_positions(positions, tx_range=250.0)
    flow = Flow("1", ["N0", "N1", "N2", "N3", "N4"], 1.0)
    return Scenario(network, [flow], name="shortcut", capacity=capacity)
