"""Plain-text visualization of topologies, contention graphs, and results.

No plotting dependencies are available offline, so the experiment
reports render as ASCII: a scaled scatter of node positions with radio
links, adjacency matrices for contention graphs, and horizontal bar
charts for allocations and measured throughput.  These back the
``python -m repro`` reports and the examples.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..core.contention import ContentionAnalysis
from ..core.model import Scenario, SubflowId


def render_topology(
    scenario: Scenario, width: int = 68, height: int = 18
) -> str:
    """ASCII map: node labels at scaled positions, ``*`` along links.

    Node labels win over link dots on collisions; flows are listed below
    the map with their paths.
    """
    net = scenario.network
    xs = [p[0] for p in net.positions.values()]
    ys = [p[1] for p in net.positions.values()]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = (max_x - min_x) or 1.0
    span_y = (max_y - min_y) or 1.0

    def cell(x: float, y: float):
        col = int((x - min_x) / span_x * (width - 1))
        row = int((y - min_y) / span_y * (height - 1))
        return height - 1 - row, col  # y grows upward

    grid = [[" "] * width for _ in range(height)]
    # Links first (so labels overwrite them).
    for a, b in net.links():
        (ra, ca), (rb, cb) = cell(*net.positions[a]), cell(*net.positions[b])
        steps = max(abs(ra - rb), abs(ca - cb), 1)
        for s in range(steps + 1):
            r = round(ra + (rb - ra) * s / steps)
            c = round(ca + (cb - ca) * s / steps)
            grid[r][c] = "."
    for node, (x, y) in net.positions.items():
        r, c = cell(x, y)
        label = str(node)[: max(1, width - c)]
        for i, ch in enumerate(label):
            if c + i < width:
                grid[r][c + i] = ch

    lines = ["".join(row).rstrip() for row in grid]
    lines.append("")
    for flow in scenario.flows:
        lines.append(f"  {flow}")
    return "\n".join(lines)


def render_contention_matrix(analysis: ContentionAnalysis) -> str:
    """Adjacency matrix of the subflow contention graph (X = contend)."""
    sids: List[SubflowId] = sorted(analysis.graph.vertices())
    names = [str(s) for s in sids]
    label_w = max(len(n) for n in names) + 1
    header = " " * label_w + " ".join(f"{n:>{label_w}}" for n in names)
    lines = [header]
    for a, name in zip(sids, names):
        row = [f"{name:>{label_w}}"]
        for b in sids:
            mark = "X" if analysis.graph.has_edge(a, b) else "."
            row.append(f"{mark:>{label_w}}")
        lines.append(" ".join(row))
    lines.append("")
    for k, clique in enumerate(analysis.cliques):
        lines.append(
            f"  clique {k}: {{{', '.join(sorted(str(s) for s in clique))}}}"
        )
    return "\n".join(lines)


def render_bars(
    values: Mapping[str, float],
    title: str = "",
    width: int = 50,
    reference: Optional[Mapping[str, float]] = None,
) -> str:
    """Horizontal bar chart; optional reference values printed alongside."""
    if not values:
        return f"{title}\n  (empty)"
    peak = max(values.values()) or 1.0
    label_w = max(len(str(k)) for k in values)
    lines = [title] if title else []
    for key in values:
        v = values[key]
        bar = "#" * max(int(v / peak * width), 1 if v > 0 else 0)
        suffix = ""
        if reference is not None and key in reference:
            suffix = f"   (ref {reference[key]:.4g})"
        lines.append(f"  {str(key):>{label_w}} |{bar:<{width}} "
                     f"{v:.4g}{suffix}")
    return "\n".join(lines)


def render_allocation_comparison(
    allocations: Mapping[str, Mapping[str, float]],
    flow_ids: Sequence[str],
) -> str:
    """Side-by-side table of several allocation strategies."""
    strategies = list(allocations)
    col_w = max(12, max(len(s) for s in strategies) + 2)
    header = f"{'flow':>6}" + "".join(f"{s:>{col_w}}" for s in strategies)
    lines = [header]
    for fid in flow_ids:
        row = f"{fid:>6}"
        for s in strategies:
            row += f"{allocations[s].get(fid, 0.0):>{col_w}.4f}"
        lines.append(row)
    totals = f"{'total':>6}"
    for s in strategies:
        totals += f"{sum(allocations[s].values()):>{col_w}.4f}"
    lines.append(totals)
    return "\n".join(lines)
