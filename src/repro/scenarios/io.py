"""Scenario (de)serialization.

Scenarios round-trip through plain dicts / JSON files so experiments can
be saved, shared, and rerun.  The format is deliberately simple::

    {
      "name": "fig1",
      "capacity": 1.0,
      "tx_range": 250.0,
      "positions": {"A": [0.0, 0.0], ...},        # geometric networks
      "links": [["A", "B"], ...],                  # abstract networks
      "flows": [{"id": "1", "path": ["A","B","C"], "weight": 1.0}, ...]
    }

Exactly one of ``positions``/``links`` describes the network (when both
are present, ``links`` wins and positions are decorative).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from ..core.model import Flow, Network, Scenario


def scenario_to_dict(scenario: Scenario) -> Dict:
    """Serialize a scenario to a JSON-compatible dict."""
    net = scenario.network
    out: Dict = {
        "name": scenario.name,
        "capacity": scenario.capacity,
        "flows": [
            {"id": f.flow_id, "path": list(f.path), "weight": f.weight}
            for f in scenario.flows
        ],
    }
    if net.explicit_links is not None:
        out["links"] = sorted(
            sorted(link) for link in net.explicit_links
        )
        out["nodes"] = sorted(net.positions)
    else:
        out["tx_range"] = net.tx_range
        out["positions"] = {
            n: [x, y] for n, (x, y) in net.positions.items()
        }
    return out


def scenario_from_dict(data: Dict) -> Scenario:
    """Rebuild a scenario from :func:`scenario_to_dict` output."""
    if "links" in data:
        nodes = data.get("nodes")
        if nodes is None:
            nodes = sorted({n for link in data["links"] for n in link})
        network = Network.from_links(
            nodes, [tuple(link) for link in data["links"]]
        )
    elif "positions" in data:
        network = Network.from_positions(
            {n: (float(p[0]), float(p[1]))
             for n, p in data["positions"].items()},
            tx_range=float(data.get("tx_range", 250.0)),
        )
    else:
        raise ValueError("scenario dict needs 'positions' or 'links'")
    flows = [
        Flow(str(f["id"]), [str(n) for n in f["path"]],
             float(f.get("weight", 1.0)))
        for f in data.get("flows", [])
    ]
    if not flows:
        raise ValueError("scenario dict has no flows")
    return Scenario(
        network, flows,
        name=str(data.get("name", "")),
        capacity=float(data.get("capacity", 1.0)),
    )


def save_scenario(scenario: Scenario,
                  path: Union[str, Path]) -> None:
    """Write a scenario to a JSON file."""
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)
    )


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read a scenario from a JSON file."""
    return scenario_from_dict(json.loads(Path(path).read_text()))
