"""Regression: with hysteresis on, committed shares do not depend on the
string hash seed.

The dampen phase's capacity governor
(:func:`repro.resilience.degrade.enforce_clique_capacity`) sums each
clique's load over its ``n_{i,k}`` and rescales shares by ``B / load``.
It used to walk the clique's frozenset in hash order, so the load's
last bits, and the rescaled shares, changed with ``PYTHONHASHSEED``: a
14-epoch churn timeline on a 40-node, 12-flow random scenario committed
different shares at several epochs under hash seeds 7 and 12345.
Without hysteresis the governor never rescales there, so the campaigns'
results did not show it; this test runs the reproducer in two
interpreters and compares every committed share bit for bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
from numpy.random import default_rng
from repro.resilience import AllocatorRuntime, ChurnTimeline, RuntimeConfig
from repro.scenarios.random_topology import make_random_scenario

scenario = make_random_scenario(num_nodes=40, num_flows=12, seed=5)
timeline = ChurnTimeline.draw(default_rng(5), scenario.flow_ids,
                              scenario.network.nodes,
                              scenario.network.links(), epochs=14)
runtime = AllocatorRuntime(scenario, RuntimeConfig(hysteresis=0.3))
print(json.dumps([
    {fid: share.hex() for fid, share in sorted(
        runtime.advance(timeline.epoch_events(e)).shares.items())}
    for e in range(14)
]))
"""


def committed_shares(hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def test_committed_shares_do_not_depend_on_the_hash_seed():
    first, second = committed_shares("7"), committed_shares("12345")
    assert len(first) == 14 and any(first)
    assert first == second
