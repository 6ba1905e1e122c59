"""Regression: lossy 2PA-D's shares do not depend on the string hash seed.

When a node's local LP is infeasible under its mixed basic-share bounds,
2PA-D scales every bound by the largest feasible factor
(:meth:`repro.core.distributed.DistributedAllocator._max_bound_scale`),
summing each clique's load over its per-flow subflow counts.  Those
counts were built by walking the clique's frozenset in hash order, so
the load's last bit, the scale and the committed shares changed with
``PYTHONHASHSEED``: verify case 8 of seed 0 committed a share of
``0.13432835820872266`` on its faults axis under hash seed 0 and
``0.1343283582087227`` under 7.  The counts now follow subflow order.
The campaigns' ``shares_sha256`` digest is what showed it; this test
runs that case in two interpreters and compares every share bit for bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
from repro.sim.rng import RngRegistry
from repro.verify.fuzzer import AXES, VerificationSuite, generate_scenario

registry = RngRegistry(0)
scenario = generate_scenario(registry, 8)
payloads = AXES["faults"].draw(registry, 8, scenario)
committed = []
VerificationSuite(faults=True).run_axis("faults", scenario, payloads, 0, 8,
                                        committed)
print(json.dumps([{fid: share.hex() for fid, share in sorted(shares.items())}
                  for shares in committed]))
"""


def committed_shares(hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def test_lossy_2pad_shares_do_not_depend_on_the_hash_seed():
    first, second = committed_shares("0"), committed_shares("7")
    assert len(first) == 1 and first[0]
    assert first == second
