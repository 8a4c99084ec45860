"""Build the pre-warmed point store the ``ledgered`` workload resumes from.

    python3 perfbench/fixture.py SPEC.json

``spec["warm"]`` points are simulated and stored through ``run_point``
with a store policy, so the entries are the program's own.
``spec["unread"]`` more entries are filed under fingerprints that no
configuration produces: a long-lived store holds other configurations'
points, and every ``PointStore.put`` of the run rescans them.
"""

from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import asdict


def main(spec_path: str) -> int:
    spec = json.loads(pathlib.Path(spec_path).read_text())

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.options import PointPolicy
    from repro.experiments.runner import run_point
    from repro.perf.store import PointStore

    store = PointStore(spec["store"])
    policy = PointPolicy(store=store)
    cfg = ExperimentConfig()
    payloads = [asdict(run_point(k, s, n, cfg, policy=policy))
                for k, s, n in spec["warm"]]
    for i in range(spec["unread"]):
        payload = payloads[i % len(payloads)]
        key = (payload["kernel"], payload["strategy"], payload["n"])
        store.put(f"other-config-{i // len(payloads)}", key, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
