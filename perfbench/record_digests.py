"""Record the decision/schedule digest of each workload for seeds 0..N-1.

    python3 perfbench/record_digests.py 32

Writes perfbench/digests.json, which the benchmark compares every report
against.  Re-record only for a change that is meant to alter decisions or
schedules, and say so where that change is described.
"""

from __future__ import annotations

import json
import sys

import run as bench


def main(argv):
    count = int(argv[0])
    ha = bench.load_package()
    path = bench.HERE / "digests.json"
    digests = json.loads(path.read_text())
    for workload in bench.gen.WORKLOADS:
        for seed in range(count):
            text = bench.gen.generate(workload, seed)
            out = ha.emit_report(ha.run(ha.parse_scenario(text)), "jsonl")
            digests.setdefault(workload, {})[str(seed)] = bench.check.digest(out)
            print(workload, seed, digests[workload][str(seed)][:12], flush=True)
    ordered = {w: dict(sorted(d.items(), key=lambda kv: int(kv[0]))) for w, d in sorted(digests.items())}
    path.write_text(json.dumps(ordered, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
