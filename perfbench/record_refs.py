"""Record the benchmark's correctness references from the current pnlab.

    python3 perfbench/record_refs.py

Runs one pass of every workload at every scale with checks switched to
recording, and writes perfbench/references.json.  The references were
recorded once from the seed code; re-record only for a change that is
meant to alter output, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCES, load_pnlab
from workloads import SCALES, WORKLOADS, Log


def main() -> int:
    pn = load_pnlab()
    refs = {}
    for scale in SCALES:
        refs[scale] = {}
        for name, cls in WORKLOADS.items():
            workload = cls(pn, 0, scale, {})
            workload.recording = {}
            log = Log()
            workload.run_pass(log)
            if name == "jpm":
                workload.canary(log)
            if log.failed:
                print("\n".join(log.messages), file=sys.stderr)
                return 1
            refs[scale][name] = workload.recording
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
