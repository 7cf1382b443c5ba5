#!/usr/bin/env python3
"""Record the per-seed reference outputs the benchmark checks against.

Run from the repository root, only when a change is meant to move the
simulated results (a policy change), and commit the diff::

    python3 perfbench/record_references.py

Seed 0 is the baseline seed.  Seed 17 is held out: it is not used while
a change is tuned, so a later claim can be confirmed on it.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEEDS = (0, 17)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    refs = {
        name: {
            str(seed): wl.reference(wl.run(wl.setup(seed)))
            for seed in SEEDS
        }
        for name, wl in workloads.WORKLOADS.items()
    }
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
