#!/usr/bin/env python3
"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Runs every workload once at each scale and rewrites reference.json.  Only
record at a commit whose answers are known to be right: the benchmark
then fails any later commit whose answers move by more than workloads.RTOL.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    reference = {}
    with run.workspace("reference-") as (work, env, versions):
        for scale in ("full", "small"):
            reference[scale] = {}
            for wl in workloads.WORKLOADS.values():
                sample = run.run_once(wl, scale, 0, work / f"{scale}-{wl.name}", False,
                                      env, versions["example_config"], None)
                if not sample["ok"]:
                    print(f"{wl.name} ({scale}) failed: {sample['problems']}",
                          file=sys.stderr)
                    return 1
                reference[scale][wl.name] = sample["values"]
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
