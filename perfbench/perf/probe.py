"""Cold-start probe, run in a fresh interpreter by ``run.py``.

Imports ``repro.cli`` (what every ``ccf`` command pays), then builds the
workload's inputs, and prints one JSON line with both times and the
number of modules the import loaded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    before = len(sys.modules)
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - start
    modules = len(sys.modules) - before
    start = time.perf_counter()
    from perf.workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed)
    inputs_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "modules": modules,
                      "inputs_s": inputs_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
