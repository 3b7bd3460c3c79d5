#!/usr/bin/env python3
"""Run every reproduce preset and summarize the claim outcomes.

Writes one JSON report per preset next to this script (or into $SMTORUS_OUT),
prints each preset's status and elapsed wall time, and exits nonzero if any
embedded claim fails.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from smtorus.cli import main  # noqa: E402

PRESETS = [
    ["reproduce", "spin8"],
    ["reproduce", "spin8n", "--n", "2"],
    ["reproduce", "spin8n", "--n", "3"],
    ["reproduce", "spin8n", "--n", "4"],
    ["reproduce", "spin8n", "--n", "5"],
    ["reproduce", "p-alpha1"],
    ["reproduce", "sp"],
]


def run() -> int:
    out_dir = os.environ.get("SMTORUS_OUT", os.path.dirname(os.path.abspath(__file__)))
    worst = 0
    for argv in PRESETS:
        name = "-".join(argv[1:]).replace("--", "")
        out = os.path.join(out_dir, f"report-{name}.json")
        start = time.perf_counter()
        code = main(argv + ["--out", out])
        elapsed = time.perf_counter() - start
        status = "ok" if code == 0 else "FAILED"
        print(f"{' '.join(argv):32s} -> {status} in {elapsed:.2f} s ({out})")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
