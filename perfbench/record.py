"""Record the benchmark's reference outputs from the current commit.

    python3 perfbench/record.py

Writes ``perfbench/reference.json``: the inputs every seed draws from, and the
outputs each op must reproduce.  Every input a seed can draw is recorded, so
the check holds for any seed.  Run it only when the program's outputs are
meant to change; the benchmark compares every later commit with this file.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from smtorus import families, weyl  # noqa: E402

# interpolate: size of the pool of rank-8 nonstandard pairs a seed samples from
PAIR_POOL = 800


def input_data() -> dict:
    reps4 = weyl.minimal_coset_reps_alpha_n(4)
    reps8 = weyl.minimal_coset_reps_alpha_n(8)
    x = {i: families.x_tableau(i, 2).rows for i in range(1, 7)}
    nonstandard = [
        (a, b)
        for a, b in combinations(reps8, 2)
        if not (all(s <= t for s, t in zip(a, b)) or all(s >= t for s, t in zip(a, b)))
    ]
    w1 = families.family_index(1, 2)
    return {
        "rank4_pairs": list(combinations_with_replacement(reps4, 2)),
        "x_products": [x[i] + x[j] for i, j in combinations_with_replacement(range(1, 7), 2)],
        "w6_rank8": families.family_index(6, 2),
        "w6_rank12": families.family_index(6, 3),
        "pair_pool": sorted(Random("perfbench-pool").sample(nonstandard, PAIR_POOL)),
        "index_pool": [r for r in reps8 if weyl.bruhat_leq(w1, r)],
    }


def record(name: str, inputs: dict) -> dict:
    rec = workloads.Recorder({})
    workloads.WORKLOADS[name][1](inputs, rec)
    if rec.failures:
        raise SystemExit(f"{name}: {rec.failures[:5]}")
    return rec.reference


def write_reference(reference: dict) -> None:
    """One line per input and per reference value, so changes diff by entry."""
    lines = ["{"]
    for i, (section, entries) in enumerate(sorted(reference.items())):
        lines.append(f"{json.dumps(section)}: {{")
        items = sorted(entries.items())
        for j, (key, value) in enumerate(items):
            comma = "," if j < len(items) - 1 else ""
            lines.append(f" {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}{comma}")
        lines.append("}," if i < len(reference) - 1 else "}")
    lines.append("}")
    workloads.REFERENCE_PATH.write_text("\n".join(lines) + "\n")


def main() -> None:
    data = json.loads(json.dumps(input_data()))
    pairs, indices = len(data["pair_pool"]), len(data["index_pool"])
    write_reference(
        {
            "data": data,
            "reproduce-rank12": record("reproduce-rank12", workloads.setup_reproduce(0, data)),
            "interpolate": record(
                "interpolate", workloads.setup_interpolate(0, data, pairs=pairs, points=2)
            ),
            "hilbert": record("hilbert", workloads.setup_hilbert(0, data, indices=indices)),
        }
    )


if __name__ == "__main__":
    main()
