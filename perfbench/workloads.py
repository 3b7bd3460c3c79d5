"""The benchmark's workloads: inputs drawn from a seed, ops checked against references.

Each workload is a closed loop with one client.  Inputs come from the seed and
from ``reference.json``, never from calls into smtorus, so input generation
cannot warm the program's caches.  An op is checked against the reference
recorded at the commit that defined the benchmark; an exception, a disagreement
between two routes, or a reference mismatch fails the op.  The references
cover every input a seed can draw, so every seed is checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path
from random import Random

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# interpolate: rank-8 nonstandard pairs straightened per run, exact points per pair
SAMPLE_PAIRS = 200
POINTS_PER_PAIR = 20
POINT_HIGH = 999983
# hilbert: rank-8 indices above the family's minimal member drawn per run
SAMPLE_INDICES = 8


class Mismatch(Exception):
    """Two routes, or a result and its reference, disagree."""


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expansion_digest(exp) -> str:
    """Digest of an expansion as sorted (rows, exact coefficient) terms."""
    return digest(sorted([[list(r) for r in rows], str(Fraction(c))] for rows, c in exp.items()))


def row_key(rows) -> str:
    return ";".join(",".join(map(str, r)) for r in rows)


def tuples(rows):
    return tuple(tuple(r) for r in rows)


class Checker:
    """Counts ops and compares each op's value with its reference."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, key: str, compute) -> None:
        self.attempted += 1
        try:
            value = compute()
        except Exception as exc:  # an op's failure is counted, the run goes on
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            return
        self.settle(key, value)

    def settle(self, key: str, value) -> None:
        expected = self.reference.get(key)
        if value != expected:
            self.failures.append(f"{key}: got {value!r}, reference {expected!r}")

    def fail(self, key: str, why: str) -> None:
        self.attempted += 1
        self.failures.append(f"{key}: {why}")


class Recorder(Checker):
    """Stores each op's value as its reference instead of comparing."""

    def settle(self, key: str, value) -> None:
        if key in self.reference and self.reference[key] != value:
            raise Mismatch(f"{key} recorded twice with different values")
        self.reference[key] = value


# ---------------------------------------------------------------- reproduce-rank12

REPRODUCE_ARGV = ["reproduce", "spin8n", "--n", "3"]


def setup_reproduce(seed: int, data: dict) -> dict:
    return {"argv": REPRODUCE_ARGV + ["--seed", str(seed)], "seed": seed}


def normalized_report(text: str, seed: int) -> str:
    """The report with its configured seed written as 0, the recorded seed."""
    pattern = re.compile(rf'^(\s*"seed": ){seed}$', re.M)
    normalized, count = pattern.subn(r"\g<1>0", text)
    if count != 1:
        raise Mismatch(f"report holds {count} seed entries, expected 1")
    return normalized


def run_reproduce(inputs: dict, check: Checker) -> None:
    from smtorus import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(inputs["argv"])
        text = out.getvalue()
        got = {c["claim"]: c["ok"] for c in json.loads(text)["claims"]}
    except Exception as exc:
        for key in ["report"] + [k for k in check.reference if k.startswith("claim:")]:
            check.fail(key, f"{type(exc).__name__}: {exc}")
        return
    # the recorded claims, or while recording, the claims the report makes
    claims = [k.split(":", 1)[1] for k in check.reference if k.startswith("claim:")]
    for claim in claims or sorted(got):
        check.op(f"claim:{claim}", lambda claim=claim: got.get(claim))
    check.op(
        "report",
        lambda: [
            code,
            hashlib.sha256(normalized_report(text, inputs["seed"]).encode()).hexdigest(),
        ],
    )


# ---------------------------------------------------------------- interpolate


def setup_interpolate(
    seed: int, data: dict, pairs: int = SAMPLE_PAIRS, points: int = POINTS_PER_PAIR
) -> dict:
    rng = Random(f"perfbench-interpolate:{seed}")
    pool = [tuples(p) for p in data["pair_pool"]]
    sample = rng.sample(pool, pairs)
    uppers = [
        [
            {(i, j): rng.randint(1, POINT_HIGH) for i in range(1, 9) for j in range(i + 1, 9)}
            for _ in range(points)
        ]
        for _ in sample
    ]
    return {
        "seed": seed,
        "rank4_pairs": [tuples(p) for p in data["rank4_pairs"]],
        "x_products": [tuples(p) for p in data["x_products"]],
        "w6": tuple(data["w6_rank8"]),
        "sample": sample,
        "points": uppers,
    }


def _agreeing(left, right) -> str:
    if left != right:
        raise Mismatch("evaluation and rewriting routes disagree")
    return expansion_digest(left)


def run_interpolate(inputs: dict, check: Checker) -> None:
    from smtorus.pfaffian import skew_point
    from smtorus.straighten import (
        evaluate_expansion,
        evaluate_rows,
        expand_by_interpolation,
        straighten_rows,
    )

    seed = inputs["seed"]
    for rows in inputs["rank4_pairs"]:
        check.op(
            f"rank4:{row_key(rows)}",
            lambda rows=rows: _agreeing(
                expand_by_interpolation(rows, 4, seed=seed), straighten_rows(rows, 4)
            ),
        )
    w6 = inputs["w6"]
    for rows in inputs["x_products"]:
        check.op(
            f"x8:{row_key(rows)}",
            lambda rows=rows: _agreeing(
                expand_by_interpolation(rows, 8, seed=seed, w=w6),
                straighten_rows(rows, 8, w=w6),
            ),
        )

    def evaluated(rows, uppers):
        exp = straighten_rows(rows, 8)
        for upper in uppers:
            point = skew_point(8, upper)
            if evaluate_rows(rows, point) != evaluate_expansion(exp, point):
                raise Mismatch("expansion and product differ at an exact point")
        return expansion_digest(exp)

    for rows, uppers in zip(inputs["sample"], inputs["points"]):
        check.op(f"pair8:{row_key(rows)}", lambda rows=rows, uppers=uppers: evaluated(rows, uppers))


# ---------------------------------------------------------------- hilbert


def setup_hilbert(seed: int, data: dict, indices: int = SAMPLE_INDICES) -> dict:
    rng = Random(f"perfbench-hilbert:{seed}")
    return {
        "w6_rank8": tuple(data["w6_rank8"]),
        "w6_rank12": tuple(data["w6_rank12"]),
        "drawn": [tuple(w) for w in rng.sample(data["index_pool"], indices)],
    }


# (key, rank, index or None for the full space, even grading?, top degree or half)
def hilbert_cases(inputs: dict):
    yield "full8", 8, None, False, 3
    yield "w6-rank8-even", 8, inputs["w6_rank8"], True, 4
    yield "w6-rank12-even", 12, inputs["w6_rank12"], True, 3
    for w in inputs["drawn"]:
        yield f"above-w1:{row_key([w])}", 8, w, False, 2


def run_hilbert(inputs: dict, check: Checker) -> None:
    from smtorus import ring

    for key, n, w, even, top in hilbert_cases(inputs):
        try:
            if even:
                values = ring.hilbert_even(ring.RingSpec("omega_n", n, w, max_degree=0), top)
            else:
                values = ring.hilbert(ring.RingSpec("omega_n", n, w, max_degree=top))
        except Exception as exc:
            for k in range(top + 1):
                check.fail(f"{key}[{k}]", f"{type(exc).__name__}: {exc}")
            continue
        for k in range(top + 1):
            check.op(f"{key}[{k}]", lambda k=k: values[k])


WORKLOADS = {
    "reproduce-rank12": (setup_reproduce, run_reproduce),
    "interpolate": (setup_interpolate, run_interpolate),
    "hilbert": (setup_hilbert, run_hilbert),
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
