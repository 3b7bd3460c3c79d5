"""smtorus benchmark: run one workload in fresh interpreters and print its metrics.

    python3 perfbench/run.py --workload {reproduce-rank12,interpolate,hilbert} \\
        --seed N --seconds S --trace {0,1}

Every repetition runs in a new interpreter, one at a time, because smtorus
keeps process-wide memos that a warm repeat would reuse; a command-line user
pays the cold cost on every invocation.  This process never imports smtorus.

--trace 0 prints the end-to-end metrics: the medians of wall_s, cpu_s and
peak_rss_mb over whole repetitions, and of setup_s over SETUP_SAMPLES
interpreters that only import smtorus and build the inputs.  Another
repetition starts while the time measured so far plus the median repetition
fits in --seconds; the first always runs.

--trace 1 prints the per-layer metrics: one untraced repetition and two traced
ones under different PYTHONHASHSEED values, whose counts must agree exactly.

The last line of standard output is the result object; the line before it and
``perfbench/out/`` carry provenance, failures and the spans.  The exit status
is 0 only when every op matched its reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

WORKLOADS = ("reproduce-rank12", "interpolate", "hilbert")
SETUP_SAMPLES = 5
# the run must end within 180 s; children are killed at this deadline
DEADLINE_S = 170.0
UNTRACED_HASHSEED = "0"
TRACED_HASHSEEDS = ("1", "2")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Children:
    """Starts child interpreters one at a time under a shared deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, mode: str, hashseed: str = UNTRACED_HASHSEED, spans: Path | None = None) -> dict:
        env = {k: v for k, v in os.environ.items() if k != "SMTORUS_OUT"}
        env["PYTHONHASHSEED"] = hashseed
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before a {mode} child")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child passed the {DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"{mode} child printed no result:\n{proc.stderr[-2000:]}") from None
        iso = out["isolation"]
        if iso["preloaded"] or iso["warm"]:
            raise BenchError(f"child did not start cold: {iso}")
        return out


def timed_setup(children: Children) -> float:
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        children.run("setup")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def untraced(children: Children, seconds: float) -> tuple[dict, list[dict]]:
    setup_s = timed_setup(children)
    reps = [children.run("run")]
    while sum(r["wall_s"] for r in reps) + statistics.median(r["wall_s"] for r in reps) <= seconds:
        reps.append(children.run("run"))
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    return metrics, reps


def derived_counts(t: dict) -> dict[str, int]:
    d = t["derived"]
    return {
        "linalg.span_enlarged": d["span_enlarged"],
        "tableau.chains_listed": d["chains_listed"],
        "tableau.chains_counted": d["chains_counted"],
        "straighten.terms_out": d["terms_out"],
    }


def traced(children: Children) -> tuple[dict, list[dict], list[str]]:
    OUT_DIR.mkdir(exist_ok=True)
    plain = children.run("run")
    reps = []
    for hashseed in TRACED_HASHSEEDS:
        spans = OUT_DIR / f"spans-{children.workload}-seed{children.seed}-hash{hashseed}.json"
        reps.append(children.run("trace", hashseed, spans))
    both = [r["trace"] for r in reps]
    first = both[0]
    c1, c2 = (
        {**{f"{k}.calls": v for k, v in t["calls"].items()}, **derived_counts(t)} for t in both
    )
    problems = [
        f"count {name} differs with the hash seed: {c1.get(name)} vs {c2.get(name)}"
        for name in sorted(c1.keys() | c2.keys())
        if c1.get(name) != c2.get(name)
    ]
    metrics = {}
    for name in first["calls"]:
        metrics[f"{name}.calls"] = (first["calls"][name], "count")
        metrics[f"{name}.self_s"] = (statistics.fmean(t["self_s"][name] for t in both), "s")
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.fmean(t["layer_self_s"][layer] for t in both), "s")
    adds = first["calls"].get("linalg.Span.add", 0)
    metrics["linalg.span_enlarge_ratio"] = (
        first["derived"]["span_enlarged"] / adds if adds else 0.0, "ratio"
    )
    for name in ("tableau.chains_listed", "tableau.chains_counted", "straighten.terms_out"):
        metrics[name] = (derived_counts(first)[name], "count")
    traced_wall = statistics.fmean(r["wall_s"] for r in reps)
    metrics["trace.overhead_s"] = (traced_wall - plain["wall_s"], "s")
    unattributed = [(r["wall_s"] - r["trace"]["attributed_s"]) / r["wall_s"] for r in reps]
    metrics["trace.unattributed_share"] = (statistics.fmean(unattributed), "ratio")
    return metrics, [plain] + reps, problems


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src, lines = hashlib.sha256(), 0
    for p in sorted((ROOT / "src").rglob("*.py")):
        text = p.read_bytes()
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + text)
        lines += len(text.splitlines())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "smtorus" / "__init__.py").is_file():
        print(f"perfbench: no smtorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    children = Children(args.workload, args.seed)
    try:
        if args.trace:
            metrics, reps, problems = traced(children)
        else:
            metrics, reps = untraced(children, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    if args.trace:
        # the count determinism check is one more op
        attempted += 1
        failed += bool(problems)
        failures += problems
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(),
        "repetitions": len(reps),
        "error_rate": failed / attempted,
        "absent": reps[-1].get("trace", {}).get("absent", []),
        "failures": failures[:20],
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"info": info, "result": result, "repetitions": reps}, indent=1))
    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
