"""One repetition of one workload in a fresh interpreter; prints one JSON line.

Run by ``run.py``, never imported by it:

    python3 perfbench/child.py --workload W --seed S --mode setup|run|trace [--spans FILE]

``setup`` imports smtorus and builds the inputs, then exits; ``run`` also
times the workload; ``trace`` runs it with every layer wrapped.  The timed
region starts at the first call into smtorus and ends at the last checked
result, so it excludes import and input generation.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

# recorded before anything can import smtorus
PRELOADED = sorted(m for m in sys.modules if m == "smtorus" or m.startswith("smtorus."))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

MODULES = (
    "cli", "families", "linalg", "pfaffian", "rewrite", "ring", "straighten", "tableau", "weyl",
)


def import_smtorus() -> dict:
    """Import every smtorus module from this checkout's src directory."""
    import smtorus

    origin = Path(smtorus.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"smtorus imported from {origin}, not from {ROOT / 'src'}")
    for name in MODULES:
        importlib.import_module(f"smtorus.{name}")
    return tracer.smtorus_modules()


def warm_caches(modules: dict) -> list[str]:
    """Memos, caches and functools caches in smtorus that already hold entries."""
    warm = []
    for mod_name, mod in modules.items():
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_info"):
                size = value.cache_info().currsize
            elif isinstance(value, (dict, list, set)) and (
                "MEMO" in attr.upper() or "CACHE" in attr.upper()
            ):
                size = len(value)
            else:
                continue
            if size:
                warm.append(f"{mod_name}.{attr}")
    return sorted(warm)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--spans", help="file the trace mode writes its spans to")
    args = parser.parse_args(argv)

    modules = import_smtorus()
    setup, run = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    inputs = setup(args.seed, reference["data"])
    out = {
        "mode": args.mode,
        "isolation": {"preloaded": PRELOADED, "warm": warm_caches(modules)},
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    trace = None
    if args.mode == "trace":
        trace = tracer.Tracer()
        trace.install(modules)
    check = workloads.Checker(reference[args.workload])
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    run(inputs, check)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    out.update(
        attempted=check.attempted,
        failed=len(check.failures),
        failures=check.failures[:20],
        wall_s=wall,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        peak_rss_mb=after.ru_maxrss / 1024,
    )
    if trace is not None:
        trace.uninstall()
        out["trace"] = {
            "calls": trace.calls,
            "self_s": trace.self_s,
            "layer_self_s": trace.layer_self_s(),
            "derived": trace.derived,
            "attributed_s": trace.attributed_s,
            "absent": trace.absent,
        }
        if args.spans:
            trace.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
