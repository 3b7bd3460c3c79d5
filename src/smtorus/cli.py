"""Command line: parse argv, run one query or reproduce preset, write its report.

The ad-hoc subcommands call the library directly; ``reproduce`` runs one of
the presets in ``presets``.  Every run emits a JSON report (CSV is available
for Hilbert sequences, a text summary for eyeballing) carrying the full
configuration including the seed, so identical invocations produce
byte-identical reports.  Exit status is 0 on success, 1 when a verification
embedded in the run fails or a computation fails (the error is named on
stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from random import Random

from . import presets, rewrite, ring, tableau, weyl
from .pfaffian import (
    evaluate_relation,
    exchange_relation,
    matching_sum_pfaffian,
    pfaffian,
    random_skew_point,
    skew_determinant,
)
from .straighten import ComputationError, expansion_to_json, straighten_rows

OUT_DIR_ENV = "SMTORUS_OUT"


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {f: _jsonable(getattr(obj, f)) for f in obj.__dataclass_fields__}
    return obj


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".smtorus-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(report: dict, args) -> None:
    fmt = args.format
    if fmt == "csv":
        lines = ["degree,dimension"]
        lines += [f"{k},{v}" for k, v in enumerate(report["results"]["hilbert"])]
        data = "\n".join(lines) + "\n"
    elif fmt == "text":
        data = _text_summary(report) + "\n"
    else:
        data = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    out = args.out
    if out is None and os.environ.get(OUT_DIR_ENV):
        out = os.path.join(os.environ[OUT_DIR_ENV], f"{report['command']}.{fmt}")
    if out:
        _write_atomic(out, data)
    else:
        sys.stdout.write(data)


def _text_summary(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    for key, val in sorted(report.get("config", {}).items()):
        lines.append(f"  {key} = {val}")
    claims = report.get("claims")
    if claims:
        for c in claims:
            mark = "ok" if c["ok"] else "FAIL"
            lines.append(f"[{mark}] {c['claim']}")
    results = report.get("results")
    if results:
        lines.append(json.dumps(_jsonable(results), sort_keys=True))
    lines.append(f"ok: {report.get('ok', True)}")
    return "\n".join(lines)


def _parse_rows(text: str):
    return tuple(tuple(int(v) for v in part.split(",")) for part in text.split(";"))


def _parse_w(text: str):
    return tuple(int(v) for v in text.split(","))


def _done(args, config: dict, ok=True, **body) -> int:
    """Emit an ad-hoc subcommand's report and return its exit status."""
    _emit({"command": args.command, "config": {**config, "seed": args.seed}, **body, "ok": ok}, args)
    return 0 if ok else 1


# ---------------------------------------------------------------- subcommands


def _cmd_enumerate(args) -> int:
    w = None
    if args.shape == "omega-n":
        w = _parse_w(args.w) if args.w else weyl.top_coset_rep(args.n)
        tabs = tableau.enumerate_basis_omega_n(args.n, w, args.degree)
    else:
        tabs = tableau.enumerate_basis_omega_1(args.group_type, args.n, args.degree)
    config = {"shape": args.shape, "n": args.n, "w": list(w) if w else None,
              "degree": args.degree, "group_type": args.group_type}
    return _done(args, config, results={
        "count": len(tabs),
        "tableaux": [tableau.tableau_to_json(t) for t in tabs],
    })


def _cmd_straighten(args) -> int:
    rows = _parse_rows(args.rows)
    w = _parse_w(args.w) if args.w else None
    exp = straighten_rows(rows, args.n, w=w)
    config = {"n": args.n, "rows": [list(r) for r in rows], "w": list(w) if w else None}
    return _done(args, config, results={"expansion": expansion_to_json(exp)})


def _spec_from_args(args) -> ring.RingSpec:
    if args.shape == "omega-n":
        w = _parse_w(args.w) if args.w else None
        return ring.RingSpec("omega_n", args.n, w, "D", args.max_degree)
    return ring.RingSpec("omega_1", args.n, None, args.group_type, args.max_degree)


def _cmd_hilbert(args) -> int:
    spec = _spec_from_args(args)
    h = ring.hilbert(spec)
    try:
        ident = ring.identify_projective_space(h)
    except ring.AmbiguousMatchError:
        ident = None
    return _done(args, {"spec": spec}, results={
        "hilbert": h,
        "identified": {"m": ident[0], "e": ident[1]} if ident else None,
    })


def _cmd_check_generation(args) -> int:
    spec = _spec_from_args(args)
    rep = ring.check_generation(spec, args.max_gen_degree)
    results = {"generation": {
        "d": rep.max_gen_degree,
        "per_degree": list(rep.per_degree),
        "generated": rep.generated,
    }}
    return _done(args, {"spec": spec, "max_gen_degree": args.max_gen_degree}, rep.generated,
                 results=results)


def _cmd_relations(args) -> int:
    spec = _spec_from_args(args)
    rel = ring.relations_in_degree(spec, args.degree)
    return _done(args, {"spec": spec, "degree": args.degree}, results={
        "dimension": rel.dimension,
        "generators": [{"degree": d, "rows": [list(r) for r in t.rows]} for d, t in rel.generators],
        "products": [list(p) for p in rel.products],
        "kernel": [[str(c) for c in vec] for vec in rel.kernel],
    })


def _load_system(name: str) -> rewrite.ReductionSystem:
    if name in rewrite.NAMED_SYSTEMS:
        return rewrite.NAMED_SYSTEMS[name]()
    if os.path.exists(name):
        with open(name) as fh:
            text = fh.read()
        if name.endswith(".json"):
            return rewrite.system_from_json(json.loads(text))
        return rewrite.parse_system(text)
    raise ValueError(f"unknown system {name!r} (named: {sorted(rewrite.NAMED_SYSTEMS)})")


def _cmd_diamond(args) -> int:
    results = presets.diamond_certificate(_load_system(args.system))
    return _done(args, {"system": args.system}, results["confluent"], results=results)


def _cmd_verify_pfaffian(args) -> int:
    rng = Random(args.seed)
    claims: list = []
    square_ok = True
    oracle_ok = True
    for size in range(2, args.n + 1):
        for _ in range(args.trials):
            pt = random_skew_point(size, rng)
            pf = pfaffian(pt)
            square_ok &= pf * pf == skew_determinant(pt)
            if size <= 8:
                oracle_ok &= matching_sum_pfaffian(pt) == pf
    presets.claim(claims, f"squared Pfaffian equals determinant (sizes 2..{args.n})", square_ok)
    presets.claim(claims, "first-row expansion agrees with the matching-sum oracle", oracle_ok)
    rel_ok = True
    for _ in range(args.trials):
        size = rng.randint(2, args.n)
        odd = [k for k in range(1, size + 1, 2)]
        i_set = tuple(sorted(rng.sample(range(1, size + 1), rng.choice(odd))))
        j_set = tuple(sorted(rng.sample(range(1, size + 1), rng.choice(odd))))
        rel = exchange_relation(i_set, j_set)
        pt = random_skew_point(size, rng)
        rel_ok &= evaluate_relation(rel, pt) == 0
    presets.claim(claims, "exchange relations vanish at random points", rel_ok)
    return _done(args, {"n": args.n, "trials": args.trials}, all(c["ok"] for c in claims),
                 claims=claims)


# the reproduce presets, by name
PRESETS = {
    "spin8": lambda args: presets.spin8(args.seed),
    "spin8n": lambda args: presets.spin8n(args.seed, args.n or 2),
    "p-alpha1": lambda args: presets.alpha1(args.seed, "D"),
    "sp": lambda args: presets.alpha1(args.seed, "C"),
}


def _cmd_reproduce(args) -> int:
    report = PRESETS[args.preset](args)
    _emit(report, args)
    return 0 if report["ok"] else 1


# --------------------------------------------------------------------- parser


def _subcommand(sub, name: str, func, summary: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    p.add_argument("--seed", type=int, default=0, help="seeds verify-pfaffian; recorded in every report")
    # csv covers Hilbert sequences only
    formats = ("json", "text", "csv") if name == "hilbert" else ("json", "text")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--out", help="output file (default: stdout, or $%s)" % OUT_DIR_ENV)
    p.set_defaults(func=func)
    return p


def _add_spec(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", choices=("omega-n", "omega-1"), default="omega-n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", help="comma-separated Schubert index (omega-n)")
    p.add_argument("--group-type", choices=("D", "C"), default="D")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smtorus",
        description="torus-invariant standard monomials on even orthogonal Grassmannians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "enumerate", _cmd_enumerate, "standard tableau bases")
    _add_spec(p)
    p.add_argument("--degree", type=int, default=1)

    p = _subcommand(sub, "straighten", _cmd_straighten, "expand a product over the standard basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rows", required=True, help="semicolon-separated rows, e.g. '1,4,6,7;2,3,5,8'")
    p.add_argument("--w", help="restrict to the Schubert variety of this index")

    for name, func, summary, extra in (
        ("hilbert", _cmd_hilbert, "graded dimensions", ()),
        ("check-generation", _cmd_check_generation, "span of low-degree products",
         (("--max-gen-degree", 1),)),
        ("relations", _cmd_relations, "kernel of multiplication in one degree", (("--degree", 2),)),
    ):
        p = _subcommand(sub, name, func, summary)
        _add_spec(p)
        p.add_argument("--max-degree", type=int, default=4)
        for flag, default in extra:
            p.add_argument(flag, type=int, default=default)

    p = _subcommand(sub, "diamond", _cmd_diamond, "confluence certificate for a reduction system")
    p.add_argument("--system", required=True, help="named system or file path")

    p = _subcommand(sub, "verify-pfaffian", _cmd_verify_pfaffian, "randomized Pfaffian identities")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=20)

    p = _subcommand(sub, "reproduce", _cmd_reproduce, "run a quotient-family preset")
    p.add_argument("preset", choices=tuple(PRESETS))
    p.add_argument("--n", type=int, help="family parameter for spin8n (default 2)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ComputationError as exc:
        print(f"smtorus: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (
        weyl.WeylError,
        tableau.TableauError,
        ring.RingError,
        rewrite.RewriteError,
        ValueError,
        OSError,
    ) as exc:
        print(f"smtorus: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
