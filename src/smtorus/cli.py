"""Batch front end: quotient-family presets and ad-hoc queries over all modules.

Every run emits a JSON report (CSV is available for Hilbert sequences, a text
summary for eyeballing) carrying the full configuration including the seed, so
identical invocations produce byte-identical reports.  Exit status is 0 on
success, 1 when a verification embedded in the run fails or a computation
fails (the error is named on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from random import Random

from . import families, rewrite, ring, tableau, weyl
from .pfaffian import (
    evaluate_relation,
    exchange_relation,
    matching_sum_pfaffian,
    pfaffian,
    random_skew_point,
    skew_determinant,
)
from .straighten import (
    ComputationError,
    expansion_to_json,
    expand_product,
    straighten_rows,
)

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
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        if "hilbert" not in report.get("results", {}):
            raise SystemExit("csv output only covers Hilbert sequences")
        lines = ["degree,dimension"]
        lines += [f"{k},{v}" for k, v in enumerate(report["results"]["hilbert"])]
        data = "\n".join(lines) + "\n"
    elif fmt == "text":
        data = _text_summary(report) + "\n"
    else:
        data = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
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


def _claim(claims: list, name: str, ok, **details) -> bool:
    entry = {"claim": name, "ok": bool(ok)}
    entry.update(_jsonable(details))
    claims.append(entry)
    return bool(ok)


# ---------------------------------------------------------------- subcommands


def _cmd_enumerate(args) -> int:
    if args.shape == "omega-n":
        w = _parse_w(args.w) if args.w else weyl.top_coset_rep(args.n)
        tabs = tableau.enumerate_basis_omega_n(args.n, w, args.degree)
    else:
        w = None
        tabs = tableau.enumerate_basis_omega_1(args.group_type, args.n, args.degree)
    report = {
        "command": "enumerate",
        "config": {
            "shape": args.shape,
            "n": args.n,
            "w": list(w) if w else None,
            "degree": args.degree,
            "group_type": args.group_type,
            "seed": args.seed,
        },
        "results": {
            "count": len(tabs),
            "tableaux": [tableau.tableau_to_json(t) for t in tabs],
        },
        "ok": True,
    }
    _emit(report, args)
    return 0


def _cmd_straighten(args) -> int:
    rows = _parse_rows(args.rows)
    w = _parse_w(args.w) if args.w else None
    exp = straighten_rows(rows, args.n, w=w)
    report = {
        "command": "straighten",
        "config": {"n": args.n, "rows": [list(r) for r in rows], "w": list(w) if w else None, "seed": args.seed},
        "results": {"expansion": expansion_to_json(exp)},
        "ok": True,
    }
    _emit(report, args)
    return 0


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
    report = {
        "command": "hilbert",
        "config": {"spec": spec, "seed": args.seed},
        "results": {
            "hilbert": h,
            "identified": {"m": ident[0], "e": ident[1]} if ident else None,
        },
        "ok": True,
    }
    _emit(report, args)
    return 0


def _cmd_check_generation(args) -> int:
    spec = _spec_from_args(args)
    rep = ring.check_generation(spec, args.max_gen_degree, seed=args.seed)
    report = {
        "command": "check-generation",
        "config": {"spec": spec, "max_gen_degree": args.max_gen_degree, "seed": args.seed},
        "results": {
            "generation": {
                "d": rep.max_gen_degree,
                "per_degree": list(rep.per_degree),
                "generated": rep.generated,
            }
        },
        "ok": rep.generated,
    }
    _emit(report, args)
    return 0 if rep.generated else 1


def _cmd_relations(args) -> int:
    spec = _spec_from_args(args)
    rel = ring.relations_in_degree(spec, args.degree, seed=args.seed)
    report = {
        "command": "relations",
        "config": {"spec": spec, "degree": args.degree, "seed": args.seed},
        "results": {
            "dimension": rel.dimension,
            "generators": [
                {"degree": d, "rows": [list(r) for r in t.rows]} for d, t in rel.generators
            ],
            "products": [list(p) for p in rel.products],
            "kernel": [[str(c) for c in vec] for vec in rel.kernel],
        },
        "ok": True,
    }
    _emit(report, args)
    return 0


def _load_system(name: str) -> rewrite.ReductionSystem:
    if name in rewrite.NAMED_SYSTEMS:
        return rewrite.NAMED_SYSTEMS[name]()
    if os.path.exists(name):
        with open(name) as fh:
            text = fh.read()
        if name.endswith(".json"):
            return rewrite.system_from_json(json.loads(text))
        return rewrite.parse_system(text)
    raise SystemExit(f"unknown system {name!r} (named: {sorted(rewrite.NAMED_SYSTEMS)})")


def _diamond_results(sys_: rewrite.ReductionSystem, max_degree: int = 4) -> dict:
    rep = rewrite.check_confluence(sys_)
    results = {
        "system": rewrite.system_to_json(sys_),
        "ambiguities": [rewrite.monomial_str(m, sys_) for m in rep.ambiguities],
        "resolutions": [
            {
                "monomial": rewrite.monomial_str(mono, sys_),
                "ways": [
                    {
                        "first_rule": idx,
                        "trace": [rewrite.monomial_str(m, sys_) for m in trace],
                        "normal_form": rewrite.monomial_str(nf, sys_),
                    }
                    for idx, trace, nf in ways
                ],
            }
            for mono, ways in rep.resolutions
        ],
        "confluent": rep.confluent,
    }
    if rep.confluent:
        counts = [rewrite.normal_form_count(sys_, k, assume_confluent=True) for k in range(max_degree + 1)]
        results["normal_form_counts"] = counts
        try:
            results["identified"] = ring.identify_projective_space(counts)
        except ring.AmbiguousMatchError:
            results["identified"] = None
    return results


def _cmd_diamond(args) -> int:
    sys_ = _load_system(args.system)
    results = _diamond_results(sys_)
    report = {
        "command": "diamond",
        "config": {"system": args.system, "seed": args.seed},
        "results": results,
        "ok": results["confluent"],
    }
    _emit(report, args)
    return 0 if results["confluent"] else 1


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
    _claim(claims, f"squared Pfaffian equals determinant (sizes 2..{args.n})", square_ok)
    _claim(claims, "first-row expansion agrees with the matching-sum oracle", oracle_ok)
    rel_ok = True
    for _ in range(args.trials):
        size = rng.randint(2, args.n)
        odd = [k for k in range(1, size + 1, 2)]
        i_set = tuple(sorted(rng.sample(range(1, size + 1), rng.choice(odd))))
        j_set = tuple(sorted(rng.sample(range(1, size + 1), rng.choice(odd))))
        rel = exchange_relation(i_set, j_set)
        pt = random_skew_point(size, rng)
        rel_ok &= evaluate_relation(rel, pt) == 0
    _claim(claims, "exchange relations vanish at random points", rel_ok)
    ok = all(c["ok"] for c in claims)
    report = {
        "command": "verify-pfaffian",
        "config": {"n": args.n, "trials": args.trials, "seed": args.seed},
        "claims": claims,
        "ok": ok,
    }
    _emit(report, args)
    return 0 if ok else 1


# ------------------------------------------------------------------- presets


def _preset_spin8(seed: int) -> dict:
    claims: list = []
    n = 4
    top, w1, w2 = families.SPIN8_TOP, families.SPIN8_W1, families.SPIN8_W2
    g1, g2, g3 = families.SPIN8_DEG1_ROWS

    el = weyl.word_to_one_line(families.SPIN8_TOP_WORD, "D", n)
    _claim(claims, "top reduced word gives the full-space index", el.one_line[:n] == top,
           one_line=el.one_line, length=weyl.length(el))
    _claim(claims, "reduced words give the two smaller indices",
           weyl.word_to_one_line(families.SPIN8_W1_WORD, "D", n).one_line[:n] == w1
           and weyl.word_to_one_line(families.SPIN8_W2_WORD, "D", n).one_line[:n] == w2)
    mu = weyl.apply_to_weight(el, weyl.two_omega_n(n))
    _claim(claims, "top index moves the doubled last weight nonpositive",
           weyl.is_dominant_nonpositive(mu, "D"), weight=mu)

    basis1 = tableau.enumerate_basis_omega_n(n, top, 1)
    _claim(claims, "three invariant degree-1 tableaux span the first piece",
           tuple(t.rows for t in basis1) == (g1, g2, g3),
           basis=[list(map(list, t.rows)) for t in basis1])

    exp = straighten_rows(families.SPIN8_NONSTANDARD_PAIR, n)
    want = {g1: Fraction(1), g2: Fraction(-1), g3: Fraction(1)}
    _claim(claims, "the nonstandard invariant pair straightens with signs +1 -1 +1",
           exp == want, expansion=expansion_to_json(exp))

    spec = ring.RingSpec("omega_n", n, top, max_degree=4)
    h = ring.hilbert(spec)
    _claim(claims, "full-space Hilbert values are 1, 3, 6, 10, 15", h == [1, 3, 6, 10, 15], hilbert=h)
    gen = ring.check_generation(spec, 1, seed=seed)
    _claim(claims, "the full-space ring is generated in degree one", gen.generated,
           per_degree=list(gen.per_degree))
    _claim(claims, "no quadratic relations among the degree-1 tableaux",
           ring.relations_in_degree(spec, 2, seed=seed).dimension == 0)
    ident = ring.identify_projective_space(h)
    _claim(claims, "the quotient is projective 2-space with its line polarization",
           ident == (2, 1), identified=ident)

    spec1 = ring.RingSpec("omega_n", n, w1, max_degree=4)
    h1 = ring.hilbert(spec1)
    _claim(claims, "the smaller index (2,4,6,8) gives a point", h1 == [1] * 5
           and ring.identify_projective_space(h1) == (0, 1), hilbert=h1)
    spec2 = ring.RingSpec("omega_n", n, w2, max_degree=4)
    h2 = ring.hilbert(spec2)
    _claim(claims, "the index (3,4,7,8) gives the projective line, no quadratic relations",
           h2 == [1, 2, 3, 4, 5]
           and ring.identify_projective_space(h2) == (1, 1)
           and ring.relations_in_degree(spec2, 2, seed=seed).dimension == 0,
           hilbert=h2)
    ss = ring.has_semistable(spec)
    _claim(claims, "invariants first appear in degree one with nonpositive weight",
           ss.first_invariant_degree == 1 and ss.weight_nonpositive is True)

    return {
        "command": "reproduce",
        "config": {"preset": "spin8", "seed": seed},
        "descent": {
            "group": "Spin(8)",
            "descending_linearizations": "2m * omega_4, m >= 1",
            "source": "Kumar's descent criterion for torus quotients of flag varieties",
        },
        "claims": claims,
        "ok": all(c["ok"] for c in claims),
    }


def _preset_spin8n(seed: int, n: int) -> dict:
    claims: list = []
    rank = 4 * n
    ws = {i: families.family_index(i, n) for i in range(1, 7)}
    X = {i: families.x_tableau(i, n) for i in range(1, 7)}
    Y = {j: families.y_tableau(j, n) for j in range(1, 5)}
    Z = {l: families.z_tableau(l, n) for l in (1, 2)}

    word_ok = all(
        weyl.word_to_one_line(families.family_word(i, n), "D", rank).one_line[:rank] == ws[i]
        for i in range(1, 7)
    )
    _claim(claims, "reduced words give the six family indices", word_ok,
           indices={i: list(ws[i]) for i in range(1, 7)})
    _claim(claims, "the family lies above its minimal member",
           all(weyl.bruhat_leq(ws[1], ws[i]) for i in range(2, 7)))
    weight_ok = all(
        weyl.is_dominant_nonpositive(
            weyl.apply_to_weight(weyl.coset_rep_to_weyl(ws[i], rank, "D"), weyl.two_omega_n(rank)),
            "D",
        )
        for i in range(1, 7)
    )
    _claim(claims, "every family member moves the doubled weight nonpositive", weight_ok)

    w6 = ws[6]
    spec6 = ring.RingSpec("omega_n", rank, w6, max_degree=4)
    basis1 = tableau.enumerate_basis_omega_n(rank, w6, 1)
    _claim(claims, "the degree-1 basis on the largest member is X_1..X_6",
           sorted(t.rows for t in basis1) == sorted(X[i].rows for i in range(1, 7)),
           dim=len(basis1))

    basis2 = tableau.enumerate_basis_omega_n(rank, w6, 2)
    rel = ring.relations_in_degree(spec6, 2, seed=seed)
    gen1 = ring.check_generation(spec6, 1, seed=seed)
    outside = [t.rows for d, t in rel.generators if d == 2]
    _claim(claims, "exactly the four tableaux Y_1..Y_4 lie outside degree-1 products",
           sorted(outside) == sorted(Y[j].rows for j in range(1, 5)),
           product_span=gen1.per_degree[2][2], dim=len(basis2))
    _claim(claims, "no Y splits off an invariant degree-1 subtableau",
           all(tableau.find_factor(Y[j], 1) is None for j in range(1, 5)))
    _claim(claims, "no Z splits off an invariant subtableau of degree at most 2",
           all(tableau.find_factor(Z[l], 2) is None for l in (1, 2)))

    gen_rows = {t.rows: i for i, (_, t) in enumerate(rel.generators)}

    def rel_vector(terms):
        vec = [Fraction(0)] * len(rel.products)
        for coeff, factors in terms:
            ms = tuple(sorted(gen_rows[f.rows] for f in factors))
            vec[rel.products.index(ms)] += coeff
        return vec

    printed = [
        [(1, (X[4], X[5])), (-1, (X[3], X[6])), (1, (Y[2],)), (-1, (Y[1],))],
        [(1, (X[2], X[5])), (-1, (X[1], X[6])), (1, (Y[3],)), (-1, (Y[1],))],
        [(1, (X[2], X[3])), (-1, (X[1], X[4])), (1, (Y[4],)), (-1, (Y[1],))],
    ]
    _claim(claims, "the quadratic relation space is 3-dimensional", rel.dimension == 3,
           dimension=rel.dimension)
    _claim(claims, "the three printed quadratic relations hold",
           all(rel.contains(rel_vector(t)) for t in printed))

    prod_xy1 = expand_product([X[2], Y[1]], w=w6, seed=seed)
    prod_xy2 = expand_product([X[2], Y[2]], w=w6, seed=seed)
    _claim(claims, "X_2 Y_1 = Z_1 and X_2 Y_2 = Z_2 on the largest member",
           prod_xy1 == {Z[1].rows: Fraction(1)} and prod_xy2 == {Z[2].rows: Fraction(1)})

    _claim(claims, "degree-1 elements do not generate (failure at degree 2)",
           not gen1.generated and gen1.per_degree[2][3] is False,
           per_degree=list(gen1.per_degree))
    gen2 = ring.check_generation(spec6, 2, seed=seed)
    _claim(claims, "degrees one and two generate through degree 4", gen2.generated,
           per_degree=list(gen2.per_degree))
    gen_min = ring.check_generation(
        spec6, 2, generators=[X[i] for i in range(1, 7)] + [Y[1]], seed=seed
    )
    _claim(claims, "the six degree-1 tableaux and Y_1 alone generate", gen_min.generated,
           per_degree=list(gen_min.per_degree))
    even = ring.hilbert_even(ring.RingSpec("omega_n", rank, w6, max_degree=4), 2)
    spec6e = ring.RingSpec("omega_n", rank, w6, max_degree=4)
    gen_even = ring.check_generation(spec6e, 2, generators=[t for t in basis2], seed=seed)
    _claim(claims, "degree-2 elements span the degree-4 piece (doubled polarization)",
           gen_even.per_degree[4][3], even_hilbert=even)

    quotient_targets = {1: (0, 1), 2: (1, 2), 3: (1, 2), 4: (3, 2), 5: (2, 2)}
    ident_results = {}
    ident_ok = True
    for i in range(1, 6):
        spec_i = ring.RingSpec("omega_n", rank, ws[i], max_degree=6)
        hev = ring.hilbert_even(spec_i, 3)
        m_e = quotient_targets[i]
        expect = ring.veronese_hilbert(m_e[0], m_e[1] if m_e[0] else 1, 3)
        got = ring.identify_projective_space(hev) if hev[0] == 1 else None
        ident_results[i] = {"even_hilbert": hev, "expected": expect, "identified": got}
        ident_ok &= hev == expect and got == m_e
    _claim(claims, "even-degree Hilbert values identify the five smaller quotients",
           ident_ok, quotients=ident_results)

    diamonds = {}
    diamond_ok = True
    for name in ("veronese-p1", "veronese-p2", "veronese-p3"):
        res = _diamond_results(rewrite.NAMED_SYSTEMS[name]())
        diamonds[name] = {
            "confluent": res["confluent"],
            "ambiguities": res["ambiguities"],
            "normal_form_counts": res.get("normal_form_counts"),
            "identified": res.get("identified"),
        }
        diamond_ok &= res["confluent"]
    _claim(claims, "the three quotient presentations are confluent", diamond_ok)

    return {
        "command": "reproduce",
        "config": {"preset": "spin8n", "n": n, "seed": seed},
        "descent": {
            "group": f"Spin({8 * n})",
            "descending_linearizations": "4m * omega_{4n}, m >= 1",
            "source": "Kumar's descent criterion for torus quotients of flag varieties",
        },
        "scope_note": (
            f"general-rank statements are exercised at rank {rank} only; other ranks "
            "are covered by the property suite"
        ),
        "diamond": diamonds,
        "claims": claims,
        "ok": all(c["ok"] for c in claims),
    }


def _preset_alpha1(seed: int, group_type: str) -> dict:
    claims: list = []
    ranks = range(4, 9) if group_type == "D" else range(2, 9)
    results = {}
    for n in ranks:
        spec = ring.RingSpec("omega_1", n, None, group_type, max_degree=4)
        h = ring.hilbert(spec)
        m = n - 2 if group_type == "D" else n - 1
        expect = ring.veronese_hilbert(m, 1, 4)
        gen = ring.check_generation(spec, 1, seed=seed)
        count = len(ring.basis(spec, 1))
        results[n] = {"hilbert": h, "expected": expect, "generated": gen.generated,
                      "degree1_dim": count}
        _claim(claims, f"rank {n}: Hilbert matches projective {m}-space and degree-1 generates",
               h == expect and gen.generated and count == m + 1)
    label = "Spin(2n)" if group_type == "D" else "Sp(2n)"
    return {
        "command": "reproduce",
        "config": {"preset": "p-alpha1" if group_type == "D" else "sp", "seed": seed},
        "descent": {
            "group": f"{label}, first-node parabolic",
            "descending_linearizations": "2m * omega_1, m >= 1",
            "source": "Kumar's descent criterion for torus quotients of flag varieties",
        },
        "results": results,
        "claims": claims,
        "ok": all(c["ok"] for c in claims),
    }


def _cmd_reproduce(args) -> int:
    if args.preset == "spin8":
        report = _preset_spin8(args.seed)
    elif args.preset == "spin8n":
        report = _preset_spin8n(args.seed, args.n or 2)
    elif args.preset == "p-alpha1":
        report = _preset_alpha1(args.seed, "D")
    elif args.preset == "sp":
        report = _preset_alpha1(args.seed, "C")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(2)
    _emit(report, args)
    return 0 if report["ok"] else 1


# --------------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for evaluation points")
    p.add_argument("--format", choices=("json", "text", "csv"), default="json")
    p.add_argument("--out", help="output file (default: stdout, or $%s)" % OUT_DIR_ENV)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smtorus",
        description="torus-invariant standard monomials on even orthogonal Grassmannians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="standard tableau bases")
    p.add_argument("--shape", choices=("omega-n", "omega-1"), default="omega-n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", help="comma-separated Schubert index (omega-n)")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--group-type", choices=("D", "C"), default="D")
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("straighten", help="expand a product over the standard basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rows", required=True, help="semicolon-separated rows, e.g. '1,4,6,7;2,3,5,8'")
    p.add_argument("--w", help="restrict to the Schubert variety of this index")
    _add_common(p)
    p.set_defaults(func=_cmd_straighten)

    p = sub.add_parser("hilbert", help="graded dimensions")
    p.add_argument("--shape", choices=("omega-n", "omega-1"), default="omega-n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--group-type", choices=("D", "C"), default="D")
    _add_common(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("check-generation", help="span of low-degree products")
    p.add_argument("--shape", choices=("omega-n", "omega-1"), default="omega-n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--max-gen-degree", type=int, default=1)
    p.add_argument("--group-type", choices=("D", "C"), default="D")
    _add_common(p)
    p.set_defaults(func=_cmd_check_generation)

    p = sub.add_parser("relations", help="kernel of multiplication in one degree")
    p.add_argument("--shape", choices=("omega-n", "omega-1"), default="omega-n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--group-type", choices=("D", "C"), default="D")
    _add_common(p)
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("diamond", help="confluence certificate for a reduction system")
    p.add_argument("--system", required=True, help="named system or file path")
    _add_common(p)
    p.set_defaults(func=_cmd_diamond)

    p = sub.add_parser("verify-pfaffian", help="randomized Pfaffian identities")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_pfaffian)

    p = sub.add_parser("reproduce", help="run a quotient-family preset")
    p.add_argument("preset", choices=("spin8", "spin8n", "p-alpha1", "sp"))
    p.add_argument("--n", type=int, help="family parameter for spin8n (default 2)")
    _add_common(p)
    p.set_defaults(func=_cmd_reproduce)

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
