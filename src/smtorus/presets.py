"""The paper's claims as reproduce presets, each checked by exact computation.

A preset builds one report: its configuration, the group and linearizations
that Kumar's descent criterion lets descend, and a list of named claims, each
with its verdict and the data that decided it.  The report is ok exactly when
every claim holds.
"""

from __future__ import annotations

from fractions import Fraction

from . import families, rewrite, ring, tableau, weyl
from .straighten import expansion_to_json, expand_product, straighten_rows

__all__ = ["claim", "diamond_certificate", "spin8", "spin8n", "alpha1"]


def claim(claims: list, name: str, ok, **details) -> None:
    claims.append({"claim": name, "ok": bool(ok), **details})


def diamond_certificate(sys_: rewrite.ReductionSystem) -> dict:
    """Ambiguities, their resolutions and, when confluent, normal-form counts through degree 4."""
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
        counts = [rewrite.normal_form_count(sys_, k, assume_confluent=True) for k in range(5)]
        results["normal_form_counts"] = counts
        try:
            results["identified"] = ring.identify_projective_space(counts)
        except ring.AmbiguousMatchError:
            results["identified"] = None
    return results


def _report(config: dict, group: str, linearizations: str, claims: list, **extra) -> dict:
    return {
        "command": "reproduce",
        "config": config,
        "descent": {
            "group": group,
            "descending_linearizations": linearizations,
            "source": "Kumar's descent criterion for torus quotients of flag varieties",
        },
        **extra,
        "claims": claims,
        "ok": all(c["ok"] for c in claims),
    }


def spin8(seed: int) -> dict:
    """G/P^{alpha_4} of Spin(8): the quotient is (P^2, O(1)), generated in degree one."""
    claims: list = []
    n = 4
    top, w1, w2 = families.SPIN8_TOP, families.SPIN8_W1, families.SPIN8_W2
    g1, g2, g3 = families.SPIN8_DEG1_ROWS

    el = weyl.word_to_one_line(families.SPIN8_TOP_WORD, "D", n)
    claim(claims, "top reduced word gives the full-space index", el.one_line[:n] == top,
          one_line=el.one_line, length=weyl.length(el))
    claim(claims, "reduced words give the two smaller indices",
          weyl.word_to_one_line(families.SPIN8_W1_WORD, "D", n).one_line[:n] == w1
          and weyl.word_to_one_line(families.SPIN8_W2_WORD, "D", n).one_line[:n] == w2)
    mu = weyl.apply_to_weight(el, weyl.two_omega_n(n))
    claim(claims, "top index moves the doubled last weight nonpositive",
          weyl.is_dominant_nonpositive(mu, "D"), weight=mu)

    basis1 = tableau.enumerate_basis_omega_n(n, top, 1)
    claim(claims, "three invariant degree-1 tableaux span the first piece",
          tuple(t.rows for t in basis1) == (g1, g2, g3),
          basis=[list(map(list, t.rows)) for t in basis1])

    exp = straighten_rows(families.SPIN8_NONSTANDARD_PAIR, n)
    want = {g1: Fraction(1), g2: Fraction(-1), g3: Fraction(1)}
    claim(claims, "the nonstandard invariant pair straightens with signs +1 -1 +1",
          exp == want, expansion=expansion_to_json(exp))

    spec = ring.RingSpec("omega_n", n, top, max_degree=4)
    h = ring.hilbert(spec)
    claim(claims, "full-space Hilbert values are 1, 3, 6, 10, 15", h == [1, 3, 6, 10, 15], hilbert=h)
    gen = ring.check_generation(spec, 1)
    claim(claims, "the full-space ring is generated in degree one", gen.generated,
          per_degree=list(gen.per_degree))
    claim(claims, "no quadratic relations among the degree-1 tableaux",
          ring.relations_in_degree(spec, 2).dimension == 0)
    ident = ring.identify_projective_space(h)
    claim(claims, "the quotient is projective 2-space with its line polarization",
          ident == (2, 1), identified=ident)

    spec1 = ring.RingSpec("omega_n", n, w1, max_degree=4)
    h1 = ring.hilbert(spec1)
    claim(claims, "the smaller index (2,4,6,8) gives a point", h1 == [1] * 5
          and ring.identify_projective_space(h1) == (0, 1), hilbert=h1)
    spec2 = ring.RingSpec("omega_n", n, w2, max_degree=4)
    h2 = ring.hilbert(spec2)
    claim(claims, "the index (3,4,7,8) gives the projective line, no quadratic relations",
          h2 == [1, 2, 3, 4, 5]
          and ring.identify_projective_space(h2) == (1, 1)
          and ring.relations_in_degree(spec2, 2).dimension == 0,
          hilbert=h2)
    ss = ring.has_semistable(spec)
    claim(claims, "invariants first appear in degree one with nonpositive weight",
          ss.first_invariant_degree == 1 and ss.weight_nonpositive is True)

    return _report({"preset": "spin8", "seed": seed}, "Spin(8)", "2m * omega_4, m >= 1", claims)


def spin8n(seed: int, n: int) -> dict:
    """The rank-4n family below its largest member: generation by R_1 and R_2."""
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
    claim(claims, "reduced words give the six family indices", word_ok,
          indices={i: list(ws[i]) for i in range(1, 7)})
    claim(claims, "the family lies above its minimal member",
          all(weyl.bruhat_leq(ws[1], ws[i]) for i in range(2, 7)))
    weight_ok = all(
        weyl.is_dominant_nonpositive(
            weyl.apply_to_weight(weyl.coset_rep_to_weyl(ws[i], rank, "D"), weyl.two_omega_n(rank)),
            "D",
        )
        for i in range(1, 7)
    )
    claim(claims, "every family member moves the doubled weight nonpositive", weight_ok)

    w6 = ws[6]
    spec6 = ring.RingSpec("omega_n", rank, w6, max_degree=4)
    basis1 = ring.basis(spec6, 1)
    claim(claims, "the degree-1 basis on the largest member is X_1..X_6",
          sorted(t.rows for t in basis1) == sorted(X[i].rows for i in range(1, 7)),
          dim=len(basis1))

    basis2 = ring.basis(spec6, 2)
    rel = ring.relations_in_degree(spec6, 2)
    xs = [X[i] for i in range(1, 7)]
    gen1, gen_min, gen2 = ring.check_generation_chain(spec6, [xs, xs + [Y[1]], basis1 + basis2])
    outside = [t.rows for d, t in rel.generators if d == 2]
    claim(claims, "exactly the four tableaux Y_1..Y_4 lie outside degree-1 products",
          sorted(outside) == sorted(Y[j].rows for j in range(1, 5)),
          product_span=gen1.per_degree[2][2], dim=len(basis2))
    claim(claims, "no Y splits off an invariant degree-1 subtableau",
          all(tableau.find_factor(Y[j], 1) is None for j in range(1, 5)))
    claim(claims, "no Z splits off an invariant subtableau of degree at most 2",
          all(tableau.find_factor(Z[l], 2) is None for l in (1, 2)))

    gen_rows = {t.rows: i for i, (_, t) in enumerate(rel.generators)}

    def rel_vector(terms):
        vec = [Fraction(0)] * len(rel.products)
        for coeff, factors in terms:
            vec[rel.product_index(gen_rows[f.rows] for f in factors)] += coeff
        return vec

    printed = [
        [(1, (X[4], X[5])), (-1, (X[3], X[6])), (1, (Y[2],)), (-1, (Y[1],))],
        [(1, (X[2], X[5])), (-1, (X[1], X[6])), (1, (Y[3],)), (-1, (Y[1],))],
        [(1, (X[2], X[3])), (-1, (X[1], X[4])), (1, (Y[4],)), (-1, (Y[1],))],
    ]
    claim(claims, "the quadratic relation space is 3-dimensional", rel.dimension == 3,
          dimension=rel.dimension)
    claim(claims, "the three printed quadratic relations hold",
          all(rel.contains(rel_vector(t)) for t in printed))

    prod_xy1 = expand_product([X[2], Y[1]], w=w6)
    prod_xy2 = expand_product([X[2], Y[2]], w=w6)
    claim(claims, "X_2 Y_1 = Z_1 and X_2 Y_2 = Z_2 on the largest member",
          prod_xy1 == {Z[1].rows: Fraction(1)} and prod_xy2 == {Z[2].rows: Fraction(1)})

    claim(claims, "degree-1 elements do not generate (failure at degree 2)",
          not gen1.generated and gen1.per_degree[2][3] is False,
          per_degree=list(gen1.per_degree))
    claim(claims, "degrees one and two generate through degree 4", gen2.generated,
          per_degree=list(gen2.per_degree))
    claim(claims, "the six degree-1 tableaux and Y_1 alone generate", gen_min.generated,
          per_degree=list(gen_min.per_degree))
    even = ring.hilbert_even(spec6, 2)
    gen_even = ring.check_generation(spec6, 2, generators=basis2)
    claim(claims, "degree-2 elements span the degree-4 piece (doubled polarization)",
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
    claim(claims, "even-degree Hilbert values identify the five smaller quotients",
          ident_ok, quotients=ident_results)

    diamonds = {}
    for name in ("veronese-p1", "veronese-p2", "veronese-p3"):
        res = diamond_certificate(rewrite.NAMED_SYSTEMS[name]())
        diamonds[name] = {
            "confluent": res["confluent"],
            "ambiguities": res["ambiguities"],
            "normal_form_counts": res.get("normal_form_counts"),
            "identified": res.get("identified"),
        }
    claim(claims, "the three quotient presentations are confluent",
          all(d["confluent"] for d in diamonds.values()))

    return _report(
        {"preset": "spin8n", "n": n, "seed": seed}, f"Spin({8 * n})", "4m * omega_{4n}, m >= 1",
        claims,
        scope_note=(
            f"general-rank statements are exercised at rank {rank} only; other ranks "
            "are covered by the property suite"
        ),
        diamond=diamonds,
    )


def alpha1(seed: int, group_type: str) -> dict:
    """G/P^{alpha_1}: the quotient is P^{n-2} for Spin(2n) (type D), P^{n-1} for Sp(2n) (type C)."""
    claims: list = []
    ranks = range(4, 9) if group_type == "D" else range(2, 9)
    results = {}
    for n in ranks:
        spec = ring.RingSpec("omega_1", n, None, group_type, max_degree=4)
        h = ring.hilbert(spec)
        m = n - 2 if group_type == "D" else n - 1
        expect = ring.veronese_hilbert(m, 1, 4)
        gen = ring.check_generation(spec, 1)
        count = len(ring.basis(spec, 1))
        results[n] = {"hilbert": h, "expected": expect, "generated": gen.generated,
                      "degree1_dim": count}
        claim(claims, f"rank {n}: Hilbert matches projective {m}-space and degree-1 generates",
              h == expect and gen.generated and count == m + 1)
    label = "Spin(2n)" if group_type == "D" else "Sp(2n)"
    return _report(
        {"preset": "p-alpha1" if group_type == "D" else "sp", "seed": seed},
        f"{label}, first-node parabolic", "2m * omega_1, m >= 1", claims, results=results,
    )
