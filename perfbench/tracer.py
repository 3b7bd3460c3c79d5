"""Layer tracing from outside the program: wrap public smtorus functions.

Every traced function is rebound, by identity, on every loaded smtorus module
that holds it, because ``ring``, ``cli`` and ``straighten`` import names
directly.  A wrapped call keeps its duration and the time covered by wrapped
calls below it, so self time is duration minus child time.  Spans
(name, start, end, parent) stay in memory until the run ends; hot leaf
functions are counters with summed time and record no span.
"""

from __future__ import annotations

import json
import sys
import time

# (layer, attribute path in the layer's module); a dotted path is a method
TRACED = (
    ("cli", "main"),
    ("ring", "hilbert"),
    ("ring", "hilbert_even"),
    ("ring", "check_generation"),
    ("ring", "relations_in_degree"),
    ("straighten", "expand_product"),
    ("straighten", "straighten_rows"),
    ("straighten", "straighten_pair"),
    ("straighten", "restrict_expansion"),
    ("straighten", "expand_by_interpolation"),
    ("straighten", "evaluate_expansion"),
    ("straighten", "evaluate_rows"),
    ("tableau", "enumerate_basis_omega_n"),
    ("tableau", "standard_chains"),
    ("tableau", "schubert_chains"),
    ("tableau", "schubert_chain_count"),
    ("pfaffian", "skew_point"),
    ("pfaffian", "exchange_relation"),
    ("pfaffian", "q_eval"),
    ("pfaffian", "sub_pfaffian"),
    ("pfaffian", "dual_pair"),
    ("pfaffian", "index_from_bset"),
    ("linalg", "Span.add"),
    ("linalg", "Span.contains"),
    ("linalg", "kernel_of_columns"),
    ("linalg", "matvec_mod"),
    ("linalg", "crt"),
    ("weyl", "minimal_coset_reps_alpha_n"),
    ("weyl", "bruhat_leq"),
    ("rewrite", "check_confluence"),
    ("rewrite", "normal_form_count"),
)

# called so often that a span each would dominate memory; counted instead
LEAF_COUNTERS = frozenset(
    {
        "weyl.bruhat_leq",
        "pfaffian.dual_pair",
        "pfaffian.index_from_bset",
        "pfaffian.sub_pfaffian",
        "pfaffian.q_eval",
    }
)

LAYERS = ("cli", "ring", "straighten", "tableau", "pfaffian", "linalg", "weyl", "rewrite")


def _result_size(name, result):
    """The derived count a call contributes, keyed by metric name, or None."""
    if name == "linalg.Span.add":
        return "span_enlarged", int(bool(result))
    if name == "tableau.schubert_chains":
        return "chains_listed", len(result)
    if name == "tableau.schubert_chain_count":
        return "chains_counted", int(result)
    if name.startswith("straighten.") and isinstance(result, dict):
        return "terms_out", len(result)
    return None


class Tracer:
    """Per-function call counts and self time, spans, and derived counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.derived = {"span_enlarged": 0, "chains_listed": 0, "chains_counted": 0, "terms_out": 0}
        self.spans: list[tuple] = []
        # each frame: [time covered by wrapped children, id of the nearest span]
        self.root = [0.0, -1]
        self._stack = [self.root]
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        calls, self_s, derived = self.calls, self.self_s, self.derived
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        stack, spans, clock = self._stack, self.spans, self.clock
        leaf = name in LEAF_COUNTERS

        def traced(*args, **kwargs):
            parent = stack[-1]
            if leaf:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if not leaf:
                    spans[frame[1]] = (name, start, end, parent[1])
            extra = _result_size(name, result)
            if extra is not None:
                derived[extra[0]] += extra[1]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict, traced=TRACED) -> None:
        """Wrap each traced function in every module of `modules` holding it."""
        for layer, path in traced:
            name = f"{layer}.{path}"
            home = modules.get(layer)
            owner, attr = home, path
            if "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(home, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                self.calls[name] = 0
                self.self_s[name] = 0.0
                continue
            wrapper = self.wrap(name, original)
            if owner is not home:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @property
    def attributed_s(self) -> float:
        """Time spent inside top-level wrapped calls."""
        return self.root[0]

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent"],
                    "spans": [[i, *span] for i, span in enumerate(self.spans) if span],
                },
                fh,
            )


def smtorus_modules() -> dict:
    """The loaded smtorus submodules, by short name."""
    return {
        key.split(".", 1)[1]: mod
        for key, mod in sys.modules.items()
        if key.startswith("smtorus.") and mod is not None
    }
