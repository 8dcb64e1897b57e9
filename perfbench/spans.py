"""Spans and call counters installed on crepant from outside the library.

Every wrapper is rebound in every crepant namespace that holds the original
function (the package root, the defining module and each module that
imported it by name), so that calls from anywhere go through it.  `Patches`
remembers each replaced attribute and puts them all back.
"""

from __future__ import annotations

import sys
import time

# Public functions timed as spans, by module.
SPANNED = {
    "cli": ("parse_job", "run", "render_report"),
    "cyclo": ("parse_cyclotomic",),
    "matgrp": (
        "close_group", "conjugacy_classes", "commutator_subgroup",
        "subgroup_generated", "quotient", "abelianization",
        "abelian_invariants", "abelian_decomposition",
    ),
    "mckay": (
        "age_records", "junior_classes", "junior_elements",
        "junior_gradings", "valuation_weights", "galois_sweep",
    ),
    "classgroup": (
        "terminalization_class_group", "freeness_criterion",
        "junior_subgroup", "class_group_of_quotient", "reflection_subgroup",
    ),
    "invariants": (
        "relative_invariant", "check_congruence_lemma",
        "check_junior_ring_membership", "graded_degree", "act",
        "monomial_valuation",
    ),
}

# Hot operators counted in a pass of their own: (module, class, methods).
COUNTED = {
    "cyclo.mul_calls": ("cyclo", "CyclotomicNumber", ("__mul__", "__rmul__")),
    "matgrp.matmul_calls": ("matgrp", "CycMatrix", ("__matmul__",)),
    "matgrp.group_mul_calls": ("matgrp", "FiniteMatrixGroup", ("mul",)),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in SPANNED.items() for f in fs)


def crepant_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "crepant" or name.startswith("crepant.")]


class Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, replacement) -> int:
        """Replace `original` by `replacement` wherever a crepant module
        holds it; returns the number of namespaces changed."""
        n = 0
        for mod in crepant_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    n += 1
        return n

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Spans kept in memory as [id, parent, name, start_ns, end_ns, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter_ns(), 0, attrs]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter_ns()
        if self._stack.pop() != span[0]:
            raise RuntimeError(f"span {span[2]} closed out of order")

    def wrap(self, name: str, fn):
        def spanned(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return spanned

    def install(self, patches: Patches) -> None:
        for module, names in SPANNED.items():
            mod = sys.modules[f"crepant.{module}"]
            for fname in names:
                fn = getattr(mod, fname)
                if patches.rebind(fn, self.wrap(f"{module}.{fname}", fn)) == 0:
                    raise RuntimeError(f"{module}.{fname} not rebound")


def install_counters(patches: Patches) -> dict[str, list[int]]:
    """Count calls of the hot operators; returns name -> [count]."""
    counts = {}
    for key, (module, cls_name, methods) in COUNTED.items():
        cls = getattr(sys.modules[f"crepant.{module}"], cls_name)
        cell = counts[key] = [0]
        for method in methods:
            patches.set(cls, method, _counting(vars(cls)[method], cell))
    return counts


def _counting(fn, cell: list[int]):
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    return counted


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span: its duration minus its children's."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_totals(spans: list[list]) -> dict[str, tuple[int, int]]:
    """name -> (total self ns, calls) over every span of that name."""
    own = self_times(spans)
    totals: dict[str, tuple[int, int]] = {}
    for s, ns in zip(spans, own):
        t, c = totals.get(s[2], (0, 0))
        totals[s[2]] = (t + ns, c + 1)
    return totals


def root_balance(spans: list[list]) -> list[tuple[int, int, int]]:
    """(root id, root duration ns, sum of self ns in its tree) per root."""
    own = self_times(spans)
    root_of: list[int] = []
    sums: dict[int, int] = {}
    for s in spans:
        r = s[0] if s[1] is None else root_of[s[1]]
        root_of.append(r)
        sums[r] = sums.get(r, 0) + own[s[0]]
    return [(r, spans[r][4] - spans[r][3], total) for r, total in sums.items()]
