"""Span tracer installed from outside the program.

`Tracer.install` replaces every public function of every `rootgain.*` module
with a wrapper, in every module namespace that holds it (the modules import
each other's functions by name, so one namespace is not enough). A spanned
call records [name, start, end, parent, failed] in memory; the very hot helpers
in HOT, and generator functions, are only counted. Nothing inside the program
changes.

`layer_metrics` turns the spans and counts into the per-layer metrics listed in
PER_LAYER: calls, self time (span time minus the time of traced children),
total time (outermost spans of a name only), primes per irreducibility
certificate and records emitted per fiber specialized.
"""

from __future__ import annotations

import inspect
import sys
import time

# Called hundreds of thousands of times per request; a span each would cost
# more than the call itself.
HOT = frozenset(
    {
        "algebra.is_prime",
        "algebra.valuation",
        "algebra.legendre",
        "algebra.rational_sqrt",
        "permgroup.compose",
        "permgroup.inverse",
        "permgroup.identity_perm",
        "permgroup.cycle_type",
        "permgroup.perm_order",
        "permgroup.sign",
        "permgroup.fixed_points",
        "permgroup.orbits",
        "permgroup.orbit_count",
        "permgroup.cyclic_powers",
        "permgroup.format_cycles",
    }
)

COUNT = ("count", "lower")
SECONDS = ("s", "lower")

# (metric name, unit, better); the same list is BENCHMARK.json's per_layer.
PER_LAYER = [
    ("algebra.factor_mod_p.calls", *COUNT),
    ("algebra.factor_mod_p.self_s", *SECONDS),
    ("algebra.is_irreducible_mod_p.calls", *COUNT),
    ("algebra.is_irreducible_mod_p.self_s", *SECONDS),
    ("algebra.discriminant.calls", *COUNT),
    ("algebra.discriminant.self_s", *SECONDS),
    ("algebra.is_prime.calls", *COUNT),
    ("algebra.sturm_real_roots.calls", *COUNT),
    ("algebra.sturm_real_roots.self_s", *SECONDS),
    ("algebra.resultant.calls", *COUNT),
    ("algebra.resultant.self_s", *SECONDS),
    ("algebra.rational_roots.calls", *COUNT),
    ("algebra.rational_roots.self_s", *SECONDS),
    ("extension.certify_irreducible.calls", *COUNT),
    ("extension.certify_irreducible.total_s", *SECONDS),
    ("extension.certify_irreducible.primes_per_call", "primes/call", "lower"),
    ("extension.build_profile.calls", *COUNT),
    ("extension.build_profile.self_s", *SECONDS),
    ("extension.root_number_over_extension.calls", *COUNT),
    ("extension.root_number_over_extension.total_s", *SECONDS),
    ("extension.root_number_ratio.calls", *COUNT),
    ("extension.root_number_ratio.total_s", *SECONDS),
    ("mestre.specialize.calls", *COUNT),
    ("mestre.specialize.self_s", *SECONDS),
    ("mestre.an_certificate.calls", *COUNT),
    ("mestre.an_certificate.total_s", *SECONDS),
    ("mestre.distinctness_fingerprint.calls", *COUNT),
    ("mestre.distinctness_fingerprint.total_s", *SECONDS),
    ("mestre.find_reference_specialization.total_s", *SECONDS),
    ("mestre.search_rank_gain.total_s", *SECONDS),
    ("mestre.records_per_fiber", "records/fiber", "higher"),
    ("mestre.mestre_solve_odd_quintic.calls", *COUNT),
    ("mestre.mestre_solve_odd_quintic.total_s", *SECONDS),
    ("permgroup.centralizer_scan.calls", *COUNT),
    ("permgroup.centralizer_scan.self_s", *SECONDS),
    ("permgroup.all_subgroups.calls", *COUNT),
    ("permgroup.all_subgroups.self_s", *SECONDS),
    ("permgroup.metacyclic_odd_orbit_search.calls", *COUNT),
    ("permgroup.metacyclic_odd_orbit_search.self_s", *SECONDS),
    ("permgroup.cyclic_subgroup_representatives.self_s", *SECONDS),
    ("permgroup.orbit_count.calls", *COUNT),
    ("permgroup.coset_action.total_s", *SECONDS),
    ("permgroup.transitive_typesets.total_s", *SECONDS),
    ("jacobian.find_node_primes.calls", *COUNT),
    ("jacobian.find_node_primes.self_s", *SECONDS),
    ("jacobian.hyperelliptic_rank_gain_report.total_s", *SECONDS),
    ("ellcurve.classify_reduction.calls", *COUNT),
    ("ellcurve.classify_reduction.self_s", *SECONDS),
    ("inputfmt.parse_curve_file.calls", *COUNT),
    ("inputfmt.parse_curve_file.self_s", *SECONDS),
    ("inputfmt.parse_extension_file.calls", *COUNT),
    ("inputfmt.parse_extension_file.self_s", *SECONDS),
    ("inputfmt.parse_pencil_file.calls", *COUNT),
    ("inputfmt.parse_pencil_file.self_s", *SECONDS),
    ("cli.main.calls", *COUNT),
    ("cli.main.self_s", *SECONDS),
    ("trace.overhead_s", *SECONDS),
]

NAME, START, END, PARENT, FAILED = range(5)


class Tracer:
    """Spans and counts for one traced process; install once, after import."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def install(self, package: str = "rootgain") -> None:
        """Wrap the public functions of `package.*`."""
        prefix = package + "."
        modules = [m for name, m in sys.modules.items() if name.startswith(prefix)]
        modules.append(sys.modules[package])
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                origin = getattr(obj, "__module__", None) or ""
                if not origin.startswith(prefix):
                    continue
                if id(obj) not in wrappers:
                    name = f"{origin[len(prefix):]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                setattr(mod, attr, wrappers[id(obj)])

    def _wrap(self, fn, name: str):
        if name in HOT or inspect.isgeneratorfunction(fn):
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return spanned


def layer_metrics(spans, counts, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric (0 where the workload never reaches the layer)."""
    calls: dict[str, int] = dict(counts)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    succeeded: dict[str, int] = {}
    primes_in_certificates = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        if not rec[FAILED]:
            succeeded[name] = succeeded.get(name, 0) + 1
        parent = rec[PARENT]
        if name == "algebra.is_irreducible_mod_p" and parent >= 0:
            if spans[parent][NAME] == "extension.certify_irreducible":
                primes_in_certificates += 1
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:  # outermost span of this name: recursion counted once
            total_s[name] = total_s.get(name, 0.0) + dur

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "extension.certify_irreducible.primes_per_call": ratio(
            primes_in_certificates, calls.get("extension.certify_irreducible", 0)
        ),
        # one reference per search plus one record per candidate reaching the
        # distinctness fingerprint, over the fibers specialized
        "mestre.records_per_fiber": ratio(
            succeeded.get("mestre.find_reference_specialization", 0)
            + succeeded.get("mestre.distinctness_fingerprint", 0),
            calls.get("mestre.specialize", 0),
        ),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric, _unit, _better in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        fn, kind = metric.rsplit(".", 1)
        table = {"calls": calls, "self_s": self_s, "total_s": total_s}[kind]
        out[metric] = table.get(fn, 0)
    return out
