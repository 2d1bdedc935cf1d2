"""Per-layer tracing from outside the program.

``install`` replaces each traced fthresh function at every binding -- the
defining module, every module that imported the name, and the class
attribute for methods -- with a wrapper that records a span (name,
parent span, start, end) in flat arrays.  ``Tracer.restore`` puts the
originals back.  Nothing inside ``src/`` changes.

Per traced name the summary gives ``calls`` (spans), ``s`` (inclusive
time of the outermost spans, so nested calls of the same name are not
counted twice) and ``self_s`` (span time minus the time of its child
spans).  Counts that need the arguments or the result (generators in and
kept, facets produced, tableau cells, routes) are added by the wrappers;
cache hits and misses come from the ``cache_info()`` of the existing
``lru_cache``s.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: list[int] = []  # open spans per name id
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.outer = array("b")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []
        self.caches: dict[str, tuple[object, int]] = {}

    def span(self, name: str, body, plain=None):
        """Wrap body in a span.  With plain given, a direct recursive call
        of the same name runs plain without a span (one logical call)."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        nid = self._ids[name]
        tr = self

        def traced(*args, **kwargs):
            stack = tr.stack
            if plain is not None and stack and tr.name[stack[-1]] == nid:
                return plain(*args, **kwargs)
            idx = len(tr.name)
            tr.name.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.outer.append(tr._open[nid] == 0)
            tr.t1.append(0)
            tr._open[nid] += 1
            stack.append(idx)
            tr.t0.append(perf_counter_ns())
            try:
                return body(*args, **kwargs)
            finally:
                tr.t1[idx] = perf_counter_ns()
                stack.pop()
                tr._open[nid] -= 1

        traced.__wrapped__ = body
        traced.__name__ = getattr(body, "__name__", name)
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, original, replacement) -> None:
        """Rebind every fthresh module global that is the original."""
        for modname, mod in list(sys.modules.items()):
            if modname == "fthresh" or modname.startswith("fthresh."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.patch(mod, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        n = len(self.name)
        child = array("q", bytes(8 * n))
        name, parent, t0, t1 = self.name, self.parent, self.t0, self.t1
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        own = [0] * len(self.names)
        for i in range(n):
            k = name[i]
            dur = t1[i] - t0[i]
            calls[k] += 1
            own[k] += dur - child[i]
            if self.outer[i]:
                incl[k] += dur
        return {
            nm: {"calls": calls[k], "s": incl[k] / 1e9, "self_s": own[k] / 1e9}
            for k, nm in enumerate(self.names)
        }

    def write(self, stem: str) -> None:
        """Spans as four raw arrays (name id, parent, start ns, end ns)
        in ``stem.bin``, described by ``stem.json``."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.t0, self.t1):
                arr.tofile(fh)
        header = {
            "spans": len(self.name),
            "names": self.names,
            "arrays": [["name", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "itemsize": {"i": self.name.itemsize, "q": self.t0.itemsize},
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


# notes of nu records answered before either path runs (degenerate targets)
DEGENERATE_NOTES = ("unit target", "zero filtration", "nonzero filtration, zero target")


def install(tr: Tracer) -> None:
    """Wrap the traced functions and note the caches' misses so far."""
    from fthresh import cli, filtration, hypergraph, lp, monomial, newton, nu, serial, waldschmidt

    c = tr.counters

    def wrap_function(module, attr, name, body=None, recursive=False):
        original = getattr(module, attr)
        wrapper = tr.span(name, body or original, plain=original if recursive else None)
        tr.patch_everywhere(original, wrapper)

    def wrap_method(cls, attr, name, body=None):
        tr.patch(cls, attr, tr.span(name, body or cls.__dict__[attr]))

    wrap_function(cli, "main", "cli.main")
    wrap_function(serial, "parse_ideal", "serial.parse_ideal")
    wrap_function(nu, "fthreshold", "nu.fthreshold", recursive=True)
    wrap_function(newton, "threshold_lp", "newton.threshold_lp")
    wrap_function(waldschmidt, "skew_waldschmidt", "waldschmidt.skew_waldschmidt", recursive=True)
    wrap_function(hypergraph, "fractional_chromatic", "hypergraph.fractional_chromatic")
    wrap_function(monomial, "minimal_transversals", "monomial.minimal_transversals")

    newton_cache = newton.newton_polyhedron

    def newton_polyhedron(ideal):
        misses = newton_cache.cache_info().misses
        result = newton_cache(ideal)
        if newton_cache.cache_info().misses != misses:
            c["newton.facets_out"] += len(result.essential)
        return result

    wrap_function(newton, "newton_polyhedron", "newton.newton_polyhedron", newton_polyhedron)

    solve = lp.solve_lp

    def solve_lp(objective, constraints, sense="min"):
        # the tableau solve_lp builds: one row per constraint; columns for
        # the variables, a slack per inequality, an artificial per >=/==
        # row after rows with negative right-hand side flip, and the rhs
        slack = art = 0
        for _, rel, rhs in constraints:
            if rhs < 0:
                rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
            slack += rel != "=="
            art += rel != "<="
        c["lp.tableau_cells"] += len(constraints) * (len(objective) + slack + art + 1)
        return solve(objective, constraints, sense)

    wrap_function(lp, "solve_lp", "lp.solve_lp", solve_lp, recursive=True)

    nu_value = nu.nu_value

    def traced_nu_value(*args, **kwargs):
        rec = nu_value(*args, **kwargs)
        if rec.note == "witness":
            c["nu.route.witness"] += 1
        elif rec.note not in DEGENERATE_NOTES:
            c["nu.route.general"] += 1
        return rec

    wrap_function(nu, "nu_value", "nu.nu_value", traced_nu_value)

    ordinary = nu.fthreshold_ordinary

    def fthreshold_ordinary(*args, **kwargs):
        res = ordinary(*args, **kwargs)
        if "rees_valuations" in res.certificate:
            c["nu.route.facet"] += 1
        elif res.certificate.get("route") == "lp":
            c["nu.route.lp"] += 1
        return res

    tr.patch_everywhere(ordinary, fthreshold_ordinary)

    ideal = monomial.MonomialIdeal
    init = ideal.__init__

    def ideal_new(self, nvars, gens=()):
        glist = list(gens)
        init(self, nvars, glist)
        c["monomial.ideal_new.gens_in"] += len(glist)
        c["monomial.ideal_new.gens_kept"] += len(self.gens)

    wrap_method(ideal, "__init__", "monomial.ideal_new", ideal_new)
    wrap_method(ideal, "__mul__", "monomial.product")
    wrap_method(ideal, "intersect", "monomial.intersect")
    wrap_method(ideal, "contains_ideal", "monomial.contains_ideal")
    wrap_method(ideal, "membership_level", "monomial.membership_level")
    wrap_method(filtration.Filtration, "level", "filtration.level")
    for rule in filtration.Filtration.__subclasses__():
        if "witness_level" in rule.__dict__:
            wrap_method(rule, "witness_level", "filtration.witness_level")

    tr.caches = {
        metric: (cache, cache.cache_info().misses)
        for metric, cache in (
            ("newton.newton_polyhedron.misses", newton_cache),
            ("filtration.level.misses", filtration._cached_level),
            ("monomial.membership_cache.misses", monomial._max_power_cached),
        )
    }


# (metric, unit, source): source is (span name, stat) or a counter name
LAYER_METRICS = [
    ("newton.newton_polyhedron.calls", "count", ("newton.newton_polyhedron", "calls")),
    ("newton.newton_polyhedron.misses", "count", "cache"),
    ("newton.newton_polyhedron.self_s", "s", ("newton.newton_polyhedron", "self_s")),
    ("newton.facets_out", "count", "counter"),
    ("lp.solve_lp.calls", "count", ("lp.solve_lp", "calls")),
    ("lp.solve_lp.s", "s", ("lp.solve_lp", "s")),
    ("lp.tableau_cells", "count", "counter"),
    ("nu.route.facet", "count", "counter"),
    ("nu.route.lp", "count", "counter"),
    ("nu.fthreshold.calls", "count", ("nu.fthreshold", "calls")),
    ("nu.fthreshold.self_s", "s", ("nu.fthreshold", "self_s")),
    ("newton.threshold_lp.calls", "count", ("newton.threshold_lp", "calls")),
    ("newton.threshold_lp.self_s", "s", ("newton.threshold_lp", "self_s")),
    ("monomial.ideal_new.calls", "count", ("monomial.ideal_new", "calls")),
    ("monomial.ideal_new.s", "s", ("monomial.ideal_new", "s")),
    ("monomial.ideal_new.gens_in", "count", "counter"),
    ("monomial.ideal_new.gens_kept", "count", "counter"),
    ("monomial.ideal_new.keep_ratio", "ratio", "ratio"),
    ("monomial.product.s", "s", ("monomial.product", "s")),
    ("monomial.intersect.s", "s", ("monomial.intersect", "s")),
    ("monomial.contains_ideal.s", "s", ("monomial.contains_ideal", "s")),
    ("filtration.level.calls", "count", ("filtration.level", "calls")),
    ("filtration.level.misses", "count", "cache"),
    ("filtration.level.s", "s", ("filtration.level", "s")),
    ("monomial.membership_level.calls", "count", ("monomial.membership_level", "calls")),
    ("monomial.membership_level.s", "s", ("monomial.membership_level", "s")),
    ("monomial.membership_cache.misses", "count", "cache"),
    ("filtration.witness_level.calls", "count", ("filtration.witness_level", "calls")),
    ("filtration.witness_level.self_s", "s", ("filtration.witness_level", "self_s")),
    ("nu.nu_value.calls", "count", ("nu.nu_value", "calls")),
    ("nu.nu_value.self_s", "s", ("nu.nu_value", "self_s")),
    ("nu.route.witness", "count", "counter"),
    ("nu.route.general", "count", "counter"),
    ("waldschmidt.skew_waldschmidt.self_s", "s", ("waldschmidt.skew_waldschmidt", "self_s")),
    ("hypergraph.fractional_chromatic.s", "s", ("hypergraph.fractional_chromatic", "s")),
    ("monomial.minimal_transversals.s", "s", ("monomial.minimal_transversals", "s")),
    ("cli.main.calls", "count", ("cli.main", "calls")),
    ("cli.main.s", "s", ("cli.main", "s")),
    ("cli.main.self_s", "s", ("cli.main", "self_s")),
    ("serial.parse_ideal.s", "s", ("serial.parse_ideal", "s")),
]


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    spans = tr.summary()
    out = {}
    for metric, unit, source in LAYER_METRICS:
        if source == "cache":
            cache, before = tr.caches[metric]
            value = cache.cache_info().misses - before
        elif source == "counter":
            value = tr.counters[metric]
        elif source == "ratio":
            kept, seen = tr.counters["monomial.ideal_new.gens_kept"], tr.counters["monomial.ideal_new.gens_in"]
            value = kept / seen if seen else 0.0
        else:
            value = spans.get(source[0], {}).get(source[1], 0)
        out[metric] = (value, unit)
    return out
