"""Span tracing of obskit from outside the package.

`Tracer.install` replaces every public function of the measured modules
with a timing wrapper, under its own name and under every name other obskit
modules imported it as, and restores the originals on `uninstall`.  Spans
live in flat arrays (name, parent, start, end) so millions of them fit in a
few tens of megabytes; per-layer metrics are computed from them after the
run.  The benchmark runs one thread, so the spans of one parent never
overlap and the time its children cover is the sum of their durations.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from functools import partial

from checks import RELATIONS

#: obskit modules whose public functions are wrapped, one layer each
MEASURED = ("multigraph", "relations", "parameters", "universal",
            "obstructions", "families")
SOLVERS = ("treewidth", "treewidth_by_elimination", "pathwidth", "cutwidth",
           "bi_pathwidth")
#: enumeration layers (n, mult_max) that get their own metrics
LAYERS = tuple((n, 1) for n in range(1, 8)) + tuple((n, 2) for n in range(1, 7))

_clock = time.perf_counter


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    `parents[i]` is the index of span i's parent, or -1 for a root; a child
    always comes after its parent.
    """
    child = [0.0] * len(parents)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(parents))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.overshoot_ms: list[float] = []
        self.layer_s: Counter = Counter()
        self.layer_classes: dict = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def _close(self, i: int) -> float:
        t = _clock()
        self.end[i] = t
        self._stack.pop()
        return t - self.start[i]

    def wrap(self, fn, name: str, before=None):
        """A traced stand-in for `fn`; `before(*args, **kwargs)` sees each
        call's arguments ahead of its span."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return traced

    def _wrap_generator(self, fn, name, on_item=None):
        """One span per step of the generator; `on_item(item, seconds)` sees
        each yielded item with the time spent producing it."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    i = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = self._close(i)
                    if on_item is not None:
                        on_item(item, dt)
                    yield item
            finally:
                it.close()
        return traced

    # -- wrappers with counters ------------------------------------------------

    def _count_cached(self, g):
        if "_canonical" in g.__dict__:
            self.counters["multigraph.canonical_form.cached"] += 1

    def _count_states(self, name, g, *args, **kwargs):
        self.counters[name + ".states"] += g.n * 2 ** g.n

    def _wrap_enumerate(self, fn, name):
        """Time each step of the generator and charge it to the layer of
        the graph it yields; a layer is built while its first graph is
        produced."""
        def traced(n_max, mult_max=1, predicate=None, *args, **kwargs):
            if predicate is not None:   # filtered output hides layer sizes
                return plain(n_max, mult_max, predicate, *args, **kwargs)
            classes: Counter = Counter()

            def on_item(g, dt):
                key = (g.n, mult_max)
                self.layer_s[key] += dt
                classes[g.n] += 1
                self.layer_classes[key] = classes[g.n]

            return self._wrap_generator(fn, name, on_item)(
                n_max, mult_max, None, *args, **kwargs)

        plain = self._wrap_generator(fn, name)
        return traced

    def _wrap_contains(self, fn, error_type, aliases):
        """One span name per relation; counts positive answers, budget
        errors, and how far past its budget each deadline error came."""
        def traced(*args, **kwargs):
            rel = args[0] if args else kwargs["rel"]
            if isinstance(rel, str):   # unknown names fall through to contains
                rel = aliases.get(rel.strip().lower(), rel)
            rel = getattr(rel, "value", rel)
            budget_ms = kwargs.get("budget_ms", args[4] if len(args) > 4 else None)
            name = f"relations.contains.{rel}"
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                dt = self._close(i)
                self.counters[name + ".budget_exceeded"] += 1
                if budget_ms is not None and "max_pattern" not in exc.detail:
                    self.overshoot_ms.append(dt * 1e3 - budget_ms)
                raise
            except BaseException:
                self._close(i)
                raise
            self._close(i)
            if result:
                self.counters[name + ".positive"] += 1
            return result
        return traced

    # -- installation -------------------------------------------------------------

    def install(self, package: str = "obskit"):
        mods = {m: sys.modules[f"{package}.{m}"] for m in MEASURED}
        everywhere = [sys.modules[name] for name in sorted(sys.modules)
                      if name == package or name.startswith(package + ".")]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name == "multigraph.canonical_form":
                    wrapper = self.wrap(fn, name, before=self._count_cached)
                elif name == "multigraph.enumerate_graphs":
                    wrapper = self._wrap_enumerate(fn, name)
                elif name == "relations.contains":
                    wrapper = self._wrap_contains(
                        fn, mods["multigraph"].BudgetExceededError,
                        mod.RELATION_ALIASES)
                elif short == "parameters" and attr in SOLVERS:
                    wrapper = self.wrap(fn, name, before=partial(self._count_states, name))
                else:
                    wrapper = self.wrap(fn, name)
                for target in everywhere:
                    for alias, value in list(vars(target).items()):
                        if value is fn:
                            self._patch(target, alias, wrapper)
        family = mods["families"].ParametricFamily
        self._patch(family, "member", self.wrap(family.member, "families.member"))

    def _patch(self, obj, attr, value):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    # -- metrics --------------------------------------------------------------------

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit); layers the run
        never entered read 0."""
        selfs = self_times(self.parent, self.start, self.end)
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for nid, s in zip(self.name_of, selfs):
            calls[nid] += 1
            self_s[nid] += s
        by_name = {self.names[nid]: (calls[nid], self_s[nid]) for nid in calls}

        def get(name):
            return by_name.get(name, (0, 0.0))

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}
        for mod in MEASURED:
            out[f"{mod}.self_s"] = (sum((s for n, (_, s) in by_name.items()
                                         if n.startswith(mod + ".")), 0.0), "s")
        for n, m in LAYERS:
            tag = f"n{n}m{m}"
            out[f"multigraph.layer_s.{tag}"] = (self.layer_s.get((n, m), 0.0), "s")
            out[f"multigraph.layer_classes.{tag}"] = (self.layer_classes.get((n, m), 0), "count")
            if n < 3:   # every attempt on one or two vertices is kept
                continue
            # every class on n vertices is tried as a child of every class
            # on n - 1 vertices, with each multiplicity to each old vertex
            parents = self.layer_classes.get((n - 1, m), 0)
            out[f"multigraph.layer_kept_ratio.{tag}"] = (
                ratio(self.layer_classes.get((n, m), 0), parents * (m + 1) ** (n - 1)), "ratio")
        c, s = get("multigraph.canonical_form")
        out["multigraph.canonical_form.calls"] = (c, "count")
        out["multigraph.canonical_form.cached_ratio"] = (
            ratio(self.counters["multigraph.canonical_form.cached"], c), "ratio")
        out["multigraph.canonical_form.self_s"] = (s, "s")
        for rel in RELATIONS:
            name = f"relations.contains.{rel}"
            c, s = get(name)
            out[name + ".calls"] = (c, "count")
            out[name + ".self_s"] = (s, "s")
            out[name + ".positive_ratio"] = (ratio(self.counters[name + ".positive"], c), "ratio")
            out[name + ".budget_exceeded"] = (self.counters[name + ".budget_exceeded"], "count")
        out["relations.contains.budget_overshoot_ms"] = (max(self.overshoot_ms, default=0.0), "ms")
        out["relations.is_antichain.self_s"] = (get("relations.is_antichain")[1], "s")
        for solver in SOLVERS:
            name = f"parameters.{solver}"
            c, s = get(name)
            out[name + ".calls"] = (c, "count")
            out[name + ".self_s"] = (s, "s")
            out[name + ".states"] = (self.counters[name + ".states"], "count")
        c, s = get("universal.p_of_collection")
        out["universal.p_of_collection.calls"] = (c, "count")
        out["universal.p_of_collection.self_s"] = (s, "s")
        out["universal.p_of_collection.contains_per_call"] = (
            ratio(self._calls_under("universal.p_of_collection", "relations.contains."), c), "ratio")
        out["universal.gap_report.self_s"] = (get("universal.gap_report")[1], "s")
        out["obstructions.compute_obstructions.self_s"] = (
            get("obstructions.compute_obstructions")[1], "s")
        c, s = get("obstructions.predicate")
        out["obstructions.predicate.calls"] = (c, "count")
        out["obstructions.predicate.self_s"] = (s, "s")
        c, s = get("families.member")
        out["families.member.calls"] = (c, "count")
        out["families.member.self_s"] = (s, "s")
        return out

    def _calls_under(self, ancestor: str, prefix: str) -> int:
        """Spans named with `prefix` that have an `ancestor` span above them."""
        anc = self._ids.get(ancestor)
        if anc is None:
            return 0
        wanted = {i for n, i in self._ids.items() if n.startswith(prefix)}
        count = 0
        for i, nid in enumerate(self.name_of):
            if nid not in wanted:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != anc:
                p = self.parent[p]
            count += p >= 0
        return count
