"""Span tracing of jacobiforms from outside the package.

`Tracer.install()` wraps the public functions of each layer (the package's
modules) and rebinds every name that refers to them: module globals in every
imported `jacobiforms` module (so names imported with `from ... import` are
caught too), class attributes of `FJExp` and `QSeries`, and the builders in
the identity registry.  Nothing under `src/` is edited.  The wrapped
`lru_cache` objects stay reachable, both here and through the wrapper's own
`cache_info`, so cache counters keep working.

Each call becomes a span (name, start, end, parent) kept in memory, timed
with `reference.work_clock` so that the speed sampler's time stays out; the
per-layer metrics are computed from the spans and from `cache_info()`
deltas when the pass ends, and `write_spans` dumps the spans as JSON lines.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import sys

from jacobiforms import catalog, identities, lattice, numtheory, representations, series
from reference import work_clock

FJExp = series.FJExp
QSeries = series.QSeries

CATALOG_CACHES = {
    name: obj for name, obj in vars(catalog).items()
    if hasattr(obj, "cache_info") and obj.__module__ == catalog.__name__
}

# (owner, attribute, span name).  The span name is the metric group; its
# first component is the layer.
TRACED = [
    (numtheory, "cohen_h", "numtheory.cohen_h"),
    (numtheory, "gen_bernoulli", "numtheory.gen_bernoulli"),
    (numtheory, "bernoulli_poly", "numtheory.bernoulli_poly"),
    (FJExp, "__mul__", "series.fjexp_mul"),
    (QSeries, "__mul__", "series.qseries_mul"),
    (FJExp, "divide", "series.divide"),
    (QSeries, "inverse", "series.divide"),
    (FJExp, "specialize", "series.specialize"),
    (FJExp, "eval_linear", "series.specialize"),
    (FJExp, "eval_z0", "series.specialize"),
    (FJExp, "ud", "series.index_ops"),
    (FJExp, "vl", "series.index_ops"),
    (FJExp, "mismatch", "series.mismatch"),
    (QSeries, "mismatch", "series.mismatch"),
    (lattice, "jacobi_theta_e8", "lattice.jacobi_theta_e8"),
    (lattice, "vector_counts", "lattice.vector_counts"),
    (identities, "verify", "identities.verify"),
    (representations, "tau", "representations.tau"),
    (representations, "count_bruteforce", "representations.count_bruteforce"),
] + [
    (representations, name, "representations.formula")
    for name in ("formula_r8", "formula_delta8", "r_a8_formula", "r_a8odd_formula", "r16", "delta16")
] + [
    # every memoized constructor of the catalog, plus the by-name lookup
    (catalog, name, f"catalog.{name}") for name in CATALOG_CACHES
] + [(catalog, "form_by_name", "catalog.form_by_name")]

# lru caches read through cache_info(): metric prefix -> cache object
CACHES = {
    "numtheory.gen_bernoulli": numtheory.gen_bernoulli,
    "numtheory.factorize": numtheory.factorize,
    "representations.f4_coeff": representations.f4_coeff,
    **{f"catalog.{name}": obj for name, obj in CATALOG_CACHES.items()},
}

# Per-layer metrics reported by the traced run, with their units.
METRICS = {
    "numtheory.cohen_h.calls": "count",
    "numtheory.gen_bernoulli.misses": "count",
    "numtheory.gen_bernoulli.self_s": "s",
    "numtheory.bernoulli_poly.calls": "count",
    "numtheory.factorize.misses": "count",
    "numtheory.self_s": "s",
    "series.fjexp_mul.calls": "count",
    "series.fjexp_mul.term_pairs": "count",
    "series.fjexp_mul.self_s": "s",
    "series.qseries_mul.calls": "count",
    "series.qseries_mul.term_pairs": "count",
    "series.qseries_mul.self_s": "s",
    "series.divide.self_s": "s",
    "series.specialize.self_s": "s",
    "series.index_ops.self_s": "s",
    "series.mismatch.self_s": "s",
    "series.self_s": "s",
    "catalog.hits": "count",
    "catalog.misses": "count",
    "catalog.hit_ratio": "ratio",
    "catalog.cached_entries": "count",
    "catalog.build_self_s": "s",
    "catalog.jacobi_eis_m1.misses": "count",
    "catalog.jacobi_eis.misses": "count",
    "catalog.phi.misses": "count",
    "catalog.theta.misses": "count",
    "lattice.jacobi_theta_e8.calls": "count",
    "lattice.jacobi_theta_e8.self_s": "s",
    "lattice.vector_counts.self_s": "s",
    "lattice.self_s": "s",
    "identities.verify.calls": "count",
    "identities.build_s": "s",
    "identities.compare_s": "s",
    "representations.tau.self_s": "s",
    "representations.formula.self_s": "s",
    "representations.count_bruteforce.calls": "count",
    "representations.count_bruteforce.self_s": "s",
    "representations.f4_coeff.misses": "count",
    "trace.spans": "count",
}


def _term_pairs(a, b) -> int:
    """Coefficient products a series multiplication performs."""
    if isinstance(b, (FJExp, QSeries)):
        return len(a.terms) * len(b.terms)
    return 0


def rebind(original, replacement) -> None:
    """Point every name bound to `original` at `replacement`: globals of the
    loaded jacobiforms modules and attributes of FJExp and QSeries."""
    targets = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "jacobiforms" or name.startswith("jacobiforms."))]
    for target in targets + [FJExp, QSeries]:
        for key, value in list(vars(target).items()):
            if value is original:
                setattr(target, key, replacement)


class Tracer:
    """Records spans for the traced functions between `install` and `metrics`."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.pairs: dict = {}  # span name -> summed term pairs
        self._stack: list = []
        self._cache_start: dict = {}

    def _wrap(self, name: str, fn, count_pairs: bool):
        spans, stack, pairs, clock = self.spans, self._stack, self.pairs, work_clock
        if count_pairs:
            pairs.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_pairs:
                pairs[name] += _term_pairs(*args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> None:
        """Wrap and rebind every traced function; snapshot the cache counters."""
        for owner, attr, name in TRACED:
            original = vars(owner)[attr]
            rebind(original, self._wrap(name, original, name.endswith("_mul")))
        for key, ident in list(identities.REGISTRY.items()):
            identities.REGISTRY[key] = dataclasses.replace(
                ident, build=self._wrap("identities.build", ident.build, False))
        self._cache_start = {key: cache.cache_info() for key, cache in CACHES.items()}

    def _by_name(self) -> dict:
        """span name -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced since `install`."""
        rows = self._by_name()
        delta = {}
        for key, cache in CACHES.items():
            now, then = cache.cache_info(), self._cache_start[key]
            delta[key] = (now.hits - then.hits, now.misses - then.misses, now.currsize)

        def calls(name):
            return rows.get(name, (0, 0.0, 0.0))[0]

        def inclusive(name):
            return rows.get(name, (0, 0.0, 0.0))[1]

        def self_s(prefix):
            return sum(r[2] for n, r in rows.items() if n == prefix or n.startswith(prefix + "."))

        catalog_rows = [v for k, v in delta.items() if k.startswith("catalog.")]
        hits = sum(r[0] for r in catalog_rows)
        misses = sum(r[1] for r in catalog_rows)
        out = {
            "catalog.hits": hits,
            "catalog.misses": misses,
            "catalog.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "catalog.cached_entries": sum(r[2] for r in catalog_rows),
            "catalog.build_self_s": self_s("catalog"),
            "identities.build_s": inclusive("identities.build"),
            "identities.compare_s": inclusive("identities.verify") - inclusive("identities.build"),
            "trace.spans": len(self.spans),
        }
        for metric in METRICS:
            group, _, kind = metric.rpartition(".")
            if metric in out:
                continue
            if kind == "calls":
                out[metric] = calls(group)
            elif kind == "misses":
                out[metric] = delta[group][1]
            elif kind == "self_s":
                out[metric] = self_s(group)
            else:
                out[metric] = self.pairs.get(group, 0)
        return out

    def write_spans(self, path) -> None:
        """One JSON array [name, start, end, parent] per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
