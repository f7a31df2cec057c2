"""Spans, cache probes and per-layer metrics for the benchmark.

The library is traced from outside: ``Tracer.install`` replaces each
public function of the layer modules, in every ``binomial_moments``
namespace that holds it, with a wrapper that records one span
(function, start, end, parent, exception).  Spans stay in compact arrays
in memory and are written out when the run ends.  A function's self time
is its span's duration minus the durations of its direct child spans; a
layer's self time is the sum over its functions.

Nothing here edits the library.  Every lookup of a private name (the
``_rising_half`` cache, a check function) is defensive: a target that a
later refactor removed makes its metric *absent*, never a crash.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from contextlib import contextmanager

PACKAGE = "binomial_moments"
LAYERS = ("exact", "series", "sigma", "moments", "conjecture", "verify", "cli")
# The cli subcommand handlers are dispatch targets of ``main``, not API;
# leaving them unwrapped keeps argument parsing, JSON rendering and writing
# in ``cli.main`` self time.
ENTRY_ONLY = {"cli": ("main",)}
SINGULAR = ("SingularSystem", "Inconsistent")
NO_CALLS = {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "singular": 0}


class ColdCacheError(AssertionError):
    """A timed job started with a library cache already holding entries."""


def package_modules() -> dict[str, object]:
    """Every loaded module of the package, keyed by its full name."""
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def layer_functions(layer: str) -> dict[str, object]:
    """Public functions defined in one layer module (empty if it is gone)."""
    mod = sys.modules.get(f"{PACKAGE}.{layer}")
    if mod is None:
        return {}
    names = ENTRY_ONLY.get(layer)
    out = {}
    for name, obj in vars(mod).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if names is not None and name not in names:
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            out[name] = obj
    return out


@contextmanager
def patched(replacements: dict[int, object]):
    """Swap objects (keyed by ``id`` of the original) in every package namespace."""
    undo = []
    for mod in package_modules().values():
        ns = vars(mod)
        for attr, obj in list(ns.items()):
            new = replacements.get(id(obj))
            if new is not None:
                undo.append((ns, attr, obj))
                ns[attr] = new
    try:
        yield
    finally:
        for ns, attr, obj in reversed(undo):
            ns[attr] = obj


@contextmanager
def item_timer(layer: str, names, sink: list):
    """Append the duration of each outermost call of ``layer.<name>`` to sink.

    Used to time items that the library, not the benchmark, loops over
    (one ``fit`` per ansatz shape).
    """
    funcs = layer_functions(layer)
    clock = time.perf_counter
    depth = [0]

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    sink.append(clock() - t0)

        return wrapper

    targets = [funcs[n] for n in names if n in funcs]
    with patched({id(fn): timed(fn) for fn in targets}):
        yield


@contextmanager
def call_timer(layer: str, sink: list):
    """Append to sink the duration of each call that the ``layer`` module
    makes to a function it imported from another layer of the package.

    Only that module's own namespace is patched, so the calls the library
    makes among its other layers stay unwrapped and cost nothing extra.
    Splitting a long job into many short items lets the per-item floors
    reach full speed on a noisy box.
    """
    mod = sys.modules.get(f"{PACKAGE}.{layer}")
    ns = vars(mod) if mod is not None else {}
    clock = time.perf_counter

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(clock() - t0)

        return wrapper

    imported = {
        attr: obj
        for attr, obj in ns.items()
        if callable(obj)
        and not isinstance(obj, type)
        and (getattr(obj, "__module__", None) or "").startswith(PACKAGE + ".")
        and obj.__module__ != mod.__name__
    }
    ns.update({attr: timed(fn) for attr, fn in imported.items()})
    try:
        yield
    finally:
        ns.update(imported)


class CacheProbe:
    """Every ``lru_cache`` in the package, keyed ``<layer>.<name>``.

    Built before any wrapping so it holds the original cache objects.
    ``cold`` clears them and folds their counters into per-job totals,
    so a job that clears several times (one CLI-like query each) still
    reports its whole hit ratio.
    """

    def __init__(self):
        self.caches = {}
        for name, mod in package_modules().items():
            layer = name.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                    if getattr(obj, "__module__", None) == name:
                        self.caches[f"{layer}.{attr.lstrip('_')}"] = obj
        self.begin_job()

    def begin_job(self) -> None:
        """Clear every cache and zero the per-job totals."""
        for cache in self.caches.values():
            cache.cache_clear()
        self.totals = {key: [0, 0, 0] for key in self.caches}  # hits, misses, peak size

    def cold(self) -> None:
        """Clear every cache, keeping its counters, and check it is empty."""
        self._fold()
        for cache in self.caches.values():
            cache.cache_clear()
        self.assert_cold()

    def assert_cold(self) -> None:
        warm = {k: c.cache_info().currsize for k, c in self.caches.items()}
        warm = {k: v for k, v in warm.items() if v}
        if warm:
            raise ColdCacheError(f"caches not empty at job start: {warm}")

    def _fold(self) -> None:
        for key, cache in self.caches.items():
            info = cache.cache_info()
            tot = self.totals[key]
            tot[0] += info.hits
            tot[1] += info.misses
            tot[2] = max(tot[2], info.currsize)

    def snapshot(self) -> dict[str, tuple[int, int, int]]:
        """(hits, misses, peak size) per cache since ``begin_job``."""
        out = {}
        for key, cache in self.caches.items():
            info = cache.cache_info()
            h, m, s = self.totals[key]
            out[key] = (h + info.hits, m + info.misses, max(s, info.currsize))
        return out


class Tracer:
    """Records one span per call of every public layer function."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}
        self.stack = [-1]
        self.rep_bounds: list[tuple[int, int]] = []

    def _wrap(self, key: str, fn):
        fid = len(self.names)
        self.names.append(key)
        fns, parent, start, end = self.fn, self.parent, self.start, self.end
        stack, errors, clock = self.stack, self.errors, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            fns.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[i] = type(exc).__name__
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def install(self):
        repl = {}
        for layer in LAYERS:
            for name, fn in layer_functions(layer).items():
                repl[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        with patched(repl):
            yield self

    @contextmanager
    def rep(self):
        """Mark the spans of one timed repetition."""
        first = len(self.start)
        try:
            yield
        finally:
            self.rep_bounds.append((first, len(self.start)))

    def aggregate(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per function over spans lo..hi: calls, self_s, wall_s (inclusive
        time), singular (calls that raised SingularSystem or Inconsistent)."""
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += end[i] - start[i]
        stats: dict[str, dict[str, float]] = {}
        for i in range(lo, hi):
            name = self.names[fn[i]]
            st = stats.get(name)
            if st is None:
                st = stats[name] = dict(NO_CALLS)
            dur = end[i] - start[i]
            st["calls"] += 1
            st["self_s"] += dur - child[i - lo]
            st["wall_s"] += dur
            if self.errors.get(i) in SINGULAR:
                st["singular"] += 1
        return stats

    def write(self, path) -> None:
        """Spans as gzip TSV: id, parent, function, start_s, end_s, error."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tfunction\tstart_s\tend_s\terror\n")
            names, errors = self.names, self.errors
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{names[self.fn[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{errors.get(i, '')}\n"
                )


def layer_metric(name: str, stats: dict, caches: dict):
    """Value of one per-layer metric, or None when its target is absent.

    Grammar: ``<layer>.self_s``, ``<layer>.<function>.<calls|self_s|wall_s
    |singular>`` from spans, ``<layer>.<cache>.<hit_ratio|cache_size>``
    from the cache probe.
    """
    parts = name.split(".")
    if len(parts) == 2 and parts[1] == "self_s":
        layer = parts[0]
        if layer not in LAYERS or not layer_functions(layer):
            return None
        return sum(st["self_s"] for key, st in stats.items() if key.startswith(layer + "."))
    if len(parts) != 3:
        return None
    key, stat = f"{parts[0]}.{parts[1]}", parts[2]
    if stat in ("hit_ratio", "cache_size"):
        if key not in caches:
            return None
        hits, misses, size = caches[key]
        if stat == "cache_size":
            return size
        return hits / (hits + misses) if hits + misses else 0.0
    if parts[1] not in layer_functions(parts[0]):
        return None
    return stats.get(key, NO_CALLS)[stat]
