"""Span tracing installed from outside the library.

`Tracer.install` replaces each traced public function of cremona_bounds by a
wrapper, and rebinds the name in every cremona_bounds module that imported
it, so calls between layers are timed too. Methods and dataclass
constructors are wrapped on their class. Each span records its name, start,
end, parent span and operation id; spans are kept in memory, in flat arrays,
and written out by `dump` when the run ends. `uninstall` restores every
original binding.

Self time of a span is its duration minus the durations of its direct
children (the code is single-threaded, so children nest inside parents).
"""

import functools
import json
import sys
import time
from array import array

# (layer, module, attribute) of every traced function, in metric order.
FUNCTIONS = [
    ("numth", "numth", "factorize"),
    ("numth", "numth", "multiplicative_order"),
    ("numth", "numth", "residues_of_order"),
    ("cyclotomic", "cyclotomic", "cyclotomic_poly"),
    ("cyclotomic", "cyclotomic", "root_multiplicity"),
    ("cyclotomic", "cyclotomic", "order_t_multiplicity"),
    ("intlinalg", "intlinalg", "char_poly"),
    ("intlinalg", "intlinalg", "matrix_order"),
    ("intlinalg", "intlinalg", "cyclotomic_factorization"),
    ("intlinalg", "intlinalg", "smith_normal_form"),
    ("intlinalg", "intlinalg", "kernel_dim_mod_p"),
    ("torus_rank", "torus_rank", "fixed_point_rank"),
    ("torus_rank", "torus_rank", "multiplicity_chain_check"),
    ("ff_oracle", "ff_oracle", "rational_points_structure"),
    ("ff_oracle", "ff_oracle", "group_order"),
    ("weyl_audit", "weyl_audit", "audit_pgl4"),
    ("cremona_table", "cremona_table", "cremona_rank_bound"),
    ("sampling", "sampling", "random_finite_order_matrix"),
]

# (span name, module, class, method) for methods and constructors.
METHODS = [
    ("cyclotomic.IntPoly.divmod_monic", "cyclotomic", "IntPoly", "divmod_monic"),
    ("cyclotomic.ModPoly.mul", "cyclotomic", "ModPoly", "__mul__"),
    ("intlinalg.IntMatrix.det", "intlinalg", "IntMatrix", "det"),
    ("torus_rank.GaloisTorusPresentation", "torus_rank",
     "GaloisTorusPresentation", "__init__"),
    ("ff_oracle.FiniteFieldTorus", "ff_oracle", "FiniteFieldTorus", "__init__"),
]

# Functions and constructors that are counted, not spanned.
COUNTED = [
    ("numth.check_prime.calls", "numth", None, "check_prime"),
    ("intlinalg.IntMatrix.new.calls", "intlinalg", "IntMatrix", "__init__"),
]

# lru caches whose hit and miss counts are recorded.
CACHED = {
    "numth.factorize": ("numth", "factorize"),
    "numth.is_prime": ("numth", "is_prime"),
    "cyclotomic.cyclotomic_poly": ("cyclotomic", "cyclotomic_poly"),
}

SPAN_NAMES = [f"{layer}.{attr}" for layer, _, attr in FUNCTIONS] + [m[0] for m in METHODS]


# Per-layer metrics beyond calls and self_s, by span name.
EXTRAS = {
    "numth.factorize": ["cache_hit_ratio"],
    "cyclotomic.cyclotomic_poly": ["cache_hits", "cache_misses"],
    "cyclotomic.ModPoly.mul": ["coeffs_in"],
    "intlinalg.char_poly": ["calls_per_matrix"],
}


def per_layer_names():
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
        names += [f"{span}.{extra}" for extra in EXTRAS.get(span, ())]
    names += [c[0] for c in COUNTED]
    names += ["cli.interpreter_ms", "cli.import_ms", "cli.main_ms",
              "trace.overhead_share"]
    return names


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_share", "_per_matrix")):
        return "ratio"
    return "count"


class CacheLedger:
    """Sums lru_cache hit/miss counts across cache_clear() calls, which reset
    the counters."""

    def __init__(self, pkg):
        self._caches = {
            key: getattr(sys.modules[f"{pkg.__name__}.{mod}"], attr)
            for key, (mod, attr) in CACHED.items()
        }
        self.totals = {k: {"hits": 0, "misses": 0} for k in self._caches}
        self._base = {k: c.cache_info() for k, c in self._caches.items()}

    def _fold(self):
        for key, cache in self._caches.items():
            info, base = cache.cache_info(), self._base[key]
            self.totals[key]["hits"] += info.hits - base.hits
            self.totals[key]["misses"] += info.misses - base.misses

    def clear(self):
        self._fold()
        for cache in self._caches.values():
            cache.cache_clear()
        self._base = {k: c.cache_info() for k, c in self._caches.items()}

    def finish(self):
        self._fold()
        self._base = {k: c.cache_info() for k, c in self._caches.items()}
        return {k: dict(v, currsize=self._caches[k].cache_info().currsize)
                for k, v in self.totals.items()}


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.names = list(SPAN_NAMES)
        # one slot per span: name index, parent span index, op id, start, end
        self.name_ix = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {c[0]: 0 for c in COUNTED}
        self.coeffs_in = 0
        self.matrices = set()
        self.op_id = 0
        self._stack = [-1]
        self._restore = []

    # -------------------------------------------------------------- spans

    def _spanned(self, name, func):
        ix = self.names.index(name)
        stack, clock = self._stack, time.perf_counter
        name_ix, parent, op = self.name_ix, self.parent, self.op
        start, end = self.start, self.end

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            me = len(name_ix)
            name_ix.append(ix)
            parent.append(stack[-1])
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(me)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[me] = t0
                end[me] = t1

        return wrapper

    def _counted(self, name, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # --------------------------------------------------------- installing

    def _module(self, mod):
        return sys.modules.get(f"{self.pkg.__name__}.{mod}")

    def _rebind_everywhere(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == self.pkg.__name__
                                      or name.startswith(self.pkg.__name__ + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _patch_class(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        """Wrap every target that exists; a module the process never
        imported, or a name the library no longer has, is skipped and its
        metrics read 0."""
        for layer, mod, attr in FUNCTIONS:
            original = getattr(self._module(mod), attr, None)
            if original is None:
                continue
            wrapper = self._spanned(f"{layer}.{attr}", original)
            if attr == "char_poly":
                wrapper = self._remember_matrix(wrapper)
            self._rebind_everywhere(original, wrapper)
        for name, mod, cls_name, attr in METHODS + COUNTED:
            owner = self._module(mod)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                continue
            if name.endswith(".calls"):
                wrapper = self._counted(name, original)
            else:
                wrapper = self._spanned(name, original)
            if name == "cyclotomic.ModPoly.mul":
                wrapper = self._count_coeffs(wrapper)
            if cls_name is None:
                self._rebind_everywhere(original, wrapper)
            else:
                self._patch_class(owner, attr, wrapper)

    def _remember_matrix(self, wrapper):
        matrices = self.matrices

        @functools.wraps(wrapper)
        def inner(m, *args, **kwargs):
            matrices.add(m.rows)
            return wrapper(m, *args, **kwargs)

        return inner

    def _count_coeffs(self, wrapper):
        @functools.wraps(wrapper)
        def inner(a, b):
            self.coeffs_in += len(a.coeffs) + len(b.coeffs)
            return wrapper(a, b)

        return inner

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ----------------------------------------------------------- results

    def totals(self, cache_totals):
        """Summable per-layer totals: span calls and self seconds, counters,
        cache counts and the distinct matrices given to char_poly."""
        n = len(self.name_ix)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_ix[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        out.update(self.counts)
        out["cyclotomic.ModPoly.mul.coeffs_in"] = self.coeffs_in
        out["intlinalg.char_poly.distinct_matrices"] = len(self.matrices)
        for key, counts in cache_totals.items():
            out[f"{key}.cache_hits"] = counts["hits"]
            out[f"{key}.cache_misses"] = counts["misses"]
        return out

    def dump(self, path):
        """Write the spans: a JSON header, then the five columns as raw
        arrays in native byte order."""
        header = {
            "names": self.names,
            "columns": [["name_ix", "i"], ["parent", "i"], ["op", "i"],
                        ["start", "d"], ["end", "d"]],
            "count": len(self.name_ix),
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.name_ix, self.parent, self.op, self.start, self.end):
                col.tofile(fh)


def finish_metrics(total):
    """Per-layer metric values from (possibly summed) `Tracer.totals`."""
    out = {}
    for name in per_layer_names():
        if name in total:
            out[name] = total[name]
    hits, misses = total["numth.factorize.cache_hits"], total["numth.factorize.cache_misses"]
    out["numth.factorize.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    distinct = total["intlinalg.char_poly.distinct_matrices"]
    out["intlinalg.char_poly.calls_per_matrix"] = (
        total["intlinalg.char_poly.calls"] / distinct if distinct else 0.0)
    return out
