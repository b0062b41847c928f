"""Per-layer tracing of treehopf, installed from outside the library.

Wrappers time the calls into each layer's public functions.  A wrapper
replaces every treehopf module global that refers to the function (``qed``
and ``renorm`` import maps by name), every value of a module-level dict that
holds it (``hopf.COPRODUCTS`` and the like), and, for a method, the class
attribute.  Timed calls aggregate in memory as calls, inclusive seconds and
self seconds; a span stack gives the self time.  Counted calls only count,
so their time stays in the timed caller.  A function or cache that a later
version of treehopf no longer has is reported as missing, never as 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

MODULES = ("trees", "algebra", "hopf", "qed", "series", "renorm", "checks", "cli")

_CALLS_SELF = ("calls", "self_s")
_SELF = ("self_s",)

# (metric prefix, module, attribute, reported stats).  Several attributes may
# share a prefix; their stats add up.
TIMED = (
    ("trees.enumerate_trees", "trees", "enumerate_trees", _CALLS_SELF),
    ("trees.render", "trees", "render", _CALLS_SELF),
    ("trees.parse", "trees", "parse", _CALLS_SELF),
    ("trees.tree_name", "trees", "tree_name", _CALLS_SELF),
    ("algebra.tensor.init", "algebra", "TensorElement.__init__", _CALLS_SELF),
    ("algebra.tensor.add", "algebra", "TensorElement.__add__", _CALLS_SELF),
    ("algebra.tensor.mul", "algebra", "TensorElement.__mul__", _CALLS_SELF),
    ("algebra.tensor.map_slot", "algebra", "TensorElement.map_slot", _CALLS_SELF),
    ("algebra.tensor.eq", "algebra", "TensorElement.__eq__", _CALLS_SELF),
    ("algebra.tensor.slot_multiply", "algebra", "TensorElement.slot_multiply", _SELF),
    ("algebra.tensor.contract_counit", "algebra", "TensorElement.contract_counit", _SELF),
    ("algebra.element.init", "algebra", "Element.__init__", _CALLS_SELF),
    ("algebra.element.mul", "algebra", "Element.__mul__", _CALLS_SELF),
    ("algebra.element.add", "algebra", "Element.__add__", _CALLS_SELF),
    *(
        (f"hopf.{name}", "hopf", name, _CALLS_SELF)
        for name in (
            "delta_p_gamma",
            "delta_p_e",
            "delta_alpha",
            "delta_small",
            "delta_alpha_nc",
            "delta_small_nc",
            "delta_p_gamma_recursive",
            "delta_p_e_recursive",
            "antipode_p_gamma",
            "antipode_p_e",
            "antipode_alpha",
            "antipode_alpha_nc",
        )
    ),
    *(
        (f"qed.{name}", "qed", name, _CALLS_SELF)
        for name in (
            "delta_gamma_coaction",
            "delta_e_coaction",
            "delta_e_coaction_recursive",
            "photon_renorm_coaction",
            "electron_renorm_coaction",
            "electron_renorm_coaction_recursive",
            "sigma",
            "qed_coproduct",
            "qed_antipode",
        )
    ),
    ("series.matmul", "series", "Matrix.__matmul__", _CALLS_SELF),
    ("series.mul", "series", "Series.__mul__", _SELF),
    ("series.compose", "series", "Series.compose", _SELF),
    ("series.inverse", "series", "Series.inverse", _SELF),
    ("renorm.make_toy_character", "renorm", "make_toy_character", _SELF),
    ("renorm.renormalized_photon", "renorm", "renormalized_photon", _SELF),
    ("renorm.renormalized_electron", "renorm", "renormalized_electron", _SELF),
    ("renorm.z2_factor", "renorm", "z2_factor", _SELF),
    ("renorm.dyson_check", "renorm", "dyson_check_photon", _SELF),
    ("renorm.dyson_check", "renorm", "dyson_check_electron", _SELF),
    ("renorm.pair_evaluate", "renorm", "pair_evaluate", _CALLS_SELF),
    ("renorm.evaluate", "renorm", "evaluate", _CALLS_SELF),
    ("checks.basis", "checks", "basis_words", _SELF),
    ("checks.basis", "checks", "basis_elements", _SELF),
    ("checks.basis", "checks", "qed_basis", _SELF),
    ("checks.driver", "checks", "run_suite", _SELF),
    ("cli.main", "cli", "main", _SELF),
)

COUNTED = (
    ("trees.graft", "trees", "graft"),
    ("trees.over", "trees", "over"),
    ("trees.under", "trees", "under"),
    ("hopf.charge_coproduct_tree", "hopf", "charge_coproduct_tree"),
    ("series.r_mul", "series", "r_mul"),
)

# Memo caches and the intern pool, read from outside after a run: entries.
CACHES = (
    ("trees.pool_size", "trees", "_pool"),
    ("trees.cache.enum", "trees", "_enum_cache"),
    ("hopf.cache.charge", "hopf", "_charge_cache"),
    ("hopf.cache.charge_small", "hopf", "_charge_small_cache"),
    ("hopf.cache.antipode_letter", "hopf", "_antipode_letter_cache"),
    ("qed.cache.coaction_rec", "qed", "_coaction_rec_cache"),
    ("qed.cache.ern_rec", "qed", "_ern_rec_cache"),
)

MAP_SLOT_TERMS = "algebra.tensor.map_slot.terms"
SWEEP_ITEMS = ("checks", "_sweep")


def metric_names(suites) -> list[str]:
    """Every per-layer metric, in report order."""
    names: list[str] = []
    for prefix, _, _, stats in TIMED:
        for stat in stats:
            name = f"{prefix}.{stat}"
            if name not in names:
                names.append(name)
    names.append(MAP_SLOT_TERMS)
    names += [f"{prefix}.calls" for prefix, _, _ in COUNTED]
    names += [name for name, _, _ in CACHES]
    for suite in suites:
        names += [f"checks.suite.{suite}.s", f"checks.suite.{suite}.items"]
    names += ["other.self_s", "trace.wall_s", "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def cache_sizes() -> dict[str, int | None]:
    """Entries of each memo cache; None where treehopf no longer has it."""
    out: dict[str, int | None] = {}
    for metric, mod, attr in CACHES:
        try:
            out[metric] = len(getattr(sys.modules.get(f"treehopf.{mod}"), attr))
        except (AttributeError, TypeError):
            out[metric] = None
    return out


class Tracer:
    """Aggregated per-function stats of one traced workload process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # prefix -> [calls, inclusive s, self s]
        self.counts: dict[str, list[int]] = {}  # prefix -> [calls]
        self.terms = [0]
        self.items: dict[str, int] = {}  # suite -> items swept
        self.suite: str | None = None
        self.top_s = 0.0  # time inside outermost timed calls
        self.missing: list[str] = []
        self._stack: list[list[float]] = []

    def timed(self, prefix: str, fn, terms=None):
        stat = self.stats.setdefault(prefix, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
            if terms is not None:
                terms[0] += len(out.terms)
            return out

        return wrapper

    def counted(self, prefix: str, fn):
        cell = self.counts.setdefault(prefix, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def sweep_items(self, fn):
        @functools.wraps(fn)
        def wrapper(name, items, *args, **kwargs):
            items = list(items)
            if self.suite is not None:
                self.items[self.suite] = self.items.get(self.suite, 0) + len(items)
            return fn(name, items, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every function of the tables in the loaded treehopf."""
        package = importlib.import_module("treehopf")
        modules = [package] + [importlib.import_module(f"treehopf.{m}") for m in MODULES]
        for prefix, mod, attr, _ in TIMED:
            terms = self.terms if prefix + ".terms" == MAP_SLOT_TERMS else None
            _replace(modules, mod, attr, lambda fn: self.timed(prefix, fn, terms), self.missing)
        for prefix, mod, attr in COUNTED:
            _replace(modules, mod, attr, lambda fn: self.counted(prefix, fn), self.missing)
        _replace(modules, *SWEEP_ITEMS, self.sweep_items, self.missing)

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "terms": self.terms[0],
            "items": self.items,
            "top_s": self.top_s,
            "missing": self.missing,
        }


def _replace(modules, mod: str, attr: str, make, missing: list[str]) -> None:
    owner = importlib.import_module(f"treehopf.{mod}")
    path = attr.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    orig = getattr(owner, path[-1], None) if owner is not None else None
    if not callable(orig):
        missing.append(f"{mod}.{attr}")
        return
    wrapper = make(orig)
    if len(path) > 1:
        setattr(owner, path[-1], wrapper)
        return
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is orig:
                setattr(module, name, wrapper)
            elif type(value) is dict:
                for key, item in value.items():
                    if item is orig:
                        value[key] = wrapper


def layer_metrics(trace: dict, caches: dict, spans: list, suites, wall_s: float, untraced_wall_s: float):
    """Per-layer metric values of one traced run, and the names missing."""
    values: dict[str, float] = {}
    for prefix, (calls, _, self_s) in trace["stats"].items():
        values[f"{prefix}.calls"] = calls
        values[f"{prefix}.self_s"] = self_s
    for prefix, calls in trace["counts"].items():
        values[f"{prefix}.calls"] = calls
    if MAP_SLOT_TERMS.rsplit(".", 1)[0] in trace["stats"]:
        values[MAP_SLOT_TERMS] = trace["terms"]
    sweep_missing = ".".join(SWEEP_ITEMS) in trace["missing"]
    for name, size in caches.items():
        if size is not None:
            values[name] = size
    suite_s = {name.split(":", 1)[1]: end - start for _, _, name, start, end in spans if name.startswith("suite:")}
    for suite in suites:
        values[f"checks.suite.{suite}.s"] = suite_s.get(suite, 0.0)
        if not sweep_missing:
            values[f"checks.suite.{suite}.items"] = trace["items"].get(suite, 0)
    values["other.self_s"] = wall_s - trace["top_s"]
    values["trace.wall_s"] = wall_s
    values["trace.overhead_s"] = wall_s - untraced_wall_s
    metrics, missing = {}, []
    for name in metric_names(suites):
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit_of(name)}
        else:
            missing.append(name)
    return metrics, missing
