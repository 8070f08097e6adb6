"""Per-layer tracing of monoball from outside the package.

`Tracer.install` wraps every public module-level function of each layer in
every `monoball` namespace that holds it, so that a call through a name
bound by `from .harmonic import ...` in `pipeline` is also seen. Methods and
classes are not wrapped: time spent in them counts toward the calling span.
Each span records its duration; a layer's self time is the duration of its
spans minus the time covered by their child spans.

`bohr.phase_norm` is not wrapped: it is a sub-microsecond helper called
about 124k times per sweep pass, and wrapping it would mostly time the
wrapper. Its time counts toward `bohr_norm`, its only caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import weakref
from collections import Counter
from time import perf_counter

LAYERS = ("groups", "setops", "harmonic", "metric", "bohr", "spectra", "pipeline", "cli")
NOT_WRAPPED = {"bohr.phase_norm"}

# inclusive-time metrics: a span counts when no other span of the family is open
FAMILIES = {
    "harmonic.is_monomial_s": {"harmonic.is_monomial"},
    "harmonic.linear_characters_s": {"harmonic.linear_characters"},
    "harmonic.character_table_s": {"harmonic.character_table"},
    "groups.build_s": {"groups.build_group", "groups.cyclic_group", "groups.dihedral_group",
                       "groups.quaternion_group", "groups.heisenberg_group",
                       "groups.product_group", "groups.permutation_group",
                       "groups.table_group"},
    "groups.abelianization_s": {"groups.abelianization"},
    "groups.closure_s": {"groups.closure"},
    "groups.enumerate_subgroups_s": {"groups.enumerate_subgroups"},
    "spectra.large_spectrum_s": {"spectra.large_spectrum"},
    "spectra.lspec_doubling_cover_s": {"spectra.lspec_doubling_cover"},
    "bohr.bohr_norm_s": {"bohr.bohr_norm"},
    "bohr.charset_sum_s": {"bohr.charset_sum"},
    "metric.validate_norm_s": {"metric.validate_norm"},
}
CALL_COUNTS = ("harmonic.is_monomial", "harmonic.linear_characters", "groups.closure",
               "groups.subgroup_view", "spectra.large_spectrum", "spectra.standing_hypotheses",
               "bohr.bohr_norm", "bohr.linbohr", "metric.validate_norm", "metric.ball",
               "setops.product_set", "pipeline.freiman_ball")
# share of calls whose arguments (group identity and masks) were seen before
REPEATS = ("harmonic.is_monomial", "harmonic.linear_characters",
           "spectra.standing_hypotheses", "setops.product_set")


def _product_pairs(a, b):
    return {"setops.product_set.pairs": len(a) * len(b)}


def _proper_ball(report):
    return {"pipeline.proper_balls": int(len(report.ball) < report.working_order)}


def _exit_code(code):
    return {"cli.errors": int(code != 0)}


ARG_COUNTERS = {"setops.product_set": _product_pairs}
RESULT_COUNTERS = {"pipeline.freiman_ball": _proper_ball, "cli.main": _exit_code}


class Tracer:
    def __init__(self):
        self.self_time = Counter()      # per layer
        self.family_time = Counter()
        self.calls = Counter()          # per layer and per function
        self.counts = Counter()         # errors and other counters
        self.repeats = Counter()
        self._open = []                 # child time covered, one cell per open span
        self._family_open = Counter()
        self._seen_args = {key: set() for key in REPEATS}
        self._serial = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count()
        self._last_error = None
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap the public functions and count the tables `groups._finish`
        validates; returns the names of the wrapped functions."""
        from monoball import groups

        self._group_types = (groups.FiniteGroup, groups.GroupSubset)
        finish = groups._finish
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"monoball.{layer}")
            for name, fn in vars(mod).items():
                key = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or key in NOT_WRAPPED):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(layer, key, fn))
        names = sorted(f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                       for fn, _ in wrappers.values())
        wrappers[id(finish)] = (finish, self._count_tables(finish))
        for modname, mod in list(sys.modules.items()):
            if modname != "monoball" and not modname.startswith("monoball."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patched.append((mod, name, obj))
        return names

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------------

    def _count_tables(self, finish):
        @functools.wraps(finish)
        def wrapper(mul, *args, **kwargs):
            self.counts["groups.tables_built"] += 1
            self.counts["groups.table_cells"] += int(mul.shape[0]) ** 2
            return finish(mul, *args, **kwargs)
        return wrapper

    def _wrap(self, layer, key, fn):
        families = [f for f, members in FAMILIES.items() if key in members]
        repeats = self._seen_args.get(key)
        arg_counter = ARG_COUNTERS.get(key)
        result_counter = RESULT_COUNTERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            self.calls[key] += 1
            if repeats is not None:
                args_key = self._args_key(args, kwargs)
                if args_key in repeats:
                    self.repeats[key] += 1
                else:
                    repeats.add(args_key)
            if arg_counter is not None:
                self.counts.update(arg_counter(*args, **kwargs))
            outer = [f for f in families if self._family_open[f] == 0]
            for f in families:
                self._family_open[f] += 1
            cell = [0.0]
            self._open.append(cell)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:       # count it where it was raised
                    self._last_error = exc
                    self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                dur = perf_counter() - start
                self._open.pop()
                self.self_time[layer] += dur - cell[0]
                if self._open:
                    self._open[-1][0] += dur
                for f in families:
                    self._family_open[f] -= 1
                for f in outer:
                    self.family_time[f] += dur
            if result_counter is not None:
                self.counts.update(result_counter(result))
            return result
        return wrapper

    def _args_key(self, args, kwargs):
        return (tuple(self._arg_key(v) for v in args),
                tuple((k, self._arg_key(v)) for k, v in sorted(kwargs.items())))

    def _arg_key(self, v):
        group_type, subset_type = self._group_types
        if isinstance(v, group_type):
            return ("G", self._serial_of(v))
        if isinstance(v, subset_type):
            return ("A", self._serial_of(v.group), v.mask)
        try:
            hash(v)
        except TypeError:
            return ("id", id(v))
        return v

    def _serial_of(self, group):
        serial = self._serial.get(group)
        if serial is None:
            serial = self._serial[group] = next(self._next_serial)
        return serial

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.errors"] = (self.counts[f"{layer}.errors"], "count")
        for name in FAMILIES:
            out[name] = (self.family_time[name], "s")
        for key in CALL_COUNTS:
            out[f"{key}.calls"] = (self.calls[key], "count")
        for key in REPEATS:
            n = self.calls[key]
            out[f"{key}.repeat_ratio"] = (self.repeats[key] / n if n else 0.0, "ratio")
        for key in ("groups.tables_built", "groups.table_cells",
                    "setops.product_set.pairs", "pipeline.proper_balls"):
            out[key] = (self.counts[key], "count")
        return out
