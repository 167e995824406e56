"""Spans around the benchmark's calls into each boxball module.

The tracer wraps public functions by replacing every `boxball` module
attribute that refers to them, so a call made by the benchmark and a call
one module makes into another (`boxball.separation.decoding_pass`,
`boxball.verify.lowering`, `boxball.cli.separate`) both open a span.  The
per-site swap cores are never wrapped; `replay.py` measures them.

Spans are aggregated per name as they close (calls, inclusive time, self
time = inclusive minus child spans, plus a counter for work done) and read
out once the traced ops have run.  A public name that no longer exists is
skipped and its metrics are absent.
"""

from __future__ import annotations

import importlib
import time

MODULES = ("boxball", "boxball.crystals", "boxball.isomorphisms", "boxball.dynamics",
           "boxball.separation", "boxball.verify", "boxball.cli")


def _sites(args, kwargs, result):
    return len(args[0].sites)


def _passes(args, kwargs, result):
    return len(result.word)


def _domain(args, kwargs, result):
    return result.domain


def _capacity_name(base):
    def name(args, kwargs):
        cap = args[1] if len(args) > 1 else kwargs.get("capacity")
        return f"{base}.{'inf' if cap is None else 'finite'}"
    return name


# (defining module, function, span name or namer, work counter, what it counts)
TARGETS = [
    ("crystals", "iter_tensor", "crystals.iter_tensor", None, "elements"),
    ("crystals", "lowering", "crystals.lowering", None, None),
    ("crystals", "highest_weights", "crystals.highest_weights", None, None),
    ("crystals", "is_highest_weight", "crystals.is_highest_weight", None, None),
    ("isomorphisms", "swap_adjacent", "isomorphisms.swap_adjacent", None, None),
    ("isomorphisms", "apply_word", "isomorphisms.apply_word", None, None),
    ("dynamics", "decoding_pass", "dynamics.decoding_pass", _sites, "sites"),
    ("dynamics", "encoding_pass", "dynamics.encoding_pass", _sites, "sites"),
    ("dynamics", "time_evolution", "dynamics.time_evolution", _sites, "sites"),
    ("dynamics", "carrier_evolution", _capacity_name("dynamics.carrier_evolution"),
     _sites, "sites"),
    ("separation", "separate", "separation.separate", _passes, "passes"),
    ("separation", "combine", "separation.combine", None, None),
    ("separation", "is_monochrome", "separation.is_monochrome", None, None),
    ("separation", "check_commutation", "separation.check_commutation", None, None),
    ("verify", "check_symmetric_group", "verify.check_symmetric_group", _domain,
     "elements"),
    ("verify", "check_carrier_composition", "verify.check_carrier_composition", _domain,
     "elements"),
    ("verify", "check_swap_against_oracle", "verify.check_swap_against_oracle", _domain,
     "elements"),
    ("verify", "check_decomposition", "verify.check_decomposition", _domain, "elements"),
    ("verify", "check_highest_weight_chains", "verify.check_highest_weight_chains",
     _domain, "elements"),
    ("verify", "isomorphism_table", "verify.isomorphism_table", None, None),
    ("cli", "parse_state", "cli.parse_state", None, None),
    ("cli", "main", "cli.main", None, None),
]


class Stat:
    __slots__ = ("calls", "total", "self", "work", "unit")

    def __init__(self, unit: str | None):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.work = 0
        self.unit = unit  # what `work` counts: sites, passes or elements


class Tracer:
    def __init__(self):
        self.stack: list[float] = []  # child time of each open span
        self.stats: dict[str, Stat] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _stat(self, name: str, unit: str | None) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(unit)
        return stat

    def _close(self, stat: Stat, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self.stack.pop()
        if self.stack:
            self.stack[-1] += dt
        stat.total += dt
        stat.self += dt - child

    def wrap(self, fn, name, counter, unit):
        stack, stat_of, close = self.stack, self._stat, self._close
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            stat = stat_of(namer(args, kwargs) if namer else name, unit)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stat, t0)
            stat.calls += 1
            if counter is not None:
                stat.work += counter(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, fn, name):
        """Each resumption is a span; work counts the elements yielded."""
        stack, close = self.stack, self._close
        stat = self._stat(name, "elements")

        def resumed(it):
            while True:
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    x = next(it)
                except StopIteration:
                    return
                finally:
                    close(stat, t0)
                stat.work += 1
                yield x

        def traced(*args, **kwargs):
            stat.calls += 1
            return resumed(fn(*args, **kwargs))

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for home, attr, name, counter, unit in TARGETS:
            original = getattr(importlib.import_module(f"boxball.{home}"), attr, None)
            if original is None:
                continue
            if attr == "iter_tensor":
                wrapper = self.wrap_generator(original, name)
            else:
                wrapper = self.wrap(original, name, counter, unit)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, stat in sorted(self.stats.items()):
            if stat.calls == 0:
                continue
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self
            out[f"{name}.total_s"] = stat.total
            if stat.unit is None:
                continue
            out[f"{name}.{stat.unit}"] = stat.work
            if stat.unit == "sites" and stat.work:
                out[f"{name}.us_per_site"] = 1e6 * stat.self / stat.work
            elif stat.unit == "elements" and name.startswith("verify.") and stat.work:
                out[f"{name}.s_per_element"] = stat.total / stat.work
        return out
