"""L0 replay microbench for the per-site swap cores.

Each input path of a workload is swept once with the public `*_core`
functions, mirroring the sweeps in `boxball.dynamics`, and the arguments of
every core call are recorded.  Each core is then timed over its recorded
arguments, so the case mix is the workload's.  Nothing here relies on the
sweeps' `want_trace` output.
"""

from __future__ import annotations

import statistics
import time

from boxball import isomorphisms as iso

CORES = ("col_box_core", "box_col_core", "row_box_core", "col_row_core", "row_col_core",
         "combinatorial_r")
MAX_PATHS = 200
MAX_PER_SWEEP = 2000
REPEATS = 5


def decoding_sweep(sites):
    """One decoding pass over basic sites: [((top, bottom, box), tag), ...]."""
    top, bottom = 1, 2
    out = []
    k = 0
    while k < len(sites) or top != 1:
        g = sites[k] if k < len(sites) else 1
        _, t2, b2, tag = iso.col_box_core(top, bottom, g)
        out.append(((top, bottom, g), tag))
        top, bottom = t2, b2
        k += 1
        if k > len(sites) + 1:
            raise RuntimeError("decoding carrier failed to settle")
    return out


def _basic_sweeps(p, rec):
    sites = tuple(p.sites)
    top, bottom, k, out = 1, 2, 0, []
    while k < len(sites) or top != 1:
        g = sites[k] if k < len(sites) else 1
        rec["col_box_core"].append((top, bottom, g))
        emitted, top, bottom, _ = iso.col_box_core(top, bottom, g)
        out.append(emitted)
        k += 1
    while out and out[-1] == 1:
        out.pop()
    for c in reversed(out):  # the carrier left as (1, removed letter)
        rec["box_col_core"].append((c, top, bottom))
        top, bottom, _, _ = iso.box_col_core(c, top, bottom)
    balls = sum(1 for v in sites if v >= 2)
    for cap in (3, max(1, balls)):
        carrier, k = (1,) * cap, 0
        while k < len(sites) or any(v != 1 for v in carrier):
            site = sites[k] if k < len(sites) else 1
            rec["row_box_core"].append((carrier, site))
            _, carrier, _ = iso.row_box_core(carrier, site)
            k += 1


def _entries(counts):
    return tuple(letter for letter, c in enumerate(counts, start=1) for _ in range(c))


def _counts(entries, n):
    out = [0] * n
    for v in entries:
        out[v - 1] += 1
    return tuple(out)


def _inhom_sweeps(p, rec):
    n, sites = p.n, tuple(tuple(c) for c in p.sites)
    vac = (p.tail_capacity,) + (0,) * (n - 1)
    top, bottom, k, out = 1, 2, 0, []
    while k < len(sites) or top != 1:
        entries = _entries(sites[k] if k < len(sites) else vac)
        rec["col_row_core"].append((top, bottom, entries))
        new, top, bottom, _ = iso.col_row_core(top, bottom, entries)
        out.append(_counts(new, n))
        k += 1
    for counts in reversed(out):
        entries = _entries(counts)
        rec["row_col_core"].append((entries, top, bottom))
        top, bottom, _, _ = iso.row_col_core(entries, top, bottom)
    balls = sum(sum(c[1:]) for c in sites)
    for cap in (2, max(1, balls)):
        carrier, k = (cap,) + (0,) * (n - 1), 0
        while k < len(sites) or any(carrier[1:]):
            site = sites[k] if k < len(sites) else vac
            rec["combinatorial_r"].append((carrier, site))
            _, carrier = iso.combinatorial_r(carrier, site)
            k += 1


def record_inputs(paths) -> dict[str, list[tuple]]:
    """Sweep up to MAX_PATHS distinct paths, evenly spaced over the ops;
    keep at most MAX_PER_SWEEP evenly spaced calls per core and path."""
    distinct = list({id(p): p for p in paths}.values())
    records: dict[str, list[tuple]] = {c: [] for c in CORES}
    for p in distinct[:: max(1, -(-len(distinct) // MAX_PATHS))]:
        rec = {c: [] for c in CORES}
        try:
            (_inhom_sweeps if hasattr(p, "tail_capacity") else _basic_sweeps)(p, rec)
        except AttributeError:  # a core was renamed or removed: no L0 metrics
            continue
        for core, calls in rec.items():
            step = max(1, -(-len(calls) // MAX_PER_SWEEP))
            records[core].extend(calls[::step])
    return records


def time_cores(records) -> dict[str, tuple[float, int]]:
    """core -> (median ns per call over REPEATS passes, calls per pass)."""
    out = {}
    for core, calls in records.items():
        fn = getattr(iso, core, None)
        if fn is None or not calls:
            continue
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter_ns()
            for args in calls:
                fn(*args)
            samples.append((time.perf_counter_ns() - t0) / len(calls))
        out[core] = (statistics.median(samples), len(calls))
    return out
