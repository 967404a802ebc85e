"""Statistics, trace attribution, output checks and the compare verdict.

Pure functions shared by run.py (one benchmark run) and compare.py (two
result sets); test_perflib.py covers them.
"""

import math
import statistics

# --------------------------------------------------------------------
# Order statistics
# --------------------------------------------------------------------


def quartiles(values):
    """Returns (q1, median, q3) as statistics.quantiles(n=4) gives them."""
    vals = list(values)
    if not vals:
        raise ValueError("no values")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def relative_spread(values):
    """Interquartile distance as a share of the median (0 when it is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def tail_percentile(samples, min_beyond=10):
    """The highest percentile with at least `min_beyond` samples beyond it.

    Returns (value, percentile, n). The value is the sample at 0-based
    rank n - 1 - min_beyond of the sorted samples, so exactly
    `min_beyond` samples rank above it; the percentile is the share of
    samples at or below that rank. With n <= min_beyond no percentile
    qualifies: the maximum is returned with percentile None.
    """
    vals = sorted(samples)
    n = len(vals)
    if n == 0:
        raise ValueError("no samples")
    if n <= min_beyond:
        return vals[-1], None, n
    k = n - 1 - min_beyond
    return vals[k], 100.0 * (k + 1) / n, n


def geomean(values):
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


# --------------------------------------------------------------------
# Trace attribution
# --------------------------------------------------------------------

INHERIT = None  # a span whose self time belongs to its parent's layer

# Span name -> layer its self time is charged to. The "bench" spans are
# the benchmark's own, around each call it makes into a layer; the
# rest are the library's RuntimeTracer hooks.
SPAN_LAYERS = {
    "vm.trace": "vm.trace",
    "core.analyze": "core.analyze",
    "core.tag": "core.tag",
    "cpu.run": "cpu.run",
    "telemetry.export": "telemetry.export",
    "cache.wait": "cache.wait",
    "pool.task": INHERIT,
    "pool.stream_task": INHERIT,
    "sampled.warm_build": "sampled.warm",
    "sampled.warm_producer": "sampled.warm",
    "sampled.interval": "sampled.detail",
    "sampled.stitch": "sampled.stitch",
    "warmstore.read": "warmstore.read",
    "warmstore.write": "warmstore.write",
    "warmstore.evict": "warmstore.write",
    # The server's job span has no finer child around the result
    # render (registerInto + toJson), which is what its self time is.
    "job.running": "telemetry.export",
    "job.persist": "serve.persist",
}

# Spans that only dispatch work and wait: their own self time is
# "other", but spans they cause (on any thread) do this layer's work.
DISPATCH_WORK = {"bench.simulate": "cpu.run"}

# cache.compute is the artifact build itself; its key names the layer.
CACHE_KEY_LAYERS = [
    ("trace:", "vm.trace"),
    ("analysis:", "core.analyze"),
    ("tagged:", "core.tag"),
    ("warm", "sampled.warm"),
]

OTHER = "other"


def span_layer(name, key=""):
    """Returns the layer of a span, INHERIT, or OTHER when unknown."""
    if name == "cache.compute":
        for prefix, layer in CACHE_KEY_LAYERS:
            if key.startswith(prefix):
                return layer
        return INHERIT
    return SPAN_LAYERS.get(name, OTHER)


def complete_spans(events):
    """The 'X' events of a Chrome trace as dicts with seconds."""
    spans = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        spans.append({
            "name": ev["name"],
            "cat": ev.get("cat", ""),
            "key": str(ev.get("args", {}).get("key", "")),
            "tid": ev["tid"],
            "start": ev["ts"] / 1e6,
            "end": (ev["ts"] + ev["dur"]) / 1e6,
        })
    return spans


def async_durations(events, name):
    """Total seconds of the 'b'/'e' pairs named `name`."""
    begins, total = {}, 0.0
    for ev in events:
        if ev.get("name") != name:
            continue
        if ev["ph"] == "b":
            begins[ev["id"]] = ev["ts"]
        elif ev["ph"] == "e" and ev["id"] in begins:
            total += (ev["ts"] - begins.pop(ev["id"])) / 1e6
    return total


def busy_time(spans, name):
    """Seconds during which some span named `name` was open, summed over
    threads (nested spans of that name count once)."""
    by_tid = {}
    for sp in spans:
        if sp["name"] == name:
            by_tid.setdefault(sp["tid"], []).append(
                (sp["start"], sp["end"]))
    return sum(_covered(iv) for iv in by_tid.values())


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans, main_tid):
    """Charges each span's self time to a layer.

    Self time is a span's duration minus the part of it its child spans
    cover. Spans nest per thread. A span's parent is the innermost span
    on its thread that encloses it; a root span on another thread is
    caused by the innermost span of the main thread active when it
    began, among the benchmark's own structural spans (the ones that
    dispatch work rather than do it). A span that inherits (pool tasks,
    cache computes of unknown kind) charges its parent's work layer; a
    dispatching span charges its own wait to "other" and hands its work
    layer to what it causes.

    Returns {layer: seconds}, summed over threads.
    """
    by_tid = {}
    for sp in spans:
        by_tid.setdefault(sp["tid"], []).append(sp)
    parent = {}
    children = {id(sp): [] for sp in spans}
    for tid_spans in by_tid.values():
        # Outer spans first at equal start, so the stack holds parents.
        tid_spans.sort(key=lambda sp: (sp["start"], -sp["end"]))
        stack = []
        for sp in tid_spans:
            while stack and stack[-1]["end"] < sp["end"]:
                stack.pop()
            parent[id(sp)] = stack[-1] if stack else None
            if stack:
                children[id(stack[-1])].append(sp)
            stack.append(sp)
    mains = [m for m in by_tid.get(main_tid, [])
             if m["cat"] == "bench" and span_layer(m["name"]) == OTHER]
    for sp in spans:
        if parent[id(sp)] is None and sp["tid"] != main_tid:
            enclosing = [m for m in mains
                         if m["start"] <= sp["start"] <= m["end"]]
            parent[id(sp)] = (min(enclosing,
                                  key=lambda m: m["end"] - m["start"])
                              if enclosing else None)

    work_memo = {}

    def work_layer(sp):
        """The layer that work done on behalf of `sp` is charged to."""
        if sp is None:
            return OTHER
        if id(sp) not in work_memo:
            if sp["name"] in DISPATCH_WORK:
                layer = DISPATCH_WORK[sp["name"]]
            else:
                layer = span_layer(sp["name"], sp["key"])
                if layer is INHERIT:
                    layer = work_layer(parent[id(sp)])
            work_memo[id(sp)] = layer
        return work_memo[id(sp)]

    totals = {}
    for sp in spans:
        kids = [(c["start"], c["end"]) for c in children[id(sp)]]
        own = (sp["end"] - sp["start"]) - _covered(kids)
        if sp["name"] in DISPATCH_WORK:
            layer = OTHER
        else:
            layer = work_layer(sp)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


# --------------------------------------------------------------------
# Output check
# --------------------------------------------------------------------


def check_outputs(reference, outputs):
    """Compares one repetition's simulated outputs to the reference.

    Both map "workload/variant" to a dict of exact values (integer
    counters, or the IPC rendered with 17 significant digits). Returns
    the sorted list of keys that are missing, extra, or differ.
    """
    bad = set(reference) ^ set(outputs)
    for key in set(reference) & set(outputs):
        if reference[key] != outputs[key]:
            bad.add(key)
    return sorted(bad)


def ipc_of(entry):
    """IPC of one output entry (counters or exact IPC string)."""
    if "ipc" in entry:
        return float(entry["ipc"])
    return entry["retired"] / entry["cycles"] if entry["cycles"] else 0.0


def model_metrics(outputs):
    """Simulated-outcome metrics of one output set (exact, untimed)."""
    ipc = {k: ipc_of(v) for k, v in outputs.items()}
    workloads = sorted({k.split("/")[0] for k in ipc})

    def gain_pct(variant):
        ratios = [ipc[w + "/" + variant] / ipc[w + "/ooo"]
                  for w in workloads
                  if w + "/" + variant in ipc and ipc.get(w + "/ooo")]
        return (geomean(ratios) - 1.0) * 100.0 if ratios else 0.0

    return {
        "model.crisp_gain_geomean_pct": gain_pct("crisp"),
        "model.ibda1k_gain_geomean_pct": gain_pct("ibda-1K"),
        "model.mcf_ipc_ooo": ipc.get("mcf/ooo", 0.0),
        "model.mcf_ipc_crisp": ipc.get("mcf/crisp", 0.0),
    }


# --------------------------------------------------------------------
# Compare
# --------------------------------------------------------------------

BETTER, WORSE, WITHIN, UNRESOLVED = ("better", "worse beyond bound",
                                     "within bound", "unresolved")


def paired_wins(base, new, better):
    """Share of (base, new) pairs, matched by position, that the change
    wins; ties count for neither side."""
    pairs = list(zip(base, new))
    if not pairs:
        return 0.0
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    return wins / len(pairs)


def verdict(base, new, better, bound):
    """Classifies a change of one (workload, metric) pair.

    `base` and `new` are the per-run values of the parent and the
    change. With bound None (a per-layer metric) the wider of the two
    spreads stands in for it, and no pair is unresolved.

    - unresolved: either side's spread (interquartile distance over
      median) is wider than the bound, unless every run of the change
      beats every run of the parent;
    - worse beyond bound: the change's median is worse than the
      parent's by more than the bound;
    - better: the change wins at least nine tenths of the pairs and its
      median beats the parent's by more than the parent's spread;
    - within bound: anything else.

    Returns (verdict, details).
    """
    _, bmed, _ = quartiles(base)
    _, nmed, _ = quartiles(new)
    bspread, nspread = relative_spread(base), relative_spread(new)
    limit = bound if bound is not None else max(bspread, nspread)
    sign = 1 if better == "higher" else -1
    # Positive = improvement, as a share of the parent's median.
    gain = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    wins = paired_wins(base, new, better)
    dominates = all(sign * (n - b) > 0 for b in base for n in new)
    details = {"base_median": bmed, "new_median": nmed,
               "base_spread": bspread, "new_spread": nspread,
               "change": gain, "paired_wins": wins}
    if bound is not None and max(bspread, nspread) > bound and not dominates:
        return UNRESOLVED, details
    if gain < -limit:
        return WORSE, details
    if (wins >= 0.9 or dominates) and gain > bspread:
        return BETTER, details
    return WITHIN, details


HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def same_host(a, b):
    """True when two host descriptors name the same machine and build."""
    return all(a.get(k) == b.get(k) for k in HOST_KEYS)
