#!/usr/bin/env python3
"""Validate the observability exports of an ibrar_serve run.

Usage: check_serve_stats.py STATS_JSONL [TRACE_JSON]
           [--prom SCRAPE ...] [--slo SLO_JSON]

STATS_JSONL is the --stats-every stream: one JSON object per line, each the
full metrics-registry snapshot ({"counters":{...},"gauges":{...},
"histograms":{...}}). Checks:
  * every line parses as JSON with the three sections;
  * core serving counters grow monotonically across lines;
  * the final (post-drain) snapshot has serve.accepted == serve.served > 0,
    at least one batch, and a serve.compute_ns histogram whose percentiles
    are ordered p50 <= p90 <= p99 <= max;
  * when the reply cache is live (serve.cache.budget_bytes > 0): cache
    counters are monotone, serve.cache.hits + serve.cache.misses ==
    serve.cache.lookups exactly, every snapshot keeps serve.cache.bytes <=
    serve.cache.budget_bytes, and the final (post-shutdown) snapshot has
    serve.cache.bytes == 0;
  * admission counters (serve.admission.busy / .throttled), when present,
    are monotone.

TRACE_JSON (optional) is the --trace chrome://tracing dump. Checks it is
valid JSON with a non-empty traceEvents list covering all six serving-stage
spans (admission, queue_wait, batch_assembly, compute, telemetry_rescore,
reply). A nonzero droppedSpans count is a WARNING (the export window
truncated), not a failure.

--prom SCRAPE (repeatable, in scrape order) are GET /metrics bodies from the
admin endpoint. Each must be well-formed Prometheus text exposition 0.0.4:
every line a comment or `name[{labels}] value` with names in
[a-zA-Z_:][a-zA-Z0-9_:]*, histogram `le` bucket edges strictly ascending with
non-decreasing cumulative counts and the mandatory +Inf bucket equal to
_count. Across consecutive scrapes, no series may vanish, counters must be
monotone, and SLO state gauges (obs_slo_*_state) must never de-escalate from
breach (2) to warning (1) — within an episode the only way down is a clean
drop to ok (0).

--slo SLO_JSON is a GET /slo body: must parse, carry a non-empty "slos" list,
and every entry's state must be one of ok/warning/breach with state_value in
{0,1,2} and finite burn rates.

Exit status: 0 on success, 1 with a diagnostic on the first violation.
"""

import json
import math
import re
import sys

CORE_COUNTERS = ["serve.accepted", "serve.served", "serve.batches"]
CACHE_COUNTERS = [
    "serve.cache.lookups",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.inflight_joins",
    "serve.cache.evictions",
    "serve.cache.invalidations",
]
ADMISSION_COUNTERS = ["serve.admission.busy", "serve.admission.throttled"]
STAGES = [
    "admission",
    "queue_wait",
    "batch_assembly",
    "compute",
    "telemetry_rescore",
    "reply",
]


def fail(msg):
    print(f"check_serve_stats: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_stats(path):
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        fail(f"{path} is empty")

    snaps = []
    for i, ln in enumerate(lines, 1):
        try:
            snap = json.loads(ln)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i} is not valid JSON: {e}")
        for section in ("counters", "gauges", "histograms"):
            if section not in snap:
                fail(f"{path}:{i} missing section {section!r}")
        snaps.append(snap)

    for name in CORE_COUNTERS:
        values = [s["counters"].get(name, 0) for s in snaps]
        if any(b < a for a, b in zip(values, values[1:])):
            fail(f"counter {name} is not monotone across snapshots: {values}")

    final = snaps[-1]["counters"]
    for name in CORE_COUNTERS:
        if name not in final:
            fail(f"final snapshot missing counter {name}")
    if final["serve.served"] <= 0:
        fail("no requests served")
    if final["serve.accepted"] != final["serve.served"]:
        fail(
            f"drained server should have accepted == served, got "
            f"{final['serve.accepted']} != {final['serve.served']}"
        )
    if final["serve.batches"] <= 0:
        fail("no batches recorded")

    for name in CACHE_COUNTERS + ADMISSION_COUNTERS:
        values = [s["counters"].get(name, 0) for s in snaps]
        if any(b < a for a, b in zip(values, values[1:])):
            fail(f"counter {name} is not monotone across snapshots: {values}")

    budget = snaps[-1]["gauges"].get("serve.cache.budget_bytes", 0)
    if budget > 0:
        lookups = final.get("serve.cache.lookups", 0)
        hits = final.get("serve.cache.hits", 0)
        misses = final.get("serve.cache.misses", 0)
        if hits + misses != lookups:
            fail(
                f"cache accounting broken: hits {hits} + misses {misses} "
                f"!= lookups {lookups}"
            )
        for i, s in enumerate(snaps, 1):
            resident = s["gauges"].get("serve.cache.bytes", 0)
            if resident > budget:
                fail(
                    f"snapshot {i}: serve.cache.bytes {resident} exceeds "
                    f"budget {budget}"
                )
        final_bytes = snaps[-1]["gauges"].get("serve.cache.bytes", 0)
        if final_bytes != 0:
            fail(
                f"post-shutdown snapshot still holds serve.cache.bytes "
                f"{final_bytes} (want 0)"
            )

    hists = snaps[-1]["histograms"]
    if "serve.compute_ns" not in hists:
        fail("final snapshot missing serve.compute_ns histogram")
    h = hists["serve.compute_ns"]
    if h["count"] <= 0:
        fail("serve.compute_ns histogram is empty")
    if not (h["p50"] <= h["p90"] <= h["p99"] <= h["max"]):
        fail(f"serve.compute_ns percentiles out of order: {h}")
    cache_note = ""
    if final.get("serve.cache.lookups", 0) > 0:
        cache_note = (
            f", cache {final['serve.cache.hits']}"
            f"/{final['serve.cache.lookups']} hits"
        )
    print(
        f"check_serve_stats: {len(snaps)} snapshots OK — "
        f"served {final['serve.served']} in {final['serve.batches']} batches, "
        f"compute p50 {h['p50'] / 1e6:.3f} ms / p99 {h['p99'] / 1e6:.3f} ms"
        f"{cache_note}"
    )


def check_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            trace = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path} is not valid JSON: {e}")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path} has no traceEvents")
    names = {e.get("name") for e in events}
    missing = [s for s in STAGES if s not in names]
    if missing:
        fail(f"{path} missing serving-stage spans: {missing}")
    dropped = trace.get("droppedSpans", 0)
    if dropped:
        print(
            f"check_serve_stats: WARNING: {path} dropped {dropped} spans "
            f"to ring wrap-around — the export window is truncated",
            file=sys.stderr,
        )
    print(f"check_serve_stats: trace OK — {len(events)} spans, all six stages")


PROM_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
PROM_LINE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$"
)


def parse_prom(path):
    """Parse one text-exposition scrape into (samples, histograms).

    samples: {name-with-labels: float}; histograms: {base: [(le, cum), ...]}.
    Fails on any malformed line.
    """
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    samples = {}
    hists = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        m = PROM_LINE_RE.match(line)
        if not m:
            fail(f"{path}:{lineno} is not a valid exposition line: {line!r}")
        name, labels, raw = m.groups()
        try:
            value = float(raw)
        except ValueError:
            fail(f"{path}:{lineno} has a non-numeric value: {line!r}")
        samples[name + (labels or "")] = value
        if name.endswith("_bucket") and labels and 'le="' in labels:
            le = labels.split('le="', 1)[1].split('"', 1)[0]
            hists.setdefault(name[: -len("_bucket")], []).append((le, value))
    if not samples:
        fail(f"{path} contains no samples")
    return samples, hists


def check_prom(paths):
    prev = None
    for path in paths:
        samples, hists = parse_prom(path)
        for base, buckets in hists.items():
            edges = [le for le, _ in buckets if le != "+Inf"]
            cums = [c for le, c in buckets if le != "+Inf"]
            floats = [float(e) for e in edges]
            if floats != sorted(floats) or len(set(floats)) != len(floats):
                fail(f"{path}: {base} le edges not strictly ascending")
            if any(b < a for a, b in zip(cums, cums[1:])):
                fail(f"{path}: {base} cumulative bucket counts decreased")
            inf = [c for le, c in buckets if le == "+Inf"]
            if len(inf) != 1:
                fail(f"{path}: {base} must have exactly one +Inf bucket")
            count = samples.get(f"{base}_count")
            if count is None or inf[0] != count:
                fail(
                    f"{path}: {base} +Inf bucket {inf[0]} != _count {count}"
                )
        if prev is not None:
            prev_path, prev_samples = prev
            for key, old in prev_samples.items():
                new = samples.get(key)
                if new is None:
                    # The registry never drops a name and a non-empty bucket
                    # stays non-empty, so a vanished series is a defect.
                    fail(f"{path}: series {key} (in {prev_path}) vanished")
                # Counters: _total-less convention here — anything that is a
                # bucket/count/sum or a bare counter family must be monotone.
                # Gauges can move freely; restrict to known-cumulative shapes.
                if key.endswith(("_count", "_sum")) or "_bucket{" in key:
                    if new < old:
                        fail(
                            f"{path}: {key} went backwards vs {prev_path} "
                            f"({old} -> {new})"
                        )
                if key.startswith("obs_slo_") and key.endswith("_state"):
                    if old == 2 and new == 1:
                        fail(
                            f"{path}: SLO gauge {key} de-escalated breach -> "
                            f"warning vs {prev_path} (episodes are monotone; "
                            f"only a clean drop to ok may leave breach)"
                        )
        prev = (path, samples)
        print(
            f"check_serve_stats: prom scrape {path} OK — "
            f"{len(samples)} samples, {len(hists)} histograms"
        )


def check_slo(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path} is not valid JSON: {e}")
    slos = doc.get("slos")
    if not isinstance(slos, list) or not slos:
        fail(f"{path} has no slos list")
    for s in slos:
        name = s.get("name", "<unnamed>")
        if s.get("state") not in ("ok", "warning", "breach"):
            fail(f"{path}: slo {name} has bad state {s.get('state')!r}")
        if s.get("state_value") not in (0, 1, 2):
            fail(f"{path}: slo {name} has bad state_value")
        for k in ("fast_burn_rate", "slow_burn_rate"):
            v = s.get(k)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
                fail(f"{path}: slo {name} has bad {k}: {v!r}")
    print(f"check_serve_stats: slo OK — {len(slos)} monitors")


def main():
    args = sys.argv[1:]
    positional = []
    prom_paths = []
    slo_path = None
    i = 0
    while i < len(args):
        if args[i] == "--prom":
            i += 1
            if i >= len(args):
                fail("--prom needs a path")
            prom_paths.append(args[i])
        elif args[i] == "--slo":
            i += 1
            if i >= len(args):
                fail("--slo needs a path")
            slo_path = args[i]
        else:
            positional.append(args[i])
        i += 1
    if len(positional) < 1 or len(positional) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    check_stats(positional[0])
    if len(positional) == 2:
        check_trace(positional[1])
    if prom_paths:
        check_prom(prom_paths)
    if slo_path:
        check_slo(slo_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
