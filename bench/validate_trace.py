#!/usr/bin/env python3
"""Validates observability artifacts: Perfetto trace JSONs and metrics.json.

Trace files (mtr_sweep --trace-dir) must parse as Chrome trace-event JSON,
carry the mtr-trace-1 schema tag, contain well-formed events (known phase
types, numeric timestamps, metadata naming every referenced track, a
consistent per-attack "cat" category when tagged), and have a consistent
recorded/dropped accounting: counter ("C") samples are derived views, so
only spans + instants balance against the ring. Metrics files (mtr_sweep
--metrics, or mtr_merge --metrics) must carry metrics schema v2 with the
full kernel counter set, phase entries, pool utilization, and the
telemetry sections (time-series gauge buckets and quantile sketches, with
internally consistent counts) per sweep.

usage: validate_trace.py [TRACE.json...] [--metrics METRICS.json]...
                         [--expect-shards N]

Stdlib only; exits non-zero with a message naming the offending file and
field on the first violation.
"""

import argparse
import json
import sys

TRACE_SCHEMA = "mtr-trace-1"
METRICS_SCHEMA = 2

SERIES_NAMES = [
    "run_queue",
    "runnable",
    "free_frames",
    "event_depth",
    "victim_gap",
]

SKETCH_NAMES = ["billing_error", "charge_batch", "cell_seconds"]

KERNEL_COUNTERS = [
    "events_popped",
    "idle_leaps",
    "running_leaps",
    "ticks_coalesced",
    "timer_ticks",
    "charges_enqueued",
    "charge_flushes",
    "context_switches",
    "stale_events",
    "max_event_queue_depth",
]


class Violation(SystemExit):
    def __init__(self, path: str, message: str):
        super().__init__(f"validate_trace: {path}: {message}")


def require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise Violation(path, message)


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise Violation(path, f"unreadable or invalid JSON: {e}")


def validate_trace(path: str) -> dict:
    doc = load_json(path)
    require(isinstance(doc, dict), path, "top level is not an object")
    other = doc.get("otherData")
    require(isinstance(other, dict), path, "missing otherData")
    require(
        other.get("schema") == TRACE_SCHEMA,
        path,
        f"schema tag {other.get('schema')!r} != {TRACE_SCHEMA!r}",
    )
    for key in ("recorded", "dropped", "cpu_hz", "timer_hz"):
        require(is_number(other.get(key)), path, f"otherData.{key} is not a number")
    recorded, dropped = other["recorded"], other["dropped"]
    require(0 <= dropped <= recorded, path, f"dropped {dropped} out of range [0, {recorded}]")

    events = doc.get("traceEvents")
    require(isinstance(events, list) and events, path, "traceEvents missing or empty")

    named_tracks = set()
    categories = set()
    tagged = untagged = 0
    spans = instants = counters = 0
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        require(isinstance(e, dict), path, f"{where} is not an object")
        ph = e.get("ph")
        require(
            ph in ("M", "X", "i", "C"),
            path,
            f"{where} has unknown phase {ph!r}",
        )
        require(is_number(e.get("pid")), path, f"{where} has no numeric pid")
        if ph == "M":
            require(
                e.get("name") in ("process_name", "thread_name"),
                path,
                f"{where} metadata kind {e.get('name')!r}",
            )
            require(
                isinstance(e.get("args", {}).get("name"), str),
                path,
                f"{where} metadata has no args.name string",
            )
            if e["name"] == "thread_name":
                named_tracks.add(e.get("tid"))
            continue
        # The exporter stamps one per-attack category on every non-metadata
        # event, or on none of them — a mix means two traces were spliced.
        if "cat" in e:
            cat = e["cat"]
            require(
                isinstance(cat, str) and bool(cat),
                path,
                f"{where} category is not a non-empty string",
            )
            categories.add(cat)
            tagged += 1
        else:
            untagged += 1
        require(is_number(e.get("ts")), path, f"{where} has no numeric ts")
        require(isinstance(e.get("name"), str), path, f"{where} has no name")
        if ph == "X":
            spans += 1
            require(is_number(e.get("dur")), path, f"{where} span has no dur")
            require(e["dur"] >= 0, path, f"{where} span has negative dur")
            require(
                is_number(e.get("args", {}).get("cycles")),
                path,
                f"{where} span has no args.cycles",
            )
        elif ph == "i":
            instants += 1
            require(e.get("s") in ("t", "p", "g"), path, f"{where} instant scope {e.get('s')!r}")
        else:  # C
            counters += 1
            args = e.get("args", {})
            name = e["name"]
            if name.startswith("series:"):
                require(
                    name[len("series:"):] in SERIES_NAMES,
                    path,
                    f"{where} counter names unknown telemetry series {name!r}",
                )
                require(
                    is_number(args.get("avg")) and is_number(args.get("max")),
                    path,
                    f"{where} telemetry counter lacks avg/max",
                )
            elif name == "victim cpu-seconds":
                require(
                    is_number(args.get("billed")) and is_number(args.get("true")),
                    path,
                    f"{where} counter lacks billed/true series",
                )
            else:
                raise Violation(path, f"{where} unknown counter track {name!r}")

    # Every span/instant rides a thread track the metadata named (tid 0 =
    # idle is always declared first).
    for i, e in enumerate(events):
        if e.get("ph") in ("X", "i"):
            require(
                e.get("tid") in named_tracks,
                path,
                f"traceEvents[{i}] references unnamed tid {e.get('tid')!r}",
            )

    require(
        tagged == 0 or untagged == 0,
        path,
        f"{tagged} events carry a category but {untagged} do not",
    )
    require(
        len(categories) <= 1,
        path,
        f"conflicting categories {sorted(categories)}",
    )

    # Ring accounting is exact: every kept ring event exports as one span or
    # one instant, plus the one terminator instant the exporter appends.
    # Counter samples are derived views (billed/true integrals, telemetry
    # bucket averages), not ring events, so they stay out of the balance.
    kept = spans + instants
    require(
        kept == recorded - dropped + 1,
        path,
        f"{kept} spans+instants but ring kept {recorded - dropped} events",
    )
    return {
        "spans": spans,
        "instants": instants,
        "counters": counters,
        "dropped": dropped,
        "category": next(iter(categories)) if categories else None,
    }


def validate_series(path: str, where: str, name: str, series) -> None:
    w = f"{where}: series.{name}"
    require(isinstance(series, dict), path, f"{w} is not an object")
    width = series.get("width")
    require(isinstance(width, int) and width >= 1, path, f"{w}: bad width")
    buckets = series.get("buckets")
    require(isinstance(buckets, list), path, f"{w}: buckets is not a list")
    for i, row in enumerate(buckets):
        require(
            isinstance(row, list)
            and len(row) == 4
            and all(isinstance(v, int) and not isinstance(v, bool) for v in row),
            path,
            f"{w}: buckets[{i}] is not a [count, min, max, sum] integer row",
        )
        count, lo, hi, total = row
        require(count >= 0, path, f"{w}: buckets[{i}] has negative count")
        if count > 0:
            require(
                lo <= hi and count * lo <= total <= count * hi,
                path,
                f"{w}: buckets[{i}] min/max/sum are inconsistent",
            )


def validate_sketch(path: str, where: str, name: str, sketch) -> None:
    w = f"{where}: sketches.{name}"
    require(isinstance(sketch, dict), path, f"{w} is not an object")
    count, zero = sketch.get("count"), sketch.get("zero")
    require(isinstance(count, int) and count >= 0, path, f"{w}: bad count")
    require(isinstance(zero, int) and 0 <= zero <= count, path, f"{w}: bad zero")
    require(
        is_number(sketch.get("min")) and is_number(sketch.get("max")),
        path,
        f"{w}: min/max are not numbers",
    )
    if count > 0:
        require(sketch["min"] <= sketch["max"], path, f"{w}: min exceeds max")
    bucketed = zero
    for key in ("neg", "pos"):
        rows = sketch.get(key)
        require(isinstance(rows, list), path, f"{w}: {key} is not a list")
        for i, row in enumerate(rows):
            require(
                isinstance(row, list)
                and len(row) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in row)
                and row[1] >= 1,
                path,
                f"{w}: {key}[{i}] is not an [index, n>=1] integer row",
            )
            bucketed += row[1]
    require(
        bucketed == count,
        path,
        f"{w}: bucket populations sum to {bucketed}, count says {count}",
    )


def validate_metrics(path: str, expect_shards: int | None) -> dict:
    doc = load_json(path)
    require(isinstance(doc, dict), path, "top level is not an object")
    schema = doc.get("schema")
    require(
        schema == METRICS_SCHEMA,
        path,
        f"metrics schema {schema!r} != {METRICS_SCHEMA}",
    )
    require(doc.get("record") == "metrics", path, "record tag is not 'metrics'")
    require(
        isinstance(doc.get("shards"), int) and doc["shards"] >= 1,
        path,
        "shards is not a positive integer",
    )
    if expect_shards is not None:
        require(
            doc["shards"] == expect_shards,
            path,
            f"shards {doc['shards']} != expected {expect_shards}",
        )

    sweeps = doc.get("sweeps")
    require(isinstance(sweeps, list) and sweeps, path, "sweeps missing or empty")
    for s in sweeps:
        name = s.get("sweep") if isinstance(s, dict) else None
        where = f"sweep {name!r}"
        require(isinstance(name, str) and name, path, f"{where}: bad sweep name")
        for key in ("cells", "runs"):
            require(
                isinstance(s.get(key), int) and s[key] >= 0,
                path,
                f"{where}: {key} is not a non-negative integer",
            )
        require(s["runs"] >= s["cells"], path, f"{where}: fewer runs than cells")
        for key in ("cell_wall_seconds", "max_cell_seconds"):
            require(is_number(s.get(key)) and s[key] >= 0, path, f"{where}: bad {key}")
        require(
            s["max_cell_seconds"] <= s["cell_wall_seconds"] or s["cells"] == 0,
            path,
            f"{where}: straggler exceeds total wall",
        )

        kernel = s.get("kernel")
        require(isinstance(kernel, dict), path, f"{where}: kernel block missing")
        require(
            list(kernel.keys()) == KERNEL_COUNTERS,
            path,
            f"{where}: kernel counters {list(kernel.keys())} != {KERNEL_COUNTERS}",
        )
        for key, value in kernel.items():
            require(
                isinstance(value, int) and value >= 0,
                path,
                f"{where}: kernel.{key} is not a non-negative integer",
            )
        require(
            kernel["timer_ticks"] > 0 or s["runs"] == 0,
            path,
            f"{where}: a sweep with runs recorded no timer ticks",
        )
        require(
            kernel["ticks_coalesced"] <= kernel["timer_ticks"],
            path,
            f"{where}: more coalesced ticks than ticks",
        )

        phases = s.get("phases")
        require(isinstance(phases, list) and phases, path, f"{where}: phases missing")
        for ph in phases:
            require(
                isinstance(ph, dict)
                and isinstance(ph.get("name"), str)
                and isinstance(ph.get("count"), int)
                and is_number(ph.get("seconds")),
                path,
                f"{where}: malformed phase entry {ph!r}",
            )

        pool = s.get("pool")
        require(isinstance(pool, dict), path, f"{where}: pool block missing")
        require(
            isinstance(pool.get("threads"), int) and pool["threads"] >= 1,
            path,
            f"{where}: pool.threads is not a positive integer",
        )
        require(is_number(pool.get("wall_seconds")), path, f"{where}: bad pool.wall_seconds")
        busy = pool.get("busy_seconds")
        require(
            isinstance(busy, list) and all(is_number(b) and b >= 0 for b in busy),
            path,
            f"{where}: bad pool.busy_seconds",
        )
        require(
            len(busy) <= pool["threads"],
            path,
            f"{where}: more busy slots than pool threads",
        )

        # The full fixed section layout, even when a series or sketch
        # recorded nothing.
        series = s.get("series")
        require(isinstance(series, dict), path, f"{where}: series block missing")
        require(
            list(series.keys()) == SERIES_NAMES,
            path,
            f"{where}: series {list(series.keys())} != {SERIES_NAMES}",
        )
        for name, entry in series.items():
            validate_series(path, where, name, entry)
        sketches = s.get("sketches")
        require(
            isinstance(sketches, dict), path, f"{where}: sketches block missing"
        )
        require(
            list(sketches.keys()) == SKETCH_NAMES,
            path,
            f"{where}: sketches {list(sketches.keys())} != {SKETCH_NAMES}",
        )
        for name, entry in sketches.items():
            validate_sketch(path, where, name, entry)
    return {"sweeps": len(sweeps), "shards": doc["shards"], "schema": schema}


def main() -> None:
    parser = argparse.ArgumentParser(add_help=True)
    parser.add_argument("traces", nargs="*", help="Perfetto trace JSON files")
    parser.add_argument(
        "--metrics", action="append", default=[], help="metrics.json file (repeatable)"
    )
    parser.add_argument(
        "--expect-shards", type=int, default=None, help="required shards stamp"
    )
    args = parser.parse_args()
    if not args.traces and not args.metrics:
        raise SystemExit("validate_trace: nothing to validate (no traces, no --metrics)")

    for path in args.traces:
        info = validate_trace(path)
        cat = f", cat {info['category']}" if info["category"] else ""
        print(
            f"validate_trace: {path}: ok "
            f"({info['spans']} spans, {info['instants']} instants, "
            f"{info['counters']} counter samples, {info['dropped']} dropped{cat})"
        )
    for path in args.metrics:
        info = validate_metrics(path, args.expect_shards)
        print(
            f"validate_trace: {path}: ok "
            f"(schema {info['schema']}, {info['sweeps']} sweep(s), "
            f"{info['shards']} shard(s))"
        )


if __name__ == "__main__":
    main()
