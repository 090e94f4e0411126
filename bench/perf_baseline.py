#!/usr/bin/env python3
"""Perf-baseline pipeline for the simulator substrate.

Runs the tracked BM_SweepCell_*, BM_EngineCell_*, BM_DestroySpace_*,
BM_KernelSetup_*, BM_IntegrityStep_*, BM_Sha256Block_*, BM_FormatF64_*,
BM_ChargeFlood_*, BM_SinkEncode_*, BM_ScanJsonl_*, BM_ReplicaFold_* and
BM_MergeJsonl benches of
bench/micro_substrate with google-benchmark's JSON reporter, REPETITIONS randomly interleaved times
each, takes each bench's median and either

  * distills the results into BENCH_sim.json at the repo root
    (``--out BENCH_sim.json``), carrying over any ``history`` entries the
    existing file holds (``--archive-current LABEL`` first moves the
    file's current numbers into that history), or

  * compares a fresh run against a checked-in baseline
    (``--check BENCH_sim.json``), failing with exit code 1 when any
    benchmark is more than ``--tolerance`` (default 0.30 = 30%) slower
    than the baseline — the CI perf-smoke gate.

``--ratio-floor SLOW/FAST:MIN`` (repeatable) additionally asserts that the
current run's SLOW benchmark takes at least MIN times as long as FAST.
Because both sides come from the same run on the same machine, the gate is
hardware-independent — it pins a speedup (e.g. the event-driven kernel
loop's >=3x over the slice-stepped loop on idle/IO-heavy cells), not an
absolute time. A MIN below 1 bounds a slowdown instead: address-space
teardown on 256 Ki frames of RAM must stay within 2x of teardown on 16 Ki
(BM_DestroySpace_ram16k/BM_DestroySpace_ram256k:0.5). The integrity pair
pins the watch filter: a step of an unwatched group must cost at most a
fifth of a chained step
(BM_IntegrityStep_all/BM_IntegrityStep_unwatched:5.0). The SHA-256 pair
pins the compression dispatch: the compression the library chose at run
time must never be slower than the portable reference
(BM_Sha256Block_portable/BM_Sha256Block_native:0.9). The formatter pair pins
the record encoder: std::to_chars must stay at least twice as fast as the
snprintf("%.17g") it replaced (BM_FormatF64_printf/BM_FormatF64_native:2.0).
The charge-flood pair bounds the metering service's cost on a NIC-flood
cell: the cell with TrustedMeteringService attached may take at most 1/0.75
of the hookless cell (BM_ChargeFlood_bare/BM_ChargeFlood_service:0.75).
The sink pair pins the record path's body memo: a 250-seed cell of copied
replicates must be encoded and rendered to CSV at least three times as fast
as one whose runs all differ
(BM_SinkEncode_distinct/BM_SinkEncode_replicated:3.0). The scan pair pins
the scanner's body memo: four 250-seed cells of copied replicates must scan
at least 1.5 times as fast as cells whose runs all differ, since a run body
that repeats the previous run's is read only up to its head
(BM_ScanJsonl_distinct/BM_ScanJsonl_replicated:1.5). The
replica-fold pair pins the O(1) fold of a copied replicate's metrics: a
250-seed seed-invariant cell run with kernel counters and telemetry may take
at most 1/0.6 of the same cell without them
(BM_ReplicaFold_plain/BM_ReplicaFold_metrics:0.6).

Only the Python standard library is used.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

SCHEMA = 1
# Each bench runs this many times, its repetitions shuffled among the other
# benches' (random interleaving), and reports its median. One pass per bench
# let a transient slowdown of the host land on one side of a ratio floor.
REPETITIONS = 5
DEFAULT_FILTER = "BM_((Sweep|Engine)Cell|DestroySpace|KernelSetup|IntegrityStep|Sha256Block|FormatF64|ChargeFlood|SinkEncode|ScanJsonl|ReplicaFold)_|BM_MergeJsonl"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def time_to_ms(value, unit):
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    return value * scale.get(unit, 1e-6)


def run_benches(binary, bench_filter, min_time):
    cmd = [
        binary,
        f"--benchmark_filter={bench_filter}",
        # A bare double keeps compatibility with google-benchmark < 1.8
        # (newer versions accept it with a deprecation note).
        f"--benchmark_min_time={min_time}",
        f"--benchmark_repetitions={REPETITIONS}",
        "--benchmark_enable_random_interleaving=true",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    report = json.loads(proc.stdout)
    runs = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") != "aggregate":
            runs.setdefault(b["run_name"], []).append(b)
    benches = {}
    for name, reps in runs.items():
        def med(key):
            return statistics.median(r[key] for r in reps)
        unit = reps[0].get("time_unit", "ns")
        entry = {
            "real_time_ms": round(time_to_ms(med("real_time"), unit), 6),
            "cpu_time_ms": round(time_to_ms(med("cpu_time"), unit), 6),
            "iterations": int(med("iterations")),
        }
        for counter, digits in (("virt_mcycles_per_sec", 3), ("items_per_second", 6)):
            if counter in reps[0]:
                entry[counter] = round(med(counter), digits)
        benches[name] = entry
    if not benches:
        sys.exit(f"error: no benchmarks matched filter {bench_filter!r}")
    return benches


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def write_baseline(path, benches, archive_label):
    history = []
    if os.path.exists(path):
        old = load_json(path)
        history = old.get("history", [])
        if archive_label:
            history.append({
                "label": archive_label,
                "generated": old.get("generated", {}),
                "benchmarks": old.get("benchmarks", {}),
            })
    doc = {
        "schema": SCHEMA,
        "generated": {
            "date": datetime.date.today().isoformat(),
            "cpu": cpu_model(),
            "note": "regenerate with: cmake --build build --target perf_baseline "
                    "(Release build; see README 'Performance')",
        },
        "benchmarks": benches,
        "history": history,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {path} ({len(benches)} benchmark(s), {len(history)} history entr(ies))")


def parse_ratio_floor(spec):
    """'BM_slow/BM_fast:3.0' -> (slow, fast, 3.0)."""
    pair, sep, floor = spec.rpartition(":")
    names = pair.split("/")
    if not sep or len(names) != 2 or not all(names):
        sys.exit(f"error: bad --ratio-floor {spec!r}, expected SLOW/FAST:MIN")
    try:
        return names[0], names[1], float(floor)
    except ValueError:
        sys.exit(f"error: bad --ratio-floor minimum in {spec!r}")


def check_ratio_floors(benches, floors):
    failures = []
    for slow, fast, floor in floors:
        missing = [n for n in (slow, fast) if n not in benches]
        if missing:
            failures.append(f"{slow}/{fast}: missing benchmark(s) {missing}")
            continue
        ratio = benches[slow]["real_time_ms"] / benches[fast]["real_time_ms"]
        status = "ok" if ratio >= floor else "TOO SLOW"
        print(f"ratio {slow}/{fast}: {ratio:.2f}x (floor {floor:.2f}x)  {status}")
        if ratio < floor:
            failures.append(
                f"{slow}/{fast}: {ratio:.2f}x, below the {floor:.2f}x floor")
    if failures:
        print(f"\nFAIL: {len(failures)} ratio floor(s) not met:")
        for f_ in failures:
            print(f"  - {f_}")
        return 1
    return 0


def check_against(path, benches, tolerance):
    baseline = load_json(path)
    if baseline.get("schema") != SCHEMA:
        sys.exit(f"error: {path} has schema {baseline.get('schema')}, expected {SCHEMA}")
    base = baseline.get("benchmarks", {})
    failures = []
    width = max((len(n) for n in base), default=20)
    print(f"{'benchmark':<{width}}  {'base ms':>10}  {'now ms':>10}  {'ratio':>6}")
    for name, b in sorted(base.items()):
        cur = benches.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        ratio = cur["real_time_ms"] / b["real_time_ms"] if b["real_time_ms"] else float("inf")
        flag = ""
        if ratio > 1.0 + tolerance:
            failures.append(f"{name}: {ratio:.2f}x slower than baseline "
                            f"({cur['real_time_ms']:.2f} ms vs {b['real_time_ms']:.2f} ms)")
            flag = "  REGRESSION"
        print(f"{name:<{width}}  {b['real_time_ms']:>10.2f}  {cur['real_time_ms']:>10.2f}  "
              f"{ratio:>6.2f}{flag}")
    for name in sorted(set(benches) - set(base)):
        print(f"note: {name} not in baseline (new benchmark?)")
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) beyond {tolerance:.0%} tolerance:")
        for f_ in failures:
            print(f"  - {f_}")
        return 1
    print(f"\nOK: all {len(base)} benchmark(s) within {tolerance:.0%} of baseline")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--binary", required=True, help="path to the micro_substrate binary")
    ap.add_argument("--filter", default=DEFAULT_FILTER,
                    help=f"benchmark name filter (default: {DEFAULT_FILTER})")
    ap.add_argument("--min-time", default="0.5", help="per-bench min time in seconds")
    ap.add_argument("--out", help="distill results into this baseline JSON file")
    ap.add_argument("--archive-current",
                    metavar="LABEL",
                    help="with --out: move the existing file's numbers into history "
                         "under LABEL before overwriting")
    ap.add_argument("--check", metavar="BASELINE",
                    help="compare a fresh run against BASELINE instead of writing")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed slowdown fraction for --check (default 0.30)")
    ap.add_argument("--save-current", metavar="PATH",
                    help="with --check: also write the raw current numbers to PATH")
    ap.add_argument("--ratio-floor", action="append", default=[],
                    metavar="SLOW/FAST:MIN",
                    help="assert current real_time(SLOW)/real_time(FAST) >= MIN "
                         "(repeatable; hardware-independent speedup gate)")
    args = ap.parse_args()
    if bool(args.out) == bool(args.check):
        ap.error("exactly one of --out / --check is required")
    floors = [parse_ratio_floor(s) for s in args.ratio_floor]

    benches = run_benches(args.binary, args.filter, args.min_time)
    ratio_rc = check_ratio_floors(benches, floors)

    if args.out:
        write_baseline(args.out, benches, args.archive_current)
        return ratio_rc
    if args.save_current:
        with open(args.save_current, "w", encoding="utf-8") as f:
            json.dump({"schema": SCHEMA, "benchmarks": benches}, f, indent=2)
            f.write("\n")
    return max(ratio_rc, check_against(args.check, benches, args.tolerance))


if __name__ == "__main__":
    sys.exit(main())
