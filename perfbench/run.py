#!/usr/bin/env python3
"""The metertrust benchmark.

Drives the real binaries on three workloads and prints their end-to-end
metrics, or, with --trace 1, their per-layer metrics. Run it from the root
of a checkout:

    python3 perfbench/run.py --workload fork_storm --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 30 --trace 0

It builds perfbench/ (which pulls in the whole source tree) into
.bench_build/, works in .bench_work/, and prints one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}.

Every time is host time. The simulated statistics are deterministic, so they
are checked for byte identity (SHA-256 of every CSV/JSONL artifact) and never
timed. The workload seed is forwarded as --first-seed; the artifacts of the
baseline and held-out seeds are pinned in perfbench/digests.json.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
TMP = os.path.join(WORK, "tmp")
BIN = os.path.join(BUILD, "metertrust", "bench")
PROBE = os.path.join(BUILD, "mtr_probe")
DIGESTS = os.path.join(HERE, "digests.json")
LAYERS = os.path.join(HERE, "layers.json")

# The invocations, shrunk from the issue's full-size ones so that one run
# repeats each several times and reports medians. "ram" is the machine shape
# the mm probe uses: fork_storm's cells run on the default 16 Ki frames,
# the flood sweeps' exception-flood cells on Fig. 11's 4 Ki frames.
WORKLOADS = {
    "fork_storm": {
        "program": "mtr_sweep",
        "sweeps": ["fig07", "fig08", "tab_scheduler_ablation", "tab_tick_granularity"],
        "scale": 0.06, "seeds": 3, "threads": 4, "ram": (16384, 256),
    },
    "device_flood": {
        "program": "mtr_sweep",
        "sweeps": ["fig09", "fig10", "fig11", "abl_ramsize", "abl_ptrace"],
        "scale": 0.3, "seeds": 3, "threads": 4, "ram": (4096, 64),
    },
    "fleet_pipeline": {
        "program": "mtr_fleet",
        "sweeps": ["fig04", "fig05", "fig06", "fig11", "pop_interference"],
        "scale": 0.002, "seeds": 250, "threads": 1, "shards": 4, "ram": (4096, 64),
    },
}

SETUP_PASSES = 41      # dry runs per benchmark run; setup_s is their median
MIN_REPS = 3           # timed invocations per run, at least
REFERENCE_THREADS = 4  # the unsharded reference run of the fleet's sweeps


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    # The binaries read MTR_* defaults from the environment; pin them all.
    # Compilers and tools keep their temporary files inside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MTR_")}
    env["MTR_BENCH_PROGRESS"] = "0"
    env["TMPDIR"] = TMP
    return env


def build():
    os.makedirs(TMP, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=subprocess.DEVNULL, env=child_env()).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
           "mtr_sweep", "mtr_fleet", "mtr_merge", "mtr_probe"]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL, env=child_env()).returncode != 0:
        raise BenchError("build failed")


def launch(cmd, log_path):
    """Runs cmd to completion; returns (wall_s, cpu_s, peak_rss_mb, rc).

    wait4 reports the child's usage together with every descendant it
    reaped, so cpu_s and peak RSS cover a fleet's shard processes too."""
    with open(log_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode


class Spans:
    """Benchmark-side trace: spans kept in memory, written once at the end."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []

    def add(self, name, start, dur, parent=None, tid=1, **args):
        self.spans.append({"name": name, "start": start - self.t0, "dur": dur,
                           "parent": parent, "tid": tid, "args": args})
        return len(self.spans) - 1

    def self_times(self):
        """Total self time per span name: a span's duration minus the part
        of its interval that its children cover. Children may run in
        parallel (fleet shards), so coverage is the union of their intervals."""
        children = [[] for _ in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["start"] + s["dur"]))
        totals = {}
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children[i]):
                a, b = max(a, reach), min(b, s["start"] + s["dur"])
                if b > a:
                    covered += b - a
                    reach = b
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["dur"] - covered
        return sorted(totals.items(), key=lambda kv: -kv[1])

    def write(self, path):
        events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": s["tid"],
                   "ts": s["start"] * 1e6, "dur": s["dur"] * 1e6,
                   "args": dict(s["args"], id=i, parent=s["parent"])}
                  for i, s in enumerate(self.spans)]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


class Workload:
    def __init__(self, name, seed, spans):
        self.name = name
        self.cfg = WORKLOADS[name]
        self.seed = seed
        self.spans = spans
        self.dir = os.path.join(WORK, name)
        self.fleet = self.cfg["program"] == "mtr_fleet"
        self.planned_runs = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def shape(self, threads=None):
        c = self.cfg
        return ["--scale", repr(c["scale"]), "--seeds", str(c["seeds"]),
                "--first-seed", str(self.seed),
                "--threads", str(threads or c["threads"])]

    def sweep_cmd(self, out, threads=None):
        return [os.path.join(BIN, "mtr_sweep"), *self.cfg["sweeps"],
                *self.shape(threads), "--out-dir", out, "--quiet", "--no-progress"]

    def command(self, out, traced):
        if self.fleet:
            return [os.path.join(BIN, "mtr_fleet"), *self.cfg["sweeps"], *self.shape(),
                    "--shards", str(self.cfg["shards"]), "--out-dir", out, "--quiet"]
        cmd = self.sweep_cmd(out)
        return cmd + ["--metrics", os.path.join(out, "metrics.json")] if traced else cmd

    def artifacts(self, out):
        """The CSV/JSONL files an invocation writing into `out` leaves."""
        d = os.path.join(out, "merged") if self.fleet else out
        return self.sweep_files(d)

    def sweep_files(self, d):
        return [os.path.join(d, s + ext) for s in self.cfg["sweeps"] for ext in (".csv", ".jsonl")]

    # --- set-up: the planning pass mtr_fleet also runs as its preflight ----

    def setup(self, parent):
        walls = []
        plan_log = os.path.join(self.dir, "plan.log")
        cmd = [os.path.join(BIN, "mtr_sweep"), *self.cfg["sweeps"], *self.shape(), "--dry-run"]
        for _ in range(SETUP_PASSES):
            start = time.perf_counter()
            wall, _, _, rc = launch(cmd, plan_log)
            self.spans.add("setup.dry_run", start, wall, parent)
            if rc != 0:
                raise BenchError(f"{self.name}: dry run exited {rc}")
            walls.append(wall)
        with open(plan_log) as f:
            cells = sum(int(b) - int(a) for a, b in re.findall(r"cells \[(\d+),(\d+)\)", f.read()))
        if cells == 0:
            raise BenchError(f"{self.name}: dry run planned no cells")
        self.planned_runs = cells * self.cfg["seeds"]
        return statistics.median(walls)

    # --- one invocation ----------------------------------------------------

    @staticmethod
    def digest(paths):
        """{file name: sha256} and the number of run rows across the CSVs."""
        digests, rows = {}, 0
        for path in paths:
            h = hashlib.sha256()
            with open(path, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
                    if path.endswith(".csv"):
                        rows += chunk.count(b"\n")
            if path.endswith(".csv"):
                rows -= 1  # header
            digests[os.path.basename(path)] = h.hexdigest()
        return digests, rows

    def invoke(self, tag, parent, traced=False):
        out = os.path.join(self.dir, tag)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        epoch = time.time()
        start = time.perf_counter()
        wall, cpu, rss, rc = launch(self.command(out, traced), out + ".log")
        span = self.spans.add("invoke." + tag, start, wall, parent, traced=traced)
        self.attempted += 1
        rep = {"out": out, "epoch": epoch, "start": start, "span": span, "wall": wall,
               "cpu": cpu, "rss": rss, "rc": rc, "digests": None, "retries": 0}
        if self.fleet:
            rep["retries"] = self.fleet_retries(out)
        try:
            if rc != 0:
                raise BenchError(f"exit code {rc} (log: {out}.log)")
            rep["digests"], rows = self.digest(self.artifacts(out))
            if rows != self.planned_runs:
                raise BenchError(f"{rows} run rows, planned {self.planned_runs}")
        except (BenchError, OSError) as e:
            self.fail(f"{tag}: {e}")
            rep["digests"] = None
        return rep

    def fail(self, why):
        self.failed += 1
        self.problems.append(why)
        log(f"{self.name}: FAILED {why}")

    def shard_dirs(self, out):
        """Where the processes that ran cells wrote: each fleet shard's
        directory, or the single sweep's output directory."""
        if not self.fleet:
            return [out]
        return [os.path.join(out, f"shard{i}") for i in range(self.cfg["shards"])]

    def fleet_retries(self, out):
        retries = 0
        for d in self.shard_dirs(out):
            attempts = [n for n in os.listdir(d) if n.startswith("attempt")] if os.path.isdir(d) else []
            retries += max(0, len(attempts) - 1)
        return retries

    # --- correctness ---------------------------------------------------------

    def reference_digests(self, parent):
        """The fleet's merged files must equal an unsharded run."""
        out = os.path.join(self.dir, "reference")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        start = time.perf_counter()
        wall, _, _, rc = launch(self.sweep_cmd(out, REFERENCE_THREADS), out + ".log")
        self.spans.add("reference", start, wall, parent)
        if rc != 0:
            raise BenchError(f"{self.name}: reference mtr_sweep exited {rc}")
        return self.digest(self.sweep_files(out))[0]

    def check(self, reps, parent):
        """Counts every invocation whose artifacts differ from the expected
        ones: the pinned digests for this seed when there are some, else the
        unsharded reference (fleet) or the first successful invocation."""
        pinned = load_digests().get(self.name, {}).get(str(self.seed))
        expected = pinned
        if self.fleet:
            ref = self.reference_digests(parent)
            if pinned is not None and ref != pinned:
                self.problems.append("unsharded reference differs from pinned digests")
            expected = expected or ref
        ok = [r for r in reps if r["digests"] is not None]
        if expected is None and ok:
            expected = ok[0]["digests"]
        for r in ok:
            if r["digests"] != expected:
                self.fail(f"{os.path.basename(r['out'])}: artifacts differ from "
                          + ("pinned digests" if pinned else "the reference"))
                r["digests"] = None
        return expected

    # --- the runs --------------------------------------------------------------

    def measure(self, seconds):
        os.makedirs(self.dir, exist_ok=True)
        root = self.spans.add("run." + self.name, time.perf_counter(), 0.0)
        setup_s = self.setup(root)
        warmup = self.invoke("warmup", root)
        reps = []
        deadline = time.perf_counter() + seconds
        while len(reps) < MIN_REPS or time.perf_counter() < deadline:
            reps.append(self.invoke("timed", root))
        digests = self.check([warmup] + reps, root)
        # Timings count whenever the program ran to completion; wrong
        # artifacts make the run incorrect, not unmeasured.
        good = [r for r in reps if r["rc"] == 0]
        if not good:
            raise BenchError(f"{self.name}: every invocation failed")
        med = lambda key: statistics.median(r[key] for r in good)
        metrics = {
            "wall_s": med("wall"),
            "runs_per_s": statistics.median(self.planned_runs / r["wall"] for r in good),
            "cpu_s": med("cpu"),
            "peak_rss_mb": med("rss"),
            "setup_s": setup_s,
        }
        self.close(root)
        return metrics, digests, len(good)

    def close(self, root):
        s = self.spans.spans[root]
        s["dur"] = time.perf_counter() - self.spans.t0 - s["start"]

    def trace(self, seconds):
        os.makedirs(self.dir, exist_ok=True)
        root = self.spans.add("run." + self.name, time.perf_counter(), 0.0)
        self.setup(root)
        warmup = self.invoke("warmup", root)
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while len(traced) < 2 or time.perf_counter() < deadline:
            plain.append(self.invoke("untraced", root))
            traced.append(self.invoke("traced", root, traced=True))
        self.check([warmup] + plain + traced, root)
        last = traced[-1]
        if last["digests"] is None:
            raise BenchError(f"{self.name}: the last traced invocation failed")
        out = last["out"]
        wall = last["wall"]

        layer = {}
        layer.update(self.metrics_layers(last))
        layer["dist.merge_s"] = self.merge(out, root)
        layer["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                     - statistics.median(r["wall"] for r in plain))
        layer["dist.fleet.retries"] = float(sum(r["retries"] for r in plain + traced))
        layer.update(self.probe(out, root))
        self.close(root)
        sweep_times = self.sweep_phases(out)
        return layer, sweep_times, wall

    # --- per-layer metrics from the program's own metrics.json -----------------

    def metrics_docs(self, out):
        """One metrics.json per process that ran cells: the shards for the
        fleet, the single sweep process otherwise."""
        docs = []
        for p in (os.path.join(d, "metrics.json") for d in self.shard_dirs(out)):
            with open(p) as f:
                docs.append((p, json.load(f)))
        return docs

    @staticmethod
    def phase(sweep, name):
        return sum(p["seconds"] for p in sweep["phases"] if p["name"] == name)

    def sweep_phases(self, out):
        times = {}
        for _, doc in self.metrics_docs(out):
            for s in doc["sweeps"]:
                times[s["sweep"]] = max(times.get(s["sweep"], 0.0), self.phase(s, "sweep"))
        return times

    def metrics_layers(self, rep):
        out, wall = rep["out"], rep["wall"]
        docs = self.metrics_docs(out)
        sweeps = [s for _, doc in docs for s in doc["sweeps"]]
        k = lambda key: sum(s["kernel"][key] for s in sweeps)
        # Per process that ran cells: pool slots, worker busy seconds, sweep
        # phase seconds (the shard's busy time) and the part of the phase
        # its workers did not spend computing cells.
        slots, busy, shard_busy, overhead = 0, 0.0, [], []
        for _, doc in docs:
            threads = max(s["pool"]["threads"] for s in doc["sweeps"])
            phase = sum(self.phase(s, "sweep") for s in doc["sweeps"])
            cell_wall = sum(s["cell_wall_seconds"] for s in doc["sweeps"])
            slots += threads
            busy += sum(sum(s["pool"]["busy_seconds"]) for s in doc["sweeps"])
            shard_busy.append(phase)
            overhead.append(phase - cell_wall / threads)
        supervise = wall
        if self.fleet:
            # The fleet merges once the last shard has published its final
            # metrics.json; everything before that is supervision.
            last_shard = max(os.path.getmtime(p) for p, _ in docs)
            supervise = last_shard - rep["epoch"]
            for i, (p, _) in enumerate(docs):
                self.spans.add(f"shard{i}", rep["start"], os.path.getmtime(p) - rep["epoch"],
                               rep["span"], tid=2 + i)
            merged = os.path.join(out, "merged", "metrics.json")
            self.spans.add("fleet.merge", rep["start"] + supervise,
                           os.path.getmtime(merged) - last_shard, rep["span"])
        return {
            "kernel.events_popped": float(k("events_popped")),
            "kernel.context_switches": float(k("context_switches")),
            "kernel.charges_per_flush": k("charges_enqueued") / max(1, k("charge_flushes")),
            "core.pool.util": busy / (slots * wall),
            "core.pool.serial_s": sum(self.phase(s, "sweep") - self.phase(s, "grid") for s in sweeps),
            "dist.shard_skew": max(shard_busy) / statistics.mean(shard_busy),
            "dist.shard_overhead_s": statistics.mean(overhead),
            "dist.fleet.supervise_s": supervise,
        }

    def merge(self, out, parent):
        """mtr_merge over the workload's own outputs (the fleet's shard files,
        or a sweep's single output set); the result must equal what the
        program itself wrote."""
        dest = os.path.join(self.dir, "remerged")
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        dirs = self.shard_dirs(out)
        merge_bin = os.path.join(BIN, "mtr_merge")
        total = 0.0
        jobs = [(s, [os.path.join(d, s + ext) for ext in (".csv", ".jsonl") for d in dirs],
                 ["--csv", os.path.join(dest, s + ".csv"), "--jsonl", os.path.join(dest, s + ".jsonl")])
                for s in self.cfg["sweeps"]]
        jobs.append(("metrics", [os.path.join(d, "metrics.json") for d in dirs],
                     ["--metrics", os.path.join(dest, "metrics.json")]))
        span_start = time.perf_counter()
        span = self.spans.add("merge", span_start, 0.0, parent)
        for name, inputs, outputs in jobs:
            start = time.perf_counter()
            wall, _, _, rc = launch([merge_bin, *inputs, *outputs], os.path.join(dest, name + ".log"))
            self.spans.add("merge." + name, start, wall, span)
            if rc != 0:
                raise BenchError(f"{self.name}: mtr_merge {name} exited {rc}")
            total += wall
        self.spans.spans[span]["dur"] = time.perf_counter() - span_start
        for path in self.artifacts(out):
            with open(path, "rb") as a, open(os.path.join(dest, os.path.basename(path)), "rb") as b:
                if a.read() != b.read():
                    self.problems.append(f"mtr_merge of {os.path.basename(path)} differs "
                                         "from the program's output")
        return total

    def probe(self, out, parent):
        arts = self.artifacts(out)
        metrics = os.path.join(os.path.dirname(arts[0]), "metrics.json")
        frames, batch = self.cfg["ram"]
        cmd = [PROBE, "--scale", repr(self.cfg["scale"]), "--seed", str(self.seed),
               "--ram-frames", str(frames), "--reclaim-batch", str(batch),
               "--sweeps", ",".join(self.cfg["sweeps"]), "--metrics", metrics,
               "--tmp-dir", self.dir]
        for a in arts:
            cmd += ["--csv" if a.endswith(".csv") else "--jsonl", a]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT)
        dur = time.perf_counter() - start
        span = self.spans.add("probe", start, dur, parent)
        if proc.returncode != 0:
            raise BenchError(f"{self.name}: mtr_probe exited {proc.returncode}: {proc.stderr.strip()}")
        layer = {}
        for line in proc.stdout.splitlines():
            rec = json.loads(line)
            self.spans.add("probe." + rec["probe"], start + rec["start_s"], rec["dur_s"], span)
            layer.update(rec["metrics"])
        return layer


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_digests():
    return load_json(DIGESTS)["workloads"] if os.path.exists(DIGESTS) else {}


def record_digests(name, seed, digests):
    doc = load_json(DIGESTS) if os.path.exists(DIGESTS) else {"workloads": {}}
    doc["workloads"].setdefault(name, {})[str(seed)] = digests
    with open(DIGESTS, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def report(metrics, spec):
    """{name: {"value", "unit"}} for every metric BENCHMARK.json lists."""
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="pin this seed's artifact digests in perfbench/digests.json")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        build()
        os.makedirs(WORK, exist_ok=True)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        spans = Spans()
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            w = Workload(name, args.seed, spans)
            if args.trace:
                layer, sweep_times, wall = w.trace(args.seconds)
                values = report(layer, bench["per_layer"])
                moves = load_json(LAYERS)["layers"] if os.path.exists(LAYERS) else {}
                print(f"== {name} (traced, seed {args.seed}): per-layer metrics, host time")
                for k, v in values.items():
                    print(f"  {k:32s} {v['value']:14.6g} {v['unit']:6s} {moves.get(k, '')}")
                for s, t in sweep_times.items():
                    print(f"  sweep.{s}.s{'':{max(1, 24 - len(s))}s} {t:14.6g} s")
                print(f"  traced wall_s {wall:.4f}")
            else:
                e2e, digests, timed = w.measure(args.seconds)
                values = report(e2e, bench["end_to_end"])
                if args.record_digests and w.failed == 0:
                    record_digests(name, args.seed, digests)
                print(f"== {name} (seed {args.seed}): medians of {timed} timed invocations")
                for k, v in values.items():
                    print(f"  {k:12s} {v['value']:12.6g} {v['unit']}")
                print(f"  {'failed_frac':12s} {w.failed / w.attempted:12.6g} 1"
                      f"  ({w.failed} of {w.attempted} invocations)")
            for p in w.problems:
                print(f"  problem: {p}")
            result["correct"] = result["correct"] and not w.problems and w.failed == 0
            result["attempted"] += w.attempted
            result["failed"] += w.failed
            prefix = "" if len(names) == 1 else name + "."
            result["metrics"].update({prefix + k: v for k, v in values.items()})
        if args.trace:
            trace_path = os.path.join(WORK, "trace.json")
            spans.write(trace_path)
            print(f"== self time by span (benchmark side; {trace_path})")
            for span, t in spans.self_times():
                print(f"  {span:32s} {t:10.4f} s")
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"benchmark error: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
