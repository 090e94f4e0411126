#include "dist/driver.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/ensure.hpp"
#include "dist/flags.hpp"
#include "dist/metrics.hpp"
#include "dist/records.hpp"
#include "dist/resume.hpp"
#include "dist/status.hpp"
#include "report/progress.hpp"
#include "trace/metrics.hpp"

namespace mtr::dist {
namespace {

/// Swallows everything; backs SweepContext::out under --quiet/--dry-run.
class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int ch) override { return ch; }
};

std::ostream& null_stream() {
  static NullBuffer buffer;
  static std::ostream os(&buffer);
  return os;
}

constexpr const char* kUsage =
    "usage: mtr_sweep [options] [sweep...]\n"
    "\n"
    "  --list             list registered sweeps and exit\n"
    "  --all              run every registered sweep\n"
    "  --csv PATH         append run records to one shared CSV file\n"
    "  --jsonl PATH       append run + cell records to one shared JSONL file\n"
    "  --out-dir DIR      write fresh <sweep>.csv and <sweep>.jsonl per sweep\n"
    "  --trace-dir DIR    record kernel event traces and write one\n"
    "                     Chrome/Perfetto trace-event JSON per cell (first\n"
    "                     replicate) into DIR; CSV/JSONL stay byte-identical\n"
    "  --metrics PATH     write sweep metrics (kernel counters, phase\n"
    "                     timers, pool utilization, telemetry series and\n"
    "                     quantile sketches) as schema-versioned JSON;\n"
    "                     shard files fold with mtr_merge --metrics. The\n"
    "                     file is republished (atomic rename) after every\n"
    "                     cell, one cell behind the records; --resume\n"
    "                     trusts only cells that snapshot covers and\n"
    "                     reruns the rest, so folded counters stay exact\n"
    "                     across crashes\n"
    "  --status-file PATH rewrite PATH (atomic rename) after every cell\n"
    "                     with a JSON heartbeat: cells done/total, elapsed,\n"
    "                     ETA, per-worker busy fractions\n"
    "  --threads N        BatchRunner worker pool (default MTR_BENCH_THREADS)\n"
    "  --seeds N          replicate seeds per cell (default MTR_BENCH_SEEDS)\n"
    "  --first-seed S     first replicate seed (default 42)\n"
    "  --scale X          workload scale (default MTR_BENCH_SCALE)\n"
    "  --engine E         kernel step loop: 'event' (calendar queue) or\n"
    "                     'slice' (reference loop); default: the kernel's\n"
    "                     own setting. Either engine yields byte-identical\n"
    "                     CSV/JSONL artifacts — CI diffs the two\n"
    "  --shard I/N        run only the cells with global index % N == I\n"
    "                     (0-based); point each shard at its own output and\n"
    "                     stitch them with mtr_merge\n"
    "  --resume           scan the existing output, drop any partial tail a\n"
    "                     killed run left, and skip cells already complete\n"
    "  --dry-run          print the selected sweeps, cell counts, and shard\n"
    "                     ownership, then exit without running anything\n"
    "  --fault-inject S   arm a deterministic fault schedule (chaos tests):\n"
    "                     crash-after-cell=K,torn-tail=B,sigkill-after-ms=T,\n"
    "                     fail-flush-at=J — any subset. Overrides the\n"
    "                     MTR_FAULT_INJECT environment variable, which\n"
    "                     mtr_fleet uses to target one shard subprocess\n"
    "  --quiet            suppress the ASCII figure rendering and the\n"
    "                     per-cell progress lines (begin/finish summaries\n"
    "                     still print; --no-progress silences those too)\n"
    "  --no-progress      suppress the stderr progress/ETA lines\n"
    "  --help             print this message\n"
    "\n"
    "Sharded and resumed runs skip the ASCII rendering (their cell set is\n"
    "partial); the CSV/JSONL sinks plus mtr_merge are the output.\n"
    "\n"
    "env defaults: MTR_BENCH_SCALE, MTR_BENCH_SEEDS, MTR_BENCH_THREADS,\n"
    "MTR_BENCH_PROGRESS=0 disables progress.\n";

std::vector<std::uint64_t> consecutive_seeds(std::size_t n, std::uint64_t first) {
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) seeds[i] = first + i;
  return seeds;
}

/// Publishes a metrics document the same way the status heartbeat is
/// published, so a reader (or a resume after a kill) sees a complete
/// document or nothing — never a torn prefix.
void publish_metrics_file(const std::string& path,
                          const std::vector<trace::SweepMetrics>& sweeps) {
  std::ostringstream os;
  trace::write_metrics_json(os, sweeps, /*shards=*/1);
  publish_file(path, os.str(), "metrics");
}

/// Every mtr_sweep flag; the workload flags lead.
FlagTable sweep_flags(SweepOptions& o) {
  FlagTable t = workload_flags(o);
  t.insert(t.end(), {
    switch_flag("--help", o.help),
    switch_flag("-h", o.help),
    switch_flag("--list", o.list),
    switch_flag("--all", o.all),
    switch_flag("--quiet", o.quiet),
    switch_flag("--no-progress", o.progress, false),
    switch_flag("--dry-run", o.dry_run),
    switch_flag("--resume", o.resume),
    text_flag("--csv", o.csv_path),
    text_flag("--jsonl", o.jsonl_path),
    text_flag("--out-dir", o.out_dir),
    text_flag("--trace-dir", o.trace_dir),
    text_flag("--metrics", o.metrics_path),
    text_flag("--status-file", o.status_file),
    {"--shard", 1,
     [&o](std::string_view, FlagValues v) {
       o.shard = parse_shard_spec(std::string(v[0]));
     }},
    {"--fault-inject", 1,
     [&o](std::string_view, FlagValues v) {
       o.fault = parse_fault_plan(std::string(v[0]));
     },
     "MTR_FAULT_INJECT"},
  });
  return t;
}

}  // namespace

FlagTable workload_flags(SweepOptions& o) {
  return {
      value_flag("--scale", o.scale, positive_real, "MTR_BENCH_SCALE"),
      {"--seeds", 1,
       [&o](std::string_view src, FlagValues v) {
         const std::size_t n = int_value<std::size_t, 1>(src, v[0]);
         o.seeds = consecutive_seeds(n, o.seeds.empty() ? 42 : o.seeds.front());
       },
       "MTR_BENCH_SEEDS"},
      {"--first-seed", 1,
       [&o](std::string_view src, FlagValues v) {
         o.seeds = consecutive_seeds(o.seeds.size(),
                                     int_value<std::uint64_t>(src, v[0]));
       }},
      value_flag("--threads", o.threads, int_value<unsigned, 1>,
                 "MTR_BENCH_THREADS"),
      {"--engine", 1,
       [&o](std::string_view, FlagValues v) {
         if (v[0] == "event") o.event_driven = true;
         else if (v[0] == "slice") o.event_driven = false;
         else
           throw UsageError("--engine must be 'event' or 'slice', got '" +
                            std::string(v[0]) + "'");
       }},
  };
}

SweepOptions default_sweep_options() {
  SweepOptions o;
  o.seeds = consecutive_seeds(3, 42);
  // Garbage is rejected with the same strictness as the flags — a typo'd
  // env var in a cluster launch script must not silently run the wrong
  // grid.
  apply_env(sweep_flags(o));
  if (const char* progress = std::getenv("MTR_BENCH_PROGRESS"))
    o.progress = std::string_view(progress) != "0";
  return o;
}

SweepOptions parse_sweep_args(int argc, const char* const* argv) {
  SweepOptions o = default_sweep_options();
  parse_flags(argc, argv, sweep_flags(o),
              [&o](std::string_view name) { o.sweeps.emplace_back(name); });
  return o;
}

int run_sweeps(const report::SweepRegistry& registry, const SweepOptions& options,
               std::ostream& out, std::ostream& err) {
  if (options.help) {
    out << kUsage;
    return 0;
  }
  if (options.list) {
    for (const report::SweepSpec& s : registry.specs())
      out << s.name << "  " << s.title << '\n';
    return 0;
  }

  std::vector<const report::SweepSpec*> selected;
  if (options.all && !options.sweeps.empty()) {
    err << "mtr_sweep: --all conflicts with naming sweeps — pick one\n";
    return 2;
  }
  if (options.all) {
    for (const report::SweepSpec& s : registry.specs()) selected.push_back(&s);
  } else {
    for (const std::string& name : options.sweeps) {
      const report::SweepSpec* spec = registry.find(name);
      if (spec == nullptr) {
        err << "mtr_sweep: unknown sweep '" << name << "' (try --list)\n";
        return 2;
      }
      // A sweep name is a key in every artifact, metrics.json included.
      if (std::find(selected.begin(), selected.end(), spec) != selected.end()) {
        err << "mtr_sweep: sweep '" << name << "' is named twice\n";
        return 2;
      }
      selected.push_back(spec);
    }
  }
  if (selected.empty()) {
    err << "mtr_sweep: nothing selected — name sweeps, or pass --all / --list\n";
    return 2;
  }

  const bool shared_sinks = !options.csv_path.empty() || !options.jsonl_path.empty();
  if (options.resume && !shared_sinks && options.out_dir.empty()) {
    err << "mtr_sweep: --resume needs output to resume from — pass --csv, "
           "--jsonl, or --out-dir\n";
    return 2;
  }
  if (options.resume && shared_sinks && !options.out_dir.empty()) {
    err << "mtr_sweep: --resume supports either --csv/--jsonl or --out-dir, "
           "not both at once\n";
    return 2;
  }

  if (!options.dry_run) {
    if (!options.out_dir.empty())
      std::filesystem::create_directories(options.out_dir);
    if (!options.csv_path.empty()) create_parent_dirs(options.csv_path);
    if (!options.jsonl_path.empty()) create_parent_dirs(options.jsonl_path);
    if (!options.trace_dir.empty())
      std::filesystem::create_directories(options.trace_dir);
    if (!options.metrics_path.empty()) create_parent_dirs(options.metrics_path);
    if (!options.status_file.empty()) create_parent_dirs(options.status_file);
  }

  const bool want_metrics = !options.metrics_path.empty() && !options.dry_run;

  // The armed fault schedule (inert when --fault-inject/MTR_FAULT_INJECT is
  // absent, and under --dry-run, which opens no sinks to tear).
  FaultInjector injector(options.dry_run ? FaultPlan{} : options.fault);
  injector.arm_sigkill();
  std::optional<report::ScopedSinkFlushHook> flush_hook;
  if (injector.has_flush_fault())
    flush_hook.emplace(
        [&injector](const char* kind) { injector.on_sink_flush(kind); });

  // Crash-consistent metrics resume: the per-cell snapshot published below
  // is the source of truth for which cells' counters are already folded.
  // Completed record cells beyond its coverage roll back and rerun (the
  // records come out byte-identical either way; the counters fold once).
  MetricsFile metrics_base;
  bool have_metrics_base = false;
  if (want_metrics && options.resume &&
      std::filesystem::exists(options.metrics_path)) {
    metrics_base = read_metrics_json(options.metrics_path);
    have_metrics_base = true;
  }
  const auto base_for =
      [&](const std::string& name) -> const trace::SweepMetrics* {
    if (!have_metrics_base) return nullptr;
    for (const trace::SweepMetrics& m : metrics_base.sweeps)
      if (m.sweep == name) return &m;
    return nullptr;
  };

  // One resume index for shared files (they span every selected sweep);
  // out-dir files are per sweep and get their own index in the plan pass.
  ResumeIndex shared_resume;
  if (options.resume && shared_sinks) {
    std::optional<std::uint64_t> cap;
    if (want_metrics) {
      std::uint64_t covered = 0;
      for (const trace::SweepMetrics& m : metrics_base.sweeps)
        covered += m.cells;
      cap = covered;
    }
    shared_resume = ResumeIndex::scan(options.csv_path, options.jsonl_path,
                                      options.seeds, cap);
    if (shared_resume.metrics_overrun()) {
      err << "mtr_sweep: resume: metrics snapshot is ahead of the records — "
             "rerunning everything against a fresh fold\n";
      have_metrics_base = false;
      metrics_base = MetricsFile{};
    }
    if (!options.dry_run) shared_resume.truncate_files();
    err << "mtr_sweep: resume: " << shared_resume.size()
        << " cell(s) already complete\n";
  }

  // The invocation-global cell counter every grid claims its index range
  // from — the ordinal that makes shard outputs mergeable.
  std::size_t cell_cursor = 0;
  std::size_t owned_cursor = 0;
  const bool partial =
      options.dry_run || options.shard.sharded() || options.resume;

  report::ProgressReporter progress(err, options.progress && !options.dry_run);
  // --quiet keeps the begin/finish summary lines (and the resume notes
  // above, which print directly to `err`) but drops the line-per-cell
  // stream.
  if (options.quiet) progress.set_per_cell(false);

  // Per sweep: what it resumes from, its slot in the pool, its sinks
  // (opened when emission reaches the sweep) and its metrics fold.
  struct SweepState {
    ResumeIndex own_resume;  // --out-dir resume; shared files use one index
    const ResumeIndex* resume = nullptr;
    std::string dir_csv;
    std::string dir_jsonl;
    report::SweepGrids grids;
    report::MultiSink sinks;
    trace::SweepMetrics metrics;
  };
  std::vector<SweepState> sweeps(selected.size());

  const auto context = [&](std::size_t s, bool render) {
    report::SweepContext ctx;
    ctx.scale = options.scale;
    ctx.seeds = options.seeds;
    ctx.event_driven = options.event_driven;
    ctx.out = options.quiet || !render ? &null_stream() : &out;
    ctx.cell_cursor = &cell_cursor;
    ctx.owned_cursor = &owned_cursor;
    ctx.dry_run = options.dry_run;
    ctx.partial = !render;
    ctx.plan = options.dry_run ? &out : nullptr;
    ctx.trace_dir = options.dry_run ? std::string() : options.trace_dir;
    ctx.collect_stats = want_metrics;
    ctx.grids = &sweeps[s].grids;
    ctx.render = render;
    return ctx;
  };

  // Plan pass: every body claims its cell ranges and queues its grids —
  // and under --dry-run prints the plan, which is all a dry run does.
  for (std::size_t s = 0; s < selected.size(); ++s) {
    const report::SweepSpec* spec = selected[s];
    SweepState& st = sweeps[s];
    if (!options.out_dir.empty()) {
      const std::filesystem::path dir(options.out_dir);
      st.dir_csv = (dir / (spec->name + ".csv")).string();
      st.dir_jsonl = (dir / (spec->name + ".jsonl")).string();
    }
    if (options.resume && shared_sinks) {
      st.resume = &shared_resume;
    } else if (options.resume) {
      std::optional<std::uint64_t> cap;
      if (want_metrics) {
        const trace::SweepMetrics* base = base_for(spec->name);
        cap = base != nullptr ? base->cells : 0;
      }
      st.own_resume = ResumeIndex::scan(st.dir_csv, st.dir_jsonl, options.seeds, cap);
      if (st.own_resume.metrics_overrun())
        err << "mtr_sweep: resume: " << spec->name
            << ": metrics snapshot is ahead of the records — rerunning "
               "against a fresh fold\n";
      if (!options.dry_run) st.own_resume.truncate_files();
      if (st.own_resume.size() > 0)
        err << "mtr_sweep: resume: " << spec->name << ": "
            << st.own_resume.size() << " cell(s) already complete\n";
      st.resume = &st.own_resume;
    }
    st.metrics.sweep = spec->name;
    if (want_metrics && st.resume != nullptr && !st.resume->metrics_overrun()) {
      // Seed the fold with the counters the snapshot already covers; the
      // gate skips exactly those cells, so each cell folds exactly once.
      if (const trace::SweepMetrics* base = base_for(spec->name))
        st.metrics = *base;
    }

    report::SweepContext ctx = context(s, /*render=*/false);
    if (options.shard.sharded() || st.resume != nullptr) {
      ctx.gate = [shard = options.shard,
                  resume = st.resume](const report::CellKey& cell) {
        if (!shard.owns(cell.cell_index)) return false;
        if (resume != nullptr && resume->completed(cell)) return false;
        return true;
      };
    }
    spec->run(ctx);
  }

  if (options.dry_run) {
    out << "dry run: " << selected.size() << " sweep(s), " << cell_cursor
        << " cell(s)";
    if (options.shard.sharded())
      out << "; shard " << to_string(options.shard) << " runs " << owned_cursor;
    else if (options.resume)
      out << "; " << owned_cursor << " left to run";
    out << '\n';
    return 0;
  }

  // The pool's input: every queued grid, in cell_index order, and the
  // sweep each belongs to.
  std::vector<core::BatchGrid> grids;
  std::vector<std::size_t> owner;
  std::vector<const std::string*> record_sweep;
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    for (report::SweepGrids::Queued& q : sweeps[s].grids.queued) {
      grids.push_back(std::move(q.grid));
      owner.push_back(s);
      record_sweep.push_back(&q.sweep);
    }
  }

  // Emission walks the sweeps in order. Entering a sweep closes the last
  // one's sinks and progress span, opens its own and begins its span, so
  // every on-disk prefix is what a sweep-at-a-time run would leave. The
  // shared --csv/--jsonl files are opened in append mode per sweep: the
  // first writer lays down the CSV header, later ones just extend the
  // table. --out-dir files are per sweep and start fresh — except under
  // --resume, where the kept prefix is appended to.
  std::size_t entered = 0;
  // The current sweep's fold as of its previous cell; see on_cell.
  trace::SweepMetrics published;
  const auto enter = [&](std::size_t s) {
    progress.finish();
    if (s > 0) sweeps[s - 1].sinks = report::MultiSink{};
    SweepState& st = sweeps[s];
    if (!options.csv_path.empty())
      st.sinks.add(std::make_unique<report::CsvSink>(options.csv_path,
                                                     report::OpenMode::kAppend));
    if (!options.jsonl_path.empty())
      st.sinks.add(std::make_unique<report::JsonlSink>(
          options.jsonl_path, report::OpenMode::kAppend));
    if (!options.out_dir.empty()) {
      const report::OpenMode mode = options.resume ? report::OpenMode::kAppend
                                                   : report::OpenMode::kTruncate;
      st.sinks.add(std::make_unique<report::CsvSink>(st.dir_csv, mode));
      st.sinks.add(std::make_unique<report::JsonlSink>(st.dir_jsonl, mode));
    }
    if (injector.active()) {
      std::vector<std::string> fault_files;
      for (const std::string& f : {options.csv_path, options.jsonl_path,
                                   st.dir_csv, st.dir_jsonl})
        if (!f.empty()) fault_files.push_back(f);
      injector.set_active_files(std::move(fault_files));
      // crash-after-cell=0 tears down right here, leaving the freshly
      // opened (possibly zero-byte) sink files for resume to classify.
      if (s == 0) injector.on_sinks_open();
    }
    if (!st.grids.progress_label.empty()) {
      progress.begin(st.grids.progress_label, st.grids.progress_total);
      progress.shrink_total(st.grids.progress_skipped);
    }
    published = st.metrics;
  };
  const auto reach = [&](std::size_t s) {
    while (entered <= s) enter(entered++);
  };

  const auto write_status = [&](const std::vector<double>* busy,
                                double pool_elapsed) {
    StatusSnapshot snap;
    snap.sweep = selected[entered - 1]->name;
    snap.cells_done = progress.done();
    snap.cells_total = progress.total();
    snap.elapsed_seconds = progress.elapsed_seconds();
    snap.eta_seconds = report::eta_seconds(
        snap.elapsed_seconds, snap.cells_done,
        snap.cells_total > snap.cells_done ? snap.cells_total - snap.cells_done
                                           : 0);
    if (busy != nullptr && pool_elapsed > 0.0) {
      snap.worker_busy_fraction.reserve(busy->size());
      for (const double b : *busy)
        snap.worker_busy_fraction.push_back(b / pool_elapsed);
    }
    write_status_file(options.status_file, snap);
  };

  const auto on_cell = [&](const core::CellEvent& ev) {
    const std::size_t s = owner[ev.grid];
    reach(s);
    SweepState& st = sweeps[s];
    st.sinks.write_cell(*record_sweep[ev.grid], ev.cell);
    if (want_metrics) {
      trace::SweepMetrics& m = st.metrics;
      ++m.cells;
      m.runs += ev.cell.runs.size();
      m.cell_wall_seconds += ev.wall_seconds;
      m.max_cell_seconds = std::max(m.max_cell_seconds, ev.wall_seconds);
      m.kernel.merge(ev.cell.kstats);
      m.telemetry.merge(ev.cell.telemetry);
      m.telemetry.cell_seconds.add(ev.wall_seconds);
    }
    progress.on_cell(ev);
    // Order is the crash-consistency contract: metrics snapshot first,
    // heartbeat second, injected crash last — a real kill can land between
    // any two and resume still reconstructs exactly. The metrics snapshot
    // is deliberately one cell behind: it holds the fold as it stood
    // BEFORE this cell, so a kill at any instant leaves on-disk coverage
    // ≤ the clean record prefix, which is exactly what ResumeIndex::scan's
    // metrics_cells cap assumes.
    if (want_metrics) {
      std::vector<trace::SweepMetrics> snapshot;
      for (std::size_t i = 0; i < s; ++i) snapshot.push_back(sweeps[i].metrics);
      if (published.cells > 0) snapshot.push_back(published);
      publish_metrics_file(options.metrics_path, snapshot);
      published = st.metrics;
    }
    // The progress fold above already counts this cell.
    if (!options.status_file.empty())
      write_status(ev.worker_busy, ev.pool_elapsed_seconds);
    injector.on_cell_complete();
  };

  // A lone worker emits each cell as soon as its last run ends, so the
  // per-cell heartbeat is as fresh as a sweep-at-a-time run's. A wider
  // pool can finish runs while emission waits behind an earlier cell's
  // long run; each such run rewrites the heartbeat too (elapsed time and
  // busy fractions; cells_done still counts emitted cells), so a
  // supervisor never takes a busy shard for a hung one.
  core::RunCallback on_run;
  if (!options.status_file.empty()) {
    on_run = [&](const core::RunEvent& ev) {
      if (ev.cells_emitted == 0 && ev.worker_busy.size() > 1)
        write_status(&ev.worker_busy, ev.pool_elapsed_seconds);
    };
  }

  // A partial invocation draws nothing, so the pool keeps no cells for it
  // and the render pass is skipped.
  reach(0);
  std::vector<core::GridRun> runs = core::BatchRunner(options.threads)
                                        .run(grids, on_cell, on_run, !partial);
  // Sweeps past the last emitted cell still get their (empty) sinks.
  reach(selected.size() - 1);
  progress.finish();
  for (std::size_t gi = 0; gi < runs.size(); ++gi)
    sweeps[owner[gi]].grids.runs.push_back(std::move(runs[gi]));

  // Render pass: each body gets its cells back and draws its figure.
  // Per-sweep pool spans overlap; the sweep phase adds the render to the
  // span.
  for (std::size_t s = 0; s < selected.size(); ++s) {
    SweepState& st = sweeps[s];
    const auto t0 = std::chrono::steady_clock::now();
    if (!partial) {
      selected[s]->run(context(s, /*render=*/true));
      MTR_ENSURE_MSG(st.grids.rendered == st.grids.runs.size(),
                     "sweep " << selected[s]->name << " rendered "
                              << st.grids.rendered << " of its "
                              << st.grids.runs.size() << " grid(s)");
    }
    const std::chrono::duration<double> render =
        std::chrono::steady_clock::now() - t0;
    if (!want_metrics) continue;
    const trace::PoolMetrics pool = st.grids.pool();
    st.metrics.pool.merge(pool);
    st.metrics.phases.add("grid", st.grids.runs.size(), pool.wall_seconds);
    st.metrics.phases.add("sweep", 1, pool.wall_seconds + render.count());
  }

  if (want_metrics) {
    std::vector<trace::SweepMetrics> all_metrics;
    for (const SweepState& st : sweeps) all_metrics.push_back(st.metrics);
    try {
      publish_metrics_file(options.metrics_path, all_metrics);
    } catch (const std::exception& e) {
      err << "mtr_sweep: " << e.what() << '\n';
      return 1;
    }
  }
  return 0;
}

int sweep_main(const report::SweepRegistry& registry, int argc,
               const char* const* argv) {
  return run_cli("mtr_sweep", kUsage, 1, [&] {
    return run_sweeps(registry, parse_sweep_args(argc, argv), std::cout,
                      std::cerr);
  });
}

}  // namespace mtr::dist
