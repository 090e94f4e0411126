#include "dist/driver.hpp"

#include <algorithm>
#include <array>
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
    "  --shard I/N        run shard I of N (0-based): cells are dealt\n"
    "                     round-robin within two cost classes, attacked\n"
    "                     and baseline, so each shard gets an even share\n"
    "                     of both; point each shard at its own output and\n"
    "                     stitch them with mtr_merge. All shards must come\n"
    "                     from one build (--dry-run lists a shard's cells)\n"
    "  --resume           scan the existing output, drop any partial tail a\n"
    "                     killed run left, and skip cells already complete\n"
    "  --dry-run          print the selected sweeps, cell counts, and shard\n"
    "                     ownership, then exit without running anything\n"
    "  --fault-inject S   arm a deterministic fault schedule (chaos tests):\n"
    "                     crash-after-cell=K,torn-tail=B,sigkill-after-ms=T,\n"
    "                     fail-flush-at=J — any subset, in this order,\n"
    "                     each at most once, numbers without leading\n"
    "                     zeros, torn-tail at least 1. Overrides the\n"
    "                     MTR_FAULT_INJECT environment variable, which\n"
    "                     mtr_fleet uses to target one shard subprocess\n"
    "  --quiet            suppress the ASCII figure rendering and the\n"
    "                     per-cell progress lines (begin/finish summaries\n"
    "                     still print; --no-progress silences those too)\n"
    "  --no-progress      suppress the stderr progress/ETA lines\n"
    "  --help             print this message\n"
    "\n"
    "Sharded and resumed runs skip the ASCII rendering (their cell set is\n"
    "partial); the CSV/JSONL sinks plus mtr_merge are the output. For one\n"
    "combined file of every sweep, merge an --out-dir:\n"
    "  mtr_merge --csv all.csv --jsonl all.jsonl DIR/*.csv DIR/*.jsonl\n"
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

/// The fail-flush-at seam: fires the injector's flush fault before the
/// wrapped file sink sees the cell, so a failed flush loses the cell
/// whole and never half-writes it.
class FlushFaultSink final : public report::ResultSink {
 public:
  FlushFaultSink(std::unique_ptr<report::ResultSink> sink,
                 FaultInjector& injector, const char* kind)
      : sink_(std::move(sink)), injector_(injector), kind_(kind) {}

  void write_cell(const std::string& sweep,
                  const core::CellStats& cell) override {
    injector_.on_sink_flush(kind_);
    sink_->write_cell(sweep, cell);
  }

 private:
  std::unique_ptr<report::ResultSink> sink_;
  FaultInjector& injector_;
  const char* kind_;  // "csv" or "jsonl"
};

/// The invocation's plan so far, in cell_index order.
struct PlanCursor {
  std::size_t cells = 0;  // the next grid's first global cell index
  std::size_t owned = 0;  // cells the gate admitted
  /// Per cost class (baseline, attacked), the cells planned so far. Every
  /// cell advances its class's counter, admitted or not, so a cell's class
  /// position depends only on the selected sweeps.
  std::array<std::uint64_t, 2> classes{};
};

/// Plans one queued grid: forces --engine, claims the grid's global cell
/// range and, when sharded or resuming (`resume` non-null), gates each
/// cell in grid order — shard ownership by class position first, then
/// the resume index, which throws on output that contradicts the grid.
/// Under --dry-run prints the grid's plan line to `out`; otherwise arms
/// the grid's numbering, cell filter, kernel stats and trace paths.
/// Returns how many cells the gate refused.
std::size_t plan_grid(report::SweepGrids::Queued& q, const SweepOptions& o,
                      const ResumeIndex* resume, bool collect_stats,
                      PlanCursor& cursor, std::ostream& out) {
  core::BatchGrid& grid = q.grid;
  if (o.event_driven) grid.base.sim.kernel.event_driven = *o.event_driven;
  const std::size_t n_cells = core::grid_cell_count(grid);
  const std::size_t base = cursor.cells;
  cursor.cells += n_cells;

  // The gate sees every cell in grid order, so shard ownership and resume
  // skipping are decided against the same global numbering — and the same
  // class positions — a single-machine run would assign.
  const core::GridGeometry geom = core::grid_geometry(grid);
  std::vector<char> owned(n_cells, 1);
  std::size_t n_owned = n_cells;
  if (o.shard.sharded() || resume != nullptr) {
    for (std::size_t i = 0; i < n_cells; ++i) {
      std::uint64_t& in_class =
          cursor.classes[core::cell_has_attack(grid, geom, i) ? 1 : 0];
      bool admit = o.shard.owns(in_class++);
      if (admit && resume != nullptr)
        admit = !resume->completed(
            report::cell_key(q.sweep, base + i, core::grid_cell_coords(grid, i)));
      if (!admit) {
        owned[i] = 0;
        --n_owned;
      }
    }
  }
  cursor.owned += n_owned;

  if (o.dry_run) {
    out << q.sweep << ": cells [" << base << "," << base + n_cells << ")";
    if (n_owned == n_cells) {
      out << " — runs all " << n_cells;
    } else {
      out << " — runs " << n_owned << "/" << n_cells << ":";
      for (std::size_t i = 0; i < n_cells; ++i)
        if (owned[i]) out << ' ' << base + i;
    }
    // Grids that open a scenario axis get their shape spelled out, so a
    // planned ablation shows which axes multiply the cell count.
    if (const std::string shape = core::grid_shape(geom); !shape.empty())
      out << " (axes: " << shape << ")";
    out << '\n';
    return n_cells - n_owned;
  }

  grid.cell_index_base = base;
  if (n_owned < n_cells)
    grid.cell_filter = [owned = std::move(owned)](std::size_t i) {
      return owned[i] != 0;
    };
  grid.collect_kernel_stats = collect_stats;
  if (!o.trace_dir.empty()) {
    // One trace per admitted cell, first replicate only: replicate 0 is the
    // canonical seed, and one ring per cell keeps the disk cost linear in
    // cells rather than runs.
    grid.trace_path = [dir = o.trace_dir, sweep = q.sweep,
                       base](std::size_t cell, std::size_t seed_i) {
      if (seed_i != 0) return std::string();
      return dir + "/" + sweep + "-cell" + std::to_string(base + cell) +
             ".json";
    };
  }
  return n_cells - n_owned;
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

  if (options.resume && options.out_dir.empty()) {
    err << "mtr_sweep: --resume needs output to resume from — pass "
           "--out-dir\n";
    return 2;
  }

  if (!options.dry_run) {
    if (!options.out_dir.empty())
      std::filesystem::create_directories(options.out_dir);
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

  // Crash-consistent metrics resume: the per-cell snapshot published below
  // is the source of truth for which cells' counters are already folded.
  // Completed record cells beyond its coverage roll back and rerun (the
  // records come out byte-identical either way; the counters fold once).
  MetricsFile metrics_base;
  if (want_metrics && options.resume &&
      std::filesystem::exists(options.metrics_path))
    metrics_base = read_metrics_json(options.metrics_path);

  const bool partial =
      options.dry_run || options.shard.sharded() || options.resume;

  report::ProgressReporter progress(err, options.progress && !options.dry_run);
  // --quiet keeps the begin/finish summary lines (and the resume notes
  // below, which print directly to `err`) but drops the line-per-cell
  // stream.
  if (options.quiet) progress.set_per_cell(false);

  // Per sweep: what it resumes from, its slot in the pool, its sinks
  // (opened when emission reaches the sweep) and its metrics fold.
  struct SweepState {
    ResumeIndex resume;  // --resume: the cells already on disk
    std::string dir_csv;
    std::string dir_jsonl;
    report::SweepGrids grids;
    std::size_t skipped = 0;  // cells the gate refused
    report::MultiSink sinks;
    trace::SweepMetrics metrics;
  };
  std::vector<SweepState> sweeps(selected.size());

  const auto context = [&](std::size_t s, bool render) {
    report::SweepContext ctx;
    ctx.scale = options.scale;
    ctx.seeds = options.seeds;
    ctx.out = options.quiet || !render ? &null_stream() : &out;
    ctx.partial = !render;
    ctx.grids = &sweeps[s].grids;
    ctx.render = render;
    return ctx;
  };

  // Plan pass: every body queues its grids.
  for (std::size_t s = 0; s < selected.size(); ++s)
    selected[s]->run(context(s, /*render=*/false));

  // Then the driver plans them, sweep by sweep: the sweep's resume scan,
  // then its grids in cell_index order — which is all a dry run does.
  PlanCursor cursor;
  for (std::size_t s = 0; s < selected.size(); ++s) {
    const std::string& name = selected[s]->name;
    SweepState& st = sweeps[s];
    if (!options.out_dir.empty()) {
      const std::filesystem::path dir(options.out_dir);
      st.dir_csv = (dir / (name + ".csv")).string();
      st.dir_jsonl = (dir / (name + ".jsonl")).string();
    }
    st.metrics.sweep = name;
    if (options.resume) {
      const auto base =
          std::find_if(metrics_base.sweeps.begin(), metrics_base.sweeps.end(),
                       [&](const trace::SweepMetrics& m) { return m.sweep == name; });
      const bool have_base = base != metrics_base.sweeps.end();
      std::optional<std::uint64_t> cap;
      if (want_metrics) cap = have_base ? base->cells : 0;
      st.resume = ResumeIndex::scan(st.dir_csv, st.dir_jsonl, options.seeds, cap);
      if (st.resume.metrics_overrun())
        err << "mtr_sweep: resume: " << name
            << ": metrics snapshot is ahead of the records — rerunning "
               "against a fresh fold\n";
      else if (have_base)
        // Seed the fold with the counters the snapshot already covers; the
        // gate skips exactly those cells, so each cell folds exactly once.
        st.metrics = *base;
      if (!options.dry_run) st.resume.truncate_files();
      if (st.resume.size() > 0)
        err << "mtr_sweep: resume: " << name << ": " << st.resume.size()
            << " cell(s) already complete\n";
    }
    for (report::SweepGrids::Queued& q : st.grids.queued)
      st.skipped += plan_grid(q, options, options.resume ? &st.resume : nullptr,
                              want_metrics, cursor, out);
  }

  if (options.dry_run) {
    out << "dry run: " << selected.size() << " sweep(s), " << cursor.cells
        << " cell(s)";
    if (options.shard.sharded())
      out << "; shard " << to_string(options.shard) << " runs " << cursor.owned;
    else if (options.resume)
      out << "; " << cursor.owned << " left to run";
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
  // every on-disk prefix is what a sweep-at-a-time run would leave.
  // --out-dir files start fresh — except under --resume, where the kept
  // prefix is appended to.
  std::size_t entered = 0;
  // The current sweep's fold as of its previous cell; see on_cell.
  trace::SweepMetrics published;
  const auto add_sink = [&](report::MultiSink& sinks,
                            std::unique_ptr<report::ResultSink> sink,
                            const char* kind) {
    if (injector.has_flush_fault())
      sink = std::make_unique<FlushFaultSink>(std::move(sink), injector, kind);
    sinks.add(std::move(sink));
  };
  const auto enter = [&](std::size_t s) {
    progress.finish();
    if (s > 0) sweeps[s - 1].sinks = report::MultiSink{};
    SweepState& st = sweeps[s];
    std::vector<std::string> files;
    if (!options.out_dir.empty()) {
      const report::OpenMode mode = options.resume ? report::OpenMode::kAppend
                                                   : report::OpenMode::kTruncate;
      add_sink(st.sinks, std::make_unique<report::CsvSink>(st.dir_csv, mode),
               "csv");
      add_sink(st.sinks,
               std::make_unique<report::JsonlSink>(st.dir_jsonl, mode),
               "jsonl");
      files = {st.dir_csv, st.dir_jsonl};
    }
    if (injector.active()) {
      injector.set_active_files(std::move(files));
      // crash-after-cell=0 tears down right here, leaving the freshly
      // opened (possibly zero-byte) sink files for resume to classify.
      if (s == 0) injector.on_sinks_open();
    }
    if (!st.grids.progress_label.empty()) {
      progress.begin(st.grids.progress_label, st.grids.progress_total);
      progress.shrink_total(st.skipped);
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
