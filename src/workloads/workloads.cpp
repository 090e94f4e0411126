#include "workloads/workloads.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "common/ensure.hpp"
#include "exec/program_base.hpp"
#include "workloads/stdlibs.hpp"

namespace mtr::workloads {

using exec::compute;
using exec::compute_mem;
using exec::ProgramBuilder;
using exec::QueueProgram;
using exec::SymbolTable;
using exec::syscall;
using kernel::HotAccess;
using kernel::MemoryProfile;
using kernel::ProcessContext;
using kernel::Step;

namespace {

// ---------------------------------------------------------------------------
// Shared layout constants (virtual addresses of each program's data).
// ---------------------------------------------------------------------------

constexpr VAddr kOursHotAddr{0x10'0000};       // loop control variable
constexpr VAddr kPiHotAddr{0x20'0040};         // accumulation variable y
constexpr VAddr kWhetstoneHotAddr{0x30'0080};  // scalar T1
constexpr VAddr kBruteHotAddr{0x40'0000};      // count in crack_len()

MemoryProfile make_profile(std::uint64_t first_page, std::uint64_t n_pages,
                           Cycles touch_period, VAddr hot_addr, Cycles hot_period) {
  return MemoryProfile{PageId{first_page}, n_pages, touch_period,
                       HotAccess{hot_addr, hot_period}};
}


/// A burst pass over a cold buffer (file data, digit/spill arrays): every
/// page touched once, quickly. Real programs sweep memory like this, and it
/// is exactly the pattern LRU cannot protect under the exception-flooding
/// attack — each pass re-faults whatever the hog evicted.
Step buffer_pass(std::uint64_t first_page, std::uint64_t n_pages, std::string tag) {
  return compute_mem(Cycles{2'000 * n_pages},
                     MemoryProfile{PageId{first_page}, n_pages, Cycles{2'000}, {}},
                     std::move(tag));
}

std::uint64_t scaled(std::uint64_t n, double scale) {
  const auto v = static_cast<std::uint64_t>(static_cast<double>(n) * scale);
  return v == 0 ? 1 : v;
}

// ---------------------------------------------------------------------------
// O — CPU-bound loop family.
// ---------------------------------------------------------------------------

class OursProgram final : public QueueProgram {
 public:
  explicit OursProgram(double scale) : chunks_left_(scaled(4000, scale)) {}

  std::string name() const override { return "ours"; }

 protected:
  bool generate(ProcessContext&) override {
    if (chunks_left_ == 0) {
      push(syscall(kernel::SysGetRusage{}));  // the paper logs usage at exit
      return ++epilogue_done_ == 1;
    }
    if (chunks_left_ % 20 == 0)
      push(buffer_pass(0x1000, 384, "ours.buffer-pass"));
    --chunks_left_;
    // ~10 ms of pure looping per chunk; the loop counter is the hot var.
    push(compute_mem(Cycles{25'300'000},
                     make_profile(0x500, 64, Cycles{2'530'000}, kOursHotAddr,
                                  Cycles{500'000}),
                     "ours.loop"));
    return true;
  }

 private:
  std::uint64_t chunks_left_;
  int epilogue_done_ = 0;
};

// ---------------------------------------------------------------------------
// P — pi calculator (long arithmetic + periodic malloc).
// ---------------------------------------------------------------------------

class PiProgram final : public QueueProgram {
 public:
  PiProgram(double scale, SymbolTable symbols)
      : chunks_left_(scaled(3800, scale)), symbols_(std::move(symbols)) {}

  std::string name() const override { return "pi"; }

 protected:
  bool generate(ProcessContext&) override {
    if (chunks_left_ == 0) {
      push(syscall(kernel::SysGetRusage{}));
      return ++epilogue_done_ == 1;
    }
    // Digit-array reallocation every few arithmetic chunks.
    if (chunks_left_ % 5 == 0) push_all(symbols_.call("malloc"));
    --chunks_left_;
    // Long arithmetic sweeps the whole digit array once per ~0.6 s — a
    // sequential pattern the page-replacement clock cannot protect.
    push(compute_mem(Cycles{25'300'000},
                     make_profile(0x600, 1024, Cycles{2'530'000}, kPiHotAddr,
                                  Cycles{250'000}),
                     "pi.arith"));
    return true;
  }

 private:
  std::uint64_t chunks_left_;
  SymbolTable symbols_;
  int epilogue_done_ = 0;
};

// ---------------------------------------------------------------------------
// W — Whetstone (FP kernels with dense libm calls).
// ---------------------------------------------------------------------------

class WhetstoneProgram final : public QueueProgram {
 public:
  WhetstoneProgram(double scale, SymbolTable symbols)
      : iters_left_(scaled(20'000, scale)), symbols_(std::move(symbols)) {}

  std::string name() const override { return "whetstone"; }

 protected:
  bool generate(ProcessContext&) override {
    if (iters_left_ == 0) {
      push(syscall(kernel::SysGetRusage{}));
      return ++epilogue_done_ == 1;
    }
    if (iters_left_ % 25 == 0)
      push(buffer_pass(0x2000, 256, "whetstone.buffer-pass"));
    --iters_left_;
    // One outer Whetstone iteration: FP slab + the transcendental calls.
    push(compute_mem(Cycles{5'300'000},
                     make_profile(0x700, 128, Cycles{2'530'000}, kWhetstoneHotAddr,
                                  Cycles{500'000}),
                     "whetstone.fp"));
    push_all(symbols_.call("sqrt"));
    push_all(symbols_.call("exp"));
    push_all(symbols_.call("sin"));
    return true;
  }

 private:
  std::uint64_t iters_left_;
  SymbolTable symbols_;
  int epilogue_done_ = 0;
};

// ---------------------------------------------------------------------------
// B — Brute: multi-threaded MD5 brute force.
// ---------------------------------------------------------------------------

class BruteWorker final : public QueueProgram {
 public:
  /// `malloc_call` is the resolved body of malloc(): workers allocate a
  /// candidate buffer per batch, so symbol interposition reaches them too.
  BruteWorker(unsigned index, double scale, std::vector<Step> malloc_call)
      : index_(index),
        batches_left_(scaled(1000, scale)),
        malloc_call_(std::move(malloc_call)) {}

  std::string name() const override { return "brute.worker"; }

 protected:
  bool generate(ProcessContext&) override {
    if (batches_left_ == 0) return false;
    if (batches_left_ % 50 == 0)
      push(buffer_pass(0x3000 + 0x200 * index_, 128, "brute.wordlist-pass"));
    --batches_left_;
    push_all(malloc_call_);
    // 10k tries per batch at ~1420 cycles per MD5 candidate.
    push(compute_mem(Cycles{14'200'000},
                     make_profile(0x800, 128, Cycles{2'530'000}, kBruteHotAddr,
                                  Cycles{600'000}),
                     "brute.crack_len"));
    return true;
  }

 private:
  unsigned index_;
  std::uint64_t batches_left_;
  std::vector<Step> malloc_call_;
};

class BruteMain final : public QueueProgram {
 public:
  BruteMain(double scale, unsigned threads, SymbolTable symbols)
      : scale_(scale),
        threads_(threads),
        symbols_(std::move(symbols)),
        malloc_call_(symbols_.call("malloc")) {}

  std::string name() const override { return "brute"; }

 protected:
  bool generate(ProcessContext&) override {
    switch (stage_) {
      case 0: {  // read the brutefile, parse it
        push(syscall(kernel::SysDiskIo{}));
        push_all(symbols_.call("malloc"));
        push(compute(Cycles{2'000'000}, "brute.parse"));
        ++stage_;
        return true;
      }
      case 1: {  // spawn workers
        for (unsigned i = 0; i < threads_; ++i) {
          const double scale = scale_;
          push(syscall(kernel::SysClone{[i, scale, malloc_call = malloc_call_]() {
            return std::make_unique<BruteWorker>(i, scale, malloc_call);
          }}));
        }
        ++stage_;
        return true;
      }
      case 2: {  // join workers
        for (unsigned i = 0; i < threads_; ++i) push(syscall(kernel::SysWait{}));
        push(syscall(kernel::SysGetRusage{}));
        ++stage_;
        return true;
      }
      default:
        return false;
    }
  }

 private:
  double scale_;
  unsigned threads_;
  SymbolTable symbols_;
  std::vector<Step> malloc_call_;
  int stage_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------

const char* short_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kOurs: return "O";
    case WorkloadKind::kPi: return "P";
    case WorkloadKind::kWhetstone: return "W";
    case WorkloadKind::kBrute: return "B";
  }
  return "?";
}

const char* long_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kOurs: return "ours";
    case WorkloadKind::kPi: return "pi";
    case WorkloadKind::kWhetstone: return "whetstone";
    case WorkloadKind::kBrute: return "brute";
  }
  return "?";
}

WorkloadInfo make_workload(WorkloadKind kind, const WorkloadParams& params) {
  MTR_ENSURE_MSG(params.scale > 0.0, "workload scale must be positive");
  WorkloadInfo info;
  info.kind = kind;
  exec::ImageSpec& img = info.image;

  const double scale = params.scale;
  switch (kind) {
    case WorkloadKind::kOurs:
      img.path = "/home/user/ours";
      img.content_tag = "ours#1.0";
      img.code_pages = 4;
      img.needed_libs = {"libc"};
      img.imports = {};
      img.main_program = [scale](const SymbolTable&) {
        return std::make_unique<OursProgram>(scale);
      };
      info.hot_addr = kOursHotAddr;
      info.nominal_cycles = Cycles{scaled(4000, scale) * 25'300'000};
      break;
    case WorkloadKind::kPi:
      img.path = "/usr/bin/pi";
      img.content_tag = "pi#1.0";
      img.code_pages = 8;
      img.needed_libs = {"libc"};
      img.imports = {"malloc"};
      img.main_program = [scale](const SymbolTable& s) {
        return std::make_unique<PiProgram>(scale, s);
      };
      info.hot_addr = kPiHotAddr;
      info.nominal_cycles = Cycles{scaled(3800, scale) * 25'300'000};
      break;
    case WorkloadKind::kWhetstone:
      img.path = "/usr/bin/whetstone";
      img.content_tag = "whetstone#1.2";
      img.code_pages = 12;
      img.needed_libs = {"libc", "libm"};
      img.imports = {"sqrt", "exp", "sin"};
      img.main_program = [scale](const SymbolTable& s) {
        return std::make_unique<WhetstoneProgram>(scale, s);
      };
      info.hot_addr = kWhetstoneHotAddr;
      info.nominal_cycles = Cycles{scaled(20'000, scale) * 5'300'000};
      break;
    case WorkloadKind::kBrute: {
      img.path = "/usr/bin/brute";
      img.content_tag = "brute#2.0";
      img.code_pages = 10;
      img.needed_libs = {"libc", "libpthread"};
      img.imports = {"malloc"};
      const unsigned threads = params.brute_threads;
      img.main_program = [scale, threads](const SymbolTable& s) {
        return std::make_unique<BruteMain>(scale, threads, s);
      };
      info.hot_addr = kBruteHotAddr;
      info.nominal_cycles =
          Cycles{scaled(1000, scale) * 14'200'000 * params.brute_threads};
      break;
    }
  }
  return info;
}

}  // namespace mtr::workloads
