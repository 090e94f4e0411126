// Exec-layer tests: program building blocks, library registry with
// LD_PRELOAD interposition, loader image shape, shell launch semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "common/ensure.hpp"
#include "counting_alloc.hpp"
#include "exec/library.hpp"
#include "exec/loader.hpp"
#include "exec/program_base.hpp"
#include "exec/shell.hpp"
#include "kernel/kernel.hpp"
#include "kernel/o1_scheduler.hpp"

namespace mtr::exec {
namespace {

using kernel::CodeMapping;
using kernel::ComputeStep;
using kernel::ExitStep;
using kernel::Step;
using kernel::SysMapCode;

/// Minimal context for driving programs without a kernel.
class FakeContext final : public kernel::ProcessContext {
 public:
  Pid pid() const override { return Pid{1}; }
  Tgid tgid() const override { return Tgid{1}; }
  std::int64_t last_result() const override { return 0; }
  Cycles now() const override { return Cycles{0}; }
};

std::vector<Step> drain(Program& p, std::size_t limit = 1000) {
  FakeContext ctx;
  std::vector<Step> out;
  for (std::size_t i = 0; i < limit; ++i) {
    Step s = p.next(ctx);
    const bool is_exit = std::holds_alternative<ExitStep>(s);
    out.push_back(std::move(s));
    if (is_exit) break;
  }
  return out;
}

// --- program shapes -------------------------------------------------------------

TEST(StepList, EmitsInOrderThenExits) {
  auto p = make_step_list("p", {compute(Cycles{10}, "a"), compute(Cycles{20}, "b")})();
  const auto steps = drain(*p);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(std::get<ComputeStep>(steps[0]).tag, "a");
  EXPECT_EQ(std::get<ComputeStep>(steps[1]).tag, "b");
  EXPECT_TRUE(std::holds_alternative<ExitStep>(steps[2]));
}

TEST(Generator, NulloptEndsProgram) {
  int n = 0;
  GeneratorProgram p("g", [n](kernel::ProcessContext&) mutable -> std::optional<Step> {
    if (n >= 3) return std::nullopt;
    ++n;
    return compute(Cycles{5});
  });
  EXPECT_EQ(drain(p).size(), 4u);  // 3 computes + exit
}

TEST(Chain, SwallowsInnerExitAndRunsEpilogue) {
  std::vector<ChainPhase> phases;
  phases.reserve(3);
  phases.emplace_back(std::vector<Step>{compute(Cycles{1}, "prologue")});
  phases.emplace_back(std::in_place_type<ProgramFactory>,
                      make_step_list("inner", {compute(Cycles{1}, "main")}));
  phases.emplace_back(std::vector<Step>{compute(Cycles{1}, "epilogue")});
  ChainProgram p("chain", std::move(phases));
  const auto steps = drain(p);
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(std::get<ComputeStep>(steps[0]).tag, "prologue");
  EXPECT_EQ(std::get<ComputeStep>(steps[1]).tag, "main");
  EXPECT_EQ(std::get<ComputeStep>(steps[2]).tag, "epilogue");
  EXPECT_TRUE(std::holds_alternative<ExitStep>(steps[3]));
}

TEST(Chain, ExplicitExitShortCircuits) {
  std::vector<ChainPhase> phases;
  phases.reserve(2);
  phases.emplace_back(std::vector<Step>{compute(Cycles{1}), exit_step(3)});
  phases.emplace_back(std::vector<Step>{compute(Cycles{1}, "never")});
  ChainProgram p("chain", std::move(phases));
  const auto steps = drain(p);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(std::get<ExitStep>(steps[1]).code, 3);
}

// --- library registry --------------------------------------------------------------

SharedLibrary lib_with(const std::string& name, const std::string& sym, Cycles cost,
                       bool forwards = false) {
  SharedLibrary lib;
  lib.name = name;
  lib.content_tag = name + "#test";
  LibFunction f;
  f.body.push_back(compute(cost, name + "." + sym));
  f.forwards = forwards;
  lib.symbols[sym] = std::move(f);
  return lib;
}

TEST(Library, ResolveFindsProvider) {
  LibraryRegistry reg;
  reg.add(lib_with("libm", "sqrt", Cycles{40}));
  const auto steps = reg.resolve("sqrt", {"libm"});
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(std::get<ComputeStep>(steps[0]).tag, "libm.sqrt");
}

TEST(Library, UnresolvedSymbolThrows) {
  LibraryRegistry reg;
  reg.add(lib_with("libm", "sqrt", Cycles{40}));
  EXPECT_THROW(reg.resolve("cos", {"libm"}), ConfigError);
  EXPECT_THROW(reg.resolve("sqrt", {"nope"}), ConfigError);
}

TEST(Library, PreloadWinsLookupOrder) {
  LibraryRegistry reg;
  reg.add(lib_with("libm", "sqrt", Cycles{40}));
  reg.add(lib_with("evil", "sqrt", Cycles{999}));
  reg.preload("evil");
  const auto steps = reg.resolve("sqrt", {"libm"});
  ASSERT_EQ(steps.size(), 1u);  // evil does not forward: it replaces
  EXPECT_EQ(std::get<ComputeStep>(steps[0]).tag, "evil.sqrt");
}

TEST(Library, ForwardingInterposerChainsToGenuine) {
  LibraryRegistry reg;
  reg.add(lib_with("libm", "sqrt", Cycles{40}));
  reg.add(lib_with("wrap", "sqrt", Cycles{999}, /*forwards=*/true));
  reg.preload("wrap");
  const auto steps = reg.resolve("sqrt", {"libm"});
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(std::get<ComputeStep>(steps[0]).tag, "wrap.sqrt");
  EXPECT_EQ(std::get<ComputeStep>(steps[1]).tag, "libm.sqrt");
}

TEST(Library, LinkOrderDeduplicates) {
  LibraryRegistry reg;
  reg.add(lib_with("a", "f", Cycles{1}));
  reg.add(lib_with("b", "g", Cycles{1}));
  reg.preload("b");
  const auto order = reg.link_order({"a", "b", "a"});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "b");  // preload first
  EXPECT_EQ(order[1], "a");
}

TEST(Library, DuplicateNameRejected) {
  LibraryRegistry reg;
  reg.add(lib_with("x", "f", Cycles{1}));
  EXPECT_THROW(reg.add(lib_with("x", "g", Cycles{1})), ConfigError);
  EXPECT_THROW(reg.preload("unknown"), ConfigError);
}

TEST(SymbolTableTest, DefineAndCall) {
  SymbolTable t;
  t.define("f", {compute(Cycles{5}, "f")});
  EXPECT_TRUE(t.defined("f"));
  EXPECT_FALSE(t.defined("g"));
  EXPECT_EQ(t.call("f").size(), 1u);
  EXPECT_THROW(t.call("g"), ConfigError);
}

// --- loader -------------------------------------------------------------------------

TEST(LoaderTest, ImageMapsCodeRunsCtorsMainDtors) {
  LibraryRegistry reg;
  SharedLibrary lib = lib_with("libz", "zip", Cycles{10});
  lib.ctor_steps.push_back(compute(Cycles{7}, "libz.ctor"));
  lib.dtor_steps.push_back(compute(Cycles{8}, "libz.dtor"));
  reg.add(std::move(lib));

  Loader loader(reg);
  ImageSpec spec;
  spec.path = "/bin/app";
  spec.content_tag = "app#1";
  spec.needed_libs = {"libz"};
  spec.imports = {"zip"};
  spec.main_program = [](const SymbolTable& syms) {
    std::vector<Step> steps = syms.call("zip");
    steps.insert(steps.begin(), compute(Cycles{100}, "app.main"));
    return make_step_list("app", std::move(steps))();
  };

  auto program = loader.build_image(spec)();
  FakeContext ctx;
  std::vector<std::string> trace;
  for (int i = 0; i < 50; ++i) {
    Step s = program->next(ctx);
    if (std::holds_alternative<ExitStep>(s)) break;
    if (const auto* c = std::get_if<ComputeStep>(&s)) {
      trace.push_back(c->tag);
    } else if (const auto* sc = std::get_if<kernel::SyscallStep>(&s)) {
      if (const auto* mc = std::get_if<SysMapCode>(&sc->req))
        trace.push_back("map:" + mc->mapping.object);
    }
  }
  const std::vector<std::string> expected = {
      "map:/bin/app", "map:libz", "ld.so:libz", "libz.ctor",
      "app.main",     "libz.zip", "libz.dtor"};
  EXPECT_EQ(trace, expected);
}

TEST(LoaderTest, PreloadChangesResolutionAtLaunchTime) {
  LibraryRegistry reg;
  reg.add(lib_with("libm", "sqrt", Cycles{40}));
  Loader loader(reg);
  ImageSpec spec;
  spec.path = "/bin/app";
  spec.content_tag = "app#1";
  spec.needed_libs = {"libm"};
  spec.imports = {"sqrt"};
  spec.main_program = [](const SymbolTable& syms) {
    return make_step_list("app", syms.call("sqrt"))();
  };
  const ProgramFactory factory = loader.build_image(spec);

  // Preload AFTER build_image but BEFORE instantiation: must take effect.
  reg.add(lib_with("wrap", "sqrt", Cycles{999}, true));
  reg.preload("wrap");

  auto program = factory();
  FakeContext ctx;
  bool saw_wrapper = false;
  for (int i = 0; i < 50; ++i) {
    Step s = program->next(ctx);
    if (std::holds_alternative<ExitStep>(s)) break;
    if (const auto* c = std::get_if<ComputeStep>(&s))
      saw_wrapper = saw_wrapper || c->tag == "wrap.sqrt";
  }
  EXPECT_TRUE(saw_wrapper);
}

// --- shell -----------------------------------------------------------------------------

TEST(Shell, LaunchChargesPreExecHooksToChild) {
  kernel::KernelConfig cfg;
  auto k = std::make_unique<kernel::Kernel>(
      cfg, std::make_unique<kernel::O1PriorityScheduler>(cfg.hz));

  ShellLaunchSpec spec;
  spec.image = make_step_list("/bin/job", {compute(seconds_to_cycles(0.004, cfg.cpu))});
  spec.path = "/bin/job";
  spec.preexec_hooks.push_back(
      compute(seconds_to_cycles(0.02, cfg.cpu), "injected"));
  (void)k->spawn({"bash", make_shell_program(std::move(spec)), Nice{0}, true});
  k->run();

  Pid job{};
  for (const Pid pid : k->all_pids())
    if (k->process(pid).name == "/bin/job") job = pid;
  ASSERT_TRUE(job.valid());
  // The child carries both the injected 20 ms and its own 4 ms.
  EXPECT_GE(k->process(job).usage.true_cycles.user.v, seconds_to_cycles(0.024, cfg.cpu).v);
}

TEST(Shell, ShellImageMeasurementReachesHooks) {
  kernel::KernelConfig cfg;
  auto k = std::make_unique<kernel::Kernel>(
      cfg, std::make_unique<kernel::O1PriorityScheduler>(cfg.hz));

  struct Recorder final : kernel::AccountingHook {
    std::vector<std::string> tags;
    void on_code_mapped(Cycles, Tgid, const CodeMapping& m) override {
      tags.push_back(m.content_tag);
    }
  } recorder;
  k->add_hook(&recorder);

  ShellLaunchSpec spec;
  spec.image = make_step_list("/bin/job", {compute(Cycles{1'000})});
  spec.path = "/bin/job";
  spec.shell_content_tag = "bash#evil";
  (void)k->spawn({"bash", make_shell_program(std::move(spec)), Nice{0}, true});
  k->run();
  ASSERT_FALSE(recorder.tags.empty());
  EXPECT_EQ(recorder.tags[0], "bash#evil");
}

// --- step footprint ----------------------------------------------------------------

TEST(StepFootprint, ComputeStepCostsTheSameForAnyPageRun) {
  // Building a step and copying it (as each chain instance copies its
  // literal phases) allocates nothing: the profile is a page range, and a
  // tag of at most 15 chars fits the string's inline buffer.
  const auto step_bytes = [](std::uint64_t pages) {
    std::uint64_t copied_pages = 0;
    const std::uint64_t bytes = test::heap_used_by([&] {
      const kernel::MemoryProfile mem{PageId{0x600}, pages, Cycles{2'530'000},
                                      kernel::HotAccess{VAddr{0x20'0040}, Cycles{250'000}}};
      const Step step = compute_mem(Cycles{25'300'000}, mem, "pi.arith");
      const Step copy = step;
      copied_pages = std::get<ComputeStep>(copy).mem.page_count;
    }).bytes;
    EXPECT_EQ(copied_pages, pages);
    return bytes;
  };
  const std::uint64_t one = step_bytes(1);
  EXPECT_EQ(step_bytes(4096), one);
  EXPECT_EQ(one, 0u);
}

/// Pushes one resolved body per generate call.
class BodyProgram final : public QueueProgram {
 public:
  explicit BodyProgram(const std::vector<Step>& body) : body_(body) {}
  std::string name() const override { return "body"; }

 protected:
  bool generate(kernel::ProcessContext&) override {
    push_all(body_);
    return true;
  }

 private:
  const std::vector<Step>& body_;
};

TEST(StepFootprint, PushAllOfAResolvedBodyAllocatesOnlyTheQueue) {
  // A body spanning several deque nodes, with tags short enough that
  // copying a step allocates nothing.
  SharedLibrary lib;
  lib.name = "libm";
  lib.content_tag = "libm#test";
  LibFunction f;
  for (int i = 0; i < 24; ++i) f.body.push_back(compute(Cycles{40}, "libm.sqrt"));
  lib.symbols["sqrt"] = std::move(f);
  LibraryRegistry reg;
  reg.add(std::move(lib));
  const SymbolTable syms = reg.resolve_all({"sqrt"}, {"libm"});
  const std::vector<Step>& body = syms.call("sqrt");
  ASSERT_EQ(body.size(), 24u);

  FakeContext ctx;
  Step first;
  const std::uint64_t program = test::heap_used_by([&] {
    BodyProgram p(body);
    first = p.next(ctx);
  }).bytes;
  EXPECT_EQ(std::get<ComputeStep>(first).tag, "libm.sqrt");
  // The same queue storage, filled with steps that own nothing.
  const std::uint64_t queue = test::heap_used_by([&] {
    std::deque<Step> d;
    d.insert(d.end(), body.size(), Step{ExitStep{}});
    d.pop_front();
  }).bytes;
  EXPECT_EQ(program, queue);
}

}  // namespace
}  // namespace mtr::exec
