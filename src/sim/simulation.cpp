#include "sim/simulation.hpp"

#include <ranges>

#include "common/ensure.hpp"
#include "kernel/cfs_scheduler.hpp"
#include "kernel/o1_scheduler.hpp"
#include "workloads/stdlibs.hpp"

namespace mtr::sim {

const char* to_string(SchedulerKind k) {
  return k == SchedulerKind::kO1 ? "o1" : "cfs";
}

namespace {
std::unique_ptr<kernel::Scheduler> make_scheduler(const SimConfig& cfg) {
  switch (cfg.scheduler) {
    case SchedulerKind::kO1:
      return std::make_unique<kernel::O1PriorityScheduler>(cfg.kernel.hz);
    case SchedulerKind::kCfs:
      return std::make_unique<kernel::CfsScheduler>(cfg.kernel.cpu);
  }
  throw ConfigError("unknown scheduler kind");
}
}  // namespace

Simulation::Simulation(SimConfig config)
    : config_(config),
      kernel_(std::make_unique<kernel::Kernel>(config.kernel, make_scheduler(config))),
      registry_(workloads::standard_registry()),
      loader_(registry_) {}

Cycles Simulation::tick() const {
  return tick_length(config_.kernel.cpu, config_.kernel.hz);
}

Pid Simulation::launch(const exec::ImageSpec& image, LaunchOptions opts) {
  // A tampered shell may burn arbitrary CPU between fork() and execve();
  // budget the discovery deadline for it (3× covers contention).
  Cycles hook_cycles{0};
  for (const kernel::Step& s : opts.shell_preexec) {
    if (const auto* c = std::get_if<kernel::ComputeStep>(&s)) hook_cycles += c->cycles;
  }

  exec::ShellLaunchSpec shell;
  shell.image = loader_.build_image(image);
  shell.path = image.path;
  shell.preexec_hooks = std::move(opts.shell_preexec);
  shell.shell_content_tag = std::move(opts.shell_content_tag);

  kernel::SpawnSpec spec;
  spec.name = "bash";
  spec.program = exec::make_shell_program(std::move(shell));
  spec.nice = opts.nice;
  const Pid bash = kernel_->spawn(std::move(spec));

  // Step until the forked child has execve'd the target (its name becomes
  // the image path). An unattacked launch lasts well under a second of
  // virtual time; 64 ticks is a generous bound. Only pids issued after the
  // shell's can be its child, so each poll scans those few, and an earlier
  // job of the same image is never mistaken for this one.
  const Cycles deadline = kernel_->now() + tick() * 64 + hook_cycles * 3;
  while (kernel_->now() < deadline) {
    for (const Pid pid : kernel_->all_pids() | std::views::drop(bash.v)) {
      if (kernel_->process(pid).name == image.path) return pid;
    }
    kernel_->run(kernel_->now() + tick());
  }
  throw InvariantError("launch: target process never appeared: " + image.path);
}

bool Simulation::run_until_exit(Pid pid, Cycles max_cycles) {
  const Cycles deadline = kernel_->now() + max_cycles;
  const Cycles stride = tick() * 16;
  while (!exited(pid)) {
    if (kernel_->all_work_done() || kernel_->now() >= deadline) break;
    kernel_->run(std::min(kernel_->now() + stride, deadline));
  }
  return exited(pid);
}

void Simulation::run_all(Cycles max_cycles) {
  kernel_->run(kernel_->now() + max_cycles);
}

void Simulation::run_for(Cycles delta) { kernel_->run(kernel_->now() + delta); }

bool Simulation::exited(Pid pid) const {
  const kernel::Process& p = kernel_->process(pid);
  return !p.alive();
}

std::vector<Pid> Simulation::group_members(Tgid tg) const {
  std::vector<Pid> out;
  for (const Pid pid : kernel_->group_members(tg)) {
    if (kernel_->process(pid).alive()) out.push_back(pid);
  }
  return out;
}

kernel::Usage Simulation::usage_of(Pid pid) const {
  return kernel_->group_usage(kernel_->process(pid).tgid);
}

}  // namespace mtr::sim
