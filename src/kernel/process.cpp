#include "kernel/process.hpp"

namespace mtr::kernel {

const char* to_string(ProcState s) {
  switch (s) {
    case ProcState::kReady: return "ready";
    case ProcState::kRunning: return "running";
    case ProcState::kSleeping: return "sleeping";
    case ProcState::kStopped: return "stopped";
    case ProcState::kZombie: return "zombie";
    case ProcState::kReaped: return "reaped";
  }
  return "?";
}

const char* to_string(Signal s) {
  switch (s) {
    case Signal::kChld: return "SIGCHLD";
    case Signal::kStop: return "SIGSTOP";
    case Signal::kCont: return "SIGCONT";
    case Signal::kKill: return "SIGKILL";
    case Signal::kTrap: return "SIGTRAP";
    case Signal::kSegv: return "SIGSEGV";
    case Signal::kUsr1: return "SIGUSR1";
  }
  return "?";
}

Process::Process(Pid pid_in, Tgid tgid_in, Pid parent_in, std::string name_in,
                 std::unique_ptr<Program> program_in, Nice nice_in, std::uint64_t)
    : pid(pid_in),
      tgid(tgid_in),
      parent(parent_in),
      name(std::move(name_in)),
      program(std::move(program_in)),
      nice(nice_in) {}

}  // namespace mtr::kernel
