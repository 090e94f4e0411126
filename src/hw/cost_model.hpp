// Cycle costs of kernel paths on the simulated machine.
//
// Values are order-of-magnitude calibrated against a 2.5 GHz x86 running
// Linux 2.6 (the paper's platform): a syscall round trip ~0.2–0.5 µs, a
// context switch ~1–3 µs, an interrupt handler a few µs, a major page fault
// several µs of CPU plus milliseconds of disk wait. The costs are fields of
// `KernelConfig::costs`; the sweeps keep the defaults, and only
// micro_substrate's I/O cell overrides one (`disk_latency`).
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace mtr::hw {

struct CostModel {
  // Mode transitions.
  Cycles syscall_entry{500};        // user→kernel trap
  Cycles syscall_exit{400};         // kernel→user return
  Cycles interrupt_entry{700};      // pin/vector dispatch before handler body
  Cycles interrupt_exit{400};

  // Kernel service bodies.
  Cycles timer_handler{2'000};        // tick bookkeeping + scheduler_tick
  Cycles nic_handler{9'000};          // softirq half of junk-packet receive
  Cycles disk_handler{6'000};         // completion processing
  Cycles context_switch{3'000};       // switch_to + runqueue manipulation
  Cycles signal_generate{1'200};      // kill-side work
  Cycles signal_deliver{8'000};       // frame setup on the receiving side
  Cycles fork_base{120'000};          // copy mm skeleton, PCB, runqueue insert
  Cycles execve_base{250'000};        // image load, mm teardown/rebuild
  Cycles exit_base{80'000};           // process teardown
  Cycles wait_base{4'000};
  Cycles ptrace_base{6'000};          // one ptrace request
  Cycles generic_syscall{2'500};      // body of an uninstrumented syscall
  Cycles page_fault_minor{4'000};     // resident elsewhere / first touch
  Cycles page_fault_major{60'000};    // handler CPU incl. swap I/O setup
  Cycles direct_reclaim_per_page{1'500};  // LRU scan work per freed frame
  Cycles debug_exception{90'000};     // #DB + ptrace_stop machinery (~35 us)

  // Device service times (elapsed, not CPU).
  Cycles disk_latency{12'500'000};    // ~5 ms at 2.53 GHz: one swap I/O
};

}  // namespace mtr::hw
