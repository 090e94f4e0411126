// Core vocabulary types shared by every metertrust module.
//
// Following the C++ Core Guidelines (I.4, Enum.2) we use strong types for
// the domain quantities that would otherwise all be "uint64_t": cycle
// counts, tick counts, process ids, page numbers, and so on. Mixing them up
// is the classic source of accounting bugs — exactly the class of defect
// this library studies.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>

namespace mtr {

// ---------------------------------------------------------------------------
// Time.
// ---------------------------------------------------------------------------

/// A count of virtual CPU cycles. The simulator's master clock unit.
struct Cycles {
  std::uint64_t v = 0;

  constexpr Cycles() = default;
  constexpr explicit Cycles(std::uint64_t value) : v(value) {}

  constexpr auto operator<=>(const Cycles&) const = default;

  constexpr Cycles& operator+=(Cycles o) { v += o.v; return *this; }
  constexpr Cycles& operator-=(Cycles o) { v -= o.v; return *this; }

  friend constexpr Cycles operator+(Cycles a, Cycles b) { return Cycles{a.v + b.v}; }
  friend constexpr Cycles operator-(Cycles a, Cycles b) { return Cycles{a.v - b.v}; }
  friend constexpr Cycles operator*(Cycles a, std::uint64_t k) { return Cycles{a.v * k}; }
  friend constexpr Cycles operator*(std::uint64_t k, Cycles a) { return Cycles{a.v * k}; }
  friend constexpr std::uint64_t operator/(Cycles a, Cycles b) { return a.v / b.v; }
  friend constexpr Cycles operator%(Cycles a, Cycles b) { return Cycles{a.v % b.v}; }

  friend std::ostream& operator<<(std::ostream& os, Cycles c) { return os << c.v << "cy"; }
};

/// A count of timer ticks (jiffies).
struct Ticks {
  std::uint64_t v = 0;

  constexpr Ticks() = default;
  constexpr explicit Ticks(std::uint64_t value) : v(value) {}

  constexpr auto operator<=>(const Ticks&) const = default;

  constexpr Ticks& operator+=(Ticks o) { v += o.v; return *this; }
  friend constexpr Ticks operator+(Ticks a, Ticks b) { return Ticks{a.v + b.v}; }
  friend constexpr Ticks operator-(Ticks a, Ticks b) { return Ticks{a.v - b.v}; }

  friend std::ostream& operator<<(std::ostream& os, Ticks t) { return os << t.v << "tk"; }
};

/// Virtual CPU frequency in cycles per second.
struct CpuHz {
  std::uint64_t v = 2'530'000'000;  // models the paper's E7200 @ 2.53 GHz

  constexpr auto operator<=>(const CpuHz&) const = default;
};

/// Timer interrupt rate (ticks per second); Linux calls this HZ.
struct TimerHz {
  std::uint64_t v = 250;  // Ubuntu 8.10 desktop kernels ran at 250 HZ

  constexpr auto operator<=>(const TimerHz&) const = default;
};

/// Converts a cycle count to fractional seconds at the given CPU frequency.
constexpr double cycles_to_seconds(Cycles c, CpuHz hz) {
  return static_cast<double>(c.v) / static_cast<double>(hz.v);
}

/// Converts fractional seconds to a cycle count at the given CPU frequency.
constexpr Cycles seconds_to_cycles(double s, CpuHz hz) {
  return Cycles{static_cast<std::uint64_t>(s * static_cast<double>(hz.v))};
}

/// Length of one timer tick in cycles.
constexpr Cycles tick_length(CpuHz cpu, TimerHz timer) {
  return Cycles{cpu.v / timer.v};
}

/// Converts a tick count to fractional seconds.
constexpr double ticks_to_seconds(Ticks t, TimerHz hz) {
  return static_cast<double>(t.v) / static_cast<double>(hz.v);
}

// ---------------------------------------------------------------------------
// Identifiers.
// ---------------------------------------------------------------------------

/// Process identifier. Pid 0 is reserved for the idle/swapper context.
struct Pid {
  std::int32_t v = -1;

  constexpr Pid() = default;
  constexpr explicit Pid(std::int32_t value) : v(value) {}

  constexpr auto operator<=>(const Pid&) const = default;
  constexpr bool valid() const { return v >= 0; }

  friend std::ostream& operator<<(std::ostream& os, Pid p) { return os << "pid" << p.v; }
};

/// The reserved idle ("swapper") context.
inline constexpr Pid kIdlePid{0};

/// Thread-group id: the pid of the thread-group leader (POSIX process id).
struct Tgid {
  std::int32_t v = -1;

  constexpr Tgid() = default;
  constexpr explicit Tgid(std::int32_t value) : v(value) {}

  constexpr auto operator<=>(const Tgid&) const = default;
  constexpr bool valid() const { return v >= 0; }

  friend std::ostream& operator<<(std::ostream& os, Tgid t) { return os << "tgid" << t.v; }
};

/// Hardware interrupt line number.
struct Irq {
  std::uint8_t v = 0;

  constexpr Irq() = default;
  constexpr explicit Irq(std::uint8_t value) : v(value) {}

  constexpr auto operator<=>(const Irq&) const = default;
};

/// A virtual address in a process address space.
struct VAddr {
  std::uint64_t v = 0;

  constexpr VAddr() = default;
  constexpr explicit VAddr(std::uint64_t value) : v(value) {}

  constexpr auto operator<=>(const VAddr&) const = default;

  friend std::ostream& operator<<(std::ostream& os, VAddr a) {
    return os << "0x" << std::hex << a.v << std::dec;
  }
};

/// Virtual page number (VAddr >> 12 under the fixed 4 KiB page size).
struct PageId {
  std::uint64_t v = 0;

  constexpr PageId() = default;
  constexpr explicit PageId(std::uint64_t value) : v(value) {}

  constexpr auto operator<=>(const PageId&) const = default;
};

/// Physical frame number.
struct FrameId {
  std::uint32_t v = 0;

  constexpr FrameId() = default;
  constexpr explicit FrameId(std::uint32_t value) : v(value) {}

  constexpr auto operator<=>(const FrameId&) const = default;
};

inline constexpr std::uint64_t kPageSize = 4096;

constexpr PageId page_of(VAddr a) { return PageId{a.v / kPageSize}; }
constexpr VAddr page_base(PageId p) { return VAddr{p.v * kPageSize}; }

/// Scheduling niceness, Linux semantics: -20 (most favourable) .. 19.
struct Nice {
  std::int8_t v = 0;

  constexpr Nice() = default;
  constexpr explicit Nice(std::int8_t value) : v(value) {}

  constexpr auto operator<=>(const Nice&) const = default;

  friend std::ostream& operator<<(std::ostream& os, Nice n) {
    return os << "nice(" << static_cast<int>(n.v) << ')';
  }
};

inline constexpr Nice kNiceMin{-20};
inline constexpr Nice kNiceMax{19};

/// CPU privilege mode; determines whether a tick lands in utime or stime.
enum class CpuMode : std::uint8_t { kUser, kKernel };

inline const char* to_string(CpuMode m) {
  return m == CpuMode::kUser ? "user" : "kernel";
}

// ---------------------------------------------------------------------------
// Accounting records.
// ---------------------------------------------------------------------------

/// A user/system split of CPU time measured in cycles.
struct CpuUsageCycles {
  Cycles user;
  Cycles system;

  constexpr Cycles total() const { return user + system; }
  constexpr bool operator==(const CpuUsageCycles&) const = default;

  constexpr CpuUsageCycles& operator+=(const CpuUsageCycles& o) {
    user += o.user;
    system += o.system;
    return *this;
  }
  friend constexpr CpuUsageCycles operator+(CpuUsageCycles a, const CpuUsageCycles& b) {
    a += b;
    return a;
  }
};

/// A user/system split of CPU time measured in ticks — what `getrusage`
/// reports on a commodity kernel.
struct CpuUsageTicks {
  Ticks utime;
  Ticks stime;

  constexpr Ticks total() const { return utime + stime; }
  constexpr bool operator==(const CpuUsageTicks&) const = default;

  constexpr CpuUsageTicks& operator+=(const CpuUsageTicks& o) {
    utime += o.utime;
    stime += o.stime;
    return *this;
  }
};

}  // namespace mtr

template <>
struct std::hash<mtr::Pid> {
  std::size_t operator()(mtr::Pid p) const noexcept {
    return std::hash<std::int32_t>{}(p.v);
  }
};

template <>
struct std::hash<mtr::Tgid> {
  std::size_t operator()(mtr::Tgid t) const noexcept {
    return std::hash<std::int32_t>{}(t.v);
  }
};

template <>
struct std::hash<mtr::PageId> {
  std::size_t operator()(mtr::PageId p) const noexcept {
    return std::hash<std::uint64_t>{}(p.v);
  }
};

template <>
struct std::hash<mtr::VAddr> {
  std::size_t operator()(mtr::VAddr a) const noexcept {
    return std::hash<std::uint64_t>{}(a.v);
  }
};
