#include "workloads/population.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "exec/program_base.hpp"

namespace mtr::workloads {
namespace {

// Salts split the cell seed into independent streams: per-tenant seeds and
// the attacker placement draw must not correlate.
constexpr std::uint64_t kTenantSeedSalt = 0x6C62272E07BB0142ull;
constexpr std::uint64_t kAttackerDrawSalt = 0x27D4EB2F165667C5ull;

// Neighbor compute granularity: a tenth of a 100 Hz jiffy at the paper's
// 2.53 GHz, so even small tenants interleave under the scheduler instead of
// finishing inside one slice.
constexpr std::uint64_t kTenantChunkCycles = 2'530'000;

}  // namespace

const char* archetype_name(TenantArchetype a) {
  switch (a) {
    case TenantArchetype::kCpuBound: return "cpu";
    case TenantArchetype::kMalloc: return "malloc";
    case TenantArchetype::kIoBound: return "io";
    case TenantArchetype::kBursty: return "bursty";
  }
  return "?";
}

std::vector<TenantSpec> generate_population(const PopulationSpec& spec,
                                            std::uint64_t cell_seed) {
  MTR_ENSURE_MSG(spec.size >= 1, "population size must be >= 1");
  MTR_ENSURE_MSG(spec.attacker_fraction >= 0.0 && spec.attacker_fraction <= 1.0,
                 "attacker fraction must be in [0,1]");

  std::vector<TenantSpec> tenants(spec.size);
  SplitMix64 seeds(cell_seed ^ kTenantSeedSalt);
  for (std::uint32_t i = 0; i < spec.size; ++i) {
    tenants[i].index = i;
    tenants[i].seed = seeds.next();
  }
  if (spec.size == 1) return tenants;  // classic single-victim cell

  // Zipf shares over neighbor ranks 1..size-1, normalized to sum to 1.
  // Summation order is fixed (ascending rank), so the doubles are
  // bit-reproducible everywhere.
  const std::uint32_t neighbors = spec.size - 1;
  double total = 0.0;
  for (std::uint32_t r = 1; r <= neighbors; ++r)
    total += std::pow(static_cast<double>(r), -spec.zipf_exponent);
  for (std::uint32_t r = 1; r <= neighbors; ++r) {
    tenants[r].share =
        std::pow(static_cast<double>(r), -spec.zipf_exponent) / total;
  }

  // Archetype per neighbor, drawn from its own seed stream.
  for (std::uint32_t i = 1; i < spec.size; ++i) {
    Xoshiro256 rng(tenants[i].seed);
    tenants[i].archetype = static_cast<TenantArchetype>(rng.next_below(4));
  }

  // Attacker placement: a partial Fisher–Yates over the neighbor indices,
  // seeded from its own salt so changing the fraction reshuffles nothing
  // else about the population.
  const auto k = static_cast<std::uint32_t>(std::llround(
      spec.attacker_fraction * static_cast<double>(neighbors)));
  if (k > 0) {
    std::vector<std::uint32_t> order(neighbors);
    std::iota(order.begin(), order.end(), 1u);
    Xoshiro256 draw(SplitMix64(cell_seed ^ kAttackerDrawSalt).next());
    for (std::uint32_t i = 0; i < std::min(k, neighbors); ++i) {
      const std::uint64_t j = i + draw.next_below(neighbors - i);
      std::swap(order[i], order[j]);
      tenants[order[i]].attacker = true;
    }
  }
  return tenants;
}

kernel::ProgramFactory make_tenant_program(const TenantSpec& tenant,
                                           double neighbor_cycles) {
  const auto budget = static_cast<std::uint64_t>(
      std::llround(std::max(0.0, tenant.share * neighbor_cycles)));
  const TenantArchetype archetype = tenant.archetype;
  std::string name = tenant_name(tenant);
  // Every tenant runs at least one chunk so even the Zipf tail exists as a
  // schedulable process (the point of the population experiments).
  const std::uint64_t total = std::max<std::uint64_t>(budget, 1);
  return exec::make_generator(
      std::move(name),
      [archetype, remaining = total, chunk_i = std::uint64_t{0},
       syscall_due = false](kernel::ProcessContext&) mutable
          -> std::optional<kernel::Step> {
        // The archetype's kernel interaction, interleaved between chunks.
        if (syscall_due) {
          syscall_due = false;
          switch (archetype) {
            case TenantArchetype::kCpuBound:
              break;
            case TenantArchetype::kMalloc:
              return exec::syscall(kernel::SysMmap{1});
            case TenantArchetype::kIoBound:
              return exec::syscall(kernel::SysDiskIo{1});
            case TenantArchetype::kBursty:
              return exec::syscall(
                  kernel::SysNanosleep{Cycles{4 * kTenantChunkCycles}});
          }
        }
        if (remaining == 0) return std::nullopt;
        const std::uint64_t step = std::min(remaining, kTenantChunkCycles);
        remaining -= step;
        ++chunk_i;
        switch (archetype) {
          case TenantArchetype::kCpuBound: break;
          case TenantArchetype::kMalloc: syscall_due = chunk_i % 8 == 0; break;
          case TenantArchetype::kIoBound: syscall_due = chunk_i % 4 == 0; break;
          case TenantArchetype::kBursty: syscall_due = chunk_i % 2 == 0; break;
        }
        return exec::compute(Cycles{step});
      });
}

std::string tenant_name(const TenantSpec& tenant) {
  // Appended piecewise: GCC 12 at -O3 without LTO false-fires -Wrestrict
  // on a `"[" + std::string(...)` temporary.
  std::string n = "tenant-";
  n += std::to_string(tenant.index);
  n += '[';
  n += tenant.attacker ? "atk" : archetype_name(tenant.archetype);
  n += ']';
  return n;
}

}  // namespace mtr::workloads
