#include "report/cell_key.hpp"

#include <cmath>
#include <type_traits>

#include "common/parse.hpp"
#include "core/batch_runner.hpp"
#include "sim/simulation.hpp"

namespace mtr::report {

FieldValue CellKeyColumn::value(const CellKey& key) const {
  return std::visit([&](auto m) { return FieldValue{key.*m}; }, member);
}

bool CellKeyColumn::parse(CellKey& key, std::string_view text) const {
  return std::visit(
      [&](auto m) {
        using T = std::remove_reference_t<decltype(key.*m)>;
        if constexpr (std::is_same_v<T, std::string>) {
          key.*m = text;
          return true;
        } else if constexpr (std::is_same_v<T, bool>) {
          if (text != "true" && text != "false") return false;
          key.*m = text == "true";
          return true;
        } else if constexpr (std::is_same_v<T, double>) {
          const std::optional<double> v = parse_f64(text);
          if (!v || !std::isfinite(*v)) return false;
          key.*m = *v;
          return true;
        } else {
          const std::optional<T> v = parse_number<T>(text);
          if (!v) return false;
          key.*m = *v;
          return true;
        }
      },
      member);
}

CellKey cell_key(const std::string& sweep, std::uint64_t cell_index,
                 const core::GridCellCoords& c) {
  return {sweep,
          cell_index,
          c.attack_label,
          sim::to_string(c.scheduler),
          c.hz.v,
          c.cpu.v,
          c.ram.frames,
          c.ram.reclaim_batch,
          kernel::to_string(c.ptrace),
          c.jiffy_timers,
          c.population,
          c.attacker_fraction,
          c.nice.victim.v,
          c.nice.attacker.v};
}

const char* first_difference(const CellKey& a, const CellKey& b) {
  for (const CellKeyColumn& col : kCellKeyColumns)
    if (std::visit([&](auto m) { return a.*m != b.*m; }, col.member))
      return col.name;
  return nullptr;
}

std::string describe(const CellKey& key) {
  return "cell " + std::to_string(key.cell_index) + " [sweep=" + key.sweep +
         ", attack=" + key.attack + ", scheduler=" + key.scheduler +
         ", hz=" + std::to_string(key.hz) + "]";
}

}  // namespace mtr::report
