// The cell key: the identity of one grid cell as every sink record spells
// it (schema v4). One struct holds the 14 coordinate columns, and one
// column table drives every job done with them: the sinks write them, the
// scanners read them back, resume and merge compare them, and errors
// describe a cell through them.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace mtr::core {
struct GridCellCoords;
}

namespace mtr::report {

/// One cell's identity: the values its records hold in the coordinate
/// columns, typed as the records write them.
struct CellKey {
  std::string sweep;
  std::uint64_t cell_index = 0;  // invocation-global ordinal: the merge key
  std::string attack;
  std::string scheduler;  // sim::to_string form
  std::uint64_t hz = 0;
  std::uint64_t cpu_hz = 0;
  std::uint64_t ram_frames = 0;
  std::uint64_t reclaim_batch = 0;
  std::string ptrace;  // kernel::to_string form
  bool jiffy_timers = true;
  std::uint64_t population = 1;
  double attacker_fraction = 0.0;  // finite; %.17g round-trips it bit-exact
  std::int64_t victim_nice = 0;
  std::int64_t attacker_nice = 0;

  friend bool operator==(const CellKey&, const CellKey&) = default;
};

/// One coordinate column: its record key and the CellKey member behind it.
struct CellKeyColumn {
  const char* name;
  std::variant<std::string CellKey::*, std::uint64_t CellKey::*,
               std::int64_t CellKey::*, double CellKey::*, bool CellKey::*>
      member;

  /// True for the string columns (quoted in JSONL).
  bool is_text() const {
    return std::holds_alternative<std::string CellKey::*>(member);
  }
  bool is_bool() const {
    return std::holds_alternative<bool CellKey::*>(member);
  }
  /// Strict parse of one (unquoted) value into `key`: text as is, exactly
  /// true/false, decimal integers (mtr::parse_number), and doubles that
  /// pass mtr::parse_f64 and are finite. False on anything else.
  bool parse(CellKey& key, std::string_view text) const;
};

/// Every coordinate column in cell-record order. Run records write the
/// first kRunHeadColumns right after `schema` and the population columns
/// after the result fields.
inline constexpr std::array<CellKeyColumn, 14> kCellKeyColumns = {{
    {"sweep", &CellKey::sweep},
    {"cell_index", &CellKey::cell_index},
    {"attack", &CellKey::attack},
    {"scheduler", &CellKey::scheduler},
    {"hz", &CellKey::hz},
    {"cpu_hz", &CellKey::cpu_hz},
    {"ram_frames", &CellKey::ram_frames},
    {"reclaim_batch", &CellKey::reclaim_batch},
    {"ptrace", &CellKey::ptrace},
    {"jiffy_timers", &CellKey::jiffy_timers},
    {"population", &CellKey::population},
    {"attacker_fraction", &CellKey::attacker_fraction},
    {"victim_nice", &CellKey::victim_nice},
    {"attacker_nice", &CellKey::attacker_nice},
}};
inline constexpr std::size_t kRunHeadColumns = 10;  // sweep .. jiffy_timers

/// The key the records of grid cell `coords` carry.
CellKey cell_key(const std::string& sweep, std::uint64_t cell_index,
                 const core::GridCellCoords& coords);

/// Name of the first column (table order) where `a` and `b` differ;
/// nullptr when the keys are equal.
const char* first_difference(const CellKey& a, const CellKey& b);

/// "cell N [sweep=…, attack=…, scheduler=…, hz=…]": how errors name a
/// cell.
std::string describe(const CellKey& key);

}  // namespace mtr::report
