// Shared-library model: named libraries with constructors/destructors and
// symbol tables, plus an LD_PRELOAD-aware registry that resolves symbols
// through the interposition chain. This is the substrate for both library
// attacks of the paper: a preloaded constructor payload (§IV-A2 / Fig. 5)
// and substituted malloc()/sqrt() wrappers that forward to the genuine
// implementation (§IV-A2 / Fig. 6).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "exec/program_base.hpp"

namespace mtr::exec {

/// One exported function: the steps executed per call. An interposer sets
/// `forwards` so resolution appends the next provider's body (the faked
/// malloc() runs its payload, then calls the genuine malloc()).
struct LibFunction {
  std::vector<Step> body;
  bool forwards = false;
};

struct SharedLibrary {
  std::string name;           // e.g. "libm"
  std::string content_tag;    // identity of the bytes, e.g. "libm#2.9"
  std::uint64_t code_pages = 4;
  Cycles load_cost{200'000};  // ld.so relocation work (runs in user mode)
  std::vector<Step> ctor_steps;  // __attribute__((constructor)) work
  std::vector<Step> dtor_steps;  // __attribute__((destructor)) work
  std::map<std::string, LibFunction> symbols;
};

/// Resolved function bodies a workload links against, keyed by symbol.
class SymbolTable {
 public:
  void define(std::string symbol, std::vector<Step> body);

  /// The steps for one call of `symbol`; throws ConfigError if undefined.
  const std::vector<Step>& call(std::string_view symbol) const;

  bool defined(std::string_view symbol) const;

 private:
  std::unordered_map<std::string, std::vector<Step>> table_;
};

/// System-wide library registry with an LD_PRELOAD list.
class LibraryRegistry {
 public:
  /// Installs a library; name must be unique.
  void add(SharedLibrary lib);

  /// Appends to LD_PRELOAD (earlier entries win symbol lookup).
  void preload(const std::string& name);

  const std::vector<std::string>& preloads() const { return preloads_; }

  bool has(std::string_view name) const;
  const SharedLibrary& get(std::string_view name) const;

  /// Link order for an image needing `needed`: preloads first (LD_PRELOAD
  /// semantics), then the needed libraries, duplicates removed.
  std::vector<std::string> link_order(const std::vector<std::string>& needed) const;

  /// Resolves one symbol through the interposition chain of `link order`:
  /// returns the first provider's body, followed by the next provider's
  /// body while providers forward. Throws ConfigError if no provider.
  std::vector<Step> resolve(std::string_view symbol,
                            const std::vector<std::string>& needed) const;

  /// Resolves every symbol in `imports` into a SymbolTable.
  SymbolTable resolve_all(const std::vector<std::string>& imports,
                          const std::vector<std::string>& needed) const;

 private:
  std::map<std::string, SharedLibrary, std::less<>> libs_;
  std::vector<std::string> preloads_;
};

}  // namespace mtr::exec
