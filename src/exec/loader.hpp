// Execve image builder.
//
// Mirrors the launch sequence the paper dissects (§III-C): execve loads the
// image, the dynamic linker maps and relocates the needed shared libraries
// (user-mode work billed to the process), library constructors run before
// main(), the program runs, destructors run after main() — all inside the
// metered process. Everything the linker splices in is therefore on the
// customer's bill, which is exactly what the library attacks exploit.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exec/library.hpp"
#include "exec/program_base.hpp"

namespace mtr::exec {

/// Builds the workload program once its imports are resolved against the
/// current library chain (LD_PRELOAD included).
using ProgramBuilder =
    std::function<std::unique_ptr<kernel::Program>(const SymbolTable&)>;

struct ImageSpec {
  std::string path;            // e.g. "/usr/bin/whetstone"
  std::string content_tag;     // identity of the executable bytes
  std::uint64_t code_pages = 16;
  std::vector<std::string> needed_libs;  // DT_NEEDED
  std::vector<std::string> imports;      // symbols resolved at load time
  ProgramBuilder main_program;
};

class Loader {
 public:
  explicit Loader(const LibraryRegistry& registry) : registry_(&registry) {}

  /// Builds the execve image: map image + libraries (with measurement
  /// events), linker relocation work, constructors, main, destructors.
  /// Resolution happens when the factory runs, so LD_PRELOAD changes made
  /// before launch are honoured.
  ProgramFactory build_image(ImageSpec spec) const;

 private:
  const LibraryRegistry* registry_;
};

}  // namespace mtr::exec
