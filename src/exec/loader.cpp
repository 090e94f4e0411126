#include "exec/loader.hpp"

#include "common/ensure.hpp"

namespace mtr::exec {

namespace {

/// Map + relocate one library (measurement event, then ld.so user work).
void append_lib_load(std::vector<Step>& steps, const SharedLibrary& lib) {
  steps.push_back(syscall(kernel::SysMapCode{
      kernel::CodeMapping{lib.name, lib.content_tag, lib.code_pages}}));
  steps.push_back(compute(lib.load_cost, "ld.so:" + lib.name));
}

}  // namespace

ProgramFactory Loader::build_image(ImageSpec spec) const {
  MTR_ENSURE_MSG(spec.main_program != nullptr, "image needs a main program");
  const LibraryRegistry* registry = registry_;
  return [registry, spec = std::move(spec)]() -> std::unique_ptr<kernel::Program> {
    // Resolution happens at launch: the chain sees the LD_PRELOAD state of
    // the moment, exactly like the real dynamic linker.
    const std::vector<std::string> order = registry->link_order(spec.needed_libs);

    std::vector<Step> prologue;
    prologue.push_back(syscall(kernel::SysMapCode{
        kernel::CodeMapping{spec.path, spec.content_tag, spec.code_pages}}));
    for (const auto& lib_name : order)
      append_lib_load(prologue, registry->get(lib_name));
    // Constructors run before main(), preloaded libraries first.
    for (const auto& lib_name : order) {
      const SharedLibrary& lib = registry->get(lib_name);
      for (const auto& s : lib.ctor_steps) prologue.push_back(s);
    }

    std::vector<Step> epilogue;
    // Destructors run after main(), reverse order.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const SharedLibrary& lib = registry->get(*it);
      for (const auto& s : lib.dtor_steps) epilogue.push_back(s);
    }

    // Each phase is built in its own slot of a list sized up front, so no
    // phase is ever moved: GCC cannot follow which alternative a moved
    // phase holds and warns about the other one.
    std::vector<ChainPhase> phases;
    phases.reserve(3);
    phases.emplace_back(std::move(prologue));
    phases.emplace_back(
        std::in_place_type<ProgramFactory>,
        [builder = spec.main_program,
         symbols = registry->resolve_all(spec.imports, spec.needed_libs)]() {
          return builder(symbols);
        });
    phases.emplace_back(std::move(epilogue));
    return std::make_unique<ChainProgram>(spec.path, std::move(phases));
  };
}

}  // namespace mtr::exec
