#include "mm/address_space.hpp"

#include <algorithm>
#include <utility>

#include "common/ensure.hpp"

namespace mtr::mm {

std::size_t AddressSpace::position(std::uint64_t index) const {
  if (last_ < blocks_.size() && blocks_[last_].index == index) return last_;
  const auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), index,
      [](const Block& b, std::uint64_t i) { return b.index < i; });
  return static_cast<std::size_t>(it - blocks_.begin());
}

PageEntry& AddressSpace::entry(PageId page) {
  const std::uint64_t index = page.v / kBlockPages;
  const std::size_t at = position(index);
  if (at == blocks_.size() || blocks_[at].index != index)
    blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(at), Block{index});
  last_ = at;
  return blocks_[at].pages[page.v % kBlockPages];
}

const PageEntry* AddressSpace::find(PageId page) const {
  const std::uint64_t index = page.v / kBlockPages;
  const std::size_t at = position(index);
  if (at == blocks_.size() || blocks_[at].index != index) return nullptr;
  last_ = at;
  return &blocks_[at].pages[page.v % kBlockPages];
}

PageEntry* AddressSpace::find(PageId page) {
  return const_cast<PageEntry*>(std::as_const(*this).find(page));
}

void AddressSpace::note_made_nonresident() {
  MTR_ENSURE(resident_ > 0);
  --resident_;
}

}  // namespace mtr::mm
