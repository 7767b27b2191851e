#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace recosim::sim {

/// Set of node indices (routers, switches) with pending cycle work: the
/// busy-path gating of the DyNoC and CoNoChi meshes (docs/performance.md).
/// A bitmap plus a population count, so empty() is O(1) and for_each()
/// costs one word per 64 nodes plus one step per member.
class WorkSet {
 public:
  /// Size the set for indices [0, n) and clear it.
  void reset(std::size_t n) {
    bits_.assign((n + 63) / 64, 0);
    count_ = 0;
  }

  /// Add `i`; marking a member again changes nothing.
  void mark(int i) { set(i, true); }

  /// Make `i` a member iff `want`.
  void set(int i, bool want) {
    std::uint64_t& word = bits_[static_cast<std::size_t>(i) / 64];
    const std::uint64_t bit = std::uint64_t{1}
                              << (static_cast<unsigned>(i) % 64);
    if (want == ((word & bit) != 0)) return;
    word ^= bit;
    if (want) {
      ++count_;
    } else {
      --count_;
    }
  }

  bool empty() const { return count_ == 0; }

  /// Visit the members in strictly ascending order, re-reading each word
  /// live: an index marked *ahead* of the cursor during the walk is
  /// visited in this same pass, one marked behind it waits for the next.
  /// That is exactly the visibility a walk over every node gives mid-cycle
  /// wakes, which keeps the gated iteration bit-identical to the ungated
  /// one.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      std::uint64_t mask = ~std::uint64_t{0};
      while (const std::uint64_t pending = bits_[w] & mask) {
        const int b = std::countr_zero(pending);
        mask = b == 63 ? 0 : ~std::uint64_t{0} << (b + 1);
        fn(static_cast<int>(w * 64) + b);
      }
    }
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::size_t count_ = 0;
};

}  // namespace recosim::sim
