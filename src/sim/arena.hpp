#pragma once

#include <cstddef>
#include <deque>
#include <new>

namespace recosim::sim {

/// Freelist-backed pool for the simulator's hot small allocations, the
/// packet queue chunks. Blocks are individually operator-new'd and, once
/// freed, cached on a size-class freelist instead of going back to the
/// general heap, so the steady-state send paths allocate without touching
/// malloc/free at all.
///
/// The pool is per-thread (Arena::thread_arena()); the simulator runs one
/// kernel per thread (farm workers included), so "per-kernel arena" and
/// per-thread arena coincide and no locking is needed. Lifetime rule:
/// anything that deallocates through the arena must die before its thread
/// does — true for every kernel-scoped object in this codebase.
///
/// Pooling is always on: it pays end to end (docs/performance.md), and
/// allocation addresses never feed back into simulation results.
class Arena {
 public:
  Arena() = default;
  ~Arena() { release(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// The calling thread's pool.
  static Arena& thread_arena();

  void* allocate(std::size_t bytes) {
    const int cls = size_class(bytes);
    if (cls < 0) return ::operator new(bytes);
    if (FreeNode* n = free_[static_cast<std::size_t>(cls)]) {
      free_[static_cast<std::size_t>(cls)] = n->next;
      return n;
    }
    return ::operator new(std::size_t{1} << (kMinShift + cls));
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    if (p == nullptr) return;
    const int cls = size_class(bytes);
    if (cls < 0) {
      ::operator delete(p);
      return;
    }
    auto* n = static_cast<FreeNode*>(p);
    n->next = free_[static_cast<std::size_t>(cls)];
    free_[static_cast<std::size_t>(cls)] = n;
  }

  /// Return every cached block to the heap (freelists stay usable).
  void release() noexcept {
    for (std::size_t c = 0; c < kClasses; ++c) {
      FreeNode* n = free_[c];
      while (n != nullptr) {
        FreeNode* next = n->next;
        ::operator delete(n);
        n = next;
      }
      free_[c] = nullptr;
    }
  }

 private:
  // Size classes: powers of two from 16 B to 4 KiB; larger requests (none
  // on the hot paths today) pass through to the heap.
  static constexpr std::size_t kMinShift = 4;
  static constexpr std::size_t kMaxShift = 12;
  static constexpr std::size_t kClasses = kMaxShift - kMinShift + 1;

  struct FreeNode {
    FreeNode* next;
  };

  static int size_class(std::size_t bytes) {
    if (bytes > (std::size_t{1} << kMaxShift)) return -1;
    int cls = 0;
    while ((std::size_t{1} << (kMinShift + cls)) < bytes) ++cls;
    return cls;
  }

  FreeNode* free_[kClasses] = {};
};

/// Stateless std allocator routing through the thread's Arena; drop-in for
/// the packet deques on the architectures' hot paths.
template <typename T>
class ArenaAlloc {
 public:
  using value_type = T;

  static_assert(alignof(T) <= alignof(std::max_align_t),
                "ArenaAlloc does not support over-aligned types");

  ArenaAlloc() noexcept = default;
  template <typename U>
  ArenaAlloc(const ArenaAlloc<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(Arena::thread_arena().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    Arena::thread_arena().deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const ArenaAlloc&, const ArenaAlloc&) {
    return true;
  }
  friend bool operator!=(const ArenaAlloc&, const ArenaAlloc&) {
    return false;
  }
};

/// Packet-queue type used on the architectures' send/forward paths: a
/// deque whose chunk allocations come from the arena freelists.
template <typename T>
using PoolDeque = std::deque<T, ArenaAlloc<T>>;

}  // namespace recosim::sim
