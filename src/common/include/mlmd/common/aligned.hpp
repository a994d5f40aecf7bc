#pragma once
// Cache-line/SIMD-aligned allocation for hot arrays (wavefunctions,
// GEMM tiles). Mirrors the paper's OMPallocator idea (Sec. V.B.6): a
// std-compatible allocator that owns placement policy so container-side
// code stays clean. Without a device, "placement" here means alignment.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace mlmd {

/// One cache line, and the width of an AVX-512 zmm register. Every
/// hot-path allocation site — this allocator, the Workspace arena, the
/// packed GEMM panels — aligns to this, so a vector load of a panel row
/// or an accumulator row never splits a cache line. The micro-kernels
/// do not rely on it for correctness: their loads are unaligned, which
/// cost nothing extra on aligned data.
inline constexpr std::size_t kSimdAlign = 64;

/// True when `p` sits on an `align`-byte boundary. Tests assert this on
/// Workspace scratch and packed GEMM panels instead of trusting the
/// allocation sites.
inline bool is_aligned(const void* p, std::size_t align = kSimdAlign) {
  return (reinterpret_cast<std::uintptr_t>(p) & (align - 1)) == 0;
}

/// std::allocator drop-in with 64-byte alignment.
template <class T, std::size_t Align = kSimdAlign>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = std::aligned_alloc(Align, round_up(n * sizeof(T)));
    if (!p) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) { return true; }

private:
  static std::size_t round_up(std::size_t bytes) {
    return (bytes + Align - 1) / Align * Align;
  }
};

} // namespace mlmd
