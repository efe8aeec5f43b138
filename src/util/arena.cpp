#include "util/arena.hpp"

#include <algorithm>
#include <new>

#include "util/assert.hpp"

namespace mnemo::util {

namespace {

/// operator new[] guarantees this alignment for the chunk base; stricter
/// requests are satisfied by padding the bump cursor.
constexpr std::size_t kChunkBaseAlign = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

[[nodiscard]] std::size_t align_up(std::size_t offset,
                                   std::size_t alignment) noexcept {
  return (offset + alignment - 1) & ~(alignment - 1);
}

}  // namespace

void* Arena::do_allocate(std::size_t bytes, std::size_t alignment) {
  MNEMO_EXPECTS(alignment != 0 && (alignment & (alignment - 1)) == 0);
  // Alignments beyond the chunk base guarantee are honoured by padding,
  // which align_up can only do relative to a base that is itself aligned;
  // pad generously by the requested alignment in the fit check instead of
  // reasoning about the base pointer's residue.
  if (bytes == 0) bytes = 1;

  // Advance through retained chunks (they grow geometrically, so a later
  // chunk always fits whatever the current one could) until one has room.
  while (chunk_idx_ < chunks_.size()) {
    Chunk& chunk = chunks_[chunk_idx_];
    std::size_t start = align_up(offset_, alignment);
    if (alignment > kChunkBaseAlign) {
      const auto base = reinterpret_cast<std::uintptr_t>(chunk.data.get());
      start = static_cast<std::size_t>(
          align_up(static_cast<std::size_t>(base) + offset_, alignment) -
          base);
    }
    if (start + bytes <= chunk.size) {
      void* p = chunk.data.get() + start;
      bytes_allocated_ += (start - offset_) + bytes;
      offset_ = start + bytes;
      ++allocation_count_;
      return p;
    }
    ++chunk_idx_;
    offset_ = 0;
  }

  // No retained chunk fits: grow. Double the last chunk, floored at the
  // configured first-chunk size, and never smaller than the request (plus
  // headroom for a stricter-than-base alignment).
  std::size_t need = bytes;
  if (alignment > kChunkBaseAlign) need += alignment;
  std::size_t grown = chunks_.empty() ? first_chunk_bytes_
                                      : chunks_.back().size * 2;
  grown = std::max(grown, need);
  Chunk chunk;
  chunk.data = std::make_unique_for_overwrite<std::byte[]>(grown);
  chunk.size = grown;
  bytes_reserved_ += grown;
  chunks_.push_back(std::move(chunk));
  chunk_idx_ = chunks_.size() - 1;
  offset_ = 0;

  Chunk& fresh = chunks_.back();
  std::size_t start = 0;
  if (alignment > kChunkBaseAlign) {
    const auto base = reinterpret_cast<std::uintptr_t>(fresh.data.get());
    start = static_cast<std::size_t>(
        align_up(static_cast<std::size_t>(base), alignment) - base);
  }
  MNEMO_ASSERT(start + bytes <= fresh.size);
  void* p = fresh.data.get() + start;
  bytes_allocated_ += start + bytes;
  offset_ = start + bytes;
  ++allocation_count_;
  return p;
}

void Arena::trim() noexcept {
  while (chunks_.size() > chunk_idx_ + 1) {
    bytes_reserved_ -= chunks_.back().size;
    chunks_.pop_back();
  }
}

}  // namespace mnemo::util
