#include "util/arena.hpp"

#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace mnemo::util {
namespace {

bool aligned_to(const void* p, std::size_t alignment) {
  return reinterpret_cast<std::uintptr_t>(p) % alignment == 0;
}

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(1, 64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(aligned_to(b, 8));
  EXPECT_TRUE(aligned_to(c, 64));
  // Writing to each block must not clobber the others.
  std::memset(a, 0xaa, 3);
  std::memset(b, 0xbb, 8);
  std::memset(c, 0xcc, 1);
  EXPECT_EQ(*static_cast<unsigned char*>(a), 0xaa);
  EXPECT_EQ(*static_cast<unsigned char*>(b), 0xbb);
  EXPECT_EQ(*static_cast<unsigned char*>(c), 0xcc);
}

TEST(Arena, OverAlignedAllocationsRespectAlignment) {
  Arena arena(128);  // small first chunk to force the over-aligned path
  for (const std::size_t alignment : {32UL, 64UL, 128UL, 256UL}) {
    void* p = arena.allocate(alignment * 2, alignment);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(aligned_to(p, alignment)) << "alignment " << alignment;
    std::memset(p, 0x5a, alignment * 2);
  }
}

TEST(Arena, ZeroByteAllocationYieldsDistinctPointers) {
  Arena arena;
  void* a = arena.allocate(0, 1);
  void* b = arena.allocate(0, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);  // rounded up to one byte each
}

TEST(Arena, LargeAllocationExceedingChunkFallsBackToDedicatedChunk) {
  Arena arena(64);
  // Far larger than any doubling of the 64-byte first chunk would reach in
  // one step: must land in a chunk grown to at least the request.
  const std::size_t big = 1 << 20;
  void* p = arena.allocate(big, 16);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x11, big);
  EXPECT_GE(arena.bytes_reserved(), big);
}

TEST(Arena, ResetKeepsChunksAndReusesThem) {
  Arena arena(256);
  // First cycle: grow to a steady-state footprint.
  for (int i = 0; i < 100; ++i) (void)arena.allocate(64, 8);
  const std::size_t chunks_after_first = arena.chunk_count();
  const std::size_t reserved_after_first = arena.bytes_reserved();
  EXPECT_GT(chunks_after_first, 0U);

  // Grow-once property: an identical second cycle must allocate no new
  // chunks — reset rewinds the bump pointer, it does not free.
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0U);
  EXPECT_EQ(arena.chunk_count(), chunks_after_first);
  for (int i = 0; i < 100; ++i) (void)arena.allocate(64, 8);
  EXPECT_EQ(arena.chunk_count(), chunks_after_first);
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_first);
}

TEST(Arena, ResetReturnsSameAddressesForSameSequence) {
  Arena arena;
  std::vector<void*> first;
  for (int i = 0; i < 32; ++i) first.push_back(arena.allocate(24, 8));
  arena.reset();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(arena.allocate(24, 8), first[static_cast<std::size_t>(i)]);
  }
}

TEST(Arena, TrimReleasesOnlyChunksTheLastUseNeverReached) {
  Arena arena(64);
  for (int i = 0; i < 8; ++i) (void)arena.allocate(60, 1);  // 4+ chunks
  const std::size_t grown = arena.chunk_count();
  ASSERT_GE(grown, 4u);

  // A smaller use after a reset reaches only the first chunk or two.
  arena.reset();
  (void)arena.allocate(100, 1);
  arena.trim();
  EXPECT_EQ(arena.chunk_count(), 2u);  // 64 B, then the 128 B it needed
  EXPECT_EQ(arena.bytes_reserved(), 64u + 128u);
  EXPECT_EQ(arena.bytes_allocated(), 100u);

  // Trimming again, or trimming a rewound arena, keeps chunk 0 at least.
  arena.trim();
  EXPECT_EQ(arena.chunk_count(), 2u);
  arena.reset();
  arena.trim();
  EXPECT_EQ(arena.chunk_count(), 1u);

  // The arena grows back on demand after a trim.
  for (int i = 0; i < 8; ++i) (void)arena.allocate(60, 1);
  EXPECT_GE(arena.chunk_count(), 4u);
}

TEST(Arena, StatsTrackAllocations) {
  Arena arena;
  EXPECT_EQ(arena.allocation_count(), 0U);
  EXPECT_EQ(arena.bytes_allocated(), 0U);
  (void)arena.allocate(100, 8);
  (void)arena.allocate(50, 8);
  EXPECT_EQ(arena.allocation_count(), 2U);
  EXPECT_GE(arena.bytes_allocated(), 150U);
}

TEST(Arena, RandomizedProperty_AlignmentAndNonOverlap) {
  // Property test: any interleaving of sizes/alignments yields blocks that
  // are correctly aligned and mutually disjoint.
  Rng rng(0xa7e4a);
  Arena arena(512);
  struct Block {
    unsigned char* ptr;
    std::size_t size;
    unsigned char tag;
  };
  std::vector<Block> blocks;
  for (int i = 0; i < 500; ++i) {
    const std::size_t size = static_cast<std::size_t>(rng.uniform(1, 700));
    const std::size_t alignment = 1UL << rng.uniform(0, 6);  // 1..64
    auto* p = static_cast<unsigned char*>(arena.allocate(size, alignment));
    ASSERT_NE(p, nullptr);
    ASSERT_TRUE(aligned_to(p, alignment));
    const auto tag = static_cast<unsigned char>(i & 0xff);
    std::memset(p, tag, size);
    blocks.push_back({p, size, tag});
  }
  // Every block still holds its own tag: no two blocks overlapped.
  for (const Block& b : blocks) {
    for (std::size_t j = 0; j < b.size; ++j) {
      ASSERT_EQ(b.ptr[j], b.tag);
    }
  }
}

TEST(Arena, WorksAsPmrVectorResource) {
  Arena arena;
  std::pmr::vector<std::uint64_t> v(&arena);
  for (std::uint64_t i = 0; i < 10'000; ++i) v.push_back(i);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_EQ(v[static_cast<std::size_t>(i)], i);
  }
  EXPECT_GE(arena.bytes_allocated(), 10'000 * sizeof(std::uint64_t));
}

TEST(Arena, IsEqualOnlyToItself) {
  Arena a;
  Arena b;
  EXPECT_TRUE(a.is_equal(a));
  EXPECT_FALSE(a.is_equal(b));
  // Consequence: two pmr vectors on the same arena can O(1)-steal on move
  // assignment, vectors on different arenas cannot.
  std::pmr::vector<int> x({1, 2, 3}, &a);
  std::pmr::vector<int> y(&a);
  y = std::move(x);
  EXPECT_EQ(y.size(), 3U);
}

}  // namespace
}  // namespace mnemo::util
