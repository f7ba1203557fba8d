#include "client/cache.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "sim/rng.hpp"

namespace stank::client {
namespace {

const FileId kF{1}, kG{2};

Bytes block(std::uint8_t fill, std::uint32_t bs = 64) { return Bytes(bs, fill); }

TEST(BlockCache, MissThenHit) {
  BlockCache c(64);
  EXPECT_EQ(c.find(kF, 0), nullptr);
  c.put(kF, 0, block(1), false);
  auto* p = c.find(kF, 0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->data, block(1));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(BlockCache, PeekDoesNotCountStats) {
  BlockCache c(64);
  c.put(kF, 0, block(1), false);
  (void)c.peek(kF, 0);
  (void)c.peek(kF, 1);
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(BlockCache, PutReplacesContent) {
  BlockCache c(64);
  c.put(kF, 0, block(1), false);
  c.put(kF, 0, block(2), true);
  EXPECT_EQ(c.peek(kF, 0)->data, block(2));
  EXPECT_TRUE(c.peek(kF, 0)->dirty);
  EXPECT_EQ(c.page_count(), 1u);
}

TEST(BlockCache, DirtyTracking) {
  BlockCache c(64);
  c.put(kF, 0, block(1), true);
  c.put(kF, 1, block(2), false);
  c.put(kF, 2, block(3), true);
  c.put(kG, 0, block(4), true);
  EXPECT_EQ(c.dirty_count(), 3u);
  std::vector<std::uint64_t> blocks{99};  // scratch: cleared before the fill
  c.dirty_blocks(kF, blocks);
  EXPECT_EQ(blocks, (std::vector<std::uint64_t>{0, 2}));
  EXPECT_EQ(c.all_dirty().size(), 3u);
}

TEST(BlockCache, MarkCleanAndDirty) {
  BlockCache c(64);
  c.put(kF, 0, block(1), true);
  c.mark_clean(kF, 0);
  EXPECT_FALSE(c.peek(kF, 0)->dirty);
  c.mark_dirty(kF, 0);
  EXPECT_TRUE(c.peek(kF, 0)->dirty);
  c.mark_clean(kF, 99);  // nonexistent: no-op, no crash
}

TEST(BlockCache, InvalidateFileDropsOnlyThatFile) {
  BlockCache c(64);
  c.put(kF, 0, block(1), true);
  c.put(kF, 1, block(2), false);
  c.put(kG, 0, block(3), true);
  c.invalidate_file(kF);
  EXPECT_EQ(c.peek(kF, 0), nullptr);
  EXPECT_EQ(c.peek(kF, 1), nullptr);
  ASSERT_NE(c.peek(kG, 0), nullptr);
  EXPECT_EQ(c.page_count(), 1u);
}

TEST(BlockCache, InvalidateAll) {
  BlockCache c(64);
  c.put(kF, 0, block(1), true);
  c.put(kG, 0, block(2), false);
  c.invalidate_all();
  EXPECT_EQ(c.page_count(), 0u);
  EXPECT_EQ(c.dirty_count(), 0u);
}

TEST(BlockCache, CachedFilesLists) {
  BlockCache c(64);
  c.put(kF, 3, block(1), false);
  c.put(kF, 5, block(1), false);
  c.put(kG, 0, block(1), false);
  auto files = c.cached_files();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], kF);
  EXPECT_EQ(files[1], kG);
  EXPECT_EQ(c.file_page_count(kF), 2u);
}

// The cache is unbounded: nothing is ever evicted.
TEST(BlockCache, Unbounded) {
  BlockCache c(64);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    c.put(kF, i, block(1), false);
  }
  EXPECT_EQ(c.page_count(), 1000u);
  EXPECT_EQ(c.file_page_count(kF), 1000u);
}

TEST(BlockCache, PutOfExistingKeyKeepsOnePage) {
  BlockCache c(64);
  for (int i = 0; i < 10; ++i) {
    c.put(kF, 0, block(static_cast<std::uint8_t>(i)), false);
  }
  EXPECT_EQ(c.page_count(), 1u);
  EXPECT_EQ(c.file_page_count(kF), 1u);
  EXPECT_EQ(c.peek(kF, 0)->data, block(9));
  c.invalidate_file(kF);
  EXPECT_EQ(c.page_count(), 0u);
  EXPECT_EQ(c.file_page_count(kF), 0u);
}

TEST(BlockCacheDeathTest, WrongSizePageAborts) {
  BlockCache c(64);
  EXPECT_DEATH(c.put(kF, 0, Bytes(32, 0), false), "exactly one block");
}

TEST(BlockCacheDeathTest, MarkDirtyUncachedAborts) {
  BlockCache c(64);
  EXPECT_DEATH(c.mark_dirty(kF, 0), "uncached");
}

// The order contract every caller relies on, pinned against a reference
// model built the way the cache used to be built: a std::map keyed by
// (file, block). Every walk whose order a caller can observe must match it:
// ascending all_dirty / dirty_blocks / cached_files.
class RefCache {
 public:
  using Key = BlockCache::Key;
  struct Entry {
    Bytes data;
    bool dirty{false};
  };

  const Entry* find(const Key& k) {
    auto it = pages_.find(k);
    if (it == pages_.end()) {
      ++misses;
      return nullptr;
    }
    ++hits;
    return &it->second;
  }
  const Entry* peek(const Key& k) const {
    auto it = pages_.find(k);
    return it == pages_.end() ? nullptr : &it->second;
  }
  void put(const Key& k, Bytes data, bool dirty) { pages_[k] = Entry{std::move(data), dirty}; }
  void mark(const Key& k, bool dirty) {
    if (auto it = pages_.find(k); it != pages_.end()) it->second.dirty = dirty;
  }
  void invalidate_file(FileId f) {
    for (auto it = pages_.begin(); it != pages_.end();) {
      it = it->first.first == f ? pages_.erase(it) : std::next(it);
    }
  }
  void invalidate_all() { pages_.clear(); }
  std::vector<std::uint64_t> dirty_blocks(FileId f) const {
    std::vector<std::uint64_t> out;
    for (const auto& [k, e] : pages_) {
      if (k.first == f && e.dirty) out.push_back(k.second);
    }
    return out;
  }
  std::vector<Key> all_dirty() const {
    std::vector<Key> out;
    for (const auto& [k, e] : pages_) {
      if (e.dirty) out.push_back(k);
    }
    return out;
  }
  std::vector<FileId> cached_files() const {
    std::vector<FileId> out;
    for (const auto& [k, e] : pages_) {
      if (out.empty() || out.back() != k.first) out.push_back(k.first);
    }
    return out;
  }
  std::size_t file_page_count(FileId f) const {
    std::size_t n = 0;
    for (const auto& [k, e] : pages_) n += k.first == f ? 1 : 0;
    return n;
  }
  std::size_t dirty_count() const {
    std::size_t n = 0;
    for (const auto& [k, e] : pages_) n += e.dirty ? 1 : 0;
    return n;
  }
  std::size_t size() const { return pages_.size(); }

  std::uint64_t hits{0};
  std::uint64_t misses{0};

 private:
  std::map<Key, Entry> pages_;
};

TEST(BlockCacheOrder, MatchesMapListReferenceModel) {
  constexpr std::uint32_t kBs = 8;
  // Sparse ids and block numbers, so neither the table's hash order nor a
  // dense index can stand in for the sorted order.
  const FileId files[] = {FileId{1}, FileId{7}, FileId{3}, FileId{0xFFFFFFF0u}, FileId{12}};
  const std::uint64_t blocks[] = {0, 1, 2, 5, 9, 31, 1000, 0xFFFFFFF0ull};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed);
    BlockCache c(kBs);
    RefCache ref;
    auto pick_key = [&] {
      return RefCache::Key{files[rng.uniform_int(0, 4)], blocks[rng.uniform_int(0, 7)]};
    };
    std::vector<std::uint64_t> scratch;
    for (int step = 0; step < 4000; ++step) {
      const RefCache::Key k = pick_key();
      const auto fill = static_cast<std::uint8_t>(step);
      switch (rng.uniform_int(0, 8)) {
        case 0:
        case 1: {
          const bool dirty = rng.bernoulli(0.4);
          c.put(k.first, k.second, Bytes(kBs, fill), dirty);
          ref.put(k, Bytes(kBs, fill), dirty);
          break;
        }
        case 2:
        case 3: {
          const BlockCache::Page* got = c.find(k.first, k.second);
          const RefCache::Entry* want = ref.find(k);
          ASSERT_EQ(got == nullptr, want == nullptr) << "seed " << seed << " step " << step;
          if (got != nullptr) {
            ASSERT_EQ(got->data, want->data);
            ASSERT_EQ(got->dirty, want->dirty);
          }
          break;
        }
        case 4: {
          const BlockCache::Page* got = c.peek(k.first, k.second);
          const RefCache::Entry* want = ref.peek(k);
          ASSERT_EQ(got == nullptr, want == nullptr);
          if (got != nullptr) {
            ASSERT_EQ(got->data, want->data);
          }
          break;
        }
        case 5:
          if (ref.peek(k) != nullptr) {
            c.mark_dirty(k.first, k.second);
            ref.mark(k, true);
          }
          break;
        case 6:
          c.mark_clean(k.first, k.second);
          ref.mark(k, false);
          break;
        case 7:
          if (rng.bernoulli(0.3)) {
            c.invalidate_file(k.first);
            ref.invalidate_file(k.first);
          }
          break;
        default:
          if (rng.bernoulli(0.02)) {
            c.invalidate_all();
            ref.invalidate_all();
          }
          break;
      }
      ASSERT_EQ(c.page_count(), ref.size());
      if (step % 16 == 0) {
        ASSERT_EQ(c.all_dirty(), ref.all_dirty());
        ASSERT_EQ(c.cached_files(), ref.cached_files());
        ASSERT_EQ(c.dirty_count(), ref.dirty_count());
        for (const FileId f : files) {
          c.dirty_blocks(f, scratch);
          ASSERT_EQ(scratch, ref.dirty_blocks(f));
          ASSERT_EQ(c.has_dirty(f), !ref.dirty_blocks(f).empty());
          ASSERT_EQ(c.file_page_count(f), ref.file_page_count(f));
        }
      }
    }
    EXPECT_EQ(c.hits(), ref.hits);
    EXPECT_EQ(c.misses(), ref.misses);
    EXPECT_GT(ref.hits, 0u);
  }
}

}  // namespace
}  // namespace stank::client
