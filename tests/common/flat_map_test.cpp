// FlatMap / FlatSet: insert/find/erase/rehash semantics with strong-ID keys,
// cross-checked against std::unordered_map under randomized churn.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/strong_id.hpp"
#include "sim/rng.hpp"

namespace stank {
namespace {

TEST(FlatMapTest, EmptyMapBehaves) {
  FlatMap<FileId, int> m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(FileId{1}), nullptr);
  EXPECT_FALSE(m.contains(FileId{1}));
  EXPECT_FALSE(m.erase(FileId{1}));
  EXPECT_EQ(m.begin(), m.end());
}

TEST(FlatMapTest, InsertFindErase) {
  FlatMap<FileId, int> m;
  EXPECT_TRUE(m.insert(FileId{7}, 70));
  EXPECT_TRUE(m.insert(FileId{8}, 80));
  EXPECT_FALSE(m.insert(FileId{7}, 999)) << "duplicate insert must not overwrite";
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(FileId{7}), nullptr);
  EXPECT_EQ(*m.find(FileId{7}), 70);
  EXPECT_EQ(*m.find(FileId{8}), 80);
  EXPECT_EQ(m.find(FileId{9}), nullptr);

  EXPECT_TRUE(m.erase(FileId{7}));
  EXPECT_FALSE(m.erase(FileId{7}));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(FileId{7}), nullptr);
  EXPECT_EQ(*m.find(FileId{8}), 80);
}

TEST(FlatMapTest, SubscriptDefaultConstructsAndUpdates) {
  FlatMap<NodeId, std::vector<int>> m;
  m[NodeId{3}].push_back(1);
  m[NodeId{3}].push_back(2);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m[NodeId{3}].size(), 2u);
}

TEST(FlatMapTest, IdKeySemanticsAreTyped) {
  // Distinct StrongId types never collide in one table by construction; the
  // value 5 as a FileId and as key 5 of another map are unrelated entries.
  FlatMap<FileId, int> files;
  FlatMap<NodeId, int> nodes;
  files[FileId{5}] = 1;
  nodes[NodeId{5}] = 2;
  EXPECT_EQ(*files.find(FileId{5}), 1);
  EXPECT_EQ(*nodes.find(NodeId{5}), 2);
}

TEST(FlatMapTest, GrowsThroughManyRehashes) {
  FlatMap<FileId, std::uint32_t> m;
  constexpr std::uint32_t kN = 10000;
  for (std::uint32_t i = 0; i < kN; ++i) {
    m[FileId{i}] = i * 3;
  }
  EXPECT_EQ(m.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_NE(m.find(FileId{i}), nullptr) << i;
    EXPECT_EQ(*m.find(FileId{i}), i * 3);
  }
  // Load factor stays below 3/4 across every rehash.
  EXPECT_GE(m.capacity(), kN * 4 / 3);
}

TEST(FlatMapTest, EraseKeepsProbeChainsIntact) {
  // Sequential ids force adjacent buckets; erasing from the middle of a
  // probe chain must not orphan later members (backward-shift correctness).
  FlatMap<FileId, int> m;
  for (std::uint32_t i = 0; i < 64; ++i) m[FileId{i}] = static_cast<int>(i);
  for (std::uint32_t i = 0; i < 64; i += 2) EXPECT_TRUE(m.erase(FileId{i}));
  for (std::uint32_t i = 0; i < 64; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(m.find(FileId{i}), nullptr) << i;
    } else {
      ASSERT_NE(m.find(FileId{i}), nullptr) << i;
      EXPECT_EQ(*m.find(FileId{i}), static_cast<int>(i));
    }
  }
}

TEST(FlatMapTest, IterationVisitsEachElementOnce) {
  FlatMap<FileId, int> m;
  for (std::uint32_t i = 1; i <= 50; ++i) m[FileId{i}] = 1;
  std::unordered_map<std::uint32_t, int> seen;
  for (auto& [key, value] : m) {
    seen[key.value()] += value;
  }
  EXPECT_EQ(seen.size(), 50u);
  for (const auto& [k, count] : seen) EXPECT_EQ(count, 1) << k;
}

TEST(FlatMapTest, CopyAndMove) {
  FlatMap<FileId, int> m;
  for (std::uint32_t i = 0; i < 20; ++i) m[FileId{i}] = static_cast<int>(i);
  FlatMap<FileId, int> copy(m);
  EXPECT_EQ(copy.size(), 20u);
  EXPECT_EQ(*copy.find(FileId{7}), 7);
  copy[FileId{7}] = 99;
  EXPECT_EQ(*m.find(FileId{7}), 7) << "copy must not alias";

  FlatMap<FileId, int> moved(std::move(m));
  EXPECT_EQ(moved.size(), 20u);
  EXPECT_EQ(*moved.find(FileId{7}), 7);
}

TEST(FlatMapTest, ClearReleasesEverything) {
  FlatMap<FileId, int> m;
  for (std::uint32_t i = 0; i < 100; ++i) m[FileId{i}] = 1;
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find(FileId{5}), nullptr);
  m[FileId{5}] = 2;  // usable again after clear
  EXPECT_EQ(*m.find(FileId{5}), 2);
}

TEST(FlatMapTest, RandomizedChurnAgreesWithUnorderedMap) {
  sim::Rng rng(1234);
  FlatMap<FileId, std::uint64_t> flat;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;
  for (int step = 0; step < 50000; ++step) {
    const std::uint32_t k = static_cast<std::uint32_t>(rng.uniform_int(0, 512));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        flat[FileId{k}] = step;
        ref[k] = static_cast<std::uint64_t>(step);
        break;
      case 1: {
        const bool a = flat.erase(FileId{k});
        const bool b = ref.erase(k) > 0;
        ASSERT_EQ(a, b) << "step " << step;
        break;
      }
      default: {
        const auto* v = flat.find(FileId{k});
        auto it = ref.find(k);
        ASSERT_EQ(v != nullptr, it != ref.end()) << "step " << step;
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
}

// The reply-cache ring and transport pending-table pattern: a window of W
// live keys sliding over a monotonically increasing key space, insert one /
// erase one per step. Once the table reaches its high-water capacity it must
// never rehash again (that is the zero-allocation steady-state contract),
// and backward-shift erase must keep every probe chain intact even though
// the table sits just under the 75% growth threshold the whole time.
TEST(FlatMapTest, SlidingWindowChurnNeverRehashesAtHighLoad) {
  FlatMap<MsgId, std::uint64_t> m;
  // Each churn step inserts BEFORE erasing (the reply-cache order), so the
  // table transiently holds kWindow+1 entries; 96 is exactly the 75% growth
  // ceiling of a 128-slot table — the densest steady window possible.
  constexpr std::uint64_t kWindow = 95;
  for (std::uint64_t k = 0; k < kWindow; ++k) {
    m.insert(MsgId{k}, k * 3);
  }
  const std::size_t high_water = m.capacity();
  ASSERT_EQ(high_water, 128u);

  for (std::uint64_t k = kWindow; k < kWindow + 20000; ++k) {
    m.insert(MsgId{k}, k * 3);
    ASSERT_TRUE(m.erase(MsgId{k - kWindow}));
    ASSERT_EQ(m.size(), kWindow);
    ASSERT_EQ(m.capacity(), high_water) << "rehash during steady churn at key " << k;
    // Backward-shift integrity: every live key findable, evicted key gone.
    ASSERT_EQ(m.find(MsgId{k - kWindow}), nullptr);
    for (std::uint64_t probe = k - kWindow + 1; probe <= k; probe += 7) {
      const auto* v = m.find(MsgId{probe});
      ASSERT_NE(v, nullptr) << "lost key " << probe << " at step " << k;
      ASSERT_EQ(*v, probe * 3);
    }
  }
}

// Erase of absent keys while the table sits at its load-factor ceiling must
// neither corrupt chains nor trigger growth.
TEST(FlatMapTest, MissingEraseAtHighLoadIsInert) {
  FlatMap<FileId, int> m;
  for (std::uint32_t k = 0; k < 48; ++k) {
    m.insert(FileId{k}, static_cast<int>(k));
  }
  const std::size_t cap = m.capacity();
  for (std::uint32_t k = 100; k < 600; ++k) {
    EXPECT_FALSE(m.erase(FileId{k}));
  }
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.size(), 48u);
  for (std::uint32_t k = 0; k < 48; ++k) {
    const int* v = m.find(FileId{k});
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<int>(k));
  }
}

// Iteration order is a pure function of capacity, the bucket function and
// the probe/erase order. Callers that let it reach the wire or a digest
// depend on it, so a layout change must not move it: this list was taken
// from the two-array (slots + occupancy) table this layout replaced.
TEST(FlatMapTest, IterationOrderIsGolden) {
  FlatMap<FileId, int> m;
  for (std::uint32_t i = 1; i <= 40; ++i) m[FileId{i * 3}] = static_cast<int>(i);
  for (std::uint32_t i = 4; i <= 40; i += 4) ASSERT_TRUE(m.erase(FileId{i * 3}));
  const std::vector<std::uint32_t> golden = {
      102, 81, 39, 18, 99, 78, 57, 15,  117, 75, 54, 33, 114, 93, 51,
      30,  9,  111, 90, 69, 27, 6,  87, 66,  45, 3,  105, 63, 42,  21};
  std::vector<std::uint32_t> seen;
  for (const auto& [key, value] : m) {
    seen.push_back(key.value());
    EXPECT_EQ(static_cast<std::uint32_t>(value) * 3, key.value());
  }
  EXPECT_EQ(m.capacity(), 64u);
  EXPECT_EQ(seen, golden);
}

// Owning values through every operation that moves, copies or drops slots:
// the sanitizer build reports any leak, double free or use after move.
TEST(FlatMapTest, OwningValuesSurviveEveryOperation) {
  FlatMap<FileId, std::unique_ptr<int>> m;
  for (std::uint32_t i = 0; i < 100; ++i) {  // several rehashes
    m[FileId{i}] = std::make_unique<int>(static_cast<int>(i));
  }
  const int* stable = m.find(FileId{7})->get();
  for (std::uint32_t i = 0; i < 100; i += 3) ASSERT_TRUE(m.erase(FileId{i}));  // backward shifts
  for (std::uint32_t i = 0; i < 100; ++i) {
    const auto* v = m.find(FileId{i});
    ASSERT_EQ(v != nullptr, i % 3 != 0) << i;
    if (v != nullptr) {
      EXPECT_EQ(**v, static_cast<int>(i));
    }
  }
  EXPECT_EQ(m.find(FileId{7})->get(), stable) << "the pointee never moves";

  FlatMap<FileId, std::unique_ptr<int>> moved(std::move(m));
  EXPECT_EQ(moved.size(), 66u);
  EXPECT_EQ(**moved.find(FileId{8}), 8);
  FlatMap<FileId, std::unique_ptr<int>> assigned;
  assigned[FileId{500}] = std::make_unique<int>(500);  // dropped by the assignment
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 66u);
  EXPECT_EQ(assigned.find(FileId{500}), nullptr);
  EXPECT_EQ(**assigned.find(FileId{8}), 8);
  assigned.clear();
  EXPECT_EQ(assigned.find(FileId{8}), nullptr);
  assigned[FileId{1}] = std::make_unique<int>(1);
  EXPECT_EQ(**assigned.find(FileId{1}), 1);
}

TEST(FlatMapTest, StringValuesCopyAndMove) {
  // Longer than any small-string buffer, so every copy owns heap memory.
  auto text = [](std::uint32_t i) { return std::string(40, 'a') + std::to_string(i); };
  FlatMap<FileId, std::string> m;
  for (std::uint32_t i = 0; i < 60; ++i) m[FileId{i}] = text(i);
  for (std::uint32_t i = 0; i < 60; i += 4) ASSERT_TRUE(m.erase(FileId{i}));

  FlatMap<FileId, std::string> copy;
  copy[FileId{999}] = text(999);
  copy = m;
  EXPECT_EQ(copy.size(), m.size());
  EXPECT_EQ(copy.find(FileId{999}), nullptr);
  for (std::uint32_t i = 0; i < 60; ++i) {
    const auto* v = copy.find(FileId{i});
    ASSERT_EQ(v != nullptr, i % 4 != 0) << i;
    if (v != nullptr) {
      EXPECT_EQ(*v, text(i));
    }
  }
  copy[FileId{1}] = "changed";
  EXPECT_EQ(*m.find(FileId{1}), text(1)) << "copy must not alias";

  const auto& alias = copy;
  copy = alias;  // self-assignment is a no-op
  EXPECT_EQ(*copy.find(FileId{1}), "changed");
  FlatMap<FileId, std::string> moved(std::move(copy));
  moved = std::move(m);
  EXPECT_EQ(*moved.find(FileId{1}), text(1));
  moved.clear();
  EXPECT_TRUE(moved.empty());
}

TEST(FlatSetTest, InsertEraseContains) {
  FlatSet<NodeId> s;
  EXPECT_TRUE(s.insert(NodeId{1}));
  EXPECT_FALSE(s.insert(NodeId{1}));
  EXPECT_TRUE(s.insert(NodeId{2}));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(NodeId{1}));
  EXPECT_FALSE(s.contains(NodeId{3}));
  EXPECT_TRUE(s.erase(NodeId{1}));
  EXPECT_FALSE(s.erase(NodeId{1}));
  EXPECT_FALSE(s.contains(NodeId{1}));

  std::size_t visited = 0;
  s.for_each([&](NodeId n) {
    EXPECT_EQ(n, NodeId{2});
    ++visited;
  });
  EXPECT_EQ(visited, 1u);
}

}  // namespace
}  // namespace stank
