#include "sim/event_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

namespace stank::sim {
namespace {

TEST(EventFn, DefaultIsNull) {
  EventFn f;
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_TRUE(f == nullptr);
}

TEST(EventFn, InvokesSmallLambdaInline) {
  int hits = 0;
  EventFn f([&hits]() { ++hits; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, MoveTransfersOwnership) {
  int hits = 0;
  EventFn a([&hits]() { ++hits; });
  EventFn b(std::move(a));
  EXPECT_TRUE(a == nullptr);  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, SupportsMoveOnlyCaptures) {
  auto p = std::make_unique<int>(41);
  EventFn f([q = std::move(p)]() { ++*q; });
  f();  // must not crash; the unique_ptr lives in the callable
}

TEST(EventFn, LargeCallableFallsBackToHeap) {
  // Larger than the inline buffer: exercises the heap path end to end.
  std::array<std::uint64_t, 16> payload{};
  payload[0] = 7;
  payload[15] = 9;
  std::uint64_t sum = 0;
  static_assert(sizeof(payload) > EventFn::kInlineSize);
  EventFn f([payload, &sum]() { sum = payload[0] + payload[15]; });
  EventFn g(std::move(f));  // heap callables relocate by pointer swap
  g();
  EXPECT_EQ(sum, 16u);
}

TEST(EventFn, DestructorRunsCaptureDestructors) {
  auto counter = std::make_shared<int>(0);
  struct Bump {
    std::shared_ptr<int> c;
    ~Bump() {
      if (c) ++*c;
    }
    explicit Bump(std::shared_ptr<int> counter) : c(std::move(counter)) {}
    Bump(Bump&& o) noexcept = default;
    void operator()() {}
  };
  {
    EventFn f(Bump{counter});
    // The moved-from temporary holds a null pointer and does not count;
    // reset() must destroy the stored capture exactly once.
    f.reset();
    EXPECT_TRUE(f == nullptr);
    EXPECT_EQ(*counter, 1);
  }
  EXPECT_EQ(*counter, 1);
}

// Counts calls and destructions of the live capture (a moved-from copy counts
// nothing). Pad sizes it for the inline buffer or for the heap fallback.
template <std::size_t Pad>
struct CountedCall {
  int* calls;
  int* destroyed;
  std::array<std::uint64_t, Pad> pad{};
  CountedCall(int* c, int* d) : calls(c), destroyed(d) {}
  CountedCall(CountedCall&& o) noexcept
      : calls(o.calls), destroyed(std::exchange(o.destroyed, nullptr)), pad(o.pad) {}
  ~CountedCall() {
    if (destroyed != nullptr) ++*destroyed;
  }
  void operator()() { ++*calls; }
};

// consume() runs the callable, destroys its capture exactly once and leaves
// the EventFn null.
template <std::size_t Pad>
void expect_consume_once() {
  int calls = 0;
  int destroyed = 0;
  EventFn f(CountedCall<Pad>(&calls, &destroyed));
  ASSERT_EQ(destroyed, 0);
  f.consume();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);
  EXPECT_TRUE(f == nullptr);
  f.reset();  // already null: nothing left to destroy
  EXPECT_EQ(destroyed, 1);
}

TEST(EventFn, ConsumeDestroysInlineCaptureOnce) {
  static_assert(sizeof(CountedCall<2>) <= EventFn::kInlineSize);
  expect_consume_once<2>();
}

TEST(EventFn, ConsumeDestroysHeapCaptureOnce) {
  static_assert(sizeof(CountedCall<16>) > EventFn::kInlineSize);
  expect_consume_once<16>();
}

TEST(EventFn, AssignReplacesExistingCallable) {
  int first = 0, second = 0;
  EventFn f([&first]() { ++first; });
  f = EventFn([&second]() { ++second; });
  f();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

}  // namespace
}  // namespace stank::sim
