// Open-addressing hash containers for the control path.
//
// FlatMap is a linear-probing, power-of-two-capacity hash table with
// backward-shift deletion (no tombstones), designed for strong-ID keys: one
// flat slot array, no per-node allocation, no bucket pointers. Lookups on the
// steady-state server path touch one or two adjacent cache lines instead of
// chasing std::unordered_map buckets. FlatSet is the keys-only wrapper.
//
// The slot array and its occupancy bytes share one heap block (slots first,
// then one byte per slot), so a table costs one allocation and one pointer.
//
// Requirements: Key and Value are default-constructible and movable; Key is
// equality-comparable. Hash output is spread with a Fibonacci multiply, so
// the identity hashes of StrongId / integers are fine. Pointers and iterators
// are invalidated by any insert or erase; do not mutate while iterating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace stank {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatMap {
 public:
  // Public so structured bindings at iteration sites read naturally:
  //   for (auto& [key, value] : map) ...
  struct Slot {
    Key key;
    Value value;
  };

  FlatMap() = default;
  ~FlatMap() { release(); }
  FlatMap(FlatMap&& other) noexcept { steal(other); }
  FlatMap& operator=(FlatMap&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  FlatMap(const FlatMap& other) { *this = other; }
  FlatMap& operator=(const FlatMap& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    for (const Slot& s : other) {
      (*this)[s.key] = s.value;
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void clear() {
    release();
    capacity_ = 0;
    size_ = 0;
    shift_ = 0;
  }

  // Ensures capacity for `n` elements without rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap - cap / 4 < n) cap <<= 1;
    if (cap > capacity_) rehash(cap);
  }

  [[nodiscard]] Value* find(const Key& k) {
    if (size_ == 0) return nullptr;
    const std::uint8_t* const occupied = used();
    std::size_t i = bucket(k);
    while (occupied[i]) {
      if (slots_[i].key == k) return &slots_[i].value;
      i = (i + 1) & mask();
    }
    return nullptr;
  }
  [[nodiscard]] const Value* find(const Key& k) const {
    return const_cast<FlatMap*>(this)->find(k);
  }
  [[nodiscard]] bool contains(const Key& k) const { return find(k) != nullptr; }

  // Returns the value for `k`, default-constructing it if absent.
  Value& operator[](const Key& k) { return *try_emplace(k).first; }

  // Inserts (k, default Value) if absent. Returns the value slot and whether
  // an insert happened; an existing value is left untouched.
  std::pair<Value*, bool> try_emplace(const Key& k) {
    if (capacity_ == 0 || size_ + 1 > capacity_ - capacity_ / 4) {
      rehash(capacity_ == 0 ? kMinCapacity : capacity_ * 2);
    }
    std::uint8_t* const occupied = used();
    std::size_t i = bucket(k);
    while (occupied[i]) {
      if (slots_[i].key == k) return {&slots_[i].value, false};
      i = (i + 1) & mask();
    }
    occupied[i] = 1;
    slots_[i].key = k;
    ++size_;
    return {&slots_[i].value, true};
  }

  bool insert(const Key& k, Value v) {
    auto [slot, inserted] = try_emplace(k);
    if (inserted) *slot = std::move(v);
    return inserted;
  }

  // Backward-shift deletion: plugs the hole by sliding later probe-chain
  // members down, so lookups never scan tombstones.
  bool erase(const Key& k) {
    if (size_ == 0) return false;
    std::uint8_t* const occupied = used();
    std::size_t i = bucket(k);
    while (occupied[i]) {
      if (slots_[i].key == k) {
        std::size_t hole = i;
        std::size_t j = i;
        for (;;) {
          j = (j + 1) & mask();
          if (!occupied[j]) break;
          const std::size_t home = bucket(slots_[j].key);
          // Slot j may fill the hole only if the hole is not before its home
          // position on the (cyclic) probe sequence.
          if (((j - home) & mask()) >= ((j - hole) & mask())) {
            slots_[hole] = std::move(slots_[j]);
            hole = j;
          }
        }
        occupied[hole] = 0;
        slots_[hole] = Slot{};  // release the stale element's resources
        --size_;
        return true;
      }
      i = (i + 1) & mask();
    }
    return false;
  }

  template <bool kConst>
  class Iter {
   public:
    using MapT = std::conditional_t<kConst, const FlatMap, FlatMap>;
    using SlotT = std::conditional_t<kConst, const Slot, Slot>;

    Iter(MapT* map, std::size_t idx) : map_(map), idx_(idx) { skip(); }
    SlotT& operator*() const { return map_->slots_[idx_]; }
    SlotT* operator->() const { return &map_->slots_[idx_]; }
    Iter& operator++() {
      ++idx_;
      skip();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) { return a.idx_ == b.idx_; }

   private:
    void skip() {
      while (idx_ < map_->capacity_ && !map_->used()[idx_]) ++idx_;
    }
    MapT* map_;
    std::size_t idx_;
  };

  [[nodiscard]] Iter<false> begin() { return {this, 0}; }
  [[nodiscard]] Iter<false> end() { return {this, capacity_}; }
  [[nodiscard]] Iter<true> begin() const { return {this, 0}; }
  [[nodiscard]] Iter<true> end() const { return {this, capacity_}; }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  [[nodiscard]] std::size_t mask() const { return capacity_ - 1; }

  [[nodiscard]] std::size_t bucket(const Key& k) const {
    // Fibonacci spreading: works even with identity hashes of small ints.
    const std::uint64_t h =
        static_cast<std::uint64_t>(Hash{}(k)) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> shift_);
  }

  // The occupancy bytes follow the last slot in the same block.
  [[nodiscard]] std::uint8_t* used() const {
    return reinterpret_cast<std::uint8_t*>(slots_ + capacity_);
  }

  // Plain operator new, so the bench allocation hooks see the block.
  static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  static Slot* allocate(std::size_t cap) {
    void* block = ::operator new(cap * sizeof(Slot) + cap);
    Slot* slots = static_cast<Slot*>(block);
    std::uninitialized_value_construct_n(slots, cap);
    std::uninitialized_fill_n(reinterpret_cast<std::uint8_t*>(slots + cap), cap, 0);
    return slots;
  }
  static void free_block(Slot* slots, std::size_t cap) {
    if (slots == nullptr) return;
    std::destroy_n(slots, cap);
    ::operator delete(slots);
  }
  void release() {
    free_block(slots_, capacity_);
    slots_ = nullptr;
  }
  void steal(FlatMap& other) {
    slots_ = std::exchange(other.slots_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
    size_ = std::exchange(other.size_, 0);
    shift_ = std::exchange(other.shift_, 0);
  }

  void rehash(std::size_t new_cap) {
    Slot* const old_slots = slots_;
    const std::uint8_t* const old_used = used();
    const std::size_t old_cap = capacity_;

    slots_ = allocate(new_cap);
    capacity_ = new_cap;
    std::uint8_t* const occupied = used();
    std::uint32_t log2 = 0;
    while ((std::size_t{1} << log2) < new_cap) ++log2;
    shift_ = 64 - log2;

    for (std::size_t i = 0; i < old_cap; ++i) {
      if (!old_used[i]) continue;
      std::size_t j = bucket(old_slots[i].key);
      while (occupied[j]) j = (j + 1) & mask();
      occupied[j] = 1;
      slots_[j] = std::move(old_slots[i]);
    }
    free_block(old_slots, old_cap);
  }

  Slot* slots_{nullptr};
  std::size_t capacity_{0};
  std::size_t size_{0};
  std::uint32_t shift_{0};
};

// Keys-only view over FlatMap, for the server's barred and fencing sets.
template <typename Key, typename Hash = std::hash<Key>>
class FlatSet {
 public:
  bool insert(const Key& k) { return map_.try_emplace(k).second; }
  bool erase(const Key& k) { return map_.erase(k); }
  [[nodiscard]] bool contains(const Key& k) const { return map_.contains(k); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }

  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [key, unused] : map_) f(key);
  }

 private:
  struct Empty {};
  FlatMap<Key, Empty, Hash> map_;
};

}  // namespace stank
