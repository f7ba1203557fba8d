// Client-side write-back block cache.
//
// Pages are keyed by (file, file-block index). Dirty pages stay in the cache
// until an explicit flush — a demand, an fsync, or lease phase 4 — which is
// precisely the behaviour that makes "fence and steal" unsafe (section 2.1):
// fencing strands these dirty pages.
//
// The cache is unbounded: the paper's client evicts nothing, and a page
// leaves only through an invalidation (a demand, an expired lease, a crash).
//
// Layout: pages live in a recycled slab, found through one flat hash probe
// on the packed (file, block) key, and listed per file in ascending block
// order. Steady-state lookups and puts therefore allocate nothing, and every
// walk whose order a caller can observe keeps the order of an ordered map:
// ascending all_dirty / dirty_blocks / cached_files.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/strong_id.hpp"

namespace stank::client {

class BlockCache {
 public:
  explicit BlockCache(std::uint32_t block_size);

  struct Page {
    Bytes data;
    bool dirty{false};
  };
  using Key = std::pair<FileId, std::uint64_t>;

  [[nodiscard]] std::uint32_t block_size() const { return block_size_; }

  // Returns the cached page or nullptr. Counts a hit/miss. Page pointers stay
  // valid until the next put() or removal.
  [[nodiscard]] Page* find(FileId file, std::uint64_t fb);
  // Lookup without touching hit/miss statistics.
  [[nodiscard]] const Page* peek(FileId file, std::uint64_t fb) const;

  // Inserts or replaces a page (data must be exactly one block; block
  // numbers must fit in 32 bits).
  Page& put(FileId file, std::uint64_t fb, Bytes data, bool dirty);

  // Marks an existing page dirty.
  void mark_dirty(FileId file, std::uint64_t fb);
  // Marks a page clean (it reached the disk).
  void mark_clean(FileId file, std::uint64_t fb);

  // The dirty blocks of `file` in ascending order, into caller scratch
  // (cleared first), so a flush allocates nothing once the scratch is warm.
  void dirty_blocks(FileId file, std::vector<std::uint64_t>& out) const;
  // Every dirty page in ascending (file, block) order, into caller scratch.
  void all_dirty(std::vector<Key>& out) const;
  [[nodiscard]] std::vector<Key> all_dirty() const;
  // Allocation-free check used by the release/demand fast paths: whether any
  // page of `file` is dirty, without materializing the block list.
  [[nodiscard]] bool has_dirty(FileId file) const;

  // Drops every page of a file (dirty pages are LOST — callers must have
  // flushed first unless loss is the point, e.g. post-expiry invalidation).
  void invalidate_file(FileId file);
  void invalidate_all();

  [[nodiscard]] std::size_t page_count() const { return index_.size(); }
  [[nodiscard]] std::size_t dirty_count() const;
  [[nodiscard]] std::size_t file_page_count(FileId file) const;
  // Distinct files with at least one cached page, ascending.
  [[nodiscard]] std::vector<FileId> cached_files() const;

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // One slab slot. Free slots form a LIFO chain through `next_free`.
  struct Node {
    Page page;
    Key key;
    std::uint32_t next_free{kNone};
  };

  [[nodiscard]] static std::uint64_t pack(FileId file, std::uint64_t fb);
  [[nodiscard]] const std::uint32_t* slot_of(FileId file, std::uint64_t fb) const;
  // Where block fb sits, or belongs, in a file's ascending list.
  [[nodiscard]] std::vector<std::uint32_t>::iterator position(std::vector<std::uint32_t>& list,
                                                            std::uint64_t fb) const;
  // Drops node i's page and index entry and returns its slot to the slab;
  // the caller maintains the file's list.
  void release(std::uint32_t i);

  std::uint32_t block_size_;
  std::uint32_t free_{kNone};
  std::vector<Node> nodes_;
  FlatMap<std::uint64_t, std::uint32_t> index_;  // packed key -> slab slot
  // Per-file slab slots in ascending block order. A list emptied by an
  // invalidation keeps its capacity for the file's next pages.
  FlatMap<FileId, std::vector<std::uint32_t>> files_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

}  // namespace stank::client
