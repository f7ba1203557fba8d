#include "client/cache.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/byte_pool.hpp"

namespace stank::client {

BlockCache::BlockCache(std::uint32_t block_size) : block_size_(block_size) {
  STANK_ASSERT(block_size > 0);
}

std::uint64_t BlockCache::pack(FileId file, std::uint64_t fb) {
  STANK_ASSERT_MSG(fb <= 0xFFFFFFFFull, "file block number exceeds 32 bits");
  return (static_cast<std::uint64_t>(file.value()) << 32) | fb;
}

const std::uint32_t* BlockCache::slot_of(FileId file, std::uint64_t fb) const {
  return fb > 0xFFFFFFFFull ? nullptr : index_.find(pack(file, fb));
}

std::vector<std::uint32_t>::iterator BlockCache::position(std::vector<std::uint32_t>& list,
                                                          std::uint64_t fb) const {
  return std::lower_bound(list.begin(), list.end(), fb, [this](std::uint32_t i, std::uint64_t b) {
    return nodes_[i].key.second < b;
  });
}

void BlockCache::release(std::uint32_t i) {
  Node& n = nodes_[i];
  recycle_buf(std::move(n.page.data));
  index_.erase(pack(n.key.first, n.key.second));
  n.page = Page{};
  n.next_free = free_;
  free_ = i;
}

BlockCache::Page* BlockCache::find(FileId file, std::uint64_t fb) {
  const std::uint32_t* slot = slot_of(file, fb);
  if (slot == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &nodes_[*slot].page;
}

const BlockCache::Page* BlockCache::peek(FileId file, std::uint64_t fb) const {
  const std::uint32_t* slot = slot_of(file, fb);
  return slot == nullptr ? nullptr : &nodes_[*slot].page;
}

BlockCache::Page& BlockCache::put(FileId file, std::uint64_t fb, Bytes data, bool dirty) {
  STANK_ASSERT_MSG(data.size() == block_size_, "page must be exactly one block");
  auto [slot, inserted] = index_.try_emplace(pack(file, fb));
  if (!inserted) {
    Node& n = nodes_[*slot];
    recycle_buf(std::move(n.page.data));  // replaced page's buffer
    n.page.data = std::move(data);
    n.page.dirty = dirty;
    return n.page;
  }
  std::uint32_t i = free_;
  if (i == kNone) {
    i = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  } else {
    free_ = nodes_[i].next_free;
  }
  *slot = i;
  Node& n = nodes_[i];
  n.page.data = std::move(data);
  n.page.dirty = dirty;
  n.key = Key{file, fb};
  std::vector<std::uint32_t>& list = files_[file];
  list.insert(position(list, fb), i);
  return n.page;
}

void BlockCache::mark_dirty(FileId file, std::uint64_t fb) {
  const std::uint32_t* slot = slot_of(file, fb);
  STANK_ASSERT_MSG(slot != nullptr, "mark_dirty of uncached page");
  nodes_[*slot].page.dirty = true;
}

void BlockCache::mark_clean(FileId file, std::uint64_t fb) {
  if (const std::uint32_t* slot = slot_of(file, fb)) {
    nodes_[*slot].page.dirty = false;
  }
}

void BlockCache::dirty_blocks(FileId file, std::vector<std::uint64_t>& out) const {
  out.clear();
  if (const auto* list = files_.find(file)) {
    for (const std::uint32_t i : *list) {
      if (nodes_[i].page.dirty) out.push_back(nodes_[i].key.second);
    }
  }
}

bool BlockCache::has_dirty(FileId file) const {
  if (const auto* list = files_.find(file)) {
    for (const std::uint32_t i : *list) {
      if (nodes_[i].page.dirty) return true;
    }
  }
  return false;
}

void BlockCache::all_dirty(std::vector<Key>& out) const {
  out.clear();
  // Dirty pages are few next to the table: gather them, then sort by key.
  for (const auto& [file, list] : files_) {
    for (const std::uint32_t i : list) {
      if (nodes_[i].page.dirty) out.push_back(nodes_[i].key);
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<BlockCache::Key> BlockCache::all_dirty() const {
  std::vector<Key> out;
  all_dirty(out);
  return out;
}

void BlockCache::invalidate_file(FileId file) {
  std::vector<std::uint32_t>* list = files_.find(file);
  if (list == nullptr) return;
  for (const std::uint32_t i : *list) release(i);
  list->clear();
}

void BlockCache::invalidate_all() {
  for (auto& [file, list] : files_) {
    for (const std::uint32_t i : list) {
      recycle_buf(std::move(nodes_[i].page.data));
      index_.erase(pack(file, nodes_[i].key.second));
    }
    list.clear();
  }
  nodes_.clear();  // keeps the slab's capacity
  free_ = kNone;
}

std::size_t BlockCache::dirty_count() const {
  std::size_t n = 0;
  for (const auto& [file, list] : files_) {
    for (const std::uint32_t i : list) n += nodes_[i].page.dirty ? 1 : 0;
  }
  return n;
}

std::size_t BlockCache::file_page_count(FileId file) const {
  const auto* list = files_.find(file);
  return list == nullptr ? 0 : list->size();
}

std::vector<FileId> BlockCache::cached_files() const {
  std::vector<FileId> out;
  for (const auto& [file, list] : files_) {
    if (!list.empty()) out.push_back(file);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace stank::client
