#include "storage/adjacency.h"

#include <algorithm>
#include <cassert>

namespace ges {

void AdjacencyTable::StageEdge(VertexId src, VertexId dst, int64_t stamp) {
  assert(!finalized_);
  staged_src_.push_back(src);
  staged_dst_.push_back(dst);
  if (has_stamp_) staged_stamp_.push_back(stamp);
}

void AdjacencyTable::Finalize(size_t num_vertices) {
  assert(!finalized_);
  // Degree count into offsets_[v + 1], then prefix sums.
  offsets_.assign(num_vertices + 1, 0);
  for (VertexId s : staged_src_) {
    assert(s < num_vertices);
    ++offsets_[s + 1];
  }
  size_t sources = 0;
  for (size_t v = 0; v < num_vertices; ++v) {
    if (offsets_[v + 1] > 0) ++sources;
    offsets_[v + 1] += offsets_[v];
  }
  const size_t total = offsets_[num_vertices];
  packed_ids_.resize(total);
  if (has_stamp_) packed_stamps_.resize(total);
  // Fill (stable within each vertex: keeps datagen order).
  std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t e = 0; e < staged_src_.size(); ++e) {
    size_t pos = cursor[staged_src_[e]]++;
    packed_ids_[pos] = staged_dst_[e];
    if (has_stamp_) packed_stamps_[pos] = staged_stamp_[e];
  }
  cursor = std::vector<uint64_t>();
  // Sort each vertex's list by neighbor id (stable, so parallel edges keep
  // their staging order). Sorted lists are the storage invariant the
  // intersection/galloping primitives rely on (storage/intersect.h).
  std::vector<uint32_t> perm;
  std::vector<VertexId> tmp_ids;
  std::vector<int64_t> tmp_stamps;
  for (size_t v = 0; v < num_vertices; ++v) {
    const uint32_t d = static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
    if (d < 2) continue;
    VertexId* ids = packed_ids_.data() + offsets_[v];
    if (std::is_sorted(ids, ids + d)) continue;
    perm.resize(d);
    for (uint32_t i = 0; i < d; ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(),
                     [&](uint32_t a, uint32_t b) { return ids[a] < ids[b]; });
    tmp_ids.assign(ids, ids + d);
    for (uint32_t i = 0; i < d; ++i) ids[i] = tmp_ids[perm[i]];
    if (has_stamp_) {
      int64_t* stamps = packed_stamps_.data() + offsets_[v];
      tmp_stamps.assign(stamps, stamps + d);
      for (uint32_t i = 0; i < d; ++i) stamps[i] = tmp_stamps[perm[i]];
    }
  }
  num_sources_.store(sources, std::memory_order_relaxed);
  num_edges_.store(total, std::memory_order_relaxed);
  staged_src_ = std::vector<VertexId>();
  staged_dst_ = std::vector<VertexId>();
  staged_stamp_ = std::vector<int64_t>();
  finalized_ = true;
}

size_t AdjacencyTable::MemoryBytes() const {
  // Capacity, not size: the staging buffers count until Finalize releases
  // them (bulk loads would otherwise under-report by the whole edge list).
  return staged_src_.capacity() * sizeof(VertexId) +
         staged_dst_.capacity() * sizeof(VertexId) +
         staged_stamp_.capacity() * sizeof(int64_t) +
         offsets_.capacity() * sizeof(uint64_t) +
         packed_ids_.capacity() * sizeof(VertexId) +
         packed_stamps_.capacity() * sizeof(int64_t);
}

std::shared_ptr<const void> AdjacencyTable::DetachStorage() {
  struct Holder {
    std::vector<uint64_t> offsets;
    std::vector<VertexId> packed_ids;
    std::vector<int64_t> packed_stamps;
  };
  auto holder = std::make_shared<Holder>();
  holder->offsets = std::move(offsets_);
  holder->packed_ids = std::move(packed_ids_);
  holder->packed_stamps = std::move(packed_stamps_);
  offsets_ = std::vector<uint64_t>();
  packed_ids_ = std::vector<VertexId>();
  packed_stamps_ = std::vector<int64_t>();
  num_edges_.store(0, std::memory_order_relaxed);
  num_sources_.store(0, std::memory_order_relaxed);
  return holder;
}

void AdjacencyTable::RestoreCompacted(size_t num_edges, size_t num_sources) {
  num_edges_.store(num_edges, std::memory_order_relaxed);
  num_sources_.store(num_sources, std::memory_order_relaxed);
  finalized_ = true;
}

}  // namespace ges
