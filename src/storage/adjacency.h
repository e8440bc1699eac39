// Adjacency-array graph topology storage (Figure 9 of the paper).
//
// The whole topology is stored as an array-of-arrays: for every relation key
// (srcLabel, edgeLabel, dstLabel, direction) there is one AdjacencyTable.
// Bulk load stages the edges and Finalize packs them once into an immutable
// CSR: n+1 offsets (indexed by the global VertexId) over a packed neighbor
// column. Updates never touch it; they publish sorted copy-on-write overlay
// entries (storage/version_manager.h), and compaction merges both into a
// compressed segment (DESIGN.md §16).
//
// Each relation may carry at most one int64 edge property ("stamp", e.g.
// creationDate of a KNOWS edge) stored side by side with the neighbor ids.
// This covers every edge property the LDBC SNB interactive workload touches.
#ifndef GES_STORAGE_ADJACENCY_H_
#define GES_STORAGE_ADJACENCY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"

namespace ges {

// Resolved adjacency table id: index into GraphStore's table list. Plans
// resolve (srcLabel, edgeLabel, dstLabel, direction) to a RelationId once at
// build time, so the per-tuple lookup cost the paper calls "minor"
// disappears entirely from the hot path.
using RelationId = uint32_t;
inline constexpr RelationId kInvalidRelation = 0xffffffffu;

// A non-owning view of one vertex's neighbors (and optional edge stamps).
//
// Sorted invariant: `ids` is nondecreasing and holds no kInvalidVertex.
// Every span source keeps it — Finalize sorts each vertex's packed list,
// commit publishes sorted overlay copies, and compressed segments encode
// sorted lists — so readers gallop and binary-search spans directly (see
// storage/intersect.h) and never filter them.
struct AdjSpan {
  const VertexId* ids = nullptr;
  const int64_t* stamps = nullptr;  // nullptr if the relation has no stamp
  uint32_t size = 0;

  bool empty() const { return size == 0; }
};

// Caller-owned decode buffers for reads that may hit a compressed segment
// (DESIGN.md §16). A span decoded into a scratch is valid until the scratch
// is reused for another decode or destroyed, so a call site that holds two
// spans live at once needs two scratches. Reusable across iterations of a
// loop — the vectors keep their capacity.
struct AdjScratch {
  std::vector<VertexId> ids;
  std::vector<int64_t> stamps;
};

// Hash key of an adjacency table, per the paper's storage design.
struct RelationKey {
  LabelId src_label;
  LabelId edge_label;
  LabelId dst_label;
  Direction direction;

  bool operator==(const RelationKey& o) const {
    return src_label == o.src_label && edge_label == o.edge_label &&
           dst_label == o.dst_label && direction == o.direction;
  }
};

struct RelationKeyHash {
  size_t operator()(const RelationKey& k) const {
    uint64_t h = (uint64_t{k.src_label} << 40) ^ (uint64_t{k.edge_label} << 24) ^
                 (uint64_t{k.dst_label} << 8) ^ uint64_t(k.direction);
    h *= 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

// One adjacency table: an immutable CSR built once by Finalize. Reads are
// lock-free; the compaction swap detaches the storage under the commit
// mutex while pinned readers drain.
class AdjacencyTable {
 public:
  AdjacencyTable(RelationKey key, bool has_stamp)
      : key_(key), has_stamp_(has_stamp) {}

  const RelationKey& key() const { return key_; }
  bool has_stamp() const { return has_stamp_; }
  size_t num_edges() const {
    return num_edges_.load(std::memory_order_relaxed);
  }
  // Vertices with at least one out-edge; with num_edges() this gives the
  // average degree the optimizer's intersection cost model uses.
  size_t num_sources() const {
    return num_sources_.load(std::memory_order_relaxed);
  }

  // --- bulk load (two-phase: stage edges, then Finalize packs them) ---
  void StageEdge(VertexId src, VertexId dst, int64_t stamp = 0);
  // Packs staged edges into the CSR. `num_vertices` sizes the offsets
  // (global id space); later vertices have no base edges.
  void Finalize(size_t num_vertices);
  bool finalized() const { return finalized_; }

  // --- reads ---
  // Vertices the CSR covers (0 before Finalize and after DetachStorage).
  size_t num_vertices() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  AdjSpan Neighbors(VertexId v) const {
    if (v >= num_vertices()) return AdjSpan{};
    const uint64_t begin = offsets_[v];
    return AdjSpan{packed_ids_.data() + begin,
                   has_stamp_ ? packed_stamps_.data() + begin : nullptr,
                   static_cast<uint32_t>(offsets_[v + 1] - begin)};
  }
  uint32_t Degree(VertexId v) const { return Neighbors(v).size; }

  // Everything the table holds, staged edges included (the governor
  // watermark and the compaction trigger must see capacity — DESIGN.md §16).
  size_t MemoryBytes() const;

  // --- compaction handoff (DESIGN.md §16) ---
  // Detaches the CSR into an opaque keepalive and leaves the table
  // empty-but-finalized. Pinned readers may still hold AdjSpans into the
  // detached storage, so the caller parks the keepalive on the graph's
  // retire list until the GC watermark passes the swap version. Called with
  // the commit mutex held.
  std::shared_ptr<const void> DetachStorage();
  // Restores the edge totals after a detach so AvgDegree and the optimizer
  // cost model keep working while a compressed segment serves the reads.
  void RestoreCompacted(size_t num_edges, size_t num_sources);

 private:
  RelationKey key_;
  bool has_stamp_;
  bool finalized_ = false;
  // Relaxed atomics: the compaction swap rewrites both under the commit
  // mutex while the optimizer's cost model reads them lock-free mid-plan;
  // a slightly stale degree estimate is fine, a torn read is not.
  std::atomic<size_t> num_edges_{0};
  std::atomic<size_t> num_sources_{0};

  // Staged (bulk) edges before Finalize.
  std::vector<VertexId> staged_src_;
  std::vector<VertexId> staged_dst_;
  std::vector<int64_t> staged_stamp_;

  // The CSR: vertex v's neighbors are packed_ids_[offsets_[v],
  // offsets_[v + 1]).
  std::vector<uint64_t> offsets_;
  std::vector<VertexId> packed_ids_;
  std::vector<int64_t> packed_stamps_;
};

}  // namespace ges

#endif  // GES_STORAGE_ADJACENCY_H_
