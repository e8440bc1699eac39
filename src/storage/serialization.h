// Binary graph snapshots: save a graph (schema + data, at the current
// version) to a single file and load it back.
//
// The format is a simple length-prefixed binary layout (magic + version
// header, catalog, per-label vertex/property sections, per-relation edge
// sections). Snapshots are self-describing: loading reconstructs the
// catalog and relations, so a loaded graph serves queries immediately.
// Overlay versions are folded into the snapshot (the save captures the
// graph as of Graph::CurrentVersion()).
//
// One on-disk format, "GESSNAP4" (DESIGN.md §9, §10, §16): after the
// magic, every section (header, string dictionary, catalog, relations,
// per-label vertices, per-relation edges, segments manifest) is framed as
// [u64 len][u32 crc32c][bytes] and verified on load, so a corrupted or
// truncated snapshot fails with a Status naming the offending section.
//  * The header records the snapshot version, so recovery can skip WAL
//    transactions the snapshot already contains.
//  * The per-graph string dictionary is written once; string values carry
//    a subtag: 0 = inline bytes, 1 = uint32 dictionary code.
//  * Edge sections are grouped by source and delta+varint compressed
//    (zigzag first id, non-negative gaps, null-suppressed stamp runs).
//  * The manifest lists the relations that had a compressed CSR segment
//    installed at save time. Loading rebuilds those segments with a forced
//    compaction pass (internal vertex ids are not stable across a
//    save/load cycle, so the encoded blobs themselves cannot be reused).
// Any other magic, including the retired GESSNAP1-3, is refused.
#ifndef GES_STORAGE_SERIALIZATION_H_
#define GES_STORAGE_SERIALIZATION_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "storage/graph.h"

namespace ges {

// Serializes `graph` (which must be finalized) into `out`.
Status SaveGraph(const Graph& graph, std::ostream& out);
Status SaveGraphFile(const Graph& graph, const std::string& path);

// Deserializes into `graph`, which must be freshly constructed (no schema,
// no data). The loaded graph is finalized and ready for reads and MV2PL
// writes.
Status LoadGraph(std::istream& in, Graph* graph);
Status LoadGraphFile(const std::string& path, Graph* graph);

}  // namespace ges

#endif  // GES_STORAGE_SERIALIZATION_H_
