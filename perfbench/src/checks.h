// Output checkers of the end-to-end benchmark. Each one compares what the
// engine returned with a computation made apart from the engine (straight
// over Graph::Neighbors / Graph::GetProperty and the generator's own
// columns) or with a property the answer must have. Every checker is a
// pure function of the answer it is given, so `--selftest` can feed it a
// deliberately wrong answer and see it refused.
#ifndef GES_PERFBENCH_CHECKS_H_
#define GES_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "datagen/snb_generator.h"
#include "executor/flatblock.h"
#include "executor/plan.h"
#include "queries/ldbc.h"
#include "storage/graph.h"

namespace perfbench {

using Rows = std::vector<std::vector<ges::Value>>;

// --- census (BI1 / BI2) ----------------------------------------------------

// Sorted, de-duplicated KNOWS neighbor lists of every person, read through
// Graph::Neighbors at `version`.
std::vector<std::vector<ges::VertexId>> KnowsAdjacency(
    const ges::Graph& graph, const ges::LdbcContext& ctx,
    ges::Version version);

struct CensusTruth {
  uint64_t triangles = 0;        // undirected triangles {a, b, t}
  uint64_t diamond_ordered = 0;  // sum over ordered edges of k(k-1)
};
CensusTruth CountCensus(const std::vector<std::vector<ges::VertexId>>& adj,
                        const std::vector<ges::VertexId>& persons);

// BI1 must equal 6 x triangles; BI2 must equal the ordered diamond sum.
bool CheckTriangleCensus(const CensusTruth& truth, int64_t engine,
                         std::string* why);
bool CheckDiamondCensus(const CensusTruth& truth, int64_t engine,
                        std::string* why);

// --- result tables ---------------------------------------------------------

// Row-by-row, value-by-value equality (the reference engine's ordered
// answer against the wire answer).
bool SameOrderedRows(const Rows& expected, const Rows& got, std::string* why);

// The rows respect the last ORDER BY of `plan` (on the sort keys present
// in the output) and its LIMIT.
bool CheckOrderAndLimit(const ges::Plan& plan, const ges::FlatBlock& table,
                        std::string* why);

// Order-sensitive 64-bit digest of a table (row count included).
uint64_t Fingerprint(const ges::FlatBlock& table);

// --- short reads -------------------------------------------------------------

// Declarative statements sent as text through Prepare/Execute. `arg` is the
// start person's external id; `threshold` a post length.
enum class TextKind : uint8_t { kFriends = 0, kPostsLonger = 1, kFriendCities = 2 };
inline constexpr int kNumTextKinds = 3;
const char* TextKindName(TextKind k);
std::string TextQuery(TextKind k, int64_t person, int64_t threshold);
// The statement's answer computed directly over the graph.
Rows TextOracle(TextKind k, const ges::Graph& graph,
                const ges::LdbcContext& ctx, int64_t person,
                int64_t threshold, ges::Version version);

// IS1's creationDate (column 6) / IS4's creationDate (column 0) equal the
// generator's own SnbData columns for the requested entity.
bool CheckIsCreationDate(int is_number, const ges::SnbData& data,
                         const ges::LdbcParams& params, const Rows& rows,
                         std::string* why);

// The client's round trip cannot be shorter than what the server billed.
bool CheckRoundTrip(double client_ms, double server_ms, std::string* why);

// --- write churn -------------------------------------------------------------

// Per relation (indexed by RelationId, both directions), the sorted
// multiset of (external src id, external dst id) pairs at `version`.
using EdgePairs = std::vector<std::pair<int64_t, int64_t>>;
std::vector<EdgePairs> EdgeMultisets(const ges::Graph& graph,
                                     ges::Version version);

// `rev`, with each pair swapped, is the same multiset as `fwd`.
bool CheckReversed(const EdgePairs& fwd, const EdgePairs& rev,
                   std::string* why);

// Summary of a graph for the reopen comparison: per relation key, edge
// count + digest of the sorted pair multiset; per label, vertex count.
struct GraphDigest {
  std::map<std::string, std::pair<uint64_t, uint64_t>> relations;
  std::map<uint32_t, uint64_t> vertices;
};
GraphDigest DigestGraph(const ges::Graph& graph, ges::Version version,
                        const std::vector<EdgePairs>& multisets);
bool SameDigest(const GraphDigest& live, const GraphDigest& reopened,
                std::string* why);

}  // namespace perfbench

#endif  // GES_PERFBENCH_CHECKS_H_
