#include "checks.h"

#include <algorithm>

namespace perfbench {

using ges::AdjScratch;
using ges::AdjSpan;
using ges::FlatBlock;
using ges::Graph;
using ges::LdbcContext;
using ges::Value;
using ges::Version;
using ges::VertexId;

namespace {

// Calls `fn(neighbor)` for every live neighbor of `v` in `rel`.
template <typename Fn>
void ForEachNeighbor(const Graph& graph, ges::RelationId rel, VertexId v,
                     Version version, AdjScratch* scratch, Fn fn) {
  AdjSpan span = graph.Neighbors(rel, v, version, scratch);
  for (uint32_t i = 0; i < span.size; ++i) {
    if (span.ids[i] != ges::kInvalidVertex) fn(span.ids[i]);
  }
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

}  // namespace

// --- census ------------------------------------------------------------------

std::vector<std::vector<VertexId>> KnowsAdjacency(const Graph& graph,
                                                  const LdbcContext& ctx,
                                                  Version version) {
  std::vector<VertexId> persons;
  graph.ScanLabel(ctx.s.person, version, &persons);
  VertexId max_id = 0;
  for (VertexId p : persons) max_id = std::max(max_id, p);
  std::vector<std::vector<VertexId>> adj(persons.empty() ? 0 : max_id + 1);
  AdjScratch scratch;
  for (VertexId p : persons) {
    std::vector<VertexId>& list = adj[p];
    ForEachNeighbor(graph, ctx.knows, p, version, &scratch,
                    [&](VertexId w) { list.push_back(w); });
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return adj;
}

CensusTruth CountCensus(const std::vector<std::vector<VertexId>>& adj,
                        const std::vector<VertexId>& persons) {
  CensusTruth t;
  for (VertexId a : persons) {
    const std::vector<VertexId>& na = adj[a];
    for (VertexId b : na) {
      const std::vector<VertexId>& nb = adj[b];
      // |N(a) ∩ N(b)| by a merge of the two sorted lists; the triangle
      // count takes only a < b < t so each triangle is seen once.
      uint64_t common = 0;
      uint64_t above_b = 0;
      size_t i = 0, j = 0;
      while (i < na.size() && j < nb.size()) {
        if (na[i] < nb[j]) {
          ++i;
        } else if (nb[j] < na[i]) {
          ++j;
        } else {
          ++common;
          if (na[i] > b) ++above_b;
          ++i;
          ++j;
        }
      }
      t.diamond_ordered += common * (common - (common > 0 ? 1 : 0));
      if (a < b) t.triangles += above_b;
    }
  }
  return t;
}

bool CheckTriangleCensus(const CensusTruth& truth, int64_t engine,
                         std::string* why) {
  int64_t want = static_cast<int64_t>(truth.triangles * 6);
  if (engine == want) return true;
  *why = "BI1 returned " + std::to_string(engine) + ", expected 6 x " +
         std::to_string(truth.triangles) + " = " + std::to_string(want);
  return false;
}

bool CheckDiamondCensus(const CensusTruth& truth, int64_t engine,
                        std::string* why) {
  int64_t want = static_cast<int64_t>(truth.diamond_ordered);
  if (engine == want) return true;
  *why = "BI2 returned " + std::to_string(engine) + ", expected " +
         std::to_string(want);
  return false;
}

// --- result tables -------------------------------------------------------------

bool SameOrderedRows(const Rows& expected, const Rows& got, std::string* why) {
  if (expected.size() != got.size()) {
    *why = "row count " + std::to_string(got.size()) + ", expected " +
           std::to_string(expected.size());
    return false;
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (expected[r].size() != got[r].size()) {
      *why = "row " + std::to_string(r) + " has " +
             std::to_string(got[r].size()) + " columns, expected " +
             std::to_string(expected[r].size());
      return false;
    }
    for (size_t c = 0; c < got[r].size(); ++c) {
      if (expected[r][c].Compare(got[r][c]) != 0) {
        *why = "row " + std::to_string(r) + " column " + std::to_string(c) +
               " is " + got[r][c].ToString() + ", expected " +
               expected[r][c].ToString();
        return false;
      }
    }
  }
  return true;
}

bool CheckOrderAndLimit(const ges::Plan& plan, const FlatBlock& table,
                        std::string* why) {
  const ges::PlanOp* order = nullptr;
  uint64_t limit = UINT64_MAX;
  for (const ges::PlanOp& op : plan.ops) {
    if (op.type == ges::OpType::kOrderBy || op.type == ges::OpType::kTopK) {
      order = &op;
      limit = std::min(limit, op.limit);
    } else if (op.type == ges::OpType::kLimit) {
      limit = std::min(limit, op.limit);
    }
  }
  if (table.NumRows() > limit) {
    *why = plan.name + " returned " + std::to_string(table.NumRows()) +
           " rows over LIMIT " + std::to_string(limit);
    return false;
  }
  if (order == nullptr) return true;
  // Compare on the longest prefix of sort keys present in the output.
  std::vector<std::pair<int, bool>> keys;
  for (const ges::SortKey& k : order->sort_keys) {
    int idx = table.schema().IndexOf(k.column);
    if (idx < 0) break;
    keys.push_back({idx, k.ascending});
  }
  for (size_t r = 1; r < table.NumRows(); ++r) {
    for (const auto& [idx, asc] : keys) {
      int c = table.At(r - 1, idx).Compare(table.At(r, idx));
      if (c == 0) continue;
      if ((c > 0) == asc) {
        *why = plan.name + " rows " + std::to_string(r - 1) + " and " +
               std::to_string(r) + " break ORDER BY " +
               table.schema()[idx].name;
        return false;
      }
      break;
    }
  }
  return true;
}

uint64_t Fingerprint(const FlatBlock& table) {
  uint64_t h = Mix(0x51ed27ull, table.NumRows());
  for (const auto& row : table.rows()) {
    for (const Value& v : row) {
      h = Mix(h, static_cast<uint64_t>(v.type()));
      h = Mix(h, v.Hash());
    }
  }
  return h;
}

// --- short reads -----------------------------------------------------------------

const char* TextKindName(TextKind k) {
  switch (k) {
    case TextKind::kFriends:
      return "TEXT_FRIENDS";
    case TextKind::kPostsLonger:
      return "TEXT_POSTS";
    case TextKind::kFriendCities:
      return "TEXT_CITIES";
  }
  return "TEXT";
}

std::string TextQuery(TextKind k, int64_t person, int64_t threshold) {
  std::string p = std::to_string(person);
  switch (k) {
    case TextKind::kFriends:
      return "MATCH (p:PERSON)-[:KNOWS]->(f:PERSON) WHERE id(p) = " + p +
             " RETURN f.id, f.firstName ORDER BY f.id ASC LIMIT 20";
    case TextKind::kPostsLonger:
      return "MATCH (p:PERSON)<-[:HAS_CREATOR]-(m:POST) WHERE id(p) = " + p +
             " AND m.length > " + std::to_string(threshold) +
             " RETURN m.id, m.length ORDER BY m.length DESC, m.id ASC LIMIT 10";
    case TextKind::kFriendCities:
      return "MATCH (p:PERSON)-[:KNOWS]->(f:PERSON)-[:IS_LOCATED_IN]->"
             "(c:PLACE) WHERE id(p) = " +
             p + " RETURN f.id, c.name ORDER BY f.id ASC LIMIT 10";
  }
  return "";
}

Rows TextOracle(TextKind k, const Graph& graph, const LdbcContext& ctx,
                int64_t person, int64_t threshold, Version version) {
  Rows rows;
  VertexId p = graph.FindByExtId(ctx.s.person, person, version);
  if (p == ges::kInvalidVertex) return rows;
  AdjScratch scratch;
  AdjScratch inner;
  auto by_first = [](const std::vector<Value>& a, const std::vector<Value>& b) {
    return a[0].Compare(b[0]) < 0;
  };
  size_t limit = 0;
  switch (k) {
    case TextKind::kFriends:
      ForEachNeighbor(graph, ctx.knows, p, version, &scratch, [&](VertexId f) {
        rows.push_back({graph.GetProperty(f, ctx.p_id, version),
                        graph.GetProperty(f, ctx.s.first_name, version)});
      });
      std::stable_sort(rows.begin(), rows.end(), by_first);
      limit = 20;
      break;
    case TextKind::kPostsLonger:
      ForEachNeighbor(graph, ctx.person_posts, p, version, &scratch,
                      [&](VertexId m) {
                        Value len = graph.GetProperty(m, ctx.p_length, version);
                        if (len.AsInt() > threshold) {
                          rows.push_back(
                              {graph.GetProperty(m, ctx.p_id, version), len});
                        }
                      });
      std::stable_sort(rows.begin(), rows.end(),
                       [](const std::vector<Value>& a,
                          const std::vector<Value>& b) {
                         int c = a[1].Compare(b[1]);
                         if (c != 0) return c > 0;
                         return a[0].Compare(b[0]) < 0;
                       });
      limit = 10;
      break;
    case TextKind::kFriendCities:
      ForEachNeighbor(graph, ctx.knows, p, version, &scratch, [&](VertexId f) {
        ForEachNeighbor(graph, ctx.person_city, f, version, &inner,
                        [&](VertexId c) {
                          rows.push_back(
                              {graph.GetProperty(f, ctx.p_id, version),
                               graph.GetProperty(c, ctx.p_name, version)});
                        });
      });
      std::stable_sort(rows.begin(), rows.end(), by_first);
      limit = 10;
      break;
  }
  if (rows.size() > limit) rows.resize(limit);
  return rows;
}

bool CheckIsCreationDate(int is_number, const ges::SnbData& data,
                         const ges::LdbcParams& params, const Rows& rows,
                         std::string* why) {
  int64_t want = 0;
  size_t col = 0;
  if (is_number == 1) {
    want = data.person_creation.at(static_cast<size_t>(params.person));
    col = 6;
  } else if (is_number == 4) {
    want = data.post_creation.at(static_cast<size_t>(params.post));
    col = 0;
  } else {
    return true;
  }
  if (rows.size() != 1 || rows[0].size() <= col) {
    *why = "IS" + std::to_string(is_number) + " returned " +
           std::to_string(rows.size()) + " rows, expected 1";
    return false;
  }
  if (rows[0][col].AsInt() != want) {
    *why = "IS" + std::to_string(is_number) + " creationDate " +
           std::to_string(rows[0][col].AsInt()) + ", generator wrote " +
           std::to_string(want);
    return false;
  }
  return true;
}

bool CheckRoundTrip(double client_ms, double server_ms, std::string* why) {
  if (client_ms >= server_ms) return true;
  *why = "client round trip " + std::to_string(client_ms) +
         " ms is shorter than the server-reported " +
         std::to_string(server_ms) + " ms";
  return false;
}

// --- write churn -------------------------------------------------------------------

std::vector<EdgePairs> EdgeMultisets(const Graph& graph, Version version) {
  std::vector<EdgePairs> out(graph.NumRelations());
  AdjScratch scratch;
  std::vector<VertexId> sources;
  for (ges::RelationId rel = 0; rel < graph.NumRelations(); ++rel) {
    sources.clear();
    graph.ScanLabel(graph.RelationKeyOf(rel).src_label, version, &sources);
    EdgePairs& pairs = out[rel];
    for (VertexId v : sources) {
      int64_t src = graph.ExtIdOf(v, version);
      ForEachNeighbor(graph, rel, v, version, &scratch, [&](VertexId w) {
        pairs.push_back({src, graph.ExtIdOf(w, version)});
      });
    }
    std::sort(pairs.begin(), pairs.end());
  }
  return out;
}

bool CheckReversed(const EdgePairs& fwd, const EdgePairs& rev,
                   std::string* why) {
  if (fwd.size() != rev.size()) {
    *why = std::to_string(fwd.size()) + " edges one way, " +
           std::to_string(rev.size()) + " the other";
    return false;
  }
  EdgePairs flipped;
  flipped.reserve(rev.size());
  for (const auto& [a, b] : rev) flipped.push_back({b, a});
  std::sort(flipped.begin(), flipped.end());
  for (size_t i = 0; i < fwd.size(); ++i) {
    if (fwd[i] != flipped[i]) {
      *why = "edge (" + std::to_string(fwd[i].first) + ", " +
             std::to_string(fwd[i].second) + ") has no reverse twin";
      return false;
    }
  }
  return true;
}

GraphDigest DigestGraph(const Graph& graph, Version version,
                        const std::vector<EdgePairs>& multisets) {
  GraphDigest d;
  for (ges::RelationId rel = 0; rel < multisets.size(); ++rel) {
    const ges::RelationKey& k = graph.RelationKeyOf(rel);
    std::string key = graph.catalog().VertexLabelName(k.src_label) + "-" +
                      graph.catalog().EdgeLabelName(k.edge_label) + "-" +
                      graph.catalog().VertexLabelName(k.dst_label) +
                      (k.direction == ges::Direction::kOut ? "/out" : "/in");
    uint64_t h = 0x243f6a88ull;
    for (const auto& [a, b] : multisets[rel]) {
      h = Mix(Mix(h, static_cast<uint64_t>(a)), static_cast<uint64_t>(b));
    }
    d.relations[key] = {multisets[rel].size(), h};
  }
  for (uint32_t label = 0; label < graph.catalog().num_vertex_labels();
       ++label) {
    d.vertices[label] = graph.NumVertices(static_cast<ges::LabelId>(label),
                                          version);
  }
  return d;
}

bool SameDigest(const GraphDigest& live, const GraphDigest& reopened,
                std::string* why) {
  if (live.vertices != reopened.vertices) {
    *why = "vertex counts per label differ after reopen";
    return false;
  }
  if (live.relations.size() != reopened.relations.size()) {
    *why = "relation count differs after reopen";
    return false;
  }
  for (const auto& [key, v] : live.relations) {
    auto it = reopened.relations.find(key);
    if (it == reopened.relations.end()) {
      *why = "relation " + key + " missing after reopen";
      return false;
    }
    if (it->second != v) {
      *why = "relation " + key + " has " + std::to_string(it->second.first) +
             " edges after reopen, " + std::to_string(v.first) +
             " live (or a different multiset)";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
