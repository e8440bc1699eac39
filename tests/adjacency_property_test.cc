// Property-based storage tests: random bulk graphs round-trip through the
// adjacency tables; MV2PL updates and compaction preserve the span
// invariant readers rely on (sorted, no kInvalidVertex).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/adjacency.h"
#include "storage/graph.h"

namespace ges {
namespace {

class AdjacencyRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(AdjacencyRandomTest, BulkBuildMatchesEdgeList) {
  Rng rng(GetParam() * 2654435761u + 1);
  size_t n = 1 + rng.Uniform(200);
  size_t m = rng.Uniform(1000);
  AdjacencyTable table(RelationKey{0, 0, 0, Direction::kOut},
                       /*has_stamp=*/true);
  std::multimap<VertexId, std::pair<VertexId, int64_t>> expected;
  for (size_t e = 0; e < m; ++e) {
    VertexId src = rng.Uniform(n);
    VertexId dst = rng.Uniform(n);
    int64_t stamp = static_cast<int64_t>(rng.Uniform(1u << 20));
    table.StageEdge(src, dst, stamp);
    expected.emplace(src, std::make_pair(dst, stamp));
  }
  table.Finalize(n);
  EXPECT_EQ(table.num_edges(), m);

  // Every vertex's span reproduces its staged edges, sorted by neighbor id
  // (the sorted-adjacency invariant) with stamps stably reordered alongside.
  for (VertexId v = 0; v < n; ++v) {
    AdjSpan span = table.Neighbors(v);
    auto [lo, hi] = expected.equal_range(v);
    size_t count = static_cast<size_t>(std::distance(lo, hi));
    ASSERT_EQ(span.size, count) << "vertex " << v;
    // Staged pairs stably sorted by dst = what Finalize must produce.
    std::vector<std::pair<VertexId, int64_t>> want;
    for (auto it = lo; it != hi; ++it) want.push_back(it->second);
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(span.ids[i], want[i].first);
      EXPECT_EQ(span.stamps[i], want[i].second);
    }
  }
}

// Random single-edge inserts and removes through MV2PL transactions (the
// only update path): after every commit the published span holds exactly
// the live multiset, in sorted order.
TEST_P(AdjacencyRandomTest, IncrementalInsertsAndRemoves) {
  Rng rng(GetParam() * 40503 + 7);
  Graph g;
  LabelId node = g.catalog().AddVertexLabel("N");
  LabelId e = g.catalog().AddEdgeLabel("E");
  g.catalog().AddProperty(node, "id", ValueType::kInt64);
  g.RegisterRelation(node, e, node);
  std::vector<VertexId> v;
  for (int i = 0; i < 64; ++i) v.push_back(g.AddVertexBulk(node, i));
  g.FinalizeBulk();
  RelationId rel = g.FindRelation(node, e, node, Direction::kOut);
  std::multiset<VertexId> live;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.Bernoulli(0.7)) {
      VertexId dst = v[rng.Uniform(64)];
      auto txn = g.BeginWrite({v[3], dst});
      ASSERT_TRUE(txn->AddEdge(e, v[3], dst).ok());
      txn->Commit();
      live.insert(dst);
    } else {
      VertexId dst = *live.begin();
      auto txn = g.BeginWrite({v[3], dst});
      ASSERT_TRUE(txn->RemoveEdge(e, v[3], dst).ok());
      txn->Commit();
      live.erase(live.begin());
    }
    ASSERT_EQ(g.Degree(rel, v[3], g.CurrentVersion()), live.size());
  }
  AdjSpan span = g.Neighbors(rel, v[3], g.CurrentVersion());
  std::vector<VertexId> got(span.ids, span.ids + span.size);
  EXPECT_EQ(got, std::vector<VertexId>(live.begin(), live.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdjacencyRandomTest, ::testing::Range(0, 10));

// Every span Graph::Neighbors returns is nondecreasing and free of
// kInvalidVertex: the AdjSpan contract readers gallop over without checking.
void ExpectSpansSortedAndClean(const Graph& g,
                               const std::vector<RelationId>& rels,
                               const std::vector<VertexId>& vertices,
                               Version ver) {
  AdjScratch scratch;
  for (RelationId rel : rels) {
    for (VertexId x : vertices) {
      AdjSpan span = g.Neighbors(rel, x, ver, &scratch);
      for (uint32_t i = 0; i < span.size; ++i) {
        ASSERT_NE(span.ids[i], kInvalidVertex)
            << "rel " << rel << " vertex " << x << " version " << ver;
        if (i > 0) {
          ASSERT_LE(span.ids[i - 1], span.ids[i])
              << "rel " << rel << " vertex " << x << " version " << ver;
        }
      }
    }
  }
}

// Random MV2PL write batches keep per-snapshot degree history consistent,
// and every snapshot's spans keep the sorted, clean contract — after
// RemoveEdge transactions and across a forced compaction.
TEST(MvccPropertyTest, DegreeHistoryPerSnapshot) {
  Graph g;
  LabelId node = g.catalog().AddVertexLabel("N");
  LabelId e = g.catalog().AddEdgeLabel("E");
  g.catalog().AddProperty(node, "id", ValueType::kInt64);
  g.RegisterRelation(node, e, node);
  std::vector<VertexId> v;
  for (int i = 0; i < 10; ++i) v.push_back(g.AddVertexBulk(node, i));
  // A few bulk edges so the base CSR serves spans too.
  for (int i = 1; i < 10; i += 2) g.AddEdgeBulk(e, v[i], v[(i * 3) % 10]);
  g.FinalizeBulk();
  RelationId rel = g.FindRelation(node, e, node, Direction::kOut);
  const std::vector<RelationId> rels{rel, g.ReverseRelation(rel)};

  Rng rng(99);
  // history[k] = expected degree of v[0] at version k.
  std::vector<uint32_t> history{0};
  uint32_t degree = 0;
  auto step = [&]() {
    bool remove = degree > 0 && rng.Bernoulli(0.3);
    AdjScratch scratch;
    if (remove) {
      // Pick an existing neighbor from the latest snapshot, then remove it.
      AdjSpan span = g.Neighbors(rel, v[0], g.CurrentVersion(), &scratch);
      ASSERT_GT(span.size, 0u);
      VertexId target = span.ids[rng.Uniform(span.size)];
      auto txn = g.BeginWrite({v[0], target});
      ASSERT_TRUE(txn->RemoveEdge(e, v[0], target).ok());
      txn->Commit();
      --degree;
    } else {
      VertexId other = v[1 + rng.Uniform(9)];
      auto txn = g.BeginWrite({v[0], other});
      ASSERT_TRUE(txn->AddEdge(e, v[0], other).ok());
      txn->Commit();
      ++degree;
    }
    history.push_back(degree);
  };
  // Every snapshot from `from` on still answers with its own degree and
  // hands out sorted, clean spans.
  auto check_from = [&](Version from) {
    for (Version ver = from; ver < history.size(); ++ver) {
      EXPECT_EQ(g.Degree(rel, v[0], ver), history[ver]) << "version " << ver;
      ExpectSpansSortedAndClean(g, rels, v, ver);
    }
  };

  for (int i = 0; i < 60; ++i) ASSERT_NO_FATAL_FAILURE(step());
  check_from(0);

  // Pin the middle of the history so the compaction cut lands there, then
  // merge every relation into compressed segments.
  const Version pinned = 30;
  SnapshotHandle pin = g.PinSnapshotAt(pinned);
  CompactionOptions opts;
  opts.force = true;
  ASSERT_GE(g.CompactRelations(opts).relations_compacted, 1u);
  check_from(pinned);

  // Updates on top of the segments seed their copies from decoded lists.
  for (int i = 0; i < 30; ++i) ASSERT_NO_FATAL_FAILURE(step());
  check_from(pinned);
}

}  // namespace
}  // namespace ges
