// Unit tests for the storage layer: catalog, adjacency arrays, property
// tables, graph bulk load and reads.
#include <gtest/gtest.h>

#include "storage/adjacency.h"
#include "storage/catalog.h"
#include "storage/graph.h"
#include "storage/property_store.h"
#include "tests/test_util.h"

namespace ges {
namespace {

TEST(CatalogTest, LabelsAndPropertiesRoundTrip) {
  Catalog c;
  LabelId person = c.AddVertexLabel("PERSON");
  LabelId post = c.AddVertexLabel("POST");
  LabelId knows = c.AddEdgeLabel("KNOWS");
  EXPECT_EQ(c.VertexLabel("PERSON"), person);
  EXPECT_EQ(c.VertexLabel("POST"), post);
  EXPECT_EQ(c.EdgeLabel("KNOWS"), knows);
  EXPECT_EQ(c.VertexLabel("NOPE"), kInvalidLabel);
  EXPECT_EQ(c.VertexLabelName(person), "PERSON");

  PropertyId name = c.AddProperty(person, "name", ValueType::kString);
  PropertyId age = c.AddProperty(person, "age", ValueType::kInt64);
  // Same property name on another label shares the id but gets its own slot.
  PropertyId name2 = c.AddProperty(post, "name", ValueType::kString);
  EXPECT_EQ(name, name2);
  EXPECT_EQ(c.PropertySlot(person, name), 0);
  EXPECT_EQ(c.PropertySlot(person, age), 1);
  EXPECT_EQ(c.PropertySlot(post, name), 0);
  EXPECT_EQ(c.PropertySlot(post, age), -1);
  EXPECT_EQ(c.PropertyType(person, age), ValueType::kInt64);
}

TEST(CatalogTest, ReregistrationIsIdempotent) {
  Catalog c;
  LabelId a = c.AddVertexLabel("A");
  EXPECT_EQ(c.AddVertexLabel("A"), a);
  PropertyId p = c.AddProperty(a, "x", ValueType::kInt64);
  EXPECT_EQ(c.AddProperty(a, "x", ValueType::kInt64), p);
  EXPECT_EQ(c.LabelProperties(a).size(), 1u);
}

TEST(AdjacencyTest, BulkBuildPacksPerVertex) {
  AdjacencyTable t(RelationKey{0, 0, 0, Direction::kOut}, false);
  t.StageEdge(0, 1);
  t.StageEdge(0, 2);
  t.StageEdge(2, 0);
  t.Finalize(3);
  EXPECT_EQ(t.num_edges(), 3u);
  AdjSpan s0 = t.Neighbors(0);
  ASSERT_EQ(s0.size, 2u);
  EXPECT_EQ(s0.ids[0], 1u);
  EXPECT_EQ(s0.ids[1], 2u);
  EXPECT_EQ(t.Neighbors(1).size, 0u);
  EXPECT_EQ(t.Neighbors(2).size, 1u);
  EXPECT_EQ(t.Neighbors(99).size, 0u);  // out of range: empty
}

TEST(AdjacencyTest, StampsTravelWithNeighbors) {
  AdjacencyTable t(RelationKey{0, 0, 0, Direction::kOut}, true);
  t.StageEdge(0, 5, 111);
  t.StageEdge(0, 6, 222);
  t.Finalize(1);
  AdjSpan s = t.Neighbors(0);
  ASSERT_EQ(s.size, 2u);
  ASSERT_NE(s.stamps, nullptr);
  EXPECT_EQ(s.stamps[0], 111);
  EXPECT_EQ(s.stamps[1], 222);
}

// After Finalize the table is a bare CSR: n+1 offsets plus one slot per
// edge (a neighbor id, and a stamp when the relation has one). Staging
// buffers are released and no per-vertex metadata remains.
TEST(AdjacencyTest, FinalizedCsrCostsOffsetsPlusSlots) {
  constexpr size_t kVertices = 10000;
  for (bool has_stamp : {false, true}) {
    AdjacencyTable t(RelationKey{0, 0, 0, Direction::kOut}, has_stamp);
    size_t edges = 0;
    for (VertexId v = 0; v < kVertices; v += 7) {
      t.StageEdge(v, (v * 31) % kVertices, static_cast<int64_t>(v));
      t.StageEdge(v, (v * 17) % kVertices, static_cast<int64_t>(v));
      edges += 2;
    }
    t.Finalize(kVertices);
    const size_t slot =
        sizeof(VertexId) + (has_stamp ? sizeof(int64_t) : 0);
    EXPECT_LE(t.MemoryBytes(), (kVertices + 1) * 8 + edges * slot)
        << "has_stamp=" << has_stamp;
    EXPECT_EQ(t.num_edges(), edges);
    EXPECT_EQ(t.Degree(7), 2u);
    EXPECT_EQ(t.Degree(8), 0u);
  }
}

TEST(PropertyTableTest, AppendAndAccess) {
  StringDict dict;
  PropertyTable t({ValueType::kInt64, ValueType::kString}, &dict);
  size_t r0 = t.AppendRow();
  size_t r1 = t.AppendRow();
  EXPECT_EQ(r0, 0u);
  EXPECT_EQ(r1, 1u);
  t.Set(0, 0, Value::Int(10));
  t.Set(0, 1, Value::String("x"));
  t.Set(1, 0, Value::Int(20));
  EXPECT_EQ(t.Get(0, 0), Value::Int(10));
  EXPECT_EQ(t.Get(0, 1), Value::String("x"));
  EXPECT_EQ(t.Get(1, 0), Value::Int(20));
  EXPECT_EQ(t.num_rows(), 2u);
  // String cells are dictionary codes; the unset row decodes to "".
  EXPECT_TRUE(t.Column(1).dict_encoded());
  EXPECT_EQ(t.Column(1).GetCode(0), dict.Find("x"));
  EXPECT_EQ(t.Get(1, 1), Value::String(""));
}

TEST(GraphTest, BulkLoadAndSnapshotReads) {
  testutil::TinyGraph tiny;
  Graph& g = *tiny.graph;
  Version v = g.CurrentVersion();
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(g.NumVertices(tiny.person, v), 4u);
  EXPECT_EQ(g.NumVertices(tiny.message, v), 6u);

  // p0 knows p1, p2.
  AdjSpan s = g.Neighbors(tiny.knows_out, tiny.persons[0], v);
  ASSERT_EQ(s.size, 2u);
  EXPECT_EQ(s.ids[0], tiny.persons[1]);
  EXPECT_EQ(s.ids[1], tiny.persons[2]);

  // p3 created m3, m4, m5 (via IN table).
  AdjSpan msgs = g.Neighbors(tiny.person_messages, tiny.persons[3], v);
  EXPECT_EQ(msgs.size, 3u);

  EXPECT_EQ(g.GetProperty(tiny.messages[0], tiny.len, v), Value::Int(140));
  EXPECT_EQ(g.LabelOf(tiny.messages[0], v), tiny.message);
  EXPECT_EQ(g.FindByExtId(tiny.person, 2, v), tiny.persons[2]);
  EXPECT_EQ(g.FindByExtId(tiny.person, 99, v), kInvalidVertex);
}

TEST(GraphTest, ScanLabel) {
  testutil::TinyGraph tiny;
  std::vector<VertexId> out;
  tiny.graph->ScanLabel(tiny.person, 0, &out);
  EXPECT_EQ(out, tiny.persons);
}

TEST(GraphTest, RelationResolution) {
  testutil::TinyGraph tiny;
  // Both directions resolvable; mismatched labels are not.
  EXPECT_NE(tiny.graph->FindRelation(tiny.person, tiny.knows, tiny.person,
                                     Direction::kOut),
            kInvalidRelation);
  EXPECT_NE(tiny.graph->FindRelation(tiny.person, tiny.knows, tiny.person,
                                     Direction::kIn),
            kInvalidRelation);
  EXPECT_EQ(tiny.graph->FindRelation(tiny.message, tiny.knows, tiny.person,
                                     Direction::kOut),
            kInvalidRelation);
}

TEST(GraphTest, EdgeCountReportsLogicalEdges) {
  testutil::TinyGraph tiny;
  // 6 has_creator + 8 knows (4 symmetric pairs) = 14 logical edges.
  EXPECT_EQ(tiny.graph->NumEdgesTotal(), 14u);
}

TEST(GraphTest, MemoryAccountingNonZero) {
  testutil::TinyGraph tiny;
  EXPECT_GT(tiny.graph->MemoryBytes(), 0u);
}

}  // namespace
}  // namespace ges
