// Self-tests of the benchmark's own checkers: each checker must accept the
// engine's real answer and refuse one deliberately wrong answer (a dropped
// row, an off-by-one count, a swapped edge, ...), so no check can pass
// vacuously. Runs on a small generated graph in a second or so.
#include <cstdio>
#include <string>
#include <utility>

#include "checks.h"
#include "datagen/snb_generator.h"
#include "executor/executor.h"
#include "frontend/parser.h"
#include "queries/ldbc.h"

namespace perfbench {

namespace {

int g_failures = 0;

// `accepts` must be true for the real answer and `rejects` false for the
// corrupted one.
void Expect(const char* name, bool accepts, bool rejects_ok,
            const std::string& why) {
  bool pass = accepts && !rejects_ok;
  std::fprintf(stderr, "selftest: %-40s %-6s %s\n", name,
               pass ? "ok" : "FAILED", why.c_str());
  if (!pass) ++g_failures;
}

Rows Corrupt(Rows rows, size_t row, size_t col, ges::Value v) {
  rows[row][col] = std::move(v);
  return rows;
}

}  // namespace

int RunSelfTests() {
  ges::Graph graph;
  ges::SnbConfig cfg;
  cfg.scale_factor = 0.01;
  cfg.seed = 7;
  ges::SnbData data = ges::GenerateSnb(cfg, &graph);
  ges::LdbcContext ctx = ges::LdbcContext::Resolve(graph, data.schema);
  ges::GraphView view(&graph);
  ges::Version v = view.version();
  ges::Executor fused(ges::ExecMode::kFactorizedFused);
  ges::Executor volcano(ges::ExecMode::kVolcano);
  std::string why;
  ges::LdbcParams none{};

  // Census: off-by-one counts.
  std::vector<ges::VertexId> persons;
  graph.ScanLabel(ctx.s.person, v, &persons);
  CensusTruth truth = CountCensus(KnowsAdjacency(graph, ctx, v), persons);
  int64_t bi1 = fused.Run(ges::BuildBI(1, ctx, none), view).table.At(0, 0).AsInt();
  int64_t bi2 = fused.Run(ges::BuildBI(2, ctx, none), view).table.At(0, 0).AsInt();
  {
    std::string w;
    bool ok = CheckTriangleCensus(truth, bi1, &why);
    Expect("triangle census: count + 1", ok && truth.triangles > 0,
           CheckTriangleCensus(truth, bi1 + 1, &w), w);
  }
  {
    std::string w;
    bool ok = CheckDiamondCensus(truth, bi2, &why);
    Expect("diamond census: count - 1", ok && truth.diamond_ordered > 0,
           CheckDiamondCensus(truth, bi2 - 1, &w), w);
  }

  // Reference-engine comparison and ORDER BY / LIMIT: find an IC answer
  // with at least two rows that differ in their first sort key.
  ges::ParamGen gen(&graph, &data, 11);
  ges::Plan plan;
  ges::FlatBlock got;
  for (int tries = 0; tries < 200; ++tries) {
    ges::LdbcParams p = gen.Next();
    plan = ges::BuildIC(2, ctx, p);
    got = fused.Run(plan, view).table;
    if (got.NumRows() >= 3 && got.Row(0) != got.Row(got.NumRows() - 1)) break;
  }
  Rows ref = volcano.Run(plan, view).table.rows();
  {
    std::string w;
    Rows dropped = got.rows();
    dropped.pop_back();
    Expect("reference engine: dropped row",
           SameOrderedRows(ref, got.rows(), &why),
           SameOrderedRows(ref, dropped, &w), w);
  }
  {
    std::string w;
    ges::FlatBlock swapped = got;
    std::swap(swapped.rows().front(), swapped.rows().back());
    Expect("ORDER BY: first and last rows swapped",
           CheckOrderAndLimit(plan, got, &why),
           CheckOrderAndLimit(plan, swapped, &w), w);
  }
  {
    std::string w;
    ges::FlatBlock longer = got;
    while (longer.NumRows() <= 20) longer.AppendRow(got.Row(got.NumRows() - 1));
    Expect("LIMIT: rows past the limit", CheckOrderAndLimit(plan, got, &why),
           CheckOrderAndLimit(plan, longer, &w), w);
  }
  Expect("fingerprint: one value changed", true,
         Fingerprint(got) ==
             [&] {
               ges::FlatBlock t = got;
               t.MutableRow(0)[0] = ges::Value::Int(t.At(0, 0).AsInt() + 1);
               return Fingerprint(t);
             }(),
         "");

  // Text statements against their direct computation.
  for (int k = 0; k < kNumTextKinds; ++k) {
    TextKind kind = static_cast<TextKind>(k);
    ges::LdbcParams p;
    Rows want;
    for (int tries = 0; tries < 200 && want.size() < 2; ++tries) {
      p = gen.Next();
      want = TextOracle(kind, graph, ctx, p.person, 10, v);
    }
    ges::Plan tp;
    ges::Status s = ges::CompileQuery(TextQuery(kind, p.person, 10), graph, &tp);
    Rows engine = s.ok() ? fused.Run(tp, view).table.rows() : Rows{};
    std::string w;
    Rows dropped = engine;
    if (!dropped.empty()) dropped.erase(dropped.begin());
    std::string name = std::string(TextKindName(kind)) + ": dropped row";
    Expect(name.c_str(), s.ok() && SameOrderedRows(want, engine, &why),
           SameOrderedRows(want, dropped, &w), w);
    std::string w2;
    name = std::string(TextKindName(kind)) + ": id off by one";
    Rows off = engine.empty() ? engine
                              : Corrupt(engine, 0, 0,
                                        ges::Value::Int(engine[0][0].AsInt() + 1));
    Expect(name.c_str(), !engine.empty(), SameOrderedRows(want, off, &w2), w2);
  }

  // IS1 / IS4 creation dates against the generator's columns.
  for (int is : {1, 4}) {
    ges::LdbcParams p = gen.Next();
    Rows rows = fused.Run(ges::BuildIS(is, ctx, p), view).table.rows();
    size_t col = is == 1 ? 6 : 0;
    std::string w;
    Rows off = rows.empty() ? rows
                            : Corrupt(rows, 0, col,
                                      ges::Value::Date(rows[0][col].AsInt() + 1));
    std::string name = "IS" + std::to_string(is) + " creationDate + 1 ms";
    Expect(name.c_str(), CheckIsCreationDate(is, data, p, rows, &why),
           CheckIsCreationDate(is, data, p, off, &w), w);
  }

  // Round trip shorter than the server's own time.
  {
    std::string w;
    Expect("round trip below server time", CheckRoundTrip(1.0, 0.5, &why),
           CheckRoundTrip(0.5, 1.0, &w), w);
  }

  // Reverse tables: one swapped edge.
  std::vector<EdgePairs> sets = EdgeMultisets(graph, v);
  ges::RelationId creator = graph.FindRelation(
      ctx.s.post, ctx.s.has_creator, ctx.s.person, ges::Direction::kOut);
  ges::RelationId creator_rev = graph.ReverseRelation(creator);
  {
    std::string w;
    EdgePairs swapped = sets[creator_rev];
    std::swap(swapped[0].first, swapped[0].second);
    Expect("reverse table: one edge swapped",
           CheckReversed(sets[creator], sets[creator_rev], &why),
           CheckReversed(sets[creator], swapped, &w), w);
  }

  // Reopen digest: one edge missing, one vertex missing.
  GraphDigest live = DigestGraph(graph, v, sets);
  {
    std::string w;
    std::vector<EdgePairs> fewer = sets;
    fewer[creator].pop_back();
    Expect("reopen digest: one edge missing", SameDigest(live, live, &why),
           SameDigest(live, DigestGraph(graph, v, fewer), &w), w);
  }
  {
    std::string w;
    GraphDigest off = live;
    off.vertices.begin()->second += 1;
    Expect("reopen digest: vertex count + 1", true,
           SameDigest(live, off, &w), w);
  }

  std::fprintf(stderr, "selftest: %s (%d failure%s)\n",
               g_failures == 0 ? "all checkers refuse wrong answers"
                               : "FAILED",
               g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
