// GES end-to-end benchmark: one command, four workloads, a traced mode.
//
//   ges_perfbench --workload <short-reads|complex-reads|write-churn|census>
//                 --seed <n> --seconds <s> --trace <0|1>
//   ges_perfbench --selftest
//
// Each run generates the SNB graph, starts the GES query service in this
// process on a loopback port, and drives it over TCP from one client
// connection in a closed loop. The op stream is one "round" of operations
// drawn from the seed before timing starts; the timed section repeats
// whole rounds until --seconds have passed, so every round does the same
// work and no op is cut short. Outputs are checked against computations
// made apart from the engine (checks.h). The last stdout line is the JSON
// result; progress and the per-layer table go to stderr.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "common/random.h"
#include "datagen/snb_generator.h"
#include "executor/executor.h"
#include "frontend/parser.h"
#include "queries/ldbc.h"
#include "service/client.h"
#include "service/server.h"

namespace perfbench {

int RunSelfTests();  // selftest.cc

namespace {

namespace svc = ges::service;
using ges::LdbcParams;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// The dataset is fixed per scale factor, as LDBC's is: --seed draws the
// query parameters and the order of each round, never the graph.
constexpr uint64_t kGraphSeed = 42;

// LDBC SNB Interactive relative frequency factors of IC1..IC14 ("one in N
// operations"; larger = rarer).
constexpr double kIcFactor[14] = {26, 37, 69, 36, 57, 129, 87,
                                  45, 157, 30, 16, 44, 19, 49};
// IU1..IU8 shares of the update stream (the engine's default mix).
constexpr double kIuShare[8] = {0.02, 0.30, 0.20, 0.02,
                                0.06, 0.15, 0.20, 0.05};

// Round composition: counts per kind are fixed; only parameters and the
// order within the round depend on the seed.
constexpr int kShortIsPerKind = 300;    // IS1..IS7
constexpr int kShortTextPerKind = 200;  // each of the 3 text statements
constexpr int kComplexRound = 400;      // IC1..IC14 at spec ratios
constexpr int kChurnIsPerKind = 95;     // IS1..IS7
constexpr int kChurnIu = 335;           // IU1..IU8 at default-mix shares
constexpr int kChurnGcEvery = 250;      // PruneVersions every N ops
constexpr int kChurnCompactEvery = 4;   // CompactRelations every N rounds
constexpr int kCensusTriangles = 3;     // BI1 per round
constexpr int kCensusDiamonds = 1;      // BI2 per round

struct WorkloadSpec {
  const char* name;
  double scale_factor;
  bool durable;    // WAL + snapshot directory, maintenance calls
  bool read_only;  // every round must return identical answers
};

constexpr WorkloadSpec kWorkloads[] = {
    {"short-reads", 0.1, false, true},
    {"complex-reads", 0.1, false, true},
    {"write-churn", 0.1, true, false},
    {"census", 0.03, false, true},
};

enum class OpClass : uint8_t { kIS, kIC, kIU, kBI, kText };

struct Op {
  OpClass cls = OpClass::kIS;
  int number = 0;  // IS/IC/IU/BI number
  LdbcParams params{};
  TextKind text = TextKind::kFriends;
  int64_t threshold = 0;  // text statements
  std::string kind;       // "IS3", "IC5", "IU2", "BI1", "TEXT_POSTS"

  bool is_read() const { return cls != OpClass::kIU; }
};

// Parameter curation (as in LDBC's): start persons come from the middle of
// the KNOWS degree distribution, so a query's cost does not swing with the
// seed on the power-law tail.
class Curator {
 public:
  Curator(const ges::Graph& graph, const ges::SnbData& data,
          const ges::LdbcContext& ctx, uint64_t seed)
      : gen_(&graph, &data, seed), rng_(seed ^ 0xc0ffeeull) {
    std::vector<std::pair<uint32_t, int64_t>> by_degree;
    ges::Version v = graph.CurrentVersion();
    for (size_t i = 0; i < data.persons.size(); ++i) {
      by_degree.push_back({graph.Degree(ctx.knows, data.persons[i], v),
                           static_cast<int64_t>(i)});
    }
    std::sort(by_degree.begin(), by_degree.end());
    size_t lo = by_degree.size() * 40 / 100;
    size_t hi = std::max(lo + 1, by_degree.size() * 60 / 100);
    for (size_t i = lo; i < hi; ++i) band_.push_back(by_degree[i].second);
  }

  LdbcParams Next() {
    LdbcParams p = gen_.Next();
    p.person = band_[rng_.Uniform(band_.size())];
    do {
      p.person2 = band_[rng_.Uniform(band_.size())];
    } while (p.person2 == p.person && band_.size() > 1);
    return p;
  }
  ges::Rng& rng() { return rng_; }

 private:
  ges::ParamGen gen_;
  ges::Rng rng_;
  std::vector<int64_t> band_;
};

Op MakeOp(OpClass cls, int number, const char* prefix) {
  Op op;
  op.cls = cls;
  op.number = number;
  op.kind = prefix + std::to_string(number);
  return op;
}

std::vector<Op> BuildRound(const WorkloadSpec& spec, const ges::Graph& graph,
                           const ges::SnbData& data,
                           const ges::LdbcContext& ctx, uint64_t seed) {
  Curator cur(graph, data, ctx, seed);
  std::vector<Op> ops;
  auto add_is = [&](int per_kind) {
    for (int k = 1; k <= 7; ++k) {
      for (int i = 0; i < per_kind; ++i) {
        Op op = MakeOp(OpClass::kIS, k, "IS");
        op.params = cur.Next();
        ops.push_back(op);
      }
    }
  };
  std::string name = spec.name;
  if (name == "short-reads") {
    add_is(kShortIsPerKind);
    for (int t = 0; t < kNumTextKinds; ++t) {
      for (int i = 0; i < kShortTextPerKind; ++i) {
        Op op;
        op.cls = OpClass::kText;
        op.text = static_cast<TextKind>(t);
        op.kind = TextKindName(op.text);
        op.params = cur.Next();
        op.threshold = static_cast<int64_t>(cur.rng().Uniform(120));
        ops.push_back(op);
      }
    }
  } else if (name == "complex-reads") {
    double inv_sum = 0;
    for (double f : kIcFactor) inv_sum += 1.0 / f;
    for (int k = 1; k <= 14; ++k) {
      int n = static_cast<int>(kComplexRound * (1.0 / kIcFactor[k - 1]) /
                                   inv_sum +
                               0.5);
      for (int i = 0; i < std::max(n, 1); ++i) {
        Op op = MakeOp(OpClass::kIC, k, "IC");
        op.params = cur.Next();
        ops.push_back(op);
      }
    }
  } else if (name == "write-churn") {
    add_is(kChurnIsPerKind);
    for (int k = 1; k <= 8; ++k) {
      int n = static_cast<int>(kChurnIu * kIuShare[k - 1] + 0.5);
      for (int i = 0; i < n; ++i) ops.push_back(MakeOp(OpClass::kIU, k, "IU"));
    }
  } else {  // census
    for (int i = 0; i < kCensusTriangles; ++i) {
      ops.push_back(MakeOp(OpClass::kBI, 1, "BI"));
    }
    for (int i = 0; i < kCensusDiamonds; ++i) {
      ops.push_back(MakeOp(OpClass::kBI, 2, "BI"));
    }
  }
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[cur.rng().Uniform(i)]);
  }
  return ops;
}

// IU randomness per (seed, round, position): later rounds add new edges
// instead of repeating the first round's.
uint64_t IuSeed(uint64_t seed, uint64_t round, size_t pos) {
  uint64_t x = (seed * 0x9e3779b97f4a7c15ull) ^ (round << 20) ^ pos;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  return (x ^ (x >> 29)) | 1;
}

// ---------------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------------

struct Reply {
  bool ok = false;
  double client_ms = 0;
  svc::QueryResponse resp;
  std::string error;
};

Reply Send(svc::Client* client, const Op& op, uint64_t iu_seed) {
  Reply r;
  int64_t t0 = NowNs();
  bool wire_ok = false;
  if (op.cls == OpClass::kText) {
    svc::PrepareResult pr;
    if (client->Prepare(TextQuery(op.text, op.params.person, op.threshold),
                        &pr)) {
      wire_ok = client->Execute(pr.handle, {}, &r.resp);
    }
  } else {
    svc::QueryRequest req;
    req.query_id = client->AllocQueryId();
    req.number = static_cast<uint8_t>(op.number);
    req.params = op.params;
    switch (op.cls) {
      case OpClass::kIS:
        req.kind = svc::QueryKind::kIS;
        break;
      case OpClass::kIC:
        req.kind = svc::QueryKind::kIC;
        break;
      case OpClass::kIU:
        req.kind = svc::QueryKind::kIU;
        req.seed = iu_seed;
        break;
      default:
        req.kind = svc::QueryKind::kBI;
        break;
    }
    wire_ok = client->Run(req, &r.resp);
  }
  r.client_ms = NsToMs(NowNs() - t0);
  if (!wire_ok) {
    r.error = "wire failure: " + client->last_error();
  } else if (r.resp.status != svc::WireStatus::kOk) {
    r.error = std::string(svc::WireStatusName(r.resp.status)) + ": " +
              r.resp.message;
  } else {
    r.ok = true;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Accounting of one timed phase
// ---------------------------------------------------------------------------

struct PhaseStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  // Ops per second of each window of whole rounds (one maintenance cycle).
  Samples window_rate;
  Samples all;
  std::map<std::string, Samples> per_kind;
  Samples reads, updates;
  Samples server_ms, unbilled_ms, exec_ms, plan_ms, bind_ms, iu_server_ms;
  uint64_t cache_lookups = 0, cache_hits = 0;
  Samples gc_ms, compact_ms;
  uint64_t compact_bytes_before = 0, compact_bytes_after = 0;
  uint64_t overlay_peak = 0;
  uint64_t wal_bytes = 0;
  uint64_t commits = 0;
  ProcCounters before, after;
  uint64_t probes = 0, gallops = 0, emitted = 0;

  double KindGeoMean() const {
    std::vector<double> medians;
    for (const auto& [kind, s] : per_kind) medians.push_back(s.Median());
    return GeoMean(medians);
  }
};

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

class Bench {
 public:
  Bench(const Options& opt, const WorkloadSpec& spec, int64_t start_ns)
      : opt_(opt), spec_(spec), start_ns_(start_ns), tracer_(opt.trace) {}
  ~Bench() { Teardown(); }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Runs the workload and prints the result line. Returns the exit code.
  int Run();

 private:
  bool Setup();
  // One pass over the round; `warmup` records the reference answers.
  bool RunRound(PhaseStats* st, Tracer* tracer, bool warmup);
  PhaseStats TimedPhase(double seconds, Tracer* tracer);
  void Maintenance(PhaseStats* st, Tracer* tracer, bool end_of_round);
  bool CheckReply(const Op& op, size_t pos, const Reply& r, bool warmup);
  bool PostRunChecks();
  bool ChurnChecks();
  void Replay(std::vector<Metric>* out);
  void Teardown();

  bool Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
    correct_ = false;
    return false;
  }
  void Note(const std::string& what) const {
    std::fprintf(stderr, "perfbench: [%7.2fs] %s\n",
                 NsToMs(NowNs() - start_ns_) / 1e3, what.c_str());
  }

  Options opt_;
  WorkloadSpec spec_;
  int64_t start_ns_;
  Tracer tracer_;
  bool correct_ = true;

  std::unique_ptr<ges::Graph> graph_;
  ges::SnbData data_;
  ges::LdbcContext ctx_{};
  std::unique_ptr<svc::Server> server_;
  svc::Client client_;
  std::string data_dir_;
  double generate_s_ = 0;

  std::vector<Op> round_;
  uint64_t rounds_done_ = 0;  // warm-up included: feeds IU seeds
  // Warm-up answers: a fingerprint per op (read-only workloads compare
  // every timed answer with it) and the IC/BI tables for the post-run
  // checks against the reference engine and the census oracle.
  std::vector<uint64_t> warm_fp_;
  std::vector<ges::FlatBlock> warm_tables_;
};

bool Bench::Setup() {
  int64_t t0 = NowNs();
  graph_ = std::make_unique<ges::Graph>();
  ges::SnbConfig cfg;
  cfg.scale_factor = spec_.scale_factor;
  cfg.seed = kGraphSeed;
  data_ = ges::GenerateSnb(cfg, graph_.get());
  int64_t t1 = NowNs();
  generate_s_ = NsToMs(t1 - t0) / 1e3;
  tracer_.Add("datagen.generate", t0, t1, -1, 0);
  ctx_ = ges::LdbcContext::Resolve(*graph_, data_.schema);

  if (spec_.durable) {
    data_dir_ = ".bench_tmp/perfbench-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
    std::filesystem::create_directories(".bench_tmp", ec);
    ges::DurabilityOptions dopts;
    dopts.wal.fsync_policy = ges::FsyncPolicy::kNever;
    int64_t d0 = NowNs();
    ges::Status s = graph_->EnableDurability(data_dir_, dopts);
    tracer_.Add("storage.durable_init", d0, NowNs(), -1, 0);
    if (!s.ok()) return Fail("EnableDurability: " + s.message());
  }

  svc::ServiceConfig sc;
  sc.port = 0;
  sc.query_workers = 1;
  sc.intra_query_threads = 1;
  // No timer-driven background work inside a timed section: GC,
  // compaction and stats refresh run only where the load generator calls
  // them (write-churn), at fixed op counts.
  sc.gc_interval_seconds = 0;
  sc.gc_trigger_bytes = 0;
  sc.watermark_alert_seconds = 0;
  sc.compact_interval_seconds = 0;
  sc.stats_refresh_seconds = 0;
  int64_t s0 = NowNs();
  server_ = std::make_unique<svc::Server>(graph_.get(), &data_, sc);
  std::string err;
  if (!server_->Start(&err)) return Fail("server start: " + err);
  if (!client_.Connect("127.0.0.1", server_->port())) {
    return Fail("connect: " + client_.last_error());
  }
  tracer_.Add("service.start", s0, NowNs(), -1, 0);
  round_ = BuildRound(spec_, *graph_, data_, ctx_, opt_.seed);
  warm_fp_.assign(round_.size(), 0);
  warm_tables_.assign(round_.size(), ges::FlatBlock());
  return true;
}

bool Bench::CheckReply(const Op& op, size_t pos, const Reply& r,
                       bool warmup) {
  std::string why;
  if (!CheckRoundTrip(r.client_ms, r.resp.server_millis, &why)) {
    return Fail(op.kind + ": " + why);
  }
  if (!op.is_read() || !spec_.read_only) return true;
  if (!warmup) {
    if (Fingerprint(r.resp.table) != warm_fp_[pos]) {
      return Fail(op.kind + " answer changed between rounds of a read-only "
                            "workload");
    }
    return true;
  }
  warm_fp_[pos] = Fingerprint(r.resp.table);
  if (op.cls == OpClass::kIC || op.cls == OpClass::kBI) {
    warm_tables_[pos] = r.resp.table;
  }
  if (op.cls == OpClass::kIS &&
      !CheckIsCreationDate(op.number, data_, op.params, r.resp.table.rows(),
                           &why)) {
    return Fail(why);
  }
  if (op.cls == OpClass::kText) {
    Rows want = TextOracle(op.text, *graph_, ctx_, op.params.person,
                           op.threshold, r.resp.snapshot_version);
    if (!SameOrderedRows(want, r.resp.table.rows(), &why)) {
      return Fail(op.kind + " for person " + std::to_string(op.params.person) +
                  ": " + why);
    }
  }
  return true;
}

void Bench::Maintenance(PhaseStats* st, Tracer* tracer, bool end_of_round) {
  st->overlay_peak = std::max<uint64_t>(st->overlay_peak,
                                        graph_->OverlayBytes());
  int64_t t0 = NowNs();
  graph_->PruneVersions();
  int64_t t1 = NowNs();
  st->gc_ms.Add(NsToMs(t1 - t0));
  if (tracer != nullptr) tracer->Add("storage.gc", t0, t1, -1, 0);
  if (!end_of_round) return;
  int64_t t2 = NowNs();
  graph_->RebuildStats();
  int64_t t3 = NowNs();
  if (tracer != nullptr) tracer->Add("storage.rebuild_stats", t2, t3, -1, 0);
  if (rounds_done_ % kChurnCompactEvery != 0) return;
  // Merge every relation that has any overlay into a fresh segment, so
  // later reads decode compressed segments as well as walk overlays.
  ges::CompactionOptions copts;
  copts.trigger_frag_pct = 0.0;
  ges::CompactionStats cs = graph_->CompactRelations(copts);
  int64_t t4 = NowNs();
  st->compact_ms.Add(NsToMs(t4 - t3));
  st->compact_bytes_before += cs.bytes_before;
  st->compact_bytes_after += cs.bytes_after;
  if (tracer != nullptr) tracer->Add("storage.compact", t3, t4, -1, 0);
}

bool Bench::RunRound(PhaseStats* st, Tracer* tracer, bool warmup) {
  uint64_t round = rounds_done_++;
  for (size_t pos = 0; pos < round_.size(); ++pos) {
    const Op& op = round_[pos];
    Reply r = Send(&client_, op, IuSeed(opt_.seed, round, pos));
    if (!r.ok) {
      // A failed op still counts as attempted; the wire must stay usable.
      std::fprintf(stderr, "perfbench: %s failed: %s\n", op.kind.c_str(),
                   r.error.c_str());
      ++st->failed;
      ++st->attempted;
      if (!client_.connected()) return Fail("connection lost");
      continue;
    }
    ++st->attempted;
    const svc::QueryResponse& q = r.resp;
    st->all.Add(r.client_ms);
    st->per_kind[op.kind].Add(r.client_ms);
    st->server_ms.Add(q.server_millis);
    double billed = q.parse_millis + q.plan_millis + q.bind_millis +
                    q.exec_millis;
    if (op.is_read()) {
      st->reads.Add(r.client_ms);
      st->unbilled_ms.Add(r.client_ms - billed);
      st->exec_ms.Add(q.exec_millis);
    } else {
      st->updates.Add(r.client_ms);
      st->iu_server_ms.Add(q.server_millis);
      ++st->commits;
    }
    if (op.cls == OpClass::kText) {
      st->plan_ms.Add(q.plan_millis);
      st->bind_ms.Add(q.bind_millis);
      ++st->cache_lookups;
      st->cache_hits += q.plan_cache_hit;
    }
    if (tracer != nullptr && tracer->enabled()) {
      // Client round trip, with the server-reported phases as children
      // laid end to end inside the server's job span.
      int64_t end = NowNs();
      int64_t start = end - static_cast<int64_t>(r.client_ms * 1e6);
      int64_t req = tracer->Add("client." + op.kind, start, end, -1, pos);
      int64_t job_ns = static_cast<int64_t>(q.server_millis * 1e6);
      int64_t job = tracer->Add("server.job", start, start + job_ns, req, pos);
      int64_t at = start;
      const std::pair<const char*, double> phases[] = {
          {"server.parse", q.parse_millis},
          {"server.plan", q.plan_millis},
          {"server.bind", q.bind_millis},
          {"server.exec", q.exec_millis}};
      for (const auto& [name, ms] : phases) {
        if (ms <= 0) continue;
        int64_t ns = static_cast<int64_t>(ms * 1e6);
        tracer->Add(name, at, at + ns, job, pos);
        at += ns;
      }
    }
    if (!CheckReply(op, pos, r, warmup)) return false;
    if (spec_.durable && (pos + 1) % kChurnGcEvery == 0) {
      Maintenance(st, tracer, /*end_of_round=*/false);
    }
  }
  if (spec_.durable) Maintenance(st, tracer, /*end_of_round=*/true);
  return true;
}

PhaseStats Bench::TimedPhase(double seconds, Tracer* tracer) {
  PhaseStats st;
  const svc::ServiceStats& ss = server_->stats();
  uint64_t probes0 = ss.intersect_probes.load();
  uint64_t gallops0 = ss.intersect_gallops.load();
  uint64_t emitted0 = ss.intersect_emitted.load();
  uint64_t wal0 = graph_->WalBytes();
  st.before = ProcCounters::Now();
  // Throughput is the median over windows of whole rounds, so a stall of
  // the shared host in one window does not move it; a window is one
  // maintenance cycle, so every window carries the same GC and compaction.
  const uint64_t window = spec_.durable ? kChurnCompactEvery : 1;
  int64_t t0 = NowNs();
  int64_t w0 = t0;
  uint64_t ops0 = 0, rounds = 0;
  do {
    if (!RunRound(&st, tracer, /*warmup=*/false)) break;
    if (++rounds % window == 0) {
      int64_t now = NowNs();
      st.window_rate.Add(static_cast<double>(st.attempted - ops0) /
                         (NsToMs(now - w0) / 1e3));
      w0 = now;
      ops0 = st.attempted;
    }
  } while (NsToMs(NowNs() - t0) < seconds * 1e3);
  st.elapsed_s = NsToMs(NowNs() - t0) / 1e3;
  st.after = ProcCounters::Now();
  st.probes = ss.intersect_probes.load() - probes0;
  st.gallops = ss.intersect_gallops.load() - gallops0;
  st.emitted = ss.intersect_emitted.load() - emitted0;
  st.wal_bytes = graph_->WalBytes() - wal0;
  return st;
}

bool Bench::PostRunChecks() {
  std::string why;
  if (spec_.durable) return ChurnChecks();
  ges::GraphView view(graph_.get());
  ges::Executor reference(ges::ExecMode::kVolcano);
  bool census_done = false;
  CensusTruth truth;
  for (size_t pos = 0; pos < round_.size(); ++pos) {
    const Op& op = round_[pos];
    if (op.cls == OpClass::kIC) {
      // The independent row engine answers every (IC, params) pair of the
      // stream; the service's answer must match it row for row.
      ges::Plan plan = ges::BuildIC(op.number, ctx_, op.params);
      if (!CheckOrderAndLimit(plan, warm_tables_[pos], &why)) return Fail(why);
      ges::QueryResult ref = reference.Run(plan, view);
      if (!SameOrderedRows(ref.table.rows(), warm_tables_[pos].rows(), &why)) {
        return Fail(op.kind + " differs from the Volcano engine: " + why);
      }
    } else if (op.cls == OpClass::kBI) {
      if (!census_done) {
        std::vector<ges::VertexId> persons;
        graph_->ScanLabel(ctx_.s.person, view.version(), &persons);
        truth = CountCensus(KnowsAdjacency(*graph_, ctx_, view.version()),
                            persons);
        census_done = true;
      }
      const ges::FlatBlock& t = warm_tables_[pos];
      if (t.NumRows() != 1) return Fail(op.kind + " returned no count row");
      int64_t got = t.At(0, 0).AsInt();
      bool ok = op.number == 1 ? CheckTriangleCensus(truth, got, &why)
                               : CheckDiamondCensus(truth, got, &why);
      if (!ok) return Fail(why);
    }
  }
  return true;
}

bool Bench::ChurnChecks() {
  std::string why;
  // 1. Every relation's multiset equals its reverse table's, reversed.
  ges::SnapshotHandle pin = graph_->PinSnapshot();
  ges::Version v = pin.version();
  std::vector<EdgePairs> before = EdgeMultisets(*graph_, v);
  for (ges::RelationId rel = 0; rel < before.size(); ++rel) {
    ges::RelationId rev = graph_->ReverseRelation(rel);
    if (!CheckReversed(before[rel], before[rev], &why)) {
      return Fail("relation " + std::to_string(rel) + " vs its reverse: " +
                  why);
    }
  }
  // 2. A compaction pass leaves every multiset unchanged at a pinned
  //    snapshot.
  ges::CompactionOptions force;
  force.force = true;
  graph_->CompactRelations(force);
  std::vector<EdgePairs> after = EdgeMultisets(*graph_, v);
  for (ges::RelationId rel = 0; rel < before.size(); ++rel) {
    if (before[rel] != after[rel]) {
      return Fail("compaction changed relation " + std::to_string(rel) +
                  " at a pinned snapshot");
    }
  }
  GraphDigest live = DigestGraph(*graph_, v, after);
  pin = ges::SnapshotHandle();
  // 3. Reopening the durable directory gives the same graph.
  client_.Close();
  server_->Drain(1.0);
  server_.reset();
  graph_.reset();
  ges::DurabilityOptions dopts;
  dopts.wal.fsync_policy = ges::FsyncPolicy::kNever;
  std::unique_ptr<ges::Graph> reopened;
  ges::Status s = ges::Graph::Open(data_dir_, dopts, &reopened);
  if (!s.ok()) return Fail("Graph::Open after the run: " + s.message());
  ges::Version rv = reopened->CurrentVersion();
  GraphDigest back = DigestGraph(*reopened, rv, EdgeMultisets(*reopened, rv));
  if (!SameDigest(live, back, &why)) return Fail(why);
  return true;
}

// Traced mode only: replays the round's reads in process, one call per
// layer, to split executor time by operator and to time plan building and
// the frontend.
void Bench::Replay(std::vector<Metric>* out) {
  ges::ExecOptions eo;
  eo.collect_stats = true;
  ges::Executor exec(ges::ExecMode::kFactorizedFused, eo);
  ges::GraphView view(graph_.get());
  Samples build_ms, parse_ms;
  std::map<std::string, double> op_ms;
  uint64_t queries = 0, inter_rows = 0, result_rows = 0;
  size_t peak_bytes = 0;
  std::map<std::string, bool> seen_bi;
  for (size_t pos = 0; pos < round_.size(); ++pos) {
    const Op& op = round_[pos];
    if (!op.is_read()) continue;
    if (op.cls == OpClass::kBI && seen_bi[op.kind]) continue;
    seen_bi[op.kind] = true;
    ges::Plan plan;
    int64_t t0 = NowNs();
    if (op.cls == OpClass::kText) {
      ges::NormalizedQuery norm;
      std::string text = TextQuery(op.text, op.params.person, op.threshold);
      if (!ges::NormalizeQuery(text, &norm).ok()) continue;
      int64_t t1 = NowNs();
      parse_ms.Add(NsToMs(t1 - t0));
      tracer_.Add("frontend.parse", t0, t1, -1, pos);
      ges::Plan tmpl;
      if (!ges::CompileTemplate(norm.text, *graph_, norm.params, &tmpl).ok() ||
          !ges::BindPlanParams(tmpl, norm.params, &plan).ok()) {
        continue;
      }
      tracer_.Add("frontend.compile_bind", t1, NowNs(), -1, pos);
    } else {
      switch (op.cls) {
        case OpClass::kIS:
          plan = ges::BuildIS(op.number, ctx_, op.params);
          break;
        case OpClass::kIC:
          plan = ges::BuildIC(op.number, ctx_, op.params);
          break;
        default:
          plan = ges::BuildBI(op.number, ctx_, op.params);
          break;
      }
      int64_t t1 = NowNs();
      build_ms.Add(NsToMs(t1 - t0));
      tracer_.Add("queries.build", t0, t1, -1, pos);
    }
    int64_t r0 = NowNs();
    ges::QueryResult res = exec.Run(plan, view);
    int64_t r1 = NowNs();
    int64_t run = tracer_.Add("executor.run", r0, r1, -1, pos);
    int64_t at = r0;
    ++queries;
    result_rows += res.table.NumRows();
    peak_bytes = std::max(peak_bytes, res.stats.peak_intermediate_bytes);
    for (const ges::OpStats& os : res.stats.ops) {
      op_ms[os.op] += os.millis;
      inter_rows += os.rows;
      int64_t ns = static_cast<int64_t>(os.millis * 1e6);
      tracer_.Add("executor.op." + os.op, at, at + ns, run, pos);
      at += ns;
    }
  }
  double nq = std::max<double>(1, static_cast<double>(queries));
  out->push_back({"frontend.parse_ms", parse_ms.Median(), "ms"});
  out->push_back({"executor.peak_intermediate_bytes",
                  static_cast<double>(peak_bytes), "bytes"});
  out->push_back({"executor.rows_per_result",
                  static_cast<double>(inter_rows) /
                      std::max<double>(1, static_cast<double>(result_rows)),
                  "ratio"});
  for (int t = 0; t <= static_cast<int>(ges::OpType::kIntersectExpand); ++t) {
    std::string name = ges::OpTypeName(static_cast<ges::OpType>(t));
    out->push_back({"executor.op." + name + ".ms", op_ms[name] / nq, "ms"});
  }
  out->push_back({"queries.build_ms", build_ms.Median(), "ms"});
}

void Bench::Teardown() {
  client_.Close();
  if (server_ != nullptr) {
    server_->Drain(1.0);
    server_.reset();
  }
  graph_.reset();
  if (!data_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
    std::filesystem::remove(".bench_tmp", ec);  // only if empty
    data_dir_.clear();
  }
}

int Bench::Run() {
  if (!Setup()) return 2;
  Note("set-up done; warm-up round of " + std::to_string(round_.size()) +
       " ops");
  PhaseStats warm;
  if (!RunRound(&warm, nullptr, /*warmup=*/true)) return 2;
  if (warm.failed > 0) std::fprintf(stderr, "perfbench: warm-up had failures\n");
  double setup_s = NsToMs(NowNs() - start_ns_) / 1e3;
  Note("warm-up done; timing");

  // Untraced phase (the whole run, or its first half when tracing), then
  // the traced half: their difference is the tracing overhead.
  double untraced_s = opt_.trace ? opt_.seconds / 2 : opt_.seconds;
  PhaseStats st = TimedPhase(untraced_s, nullptr);
  PhaseStats traced;
  if (opt_.trace && correct_) traced = TimedPhase(opt_.seconds / 2, &tracer_);
  const PhaseStats& main = opt_.trace ? traced : st;
  double graph_bytes_per_edge =
      graph_ ? static_cast<double>(graph_->MemoryBytes()) /
                   std::max<double>(1, graph_->NumEdgesTotal())
             : 0;
  Note("timed section done: " + std::to_string(st.attempted + traced.attempted) +
       " ops");

  std::vector<Metric> layer;
  if (opt_.trace && correct_) Replay(&layer);
  double calib_ms = CalibrateHostMs();
  if (correct_) PostRunChecks();
  Note(correct_ ? "checks passed" : "checks FAILED");

  uint64_t attempted = st.attempted + traced.attempted;
  uint64_t failed = st.failed + traced.failed;
  std::vector<Metric> metrics;
  if (!opt_.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", st.after.maxrss_mb, "MB"},
        {"throughput_ops_s",
         st.window_rate.empty()
             ? static_cast<double>(st.attempted) / std::max(st.elapsed_s, 1e-9)
             : st.window_rate.Median(),
         "1/s"},
        {"p50_ms", st.all.Median(), "ms"},
        {"kinds_geomean_ms", st.KindGeoMean(), "ms"},
    };
  } else {
    double ops = std::max<double>(1, static_cast<double>(main.attempted));
    auto per_op = [&](double v) { return v / ops; };
    auto tail = main.reads.SupportedTail();
    double hit_ratio = main.cache_lookups == 0
                           ? 0
                           : static_cast<double>(main.cache_hits) /
                                 static_cast<double>(main.cache_lookups);
    metrics = {
        {"service.unbilled_ms", main.unbilled_ms.Median(), "ms"},
        {"service.server_ms", main.server_ms.Median(), "ms"},
        {"frontend.plan_ms", main.plan_ms.Median(), "ms"},
        {"frontend.bind_ms", main.bind_ms.Median(), "ms"},
        {"frontend.plan_cache_hit_ratio", hit_ratio, "ratio"},
        {"frontend.plan_cache_lookups", static_cast<double>(main.cache_lookups),
         "count"},
        {"executor.run_ms", main.exec_ms.Median(), "ms"},
        {"queries.iu_ms", main.iu_server_ms.Median(), "ms"},
        {"storage.intersect.probes", per_op(main.probes), "count/op"},
        {"storage.intersect.gallops", per_op(main.gallops), "count/op"},
        {"storage.intersect.emitted", per_op(main.emitted), "count/op"},
        {"storage.gc_ms", main.gc_ms.Median(), "ms"},
        {"storage.compact_ms", main.compact_ms.Median(), "ms"},
        {"storage.compact_bytes_before",
         main.compact_ms.empty()
             ? 0
             : static_cast<double>(main.compact_bytes_before) /
                   main.compact_ms.size(),
         "bytes"},
        {"storage.compact_bytes_after",
         main.compact_ms.empty()
             ? 0
             : static_cast<double>(main.compact_bytes_after) /
                   main.compact_ms.size(),
         "bytes"},
        {"storage.wal_bytes_per_commit",
         main.commits == 0 ? 0
                           : static_cast<double>(main.wal_bytes) /
                                 static_cast<double>(main.commits),
         "bytes"},
        {"storage.overlay_bytes_peak", static_cast<double>(main.overlay_peak),
         "bytes"},
        {"storage.graph_bytes_per_edge", graph_bytes_per_edge, "bytes"},
        {"datagen.generate_s", generate_s_, "s"},
        {"process.minflt_per_op",
         per_op(static_cast<double>(main.after.minflt - main.before.minflt)),
         "count/op"},
        {"process.cpu_user_ms_per_op",
         per_op(main.after.user_ms - main.before.user_ms), "ms"},
        {"process.cpu_sys_ms_per_op",
         per_op(main.after.sys_ms - main.before.sys_ms), "ms"},
        {"client.read_p50_ms", main.reads.Median(), "ms"},
        {"client.read_tail_ms", tail.second, "ms"},
        {"client.read_tail_pct", tail.first, "%"},
        {"client.read_samples", static_cast<double>(main.reads.size()),
         "count"},
        {"client.update_p50_ms", main.updates.Median(), "ms"},
        {"client.triangle_census_ms", main.per_kind.count("BI1")
                                          ? main.per_kind.at("BI1").Median()
                                          : 0,
         "ms"},
        {"client.diamond_census_ms", main.per_kind.count("BI2")
                                         ? main.per_kind.at("BI2").Median()
                                         : 0,
         "ms"},
        {"host.calib_ms", calib_ms, "ms"},
        {"trace.overhead_pct",
         st.all.empty() ? 0
                        : (traced.all.Median() / st.all.Median() - 1) * 100,
         "%"},
        {"trace.spans", static_cast<double>(tracer_.spans().size()), "count"},
    };
    metrics.insert(metrics.end(), layer.begin(), layer.end());

    std::filesystem::create_directories(".bench_out");
    std::string path = ".bench_out/trace-" + opt_.workload + "-" +
                       std::to_string(opt_.seed) + ".jsonl";
    if (!tracer_.WriteJsonl(path)) Note("could not write " + path);
    std::fprintf(stderr, "perfbench: per-layer self time (traced half, %s)\n",
                 path.c_str());
    for (const auto& [name, e] : tracer_.SelfTimes()) {
      std::fprintf(stderr, "  %-34s n=%-8llu self=%10.3f ms\n", name.c_str(),
                   static_cast<unsigned long long>(e.first), e.second);
    }
  }
  std::fprintf(stderr, "perfbench: per-kind client latency (%s phase)\n",
               opt_.trace ? "traced" : "timed");
  for (const auto& [kind, s] : main.per_kind) {
    std::fprintf(stderr, "  %-16s n=%-8zu p50=%9.4f ms  total=%10.1f ms\n",
                 kind.c_str(), s.size(), s.Median(), s.Sum());
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  Teardown();
  std::printf("%s\n", ResultJson(correct_, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* o, std::string* err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--selftest") {
      o->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      *err = "missing value for " + a;
      return false;
    }
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o->workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o->seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      o->trace = v == "1";
    } else {
      *err = "unknown flag " + a;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *err = "bad value for " + a + ": " + v;
      return false;
    }
  }
  if (!o->selftest && !have_workload) {
    *err = "--workload is required";
    return false;
  }
  if (o->seconds <= 0) {
    *err = "--seconds must be positive";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  int64_t start_ns = perfbench::NowNs();
  perfbench::Options opt;
  std::string err;
  if (!perfbench::ParseArgs(argc, argv, &opt, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 64;
  }
  if (opt.selftest) return perfbench::RunSelfTests();
  for (const perfbench::WorkloadSpec& spec : perfbench::kWorkloads) {
    if (opt.workload == spec.name) {
      perfbench::Bench bench(opt, spec, start_ns);
      return bench.Run();
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               opt.workload.c_str());
  return 64;
}
