// Small self-contained helpers for the end-to-end benchmark: sample sets
// and percentiles, process counters, a host calibration loop, the traced
// mode's span recorder, and the JSON result line. Nothing here comes from
// the engine's own harness, so a change there cannot move these numbers.
#ifndef GES_PERFBENCH_BENCH_UTIL_H_
#define GES_PERFBENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// A set of latency (or any) samples with order statistics.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  // Linear-interpolated quantile, q in [0, 1]; 0 on an empty set.
  double Quantile(double q) const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    double pos = q * static_cast<double>(s.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, s.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return s[lo] + (s[hi] - s[lo]) * frac;
  }
  double Median() const { return Quantile(0.5); }
  double Sum() const {
    double t = 0;
    for (double v : v_) t += v;
    return t;
  }

  // Highest percentile with at least ten samples above it (the tail the
  // sample size supports), as {percentile, value}; {0, 0} below 40 samples.
  std::pair<double, double> SupportedTail() const {
    if (v_.size() < 40) return {0, 0};
    for (double p : {0.999, 0.99, 0.95, 0.9}) {
      if (static_cast<double>(v_.size()) * (1 - p) >= 10) {
        return {p * 100, Quantile(p)};
      }
    }
    return {90, Quantile(0.9)};
  }

 private:
  std::vector<double> v_;
};

// Geometric mean of positive values (0 when empty).
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double acc = 0;
  for (double x : v) acc += std::log(x);
  return std::exp(acc / static_cast<double>(v.size()));
}

// Process resource counters (all threads: client, server and engine run in
// this one process).
struct ProcCounters {
  double user_ms = 0;
  double sys_ms = 0;
  uint64_t minflt = 0;
  double maxrss_mb = 0;

  static ProcCounters Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcCounters c;
    c.user_ms = ru.ru_utime.tv_sec * 1e3 + ru.ru_utime.tv_usec / 1e3;
    c.sys_ms = ru.ru_stime.tv_sec * 1e3 + ru.ru_stime.tv_usec / 1e3;
    c.minflt = static_cast<uint64_t>(ru.ru_minflt);
    c.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return c;
  }
};

// A fixed integer loop timed in-run, so host drift can be told apart from
// a program change when two runs disagree. Median of five passes, in ms.
inline double CalibrateHostMs() {
  Samples s;
  volatile uint64_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    int64_t t0 = NowNs();
    uint64_t x = 0x9e3779b97f4a7c15ull + pass;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = sink + x;
    s.Add(NsToMs(NowNs() - t0));
  }
  return s.Median();
}

// Span recorder of the traced mode. Spans are kept in memory and written
// out once at the end; self time of a span is its duration minus the time
// its direct children cover.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the span list, -1 = root
  uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  // Records a finished span and returns its index (-1 when disabled).
  int64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: {count, total self ms}.
  std::map<std::string, std::pair<uint64_t, double>> SelfTimes() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, std::pair<uint64_t, double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& e = out[s.name];
      e.first += 1;
      e.second += NsToMs(s.end_ns - s.start_ns - child_ns[i]);
    }
    return out;
  }

  // One JSON object per line: name, start/end (ns), parent index, request.
  bool WriteJsonl(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%lld,\"request\":%llu}\n",
                   s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Ordered metric list of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

inline std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The benchmark's last stdout line.
inline std::string ResultJson(bool correct, uint64_t attempted,
                              uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // GES_PERFBENCH_BENCH_UTIL_H_
