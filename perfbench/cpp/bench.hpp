// Shared result shape of the four workloads.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ledger.hpp"
#include "probes.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// The traced run's spans as JSON, written out when the run ends.
  std::string spans;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void set(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

Result run_live(const RunArgs& args);
Result run_sim(const RunArgs& args);

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

inline double per(double num, double den) { return den > 0 ? num / den : 0; }

/// Percentile p of `v` under the percentile rule; a sample too small to
/// support p fails the run. JSON has no infinity, so a tail made of failed
/// commands reads as the largest finite double, which any bound rejects.
inline double tail_value(Result& res, const std::vector<double>& v, double p,
                         const std::string& what) {
  const auto x = supported_percentile(v, p);
  if (!x.has_value()) {
    res.fail(what + ": " + std::to_string(v.size()) +
             " samples cannot support a p" + std::to_string(p));
    return 0;
  }
  return std::isinf(*x) ? std::numeric_limits<double>::max() : *x;
}

/// Mean on_packet time per packet over the first and last quarter of a
/// replica's log, accumulated across replicas and trials.
struct Growth {
  std::uint64_t q1_ns = 0, q1_pkts = 0, q4_ns = 0, q4_pkts = 0;

  void add(const ReplicaProbe& p, std::size_t log_len) {
    const std::size_t lo = log_len / 4;
    const std::size_t hi = log_len - log_len / 4;
    for (std::size_t i = 0; i < p.growth_pkts.size(); ++i) {
      if (i < lo) {
        q1_ns += p.growth_ns[i];
        q1_pkts += p.growth_pkts[i];
      } else if (i >= hi) {
        q4_ns += p.growth_ns[i];
        q4_pkts += p.growth_pkts[i];
      }
    }
  }
  void report(Result& r) const {
    const double q1 = per(static_cast<double>(q1_ns) / 1e3, static_cast<double>(q1_pkts));
    const double q4 = per(static_cast<double>(q4_ns) / 1e3, static_cast<double>(q4_pkts));
    r.set("consensus.us_per_pkt_q1", q1, "us");
    r.set("consensus.us_per_pkt_q4", q4, "us");
    r.set("consensus.us_per_pkt_growth", per(q4, q1), "ratio");
  }
};

/// Slot count, holes and decision paths of committed logs.
struct LogShape {
  double slots = 0, holes = 0;
  double paths[3] = {0, 0, 0};  ///< by DecisionPath

  void add(const std::vector<dex::smr::LogEntry>& log) {
    std::unordered_set<dex::Value> seen;
    for (const auto& e : log) {
      paths[static_cast<std::size_t>(e.path)] += 1;
      // A hole is a decided digest whose body never arrived; a repeat of an
      // already committed digest is not one.
      const bool first = seen.insert(e.digest).second;
      if (!e.command.has_value() && e.digest != dex::smr::kNoopDigest && first) holes += 1;
    }
    slots += static_cast<double>(log.size());
  }
  void report(Result& r) const {
    r.set("smr.replica.holes", holes, "count");
    r.set("consensus.one_step_frac", per(paths[0], slots), "ratio");
    r.set("consensus.two_step_frac", per(paths[1], slots), "ratio");
    r.set("consensus.underlying_frac", per(paths[2], slots), "ratio");
  }
};

/// The traced run's spans: each command's five tiles (live), and per layer
/// the count and total time of the spans recorded around its calls.
class SpanFile {
 public:
  void command(std::size_t trial, std::uint64_t seq, const std::array<Span, 5>& s) {
    if (!commands_.empty()) commands_ += ',';
    commands_ += "{\"trial\":" + std::to_string(trial) + ",\"seq\":" + std::to_string(seq);
    for (std::size_t i = 0; i < s.size(); ++i) {
      commands_ += ",\"" + std::string(kCommandSpans[i]) + "\":[" + std::to_string(s[i].start) +
                   "," + std::to_string(s[i].end) + "]";
    }
    commands_ += '}';
  }
  void layer(const std::string& name, std::uint64_t count, std::uint64_t ns) {
    if (!layers_.empty()) layers_ += ',';
    layers_ += "\"" + name + "\":{\"count\":" + std::to_string(count) +
               ",\"ns\":" + std::to_string(ns) + "}";
  }
  void layer(const std::string& name, const Timer& t) { layer(name, t.calls, t.ns); }
  void ledger(const Ledger& l) {
    for (std::size_t c = 0; c < kChannels; ++c) {
      layer(std::string("consensus.on_packet.") + channel_name(static_cast<Channel>(c)),
            l.pkts[c], l.ns[c]);
    }
  }
  [[nodiscard]] std::string json(const RunArgs& a) const {
    return "{\"workload\":\"" + a.workload + "\",\"seed\":" + std::to_string(a.seed) +
           ",\"layers\":{" + layers_ + "},\"commands\":[" + commands_ + "]}";
  }

 private:
  std::string commands_;
  std::string layers_;
};

/// The per-channel ledger as per-command metrics (consensus.<ch>.* and
/// smr.replica.dissem.*).
inline void report_ledger(Result& r, const Ledger& l, double cmds) {
  for (std::size_t c = 0; c < kChannels; ++c) {
    const auto ch = static_cast<Channel>(c);
    const std::string stem = ch == Channel::kDissem
                                 ? std::string("smr.replica.dissem")
                                 : std::string("consensus.") + channel_name(ch);
    r.set(stem + ".pkts_per_cmd", per(static_cast<double>(l.pkts[c]), cmds), "count");
    r.set(stem + ".bytes_per_cmd", per(static_cast<double>(l.bytes[c]), cmds), "B");
    r.set(stem + ".us_per_cmd", per(static_cast<double>(l.ns[c]) / 1e3, cmds), "us");
  }
}

}  // namespace perfbench
