#include "ledger.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace perfbench {

const char* channel_name(Channel c) {
  switch (c) {
    case Channel::kDexPlain: return "dex_plain";
    case Channel::kDexIdbInit: return "dex_idb_init";
    case Channel::kDexIdbEcho: return "dex_idb_echo";
    case Channel::kUcEstInit: return "uc_est_init";
    case Channel::kUcEstEcho: return "uc_est_echo";
    case Channel::kUcAuxInit: return "uc_aux_init";
    case Channel::kUcAuxEcho: return "uc_aux_echo";
    case Channel::kUcDecide: return "uc_decide";
    case Channel::kDissem: return "dissem";
    case Channel::kOther: return "other";
  }
  return "other";
}

Channel classify(dex::MsgKind kind, std::uint64_t tag) {
  namespace chan = dex::chan;
  const std::uint64_t ch = chan::channel(tag);
  const bool init = kind == dex::MsgKind::kIdbInit;
  const bool echo = kind == dex::MsgKind::kIdbEcho;
  if (kind == dex::MsgKind::kPlain) {
    if (ch == chan::kDexProposalPlain) return Channel::kDexPlain;
    if (ch == chan::kUcDecide) return Channel::kUcDecide;
    if (ch == chan::kSmrDissem) return Channel::kDissem;
    return Channel::kOther;
  }
  if (!init && !echo) return Channel::kOther;
  if (ch == chan::kDexProposalIdb) {
    return init ? Channel::kDexIdbInit : Channel::kDexIdbEcho;
  }
  if (ch == chan::kUcPhase) {
    // uc_phase_tag packs the phase into the low byte: 1 = EST, 2 = AUX.
    switch (chan::seq(tag) & 0xFF) {
      case 1: return init ? Channel::kUcEstInit : Channel::kUcEstEcho;
      case 2: return init ? Channel::kUcAuxInit : Channel::kUcAuxEcho;
      default: return Channel::kOther;
    }
  }
  return Channel::kOther;
}

void Ledger::add(const Ledger& o) {
  for (std::size_t c = 0; c < kChannels; ++c) {
    pkts[c] += o.pkts[c];
    bytes[c] += o.bytes[c];
    ns[c] += o.ns[c];
  }
}

std::uint64_t Ledger::total_pkts() const {
  std::uint64_t s = 0;
  for (const auto v : pkts) s += v;
  return s;
}

std::uint64_t Ledger::total_bytes() const {
  std::uint64_t s = 0;
  for (const auto v : bytes) s += v;
  return s;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

std::optional<double> highest_supported_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly beyond the nearest-rank position of p.
    const double beyond =
        static_cast<double>(n) -
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    if (beyond >= 10.0) return p;
  }
  return std::nullopt;
}

std::optional<double> supported_percentile(const std::vector<double>& samples,
                                           double p) {
  const auto top = highest_supported_percentile(samples.size());
  if (!top.has_value() || *top < p) return std::nullopt;
  return percentile(samples, p);
}

namespace {
bool near(std::uint64_t a, std::uint64_t b, std::uint64_t tol) {
  return (a > b ? a - b : b - a) <= tol;
}
}  // namespace

std::string check_tiling(const Span& root, std::span<const Span> tiles,
                         std::uint64_t tol) {
  if (tiles.empty()) return "no spans";
  std::uint64_t at = root.start;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const Span& s = tiles[i];
    if (!near(s.start, at, tol)) {
      return "span " + std::to_string(i) +
             (s.start > at ? " leaves a gap of " : " overlaps by ") +
             std::to_string(s.start > at ? s.start - at : at - s.start) + " ns";
    }
    if (s.end + tol < s.start) {
      return "span " + std::to_string(i) + " runs backwards by " +
             std::to_string(s.start - s.end) + " ns";
    }
    at = s.end;
  }
  if (!near(at, root.end, tol)) {
    return "last span ends " +
           std::to_string(at > root.end ? at - root.end : root.end - at) +
           " ns away from the root's end";
  }
  return {};
}

std::vector<std::uint64_t> paced_schedule(std::uint64_t seed, double rate,
                                          std::size_t count) {
  dex::Rng rng(dex::mix64(seed ^ 0x9ace0ULL));
  const double gap_ns = 1e9 / rate;
  std::vector<std::uint64_t> due(count);
  for (std::size_t k = 0; k < count; ++k) {
    due[k] = static_cast<std::uint64_t>(
        (static_cast<double>(k) + rng.next_double()) * gap_ns);
  }
  return due;
}

double ack_latency_ms(const CommandTimes& c, bool from_due) {
  if (c.ack == 0) return kInf;
  const std::uint64_t from = from_due ? c.due : c.send;
  return static_cast<double>(c.ack - std::min(c.ack, from)) / 1e6;
}

double lateness_ms(const CommandTimes& c) {
  return static_cast<double>(c.send - std::min(c.send, c.due)) / 1e6;
}

std::array<Span, 5> command_spans(const CommandTimes& c) {
  return {Span{c.due, c.send}, Span{c.send, c.pickup},
          Span{c.pickup, c.dissem}, Span{c.dissem, c.commit},
          Span{c.commit, c.ack}};
}

}  // namespace perfbench
