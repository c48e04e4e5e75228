// The benchmark's own bookkeeping: the channel classifier behind the
// per-channel packet ledger, the percentile rule, the span tiler that checks
// a command's five spans cover [due, ack] exactly, and the paced schedule.
// Everything here is pure and covered by selftest.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "consensus/message.hpp"

namespace perfbench {

/// Where a packet delivered to Replica::on_packet belongs. The consensus
/// channels come from the chan:: id, the MsgKind and (for UC phase traffic)
/// the EST/AUX phase byte; kDissem is the SMR layer's command-body channel.
/// Anything else lands in kOther so the ledger never drops a packet.
enum class Channel : std::uint8_t {
  kDexPlain,
  kDexIdbInit,
  kDexIdbEcho,
  kUcEstInit,
  kUcEstEcho,
  kUcAuxInit,
  kUcAuxEcho,
  kUcDecide,
  kDissem,
  kOther,
};
inline constexpr std::size_t kChannels = 10;

/// Metric-name stem of a channel ("dex_plain", ..., "dissem", "other").
const char* channel_name(Channel c);
Channel classify(dex::MsgKind kind, std::uint64_t tag);
inline Channel classify(const dex::Message& m) { return classify(m.kind, m.tag); }

/// Packets, encoded bytes and handler time per channel.
struct Ledger {
  std::array<std::uint64_t, kChannels> pkts{};
  std::array<std::uint64_t, kChannels> bytes{};
  std::array<std::uint64_t, kChannels> ns{};

  void add(const Ledger& o);
  [[nodiscard]] std::uint64_t total_pkts() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile p (0 < p <= 100) of `samples`; a failed command is
/// a +inf sample, so it can become the answer. NaN when `samples` is empty.
double percentile(std::vector<double> samples, double p);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at least
/// ten of `n` samples beyond it; nullopt when even the median does not.
std::optional<double> highest_supported_percentile(std::size_t n);

/// percentile(samples, p) when `samples` supports p by the rule above;
/// otherwise nullopt (the caller sized the workload wrong).
std::optional<double> supported_percentile(const std::vector<double>& samples,
                                           double p);

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Empty when `tiles`, in order, cover `root` end to end: the first starts at
/// root.start, each starts where the previous ended, the last ends at
/// root.end, none runs backwards, each within `tol` ns. Otherwise says which
/// boundary breaks.
std::string check_tiling(const Span& root, std::span<const Span> tiles,
                         std::uint64_t tol);

/// Open-loop due times: command k is due at k/rate plus a seeded jitter in
/// [0, 1/rate), so the mean rate is fixed and the arrival pattern is the
/// seed's. Offsets in ns from the first due time.
std::vector<std::uint64_t> paced_schedule(std::uint64_t seed, double rate,
                                          std::size_t count);

/// One client command's life, ns on the steady clock (0 = never happened).
/// Each field is written by exactly one thread and read after they join.
struct CommandTimes {
  std::uint64_t due = 0;      ///< when the generator should have sent it
  std::uint64_t send = 0;     ///< just before the socket write
  std::uint64_t pickup = 0;   ///< drain_submissions() returned it
  std::uint64_t dissem = 0;   ///< replica 0 first disseminated its digest
  std::uint64_t commit = 0;   ///< the driver tick saw it in replica 0's log
  std::uint64_t ack = 0;      ///< the client read its ack
};

/// Ack latency in ms from the due time (open loop) or the send (closed);
/// +inf when the command was never acked.
double ack_latency_ms(const CommandTimes& c, bool from_due);
/// How late the generator sent the command, in ms (send - due).
double lateness_ms(const CommandTimes& c);
/// The five spans that tile an acked command's [due, ack], in order.
inline constexpr std::array<const char*, 5> kCommandSpans = {
    "loadgen.send", "smr.frontend.pickup", "smr.replica.queue",
    "consensus.commit", "smr.frontend.ack"};
std::array<Span, 5> command_spans(const CommandTimes& c);

}  // namespace perfbench
