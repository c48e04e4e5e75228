// Outside-in probes: wrappers around the library's public seams that count
// and time each layer without touching the library itself.
//
//   ProbedActor     — a sim::Actor around an smr::Replica, handed to
//                     Simulation::attach or transport::drive_actor. It keeps
//                     the per-channel packet ledger, times on_packet / drain /
//                     submit, stamps when this replica first disseminates a
//                     digest and when each log slot commits, and in the
//                     simulator can crash-stop the replica.
//   ProbedTransport — a transport::Transport around the reactor, timing
//                     send / broadcast / send_batch, flush and recv.
//
// Counting is always on (the end-to-end packet and byte figures need it);
// the steady-clock reads behind every *_ns timer run only when `timed`.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ledger.hpp"
#include "sim/actor.hpp"
#include "smr/replica.hpp"
#include "transport/transport.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
inline std::uint64_t process_cpu_ns() { return cpu_ns(CLOCK_PROCESS_CPUTIME_ID); }
inline std::uint64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }

/// Busy time and call count of one wrapped call site.
struct Timer {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;

  void add(const Timer& o) {
    ns += o.ns;
    calls += o.calls;
  }
};

/// Times `fn` into `t` when `timed`; otherwise just calls it.
template <typename F>
decltype(auto) timed_call(bool timed, Timer& t, F&& fn) {
  ++t.calls;
  if (!timed) return fn();
  struct Stop {
    Timer& t;
    std::uint64_t t0;
    ~Stop() { t.ns += now_ns() - t0; }
  } stop{t, now_ns()};
  return fn();
}

/// Everything one replica's wrapper observed. Touched only by the thread
/// that drives the replica (its driver thread, or the simulator).
struct ReplicaProbe {
  Ledger ledger;  ///< packets handed to Replica::on_packet, by channel
  Timer drain;    ///< Replica::drain
  Timer submit;   ///< Replica::submit
  Timer start;    ///< Replica::start
  /// Messages leaving drain(), a broadcast counting once per destination,
  /// and how many of them name a slot this replica had already committed.
  std::uint64_t sent = 0;
  std::uint64_t sent_after_commit = 0;
  std::size_t pending_peak = 0;
  /// on_packet time and packet count, indexed by this replica's log length
  /// when the packet arrived (the per-packet cost growth curve).
  std::vector<std::uint64_t> growth_ns;
  std::vector<std::uint64_t> growth_pkts;
  /// Stamp (clock() units) at which each log slot was first seen committed.
  std::vector<std::uint64_t> commit_at;
  /// Stamp of this replica's first dissemination of each digest.
  std::unordered_map<dex::Value, std::uint64_t> first_dissem;
};

class ProbedActor final : public dex::sim::Actor {
 public:
  /// `clock` stamps commits and disseminations: the steady clock live, the
  /// simulator's virtual clock in simulation.
  ProbedActor(std::unique_ptr<dex::smr::Replica> replica, std::size_t n,
              bool timed, std::function<std::uint64_t()> clock);

  void start() override;
  void on_packet(dex::ProcessId src, const dex::Message& msg) override;
  [[nodiscard]] std::vector<dex::Outgoing> drain() override;

  /// Replica::submit, timed; ignored once crashed.
  void submit(const dex::smr::Command& cmd);
  /// Crash-stop from clock() >= at: the replica then ignores packets and
  /// submissions and sends nothing (packets addressed to it still count).
  void crash_at(std::uint64_t at) { crash_at_ = at; }
  [[nodiscard]] bool crashed() const;

  [[nodiscard]] const dex::smr::Replica& replica() const { return *replica_; }
  [[nodiscard]] const ReplicaProbe& probe() const { return probe_; }

 private:
  void note_progress();

  std::unique_ptr<dex::smr::Replica> replica_;
  std::size_t n_;
  bool timed_;
  std::function<std::uint64_t()> clock_;
  std::optional<std::uint64_t> crash_at_;
  ReplicaProbe probe_;
};

/// Transport wrapper for the live driver loop.
class ProbedTransport final : public dex::transport::Transport {
 public:
  ProbedTransport(dex::transport::Transport& inner, bool timed)
      : inner_(inner), timed_(timed) {}

  void send(dex::ProcessId dst, dex::Message msg) override;
  void send_batch(dex::ProcessId dst, std::vector<dex::Message> msgs) override;
  void broadcast(const dex::Message& msg) override;
  void flush() override;
  std::optional<dex::transport::Incoming> recv(
      std::chrono::milliseconds timeout) override;
  [[nodiscard]] std::size_t n() const override { return inner_.n(); }
  [[nodiscard]] dex::ProcessId self() const override { return inner_.self(); }

  Timer send_t;   ///< send + send_batch + broadcast
  Timer flush_t;
  Timer recv_t;   ///< time blocked in (or returning from) recv

 private:
  dex::transport::Transport& inner_;
  bool timed_;
};

}  // namespace perfbench
