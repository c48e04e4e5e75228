// Live workloads: an in-process n=4, t=0, W=8 cluster on the reactor
// transport (one event loop per replica), driven over loopback by one client
// process with 4 connections to replica 0's gateway.
//
//   live_paced  — open loop at 100 cmds/s with seeded due times; latency is
//                 timed from the due time, so a generator stall shows.
//   live_closed — closed loop, 8 commands outstanding per connection, a fixed
//                 command count per trial so both sides of a comparison build
//                 logs of equal length.
//
// Each trial boots a fresh cluster, runs the commands, tears it down and
// checks the logs. A run repeats trials until --seconds is spent; with
// --trace 1 the first trial runs unprobed (the overhead baseline) and the
// rest run with every probe timing.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "consensus/condition/pair.hpp"
#include "smr/frontend.hpp"
#include "transport/reactor_tcp.hpp"
#include "transport/runner.hpp"
#include "transport/wire.hpp"

namespace perfbench {
namespace {

using dex::smr::Command;
namespace transport = dex::transport;

constexpr std::size_t kN = 4;
constexpr std::size_t kT = 0;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kConns = 4;
constexpr std::size_t kOpBytes = 16;
constexpr double kPacedRate = 100;          // cmds/s: light load today
constexpr std::size_t kPacedTrials = 6;   // short logs keep the window idle
constexpr std::size_t kClosedDepth = 8;     // outstanding per connection
constexpr std::size_t kClosedCmds = 1500;   // per trial: the log length
constexpr std::size_t kMinTailSamples = 1000;  // a p99 needs 10 beyond it
constexpr std::size_t kMinSetups = 9;          // set-ups per run behind setup_s
constexpr std::uint64_t kAckGraceNs = 10'000'000'000ULL;
constexpr std::uint64_t kClosedDeadlineNs = 120'000'000'000ULL;

bool port_free(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

/// A base port whose n consecutive ports are bindable right now. The mesh
/// needs fixed ports (node i listens on base + i); ports are not an input.
std::uint16_t free_base_port() {
  dex::Rng rng(dex::mix64(now_ns() ^ static_cast<std::uint64_t>(::getpid())));
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto base = static_cast<std::uint16_t>(20000 + rng.next_below(40000));
    bool ok = true;
    for (std::size_t i = 0; i < kN && ok; ++i) {
      ok = port_free(static_cast<std::uint16_t>(base + i));
    }
    if (ok) return base;
  }
  throw std::runtime_error("no free loopback port range for the mesh");
}

void send_all(int fd, const std::vector<std::byte>& frame) {
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return;  // dead socket: the command fails by the deadline
    }
  }
}

/// The client side: `count` nonblocking connections to one gateway, one
/// epoll set, and ack parsing.
class Clients {
 public:
  Clients(std::uint16_t port, std::size_t count) {
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) throw std::runtime_error("epoll_create1 failed");
    for (std::size_t c = 0; c < count; ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("client socket() failed");
      fds_.push_back(fd);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        throw std::runtime_error(std::string("client connect() failed: ") +
                                 std::strerror(errno));
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
    }
    in_.resize(count);
  }
  ~Clients() {
    for (const int fd : fds_) ::close(fd);
    if (epfd_ >= 0) ::close(epfd_);
  }
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  [[nodiscard]] int fd(std::size_t c) const { return fds_[c]; }

  /// Waits up to `timeout_ms` for acks and hands each (conn, seq, slot) to
  /// `on_ack`.
  template <typename F>
  void poll_acks(int timeout_ms, F&& on_ack) {
    epoll_event evs[kConns];
    const int nev = ::epoll_wait(epfd_, evs, static_cast<int>(kConns), timeout_ms);
    for (int i = 0; i < nev; ++i) {
      const auto c = static_cast<std::size_t>(evs[i].data.u64);
      auto& as = in_[c];
      for (;;) {
        const auto buf = as.writable(16 * 1024);
        const ssize_t n = ::recv(fds_[c], buf.data(), buf.size(), 0);
        if (n <= 0) break;
        as.commit(static_cast<std::size_t>(n));
        std::span<const std::byte> p;
        while (as.next(p) == transport::FrameAssembler::Status::kFrame) {
          if (p.size() != 16) continue;
          const auto u64 = [&](std::size_t at) {
            return static_cast<std::uint64_t>(transport::wire::get_u32(p.data() + at)) |
                   (static_cast<std::uint64_t>(transport::wire::get_u32(p.data() + at + 4))
                    << 32);
          };
          on_ack(c, u64(0), u64(8));
        }
      }
    }
  }

 private:
  int epfd_ = -1;
  std::vector<int> fds_;
  std::vector<transport::FrameAssembler> in_;
};

void add_stats(transport::ReactorStats& a, const transport::ReactorStats& b) {
  a.writev_calls += b.writev_calls;
  a.writev_frames += b.writev_frames;
  a.backpressure_stalls += b.backpressure_stalls;
  a.bytes_out += b.bytes_out;
  a.connect_retries += b.connect_retries;
  a.broadcast_encodes += b.broadcast_encodes;
  a.broadcast_dests += b.broadcast_dests;
  a.frames_in += b.frames_in;
}

using CommandIndex = std::unordered_map<dex::Value, std::size_t>;

/// One booted cluster: the reactor mesh, a probed replica, gateway and
/// driver thread per node, and the client connections to replica 0. Booting
/// it is the benchmark's set-up; stop() tears it down.
class Cluster {
 public:
  /// Replica 0's driver stamps pickup and commit into `times`, found by
  /// digest through `index`; both outlive the cluster.
  Cluster(std::size_t max_slots, bool traced, const CommandIndex& index,
          std::vector<CommandTimes>& times)
      : traced_(traced), index_(index), times_(times) {
    const std::uint16_t base = free_base_port();
    for (std::size_t i = 0; i < kN; ++i) {
      transport::ReactorTcpConfig tc;
      tc.n = kN;
      tc.self = static_cast<dex::ProcessId>(i);
      tc.base_port = base;
      tc.loops = 1;
      tc.cork = true;  // drive_actor flushes after every outbox drain
      nets_.push_back(std::make_unique<transport::ReactorTcpTransport>(tc));
      probed_.push_back(std::make_unique<ProbedTransport>(*nets_.back(), traced));
    }
    std::atomic<bool> failed{false};
    std::vector<std::thread> starters;
    for (std::size_t i = 0; i < kN; ++i) {
      starters.emplace_back([&, i] {
        try {
          nets_[i]->start();
        } catch (const std::exception&) {
          failed.store(true);
        }
      });
    }
    for (auto& th : starters) th.join();
    if (failed.load()) {
      for (auto& t : nets_) t->shutdown();
      throw std::runtime_error("mesh rendezvous failed");
    }
    const auto pair = dex::make_frequency_pair(kN, kT);
    for (std::size_t i = 0; i < kN; ++i) {
      dex::smr::ReplicaConfig rc;
      rc.n = kN;
      rc.t = kT;
      rc.self = static_cast<dex::ProcessId>(i);
      rc.max_slots = max_slots;
      rc.window = kWindow;
      actors_.push_back(std::make_unique<ProbedActor>(
          std::make_unique<dex::smr::Replica>(rc, pair), kN, traced, now_ns));
      gateways_.push_back(std::make_unique<dex::smr::Frontend>(dex::smr::FrontendConfig{}));
      gateways_.back()->start();
    }
    // The gateway accepts on its own loop, so clients connect before any
    // driver thread exists and a failed connect leaves nothing to join.
    clients_ = std::make_unique<Clients>(gateways_[0]->port(), kConns);
    for (std::size_t i = 0; i < kN; ++i) drivers_.emplace_back([this, i] { drive(i); });
  }
  ~Cluster() { stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] Clients& clients() { return *clients_; }
  [[nodiscard]] const ProbedActor& actor(std::size_t i) const { return *actors_[i]; }

  /// Stops the drivers and shuts every node down; the replicas stay
  /// readable. Idempotent.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    clients_.reset();
    stop_.store(true);
    for (auto& th : drivers_) th.join();
    for (auto& g : gateways_) {
      bad_frames += g->stats().bad_frames;
      g->shutdown();
    }
    for (auto& t : nets_) {
      add_stats(net, t->stats());
      t->shutdown();
    }
    for (std::size_t i = 0; i < kN; ++i) {
      fe_drain.add(fe_drain_[i]);
      fe_complete.add(fe_complete_[i]);
      send.add(probed_[i]->send_t);
      flush.add(probed_[i]->flush_t);
      recv.add(probed_[i]->recv_t);
      driver_ns += driver_ns_[i];
    }
  }

  // Totals over every node, valid after stop().
  Timer fe_drain, fe_complete, send, flush, recv;
  std::uint64_t driver_ns = 0;
  std::uint64_t bad_frames = 0;
  transport::ReactorStats net;

 private:
  /// Node i's driver thread: the replica's transport loop, with a tick that
  /// hands gateway submissions to the replica and acks new commits.
  void drive(std::size_t i) {
    ProbedActor& act = *actors_[i];
    dex::smr::Frontend& fe = *gateways_[i];
    std::size_t seen = 0;
    const std::uint64_t t0 = now_ns();
    transport::RunnerOptions ropts;
    ropts.recv_timeout = std::chrono::milliseconds(1);
    ropts.deadline = std::chrono::milliseconds(600'000);
    transport::drive_actor(act, *probed_[i], stop_, ropts, [&] {
      const std::vector<Command> subs =
          timed_call(traced_, fe_drain_[i], [&] { return fe.drain_submissions(); });
      const std::uint64_t picked = now_ns();
      for (const Command& c : subs) {
        if (i == 0) {
          if (const auto it = index_.find(c.digest()); it != index_.end()) {
            times_[it->second].pickup = picked;
          }
        }
        act.submit(c);
      }
      const auto& log = act.replica().log();
      if (seen == log.size()) return;
      const std::uint64_t seen_at = now_ns();
      for (; seen < log.size(); ++seen) {
        const dex::smr::LogEntry& e = log[seen];
        if (i == 0 && e.command.has_value()) {
          if (const auto it = index_.find(e.digest); it != index_.end()) {
            times_[it->second].commit = seen_at;
          }
        }
        timed_call(traced_, fe_complete_[i], [&] { fe.complete(e.digest, e.slot); });
      }
    });
    driver_ns_[i] = now_ns() - t0;
  }

  bool traced_;
  const CommandIndex& index_;
  std::vector<CommandTimes>& times_;
  std::vector<std::unique_ptr<transport::ReactorTcpTransport>> nets_;
  std::vector<std::unique_ptr<ProbedTransport>> probed_;
  std::vector<std::unique_ptr<ProbedActor>> actors_;
  std::vector<std::unique_ptr<dex::smr::Frontend>> gateways_;
  std::vector<Timer> fe_drain_ = std::vector<Timer>(kN);
  std::vector<Timer> fe_complete_ = std::vector<Timer>(kN);
  std::vector<std::uint64_t> driver_ns_ = std::vector<std::uint64_t>(kN, 0);
  std::atomic<bool> stop_{false};
  bool stopped_ = false;
  std::vector<std::thread> drivers_;
  std::unique_ptr<Clients> clients_;
};

/// Boots a cluster, retrying on another port range if the mesh cannot form
/// (another process took a port between the probe and the bind).
std::unique_ptr<Cluster> boot(std::size_t max_slots, bool traced,
                              const CommandIndex& index,
                              std::vector<CommandTimes>& times) {
  for (int attempt = 1;; ++attempt) {
    try {
      return std::make_unique<Cluster>(max_slots, traced, index, times);
    } catch (const std::runtime_error&) {
      if (attempt == 3) throw;
    }
  }
}

/// What one trial measured.
struct Trial {
  double setup_s = 0;
  std::vector<CommandTimes> times;
  std::uint64_t acked = 0;
  std::uint64_t window_ns = 0;  ///< first due to last ack
  std::uint64_t cpu_ns = 0;     ///< process CPU minus the generator threads
  std::size_t committed = 0;    ///< commands in replica 0's log
  std::vector<dex::smr::LogEntry> log0;
  std::vector<ReplicaProbe> probes;
  std::vector<std::size_t> log_len;
  std::size_t live_peak = 0;
  Timer fe_drain, fe_complete, send, flush, recv;
  std::uint64_t driver_ns = 0;
  transport::ReactorStats net;
  std::uint64_t bad_frames = 0;
};

/// Boots a cluster, runs `cmds` through it, tears it down and checks it.
Trial run_trial(bool closed, const std::vector<Command>& cmds,
                const std::vector<std::uint64_t>& due_offsets, bool traced,
                Result& res) {
  const std::size_t total = cmds.size();
  Trial tr;
  tr.times.assign(total, CommandTimes{});
  std::vector<std::vector<std::byte>> frames(total);
  CommandIndex index;
  for (std::size_t k = 0; k < total; ++k) {
    const auto payload = cmds[k].to_bytes();
    frames[k].resize(transport::wire::kHeaderBytes + payload.size());
    transport::wire::fill_header(frames[k].data(), payload);
    std::memcpy(frames[k].data() + transport::wire::kHeaderBytes, payload.data(),
                payload.size());
    index.emplace(cmds[k].digest(), k);
  }

  const std::uint64_t setup_start = now_ns();
  const auto booted = boot(total * 2 + 64, traced, index, tr.times);
  Cluster& cluster = *booted;
  tr.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  Clients& clients = cluster.clients();

  std::uint64_t dup_acks = 0;
  std::vector<std::uint64_t> ack_slot(total, 0);
  std::atomic<std::uint64_t> acked{0};
  std::uint64_t last_ack = 0;
  const auto on_ack = [&](std::uint64_t seq, std::uint64_t slot) -> bool {
    if (seq == 0 || seq > total) return false;
    CommandTimes& t = tr.times[seq - 1];
    if (t.ack != 0) {
      ++dup_acks;
      return false;
    }
    t.ack = last_ack = now_ns();
    ack_slot[seq - 1] = slot;
    acked.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  std::uint64_t gen_cpu[2] = {0, 0};
  const std::uint64_t cpu0 = process_cpu_ns();
  if (closed) {
    const std::uint64_t deadline = now_ns() + kClosedDeadlineNs;
    std::thread gen([&] {
      const std::uint64_t c0 = thread_cpu_ns();
      std::size_t next = 0;
      const auto send_next = [&](std::size_t conn) {
        if (next >= total) return;
        CommandTimes& t = tr.times[next];
        t.due = t.send = now_ns();
        send_all(clients.fd(conn), frames[next++]);
      };
      for (std::size_t c = 0; c < kConns; ++c) {
        for (std::size_t d = 0; d < kClosedDepth; ++d) send_next(c);
      }
      while (acked.load() < total && now_ns() < deadline) {
        clients.poll_acks(5, [&](std::size_t c, std::uint64_t seq, std::uint64_t slot) {
          if (on_ack(seq, slot)) send_next(c);
        });
      }
      gen_cpu[0] = thread_cpu_ns() - c0;
    });
    gen.join();
  } else {
    const std::uint64_t start = now_ns() + 2'000'000;
    const std::uint64_t deadline = start + due_offsets.back() + kAckGraceNs;
    std::thread submit([&] {
      const std::uint64_t c0 = thread_cpu_ns();
      for (std::size_t k = 0; k < total; ++k) {
        const std::uint64_t due = start + due_offsets[k];
        const std::uint64_t now = now_ns();
        if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        CommandTimes& t = tr.times[k];
        t.due = due;
        t.send = now_ns();
        send_all(clients.fd(k % kConns), frames[k]);
      }
      gen_cpu[0] = thread_cpu_ns() - c0;
    });
    std::thread reader([&] {
      const std::uint64_t c0 = thread_cpu_ns();
      while (acked.load() < total && now_ns() < deadline) {
        clients.poll_acks(5, [&](std::size_t, std::uint64_t seq, std::uint64_t slot) {
          on_ack(seq, slot);
        });
      }
      gen_cpu[1] = thread_cpu_ns() - c0;
    });
    submit.join();
    reader.join();
  }
  const std::uint64_t cpu = process_cpu_ns() - cpu0;
  tr.cpu_ns = cpu - std::min(cpu, gen_cpu[0] + gen_cpu[1]);
  tr.acked = acked.load();
  const std::uint64_t first_due = tr.times.front().due;
  tr.window_ns = last_ack > first_due ? last_ack - first_due : 0;
  cluster.stop();

  // Correctness: prefix agreement, every ack names the slot that committed
  // its command exactly once, no double ack, zero-copy broadcast.
  const auto& log0 = cluster.actor(0).replica().log();
  for (std::size_t i = 1; i < kN; ++i) {
    const auto& li = cluster.actor(i).replica().log();
    for (std::size_t s = 0; s < std::min(li.size(), log0.size()); ++s) {
      if (li[s].digest != log0[s].digest) {
        res.fail("replica " + std::to_string(i) + " disagrees at slot " +
                 std::to_string(s));
        break;
      }
    }
  }
  std::unordered_map<dex::Value, std::size_t> applied_at;
  std::unordered_map<dex::Value, std::size_t> applied_count;
  for (const auto& e : log0) {
    if (!e.command.has_value()) continue;
    applied_at[e.digest] = e.slot;
    ++applied_count[e.digest];
    ++tr.committed;
  }
  for (std::size_t k = 0; k < total; ++k) {
    if (tr.times[k].ack == 0) continue;
    const dex::Value d = cmds[k].digest();
    if (applied_count[d] != 1 || applied_at[d] != ack_slot[k]) {
      res.fail("command " + std::to_string(k + 1) + " acked at slot " +
               std::to_string(ack_slot[k]) + " but applied " +
               std::to_string(applied_count[d]) + " time(s)");
    }
  }
  if (dup_acks > 0) res.fail(std::to_string(dup_acks) + " duplicate acks");
  if (cluster.net.broadcast_dests != cluster.net.broadcast_encodes * (kN - 1)) {
    res.fail("zero-copy broadcast invariant violated");
  }

  for (std::size_t i = 0; i < kN; ++i) {
    const ProbedActor& a = cluster.actor(i);
    tr.probes.push_back(a.probe());
    tr.log_len.push_back(a.replica().log().size());
    tr.live_peak = std::max(tr.live_peak, a.replica().live_instances_peak());
  }
  tr.fe_drain = cluster.fe_drain;
  tr.fe_complete = cluster.fe_complete;
  tr.send = cluster.send;
  tr.flush = cluster.flush;
  tr.recv = cluster.recv;
  tr.driver_ns = cluster.driver_ns;
  tr.net = cluster.net;
  tr.bad_frames = cluster.bad_frames;
  tr.log0 = log0;
  for (std::size_t k = 0; k < total; ++k) {
    const auto it = tr.probes[0].first_dissem.find(cmds[k].digest());
    if (it != tr.probes[0].first_dissem.end()) tr.times[k].dissem = it->second;
  }
  return tr;
}

/// Set-up time of a cluster booted and torn down with no load.
double boot_only() {
  const CommandIndex none;
  std::vector<CommandTimes> no_times;
  const std::uint64_t t0 = now_ns();
  const auto cluster = boot(64, false, none, no_times);
  return static_cast<double>(now_ns() - t0) / 1e9;
}

std::vector<Command> make_commands(std::uint64_t seed, std::uint64_t trial,
                                   std::size_t count) {
  dex::Rng rng(dex::mix64(seed * 0x51ULL + trial));
  std::vector<Command> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    std::string op(kOpBytes, 'a');
    for (char& ch : op) ch = static_cast<char>('a' + rng.next_below(26));
    out.push_back(Command{static_cast<std::uint32_t>(k % kConns), k + 1, std::move(op)});
  }
  return out;
}

/// Percentile p over several trials: the median of the trials' own values
/// when each trial's sample supports p, so one disturbed trial cannot set
/// it; otherwise p of the pooled sample.
double trials_tail(Result& res, const std::vector<std::vector<double>>& trials,
                   double p, const std::string& what) {
  std::vector<double> per_trial, pooled;
  for (const auto& v : trials) {
    if (const auto x = supported_percentile(v, p)) per_trial.push_back(*x);
    pooled.insert(pooled.end(), v.begin(), v.end());
  }
  if (per_trial.size() == trials.size()) {
    const double m = median(per_trial);
    return std::isinf(m) ? std::numeric_limits<double>::max() : m;
  }
  return tail_value(res, pooled, p, what);
}

double cpu_ms_per_cmd(const Trial& t) {
  return per(static_cast<double>(t.cpu_ns) / 1e6, static_cast<double>(t.committed));
}

}  // namespace

Result run_live(const RunArgs& args) {
  const bool closed = args.workload == "live_closed";
  Result res;
  const std::uint64_t run_start = now_ns();
  const double budget_ns = args.seconds * 1e9;

  std::vector<Trial> trials;
  std::size_t paced_cmds = 0;
  if (!closed) {
    paced_cmds = std::max<std::size_t>(
        static_cast<std::size_t>(args.seconds * kPacedRate / (kPacedTrials + 0.5)),
        (kMinTailSamples + kPacedTrials - 2) / (kPacedTrials - 1));
  }
  for (std::uint64_t k = 0;; ++k) {
    const bool probed = args.trace && k > 0;
    const std::size_t count = closed ? kClosedCmds : paced_cmds;
    const auto cmds = make_commands(args.seed, k, count);
    std::vector<std::uint64_t> due;
    if (!closed) due = paced_schedule(dex::mix64(args.seed + k), kPacedRate, count);
    const std::uint64_t t0 = now_ns();
    trials.push_back(run_trial(closed, cmds, due, probed, res));
    const double took = static_cast<double>(now_ns() - t0);
    const double spent = static_cast<double>(now_ns() - run_start);
    const std::size_t min_trials = args.trace ? 2 : 1;
    if (!closed) {
      if (trials.size() >= kPacedTrials) break;
    } else if (trials.size() >= min_trials && spent + took > budget_ns) {
      break;
    }
  }

  // End-to-end: untraced trials only (all of them without --trace; the
  // first with it, which is the overhead baseline).
  const std::size_t e2e_end = args.trace ? 1 : trials.size();
  std::vector<double> setup, rate, cpu, pkts, bytes;
  std::vector<std::vector<double>> lat;
  for (std::size_t k = 0; k < trials.size(); ++k) {
    const Trial& t = trials[k];
    res.attempted += t.times.size();
    res.failed += t.times.size() - t.acked;
    if (k >= e2e_end) continue;
    Ledger l;
    for (const auto& p : t.probes) l.add(p.ledger);
    const double c = static_cast<double>(t.committed);
    setup.push_back(t.setup_s);
    rate.push_back(per(static_cast<double>(t.acked), static_cast<double>(t.window_ns) / 1e9));
    cpu.push_back(cpu_ms_per_cmd(t));
    pkts.push_back(per(static_cast<double>(l.total_pkts()), c));
    bytes.push_back(per(static_cast<double>(l.total_bytes()), c));
    lat.emplace_back();
    for (const auto& ct : t.times) lat.back().push_back(ack_latency_ms(ct, !closed));
  }

  if (!args.trace) {
    while (setup.size() < kMinSetups) setup.push_back(boot_only());
    res.set("setup_s", median(setup), "s");
    res.set("completed_frac",
            1.0 - per(static_cast<double>(res.failed), static_cast<double>(res.attempted)),
            "ratio");
    res.set("ack_p50_ms", trials_tail(res, lat, 50, "ack latency"), "ms");
    res.set("ack_p99_ms", trials_tail(res, lat, 99, "ack latency"), "ms");
    res.set("cmds_per_s", median(rate), "1/s");
    res.set("cpu_ms_per_cmd", median(cpu), "ms");
    res.set("packets_per_cmd", median(pkts), "count");
    res.set("bytes_per_cmd", median(bytes), "B");
    return res;
  }

  // Per-layer: the probed trials, summed and pooled.
  const double res_ns = [] {
    timespec ts{};
    ::clock_getres(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_nsec) + 1e9 * static_cast<double>(ts.tv_sec);
  }();
  const auto tol = static_cast<std::uint64_t>(std::max(res_ns, 1.0));
  Ledger ledger;
  Growth growth;
  LogShape shape;
  SpanFile spans;
  Timer drain, submit, fe_drain, fe_complete, send, flush, recv;
  double cmds = 0, driver_ns = 0, sent = 0, after = 0;
  std::size_t pending_peak = 0, live_peak = 0, tiling_bad = 0;
  std::string first_bad;
  transport::ReactorStats net;
  std::uint64_t bad_frames = 0, loadgen_sent = 0;
  std::vector<double> late, pickup, queue, commit, ack, rate_traced, cpu_traced;
  for (std::size_t k = 1; k < trials.size(); ++k) {
    const Trial& t = trials[k];
    cmds += static_cast<double>(t.committed);
    rate_traced.push_back(per(static_cast<double>(t.acked), static_cast<double>(t.window_ns) / 1e9));
    cpu_traced.push_back(cpu_ms_per_cmd(t));
    for (std::size_t i = 0; i < t.probes.size(); ++i) {
      const ReplicaProbe& p = t.probes[i];
      ledger.add(p.ledger);
      growth.add(p, t.log_len[i]);
      drain.add(p.drain);
      submit.add(p.submit);
      sent += static_cast<double>(p.sent);
      after += static_cast<double>(p.sent_after_commit);
      pending_peak = std::max(pending_peak, p.pending_peak);
    }
    live_peak = std::max(live_peak, t.live_peak);
    fe_drain.add(t.fe_drain);
    fe_complete.add(t.fe_complete);
    send.add(t.send);
    flush.add(t.flush);
    recv.add(t.recv);
    driver_ns += static_cast<double>(t.driver_ns);
    add_stats(net, t.net);
    bad_frames += t.bad_frames;
    shape.add(t.log0);
    for (std::size_t c = 0; c < t.times.size(); ++c) {
      const CommandTimes& ct = t.times[c];
      if (ct.send != 0) ++loadgen_sent;
      late.push_back(ct.send != 0 ? lateness_ms(ct) : kInf);
      if (ct.ack == 0) {
        for (auto* v : {&pickup, &queue, &commit, &ack}) v->push_back(kInf);
        continue;
      }
      const auto tiles = command_spans(ct);
      const std::string why = check_tiling(Span{ct.due, ct.ack}, tiles, tol);
      if (!why.empty() && tiling_bad++ == 0) first_bad = why;
      spans.command(k, c + 1, tiles);
      const auto ms = [](const Span& s) {
        return static_cast<double>(s.end - std::min(s.end, s.start)) / 1e6;
      };
      pickup.push_back(ms(tiles[1]));
      queue.push_back(ms(tiles[2]));
      commit.push_back(ms(tiles[3]));
      ack.push_back(ms(tiles[4]));
    }
  }
  if (tiling_bad > 0) {
    res.fail(std::to_string(tiling_bad) + " commands' spans do not tile [due, ack]: " +
             first_bad);
  }
  spans.ledger(ledger);
  spans.layer("consensus.drain", drain);
  spans.layer("smr.replica.submit", submit);
  spans.layer("smr.frontend.drain", fe_drain);
  spans.layer("smr.frontend.complete", fe_complete);
  spans.layer("transport.send", send);
  spans.layer("transport.flush", flush);
  spans.layer("transport.recv", recv);
  res.spans = spans.json(args);
  const auto us_per_cmd = [&](const Timer& t) {
    return per(static_cast<double>(t.ns) / 1e3, cmds);
  };
  res.set("loadgen.late_ms_p99", tail_value(res, late, 99, "lateness"), "ms");
  res.set("loadgen.sent", static_cast<double>(loadgen_sent), "count");
  res.set("smr.frontend.pickup_ms_p50", tail_value(res, pickup, 50, "pickup"), "ms");
  res.set("smr.frontend.pickup_ms_p99", tail_value(res, pickup, 99, "pickup"), "ms");
  res.set("smr.frontend.drain_us_per_cmd", us_per_cmd(fe_drain), "us");
  res.set("smr.frontend.ack_ms_p50", tail_value(res, ack, 50, "ack"), "ms");
  res.set("smr.frontend.ack_ms_p99", tail_value(res, ack, 99, "ack"), "ms");
  res.set("smr.frontend.complete_us_per_cmd", us_per_cmd(fe_complete), "us");
  res.set("smr.frontend.bad_frames", static_cast<double>(bad_frames), "count");
  res.set("smr.replica.submit_us_per_cmd", us_per_cmd(submit), "us");
  res.set("smr.replica.queue_ms_p50", tail_value(res, queue, 50, "queue"), "ms");
  res.set("smr.replica.queue_ms_p99", tail_value(res, queue, 99, "queue"), "ms");
  res.set("smr.replica.cmds_per_slot", per(cmds, shape.slots), "ratio");
  res.set("smr.replica.pending_peak", static_cast<double>(pending_peak), "count");
  res.set("smr.replica.live_instances_peak", static_cast<double>(live_peak), "count");
  shape.report(res);
  report_ledger(res, ledger, cmds);
  res.set("consensus.after_commit_frac", per(after, sent), "ratio");
  res.set("consensus.drain_us_per_cmd", us_per_cmd(drain), "us");
  res.set("consensus.commit_ms_p50", tail_value(res, commit, 50, "commit"), "ms");
  res.set("consensus.commit_ms_p99", tail_value(res, commit, 99, "commit"), "ms");
  growth.report(res);
  res.set("transport.send_us_per_cmd", us_per_cmd(send), "us");
  res.set("transport.flush_us_per_cmd", us_per_cmd(flush), "us");
  res.set("transport.recv_wait_frac", per(static_cast<double>(recv.ns), driver_ns), "ratio");
  res.set("transport.frames_per_cmd", per(static_cast<double>(net.frames_in), cmds), "count");
  res.set("transport.bytes_per_cmd", per(static_cast<double>(net.bytes_out), cmds), "B");
  res.set("transport.writev_frames_per_call",
          per(static_cast<double>(net.writev_frames), static_cast<double>(net.writev_calls)),
          "ratio");
  res.set("transport.backpressure_stalls", static_cast<double>(net.backpressure_stalls), "count");
  res.set("transport.connect_retries", static_cast<double>(net.connect_retries), "count");
  const double base_cpu = cpu_ms_per_cmd(trials[0]);
  const double base_rate = per(static_cast<double>(trials[0].acked),
                               static_cast<double>(trials[0].window_ns) / 1e9);
  res.set("trace.overhead_pct", 100.0 * (per(median(cpu_traced), base_cpu) - 1.0), "%");
  res.set("trace.cmds_per_s_loss_pct", 100.0 * (1.0 - per(median(rate_traced), base_rate)), "%");
  return res;
}

}  // namespace perfbench
