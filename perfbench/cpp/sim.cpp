// Simulated workloads: the deterministic simulator at n=13, t=2, W=8 with the
// frequency pair and the default 1-10 ms uniform one-way delay. Every command
// reaches every replica, one every 2 virtual ms, which is more than the
// window commits, so the window stays full.
//
//   sim_unanimous — one uncontended stream into one log of kUnanimousSlots
//                   slots: every slot is one-step (the paper's common case).
//   sim_faulty    — bench_smr's racing-client model on 40% of commands, and
//                   t replicas crash-stop partway while commands keep
//                   arriving. Tens of slots per log, kFaultyLogs logs.
//
// A trial runs the workload's logs once; a run repeats the identical trial
// until --seconds is spent. Counts must repeat exactly across repeats (and
// between the unprobed and probed trials of a traced run); CPU time is the
// least disturbed repeat's.
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "consensus/condition/pair.hpp"
#include "sim/simulation.hpp"

namespace perfbench {
namespace {

using dex::smr::Command;

constexpr std::size_t kN = 13;
constexpr std::size_t kT = 2;
constexpr std::size_t kWindow = 8;
constexpr dex::SimTime kMs = 1'000'000;
constexpr dex::SimTime kGap = 2 * kMs;       // one command every 2 virtual ms
constexpr std::size_t kUnanimousSlots = 128;
constexpr std::size_t kFaultyCommands = 24;  // base stream per log
constexpr std::size_t kFaultyLogs = 8;
constexpr std::uint64_t kRacePct = 40;
constexpr std::size_t kSetups = 21;  // set-ups per run behind setup_s

/// A command op: a letter naming the stream, then the command's index.
std::string op(char stream, std::size_t c) {
  std::string s(1, stream);
  s += std::to_string(c);
  return s;
}

/// One command's delivery to one replica.
struct Arrival {
  dex::SimTime at = 0;
  std::size_t replica = 0;
  std::size_t cmd = 0;
};

struct Plan {
  std::uint64_t sim_seed = 1;
  std::vector<Command> cmds;
  std::vector<dex::SimTime> due;  ///< per command: when the client sent it
  std::vector<Arrival> arrivals;
  std::map<std::size_t, dex::SimTime> crashes;  ///< replica -> crash time
};

Plan unanimous_plan(std::uint64_t seed) {
  // The same stream as `bench_smr --window 8 --slots 128 --seed <seed>`.
  Plan p;
  p.sim_seed = seed;
  for (std::size_t c = 0; c < kUnanimousSlots; ++c) {
    p.cmds.push_back(Command{1, c + 1, op('C', c)});
    p.due.push_back(static_cast<dex::SimTime>(c) * kGap);
    for (std::size_t r = 0; r < kN; ++r) p.arrivals.push_back({p.due.back(), r, c});
  }
  return p;
}

Plan faulty_plan(std::uint64_t seed, std::uint64_t log) {
  Plan p;
  p.sim_seed = dex::mix64(seed * 0x9E37ULL + log);
  dex::Rng rng(p.sim_seed ^ 0xFA17ULL);
  std::uint64_t seq = 1;
  const auto add = [&](std::uint32_t client, std::string body,
                       dex::SimTime base, bool reverse) {
    p.cmds.push_back(Command{client, seq++, std::move(body)});
    p.due.push_back(base);
    for (std::size_t r = 0; r < kN; ++r) {
      const dex::SimTime skew = (reverse ? kN - r : r) * kMs;
      p.arrivals.push_back({base + skew, r, p.cmds.size() - 1});
    }
  };
  // Exactly kRacePct% of the commands race, spread evenly over the stream
  // from a seeded phase, so every log carries the same contention.
  std::vector<bool> races(kFaultyCommands, false);
  const std::size_t n_races = kFaultyCommands * kRacePct / 100;
  const double phase = rng.next_double();
  for (std::size_t j = 0; j < n_races; ++j) {
    races[static_cast<std::size_t>((static_cast<double>(j) + phase) *
                                   static_cast<double>(kFaultyCommands) /
                                   static_cast<double>(n_races))] = true;
  }
  for (std::size_t c = 0; c < kFaultyCommands; ++c) {
    const dex::SimTime base = static_cast<dex::SimTime>(c) * kGap;
    add(1, op('W', c), base, false);
    if (races[c]) add(2, op('X', c), base, true);
  }
  // t replicas (never replica 0, the reference; which ones is the seed's)
  // crash at evenly spaced points of the submission schedule and stay down.
  const dex::SimTime span = static_cast<dex::SimTime>(kFaultyCommands) * kGap;
  while (p.crashes.size() < kT) {
    const auto who = static_cast<std::size_t>(1 + rng.next_below(kN - 1));
    p.crashes.emplace(who, span * (p.crashes.size() + 1) / (kT + 1));
  }
  return p;
}

/// What one simulated log produced.
struct LogRun {
  std::uint64_t run_ns = 0;
  std::uint64_t cpu_ns = 0;
  dex::sim::RunStats stats;
  std::vector<std::vector<dex::smr::LogEntry>> logs;
  std::vector<ReplicaProbe> probes;
  std::size_t live_peak = 0;
};

/// A simulation with its replicas attached and the plan's submissions
/// scheduled, ready to run. Building one is the workload's set-up.
class SimLog {
 public:
  SimLog(const Plan& plan, bool timed) : sim_(kN, options(plan)) {
    const auto pair = dex::make_frequency_pair(kN, kT);
    const auto vclock = [this] { return static_cast<std::uint64_t>(sim_.now()); };
    for (std::size_t i = 0; i < kN; ++i) {
      dex::smr::ReplicaConfig rc;
      rc.n = kN;
      rc.t = kT;
      rc.self = static_cast<dex::ProcessId>(i);
      rc.max_slots = plan.cmds.size() * 4 + 16;
      rc.window = kWindow;
      auto actor = std::make_unique<ProbedActor>(
          std::make_unique<dex::smr::Replica>(rc, pair), kN, timed, vclock);
      if (const auto it = plan.crashes.find(i); it != plan.crashes.end()) {
        actor->crash_at(it->second);
      }
      actors_.push_back(actor.get());
      sim_.attach(static_cast<dex::ProcessId>(i), std::move(actor));
    }
    for (const Arrival& a : plan.arrivals) {
      ProbedActor* actor = actors_[a.replica];
      const Command& cmd = plan.cmds[a.cmd];
      sim_.schedule_at(a.at, [actor, &cmd] { actor->submit(cmd); });
    }
  }
  SimLog(const SimLog&) = delete;
  SimLog& operator=(const SimLog&) = delete;

  LogRun run() {
    LogRun out;
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t r0 = now_ns();
    out.stats = sim_.run();
    out.run_ns = now_ns() - r0;
    out.cpu_ns = process_cpu_ns() - cpu0;
    for (const ProbedActor* a : actors_) {
      out.logs.push_back(a->replica().log());
      out.probes.push_back(a->probe());
      out.live_peak = std::max(out.live_peak, a->replica().live_instances_peak());
    }
    return out;
  }

 private:
  static dex::sim::SimOptions options(const Plan& plan) {
    dex::sim::SimOptions opts;
    opts.seed = plan.sim_seed;
    return opts;
  }

  dex::sim::Simulation sim_;
  std::vector<ProbedActor*> actors_;
};

/// Set-up time of every log of a trial, built and dropped without running.
double setup_s(const std::vector<Plan>& plans) {
  double s = 0;
  for (const Plan& p : plans) {
    const std::uint64_t t0 = now_ns();
    const SimLog log(p, false);
    s += static_cast<double>(now_ns() - t0) / 1e9;
  }
  return s;
}

/// Everything a trial's logs add up to.
struct Tally {
  double cpu_ns = 0;
  double run_ns = 0;
  double committed = 0;   ///< commands in replica 0's logs
  double span_ns = 0;     ///< virtual first due to last commit on replica 0
  double packets = 0, bytes = 0, events = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> ack_ms, commit_ms, queue_ms;
  Ledger ledger;
  Growth growth;
  Timer drain, submit, start;
  double sent = 0, after = 0;
  LogShape shape;  ///< replica 0's logs
  std::size_t pending_peak = 0, live_peak = 0;
  /// The deterministic outcome, compared across repeats of a trial.
  std::vector<dex::Value> fingerprint;
};

void tally_log(const Plan& plan, const LogRun& lr, Tally& t, Result& res) {
  t.cpu_ns += static_cast<double>(lr.cpu_ns);
  t.run_ns += static_cast<double>(lr.run_ns);
  t.packets += static_cast<double>(lr.stats.packets_delivered);
  t.bytes += static_cast<double>(lr.stats.wire_bytes);
  t.events += static_cast<double>(lr.stats.events);
  t.live_peak = std::max(t.live_peak, lr.live_peak);

  // Correctness: the live replicas' logs are identical, and each crashed
  // replica's log is a prefix of them.
  const auto& ref = lr.logs[0];
  for (std::size_t r = 1; r < kN; ++r) {
    const auto& l = lr.logs[r];
    const bool crashed = plan.crashes.count(r) > 0;
    bool ok = crashed ? l.size() <= ref.size() : l.size() == ref.size();
    for (std::size_t s = 0; ok && s < std::min(l.size(), ref.size()); ++s) {
      ok = l[s].digest == ref[s].digest;
    }
    if (!ok) {
      res.fail("replica " + std::to_string(r) + "'s log is not " +
               (crashed ? "a prefix of" : "identical to") + " replica 0's");
    }
  }

  // The channel ledger must account for every delivered packet and byte.
  Ledger l;
  for (const auto& p : lr.probes) l.add(p.ledger);
  if (l.total_pkts() != lr.stats.packets_delivered ||
      l.total_bytes() != lr.stats.wire_bytes) {
    res.fail("channel ledger (" + std::to_string(l.total_pkts()) + " packets, " +
             std::to_string(l.total_bytes()) + " B) does not sum to the simulator's (" +
             std::to_string(lr.stats.packets_delivered) + ", " +
             std::to_string(lr.stats.wire_bytes) + ")");
  }
  t.ledger.add(l);

  std::unordered_map<dex::Value, std::size_t> cmd_of;
  for (std::size_t k = 0; k < plan.cmds.size(); ++k) cmd_of.emplace(plan.cmds[k].digest(), k);
  const std::size_t cmds = plan.cmds.size();
  std::vector<std::size_t> live_commits(cmds, 0);
  std::size_t live = 0;
  dex::SimTime last_commit = 0;
  for (std::size_t r = 0; r < kN; ++r) {
    if (plan.crashes.count(r) > 0) continue;
    ++live;
    const ReplicaProbe& p = lr.probes[r];
    std::vector<double> at(cmds, kInf);
    for (const auto& e : lr.logs[r]) {
      if (!e.command.has_value()) continue;
      const auto it = cmd_of.find(e.digest);
      if (it == cmd_of.end()) continue;
      const auto k = it->second;
      ++live_commits[k];
      const dex::SimTime c = p.commit_at[e.slot];
      at[k] = static_cast<double>(c - plan.due[k]) / 1e6;
      if (r == 0) last_commit = std::max(last_commit, c);
      if (const auto d = p.first_dissem.find(e.digest); d != p.first_dissem.end()) {
        t.commit_ms.push_back(static_cast<double>(c - d->second) / 1e6);
      }
    }
    t.ack_ms.insert(t.ack_ms.end(), at.begin(), at.end());
    for (const Arrival& a : plan.arrivals) {
      if (a.replica != r) continue;
      const auto d = p.first_dissem.find(plan.cmds[a.cmd].digest());
      if (d != p.first_dissem.end()) {
        t.queue_ms.push_back(static_cast<double>(d->second - std::min(d->second, a.at)) / 1e6);
      }
    }
  }
  t.attempted += cmds;
  for (std::size_t k = 0; k < cmds; ++k) {
    if (live_commits[k] != live) ++t.failed;
  }

  t.shape.add(ref);
  for (const auto& e : ref) {
    if (e.command.has_value()) t.committed += 1;
    t.fingerprint.push_back(e.digest);
  }
  t.span_ns += static_cast<double>(last_commit - plan.due.front());
  t.fingerprint.push_back(static_cast<dex::Value>(lr.stats.packets_delivered));
  t.fingerprint.push_back(static_cast<dex::Value>(lr.stats.wire_bytes));
  t.fingerprint.push_back(static_cast<dex::Value>(lr.stats.events));

  for (std::size_t r = 0; r < kN; ++r) {
    const ReplicaProbe& p = lr.probes[r];
    t.growth.add(p, lr.logs[r].size());
    t.drain.add(p.drain);
    t.submit.add(p.submit);
    t.start.add(p.start);
    t.sent += static_cast<double>(p.sent);
    t.after += static_cast<double>(p.sent_after_commit);
    t.pending_peak = std::max(t.pending_peak, p.pending_peak);
  }
}

}  // namespace

Result run_sim(const RunArgs& args) {
  const bool faulty = args.workload == "sim_faulty";
  std::vector<Plan> plans;
  if (faulty) {
    for (std::uint64_t l = 0; l < kFaultyLogs; ++l) plans.push_back(faulty_plan(args.seed, l));
  } else {
    plans.push_back(unanimous_plan(args.seed));
  }

  Result res;
  const std::uint64_t run_start = now_ns();
  std::vector<Tally> trials;
  for (std::size_t k = 0;; ++k) {
    const bool probed = args.trace && k > 0;
    const std::uint64_t t0 = now_ns();
    Tally t;
    for (const Plan& p : plans) tally_log(p, SimLog(p, probed).run(), t, res);
    if (!trials.empty() && t.fingerprint != trials.front().fingerprint) {
      res.fail("trial " + std::to_string(k) + " diverged from trial 0 on the same seed");
    }
    trials.push_back(std::move(t));
    const double took = static_cast<double>(now_ns() - t0);
    const double spent = static_cast<double>(now_ns() - run_start);
    const std::size_t min_trials = args.trace ? 2 : 1;
    if (trials.size() >= min_trials && spent + took > args.seconds * 1e9) break;
  }

  const Tally& first = trials.front();
  res.attempted = first.attempted;
  res.failed = first.failed;
  const double cmds = first.committed;
  const auto cpu_ms = [&](const Tally& t) { return per(t.cpu_ns / 1e6, t.committed); };

  if (!args.trace) {
    // Every trial repeats the same work (the fingerprint check) and load
    // from neighbours on a shared host can only add to its CPU time, so the
    // least disturbed repetition is the program's cost.
    double cpu = cpu_ms(first);
    for (const Tally& t : trials) cpu = std::min(cpu, cpu_ms(t));
    std::vector<double> setup;
    // Repeated set-ups all start from the same warm process state.
    while (setup.size() < kSetups) setup.push_back(setup_s(plans));
    res.set("setup_s", median(setup), "s");
    res.set("completed_frac",
            1.0 - per(static_cast<double>(first.failed), static_cast<double>(first.attempted)),
            "ratio");
    res.set("ack_p50_ms", tail_value(res, first.ack_ms, 50, "commit latency"), "ms");
    res.set("ack_p99_ms", tail_value(res, first.ack_ms, 99, "commit latency"), "ms");
    res.set("cmds_per_s", per(cmds, first.span_ns / 1e9), "1/s");
    res.set("cpu_ms_per_cmd", cpu, "ms");
    res.set("packets_per_cmd", per(first.packets, cmds), "count");
    res.set("bytes_per_cmd", per(first.bytes, cmds), "B");
    return res;
  }

  // Per-layer: the probed trials. Counts are identical in every trial (the
  // fingerprint check), so the first probed trial's are the run's; times
  // are medians over the probed trials.
  const Tally& t = trials[1];
  std::vector<double> cpu, self, run, channel_ns[kChannels], drain, submit;
  for (std::size_t k = 1; k < trials.size(); ++k) {
    const Tally& x = trials[k];
    cpu.push_back(cpu_ms(x));
    double probed_ns = static_cast<double>(x.drain.ns + x.submit.ns + x.start.ns);
    for (std::size_t c = 0; c < kChannels; ++c) {
      probed_ns += static_cast<double>(x.ledger.ns[c]);
      channel_ns[c].push_back(static_cast<double>(x.ledger.ns[c]));
    }
    self.push_back(per((x.run_ns - probed_ns) / 1e6, x.committed));
    run.push_back(x.run_ns);
    drain.push_back(static_cast<double>(x.drain.ns));
    submit.push_back(static_cast<double>(x.submit.ns));
  }
  Ledger ledger = t.ledger;
  for (std::size_t c = 0; c < kChannels; ++c) {
    ledger.ns[c] = static_cast<std::uint64_t>(median(channel_ns[c]));
  }
  res.set("smr.replica.submit_us_per_cmd", per(median(submit) / 1e3, cmds), "us");
  res.set("smr.replica.queue_ms_p50", tail_value(res, t.queue_ms, 50, "queue"), "ms");
  res.set("smr.replica.queue_ms_p99", tail_value(res, t.queue_ms, 99, "queue"), "ms");
  res.set("smr.replica.cmds_per_slot", per(cmds, t.shape.slots), "ratio");
  res.set("smr.replica.pending_peak", static_cast<double>(t.pending_peak), "count");
  res.set("smr.replica.live_instances_peak", static_cast<double>(t.live_peak), "count");
  report_ledger(res, ledger, cmds);
  res.set("consensus.after_commit_frac", per(t.after, t.sent), "ratio");
  res.set("consensus.drain_us_per_cmd", per(median(drain) / 1e3, cmds), "us");
  res.set("consensus.commit_ms_p50", tail_value(res, t.commit_ms, 50, "commit"), "ms");
  res.set("consensus.commit_ms_p99", tail_value(res, t.commit_ms, 99, "commit"), "ms");
  t.shape.report(res);
  t.growth.report(res);
  res.set("sim.self_ms_per_cmd", median(self), "ms");
  res.set("sim.events_per_cmd", per(t.events, cmds), "count");
  res.set("trace.overhead_pct", 100.0 * (per(median(cpu), cpu_ms(first)) - 1.0), "%");
  res.set("trace.cmds_per_s_loss_pct", 0.0, "%");

  SpanFile spans;
  spans.ledger(ledger);
  spans.layer("consensus.drain", t.drain.calls, static_cast<std::uint64_t>(median(drain)));
  spans.layer("smr.replica.submit", t.submit.calls, static_cast<std::uint64_t>(median(submit)));
  spans.layer("sim.run", plans.size(), static_cast<std::uint64_t>(median(run)));
  res.spans = spans.json(args);
  return res;
}

}  // namespace perfbench
