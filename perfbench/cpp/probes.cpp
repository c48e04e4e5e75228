#include "probes.hpp"

#include <algorithm>

namespace perfbench {

ProbedActor::ProbedActor(std::unique_ptr<dex::smr::Replica> replica,
                         std::size_t n, bool timed,
                         std::function<std::uint64_t()> clock)
    : replica_(std::move(replica)), n_(n), timed_(timed),
      clock_(std::move(clock)) {}

bool ProbedActor::crashed() const {
  return crash_at_.has_value() && clock_() >= *crash_at_;
}

void ProbedActor::start() {
  if (crashed()) return;
  timed_call(timed_, probe_.start, [&] { replica_->start(); });
  note_progress();
}

void ProbedActor::submit(const dex::smr::Command& cmd) {
  if (crashed()) return;
  timed_call(timed_, probe_.submit, [&] { replica_->submit(cmd); });
  note_progress();
}

void ProbedActor::on_packet(dex::ProcessId src, const dex::Message& msg) {
  const auto ch = static_cast<std::size_t>(classify(msg));
  ++probe_.ledger.pkts[ch];
  probe_.ledger.bytes[ch] += msg.encoded_size();
  if (crashed()) return;
  const std::size_t at_log = replica_->log().size();
  if (timed_) {
    const std::uint64_t t0 = now_ns();
    replica_->on_packet(src, msg);
    const std::uint64_t dt = now_ns() - t0;
    probe_.ledger.ns[ch] += dt;
    if (probe_.growth_ns.size() <= at_log) {
      probe_.growth_ns.resize(at_log + 1, 0);
      probe_.growth_pkts.resize(at_log + 1, 0);
    }
    probe_.growth_ns[at_log] += dt;
    ++probe_.growth_pkts[at_log];
  } else {
    replica_->on_packet(src, msg);
  }
  note_progress();
}

std::vector<dex::Outgoing> ProbedActor::drain() {
  if (crashed()) return {};
  std::vector<dex::Outgoing> out =
      timed_call(timed_, probe_.drain, [&] { return replica_->drain(); });
  const std::size_t committed = replica_->log().size();
  for (const dex::Outgoing& o : out) {
    const std::uint64_t fan = o.dst == dex::kBroadcastDst ? n_ : 1;
    probe_.sent += fan;
    if (o.msg.instance < committed) probe_.sent_after_commit += fan;
    if (classify(o.msg) != Channel::kDissem) continue;
    try {
      const dex::Value d = dex::smr::Command::from_bytes(o.msg.payload).digest();
      probe_.first_dissem.try_emplace(d, clock_());
    } catch (const dex::DecodeError&) {
    }
  }
  return out;
}

void ProbedActor::note_progress() {
  const auto& log = replica_->log();
  if (log.size() > probe_.commit_at.size()) {
    probe_.commit_at.resize(log.size(), clock_());
  }
  probe_.pending_peak = std::max(probe_.pending_peak, replica_->pending_count());
}

void ProbedTransport::send(dex::ProcessId dst, dex::Message msg) {
  timed_call(timed_, send_t, [&] { inner_.send(dst, std::move(msg)); });
}

void ProbedTransport::send_batch(dex::ProcessId dst,
                                 std::vector<dex::Message> msgs) {
  timed_call(timed_, send_t,
             [&] { inner_.send_batch(dst, std::move(msgs)); });
}

void ProbedTransport::broadcast(const dex::Message& msg) {
  timed_call(timed_, send_t, [&] { inner_.broadcast(msg); });
}

void ProbedTransport::flush() {
  timed_call(timed_, flush_t, [&] { inner_.flush(); });
}

std::optional<dex::transport::Incoming> ProbedTransport::recv(
    std::chrono::milliseconds timeout) {
  return timed_call(timed_, recv_t, [&] { return inner_.recv(timeout); });
}

}  // namespace perfbench
