// Self-tests for the benchmark's own pieces: the channel classifier, the
// percentile rule, due-time lateness under a stalled generator and the span
// tiler. run.py runs them before every measurement.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>

#include "ledger.hpp"

namespace perfbench {
namespace {

namespace chan = dex::chan;
using dex::MsgKind;

TEST(Classifier, EveryChannelTimesEveryKind) {
  const std::uint64_t ids[] = {0,
                               chan::kDexProposalPlain,
                               chan::kDexProposalIdb,
                               chan::kUcPhase,
                               chan::kUcDecide,
                               chan::kBoscoVote,
                               chan::kCrashProp,
                               chan::kSmrDissem,
                               8ULL << chan::kShift};
  // (channel id, kind) -> expected; everything unlisted is kOther.
  const std::map<std::pair<std::uint64_t, MsgKind>, Channel> expect = {
      {{chan::kDexProposalPlain, MsgKind::kPlain}, Channel::kDexPlain},
      {{chan::kDexProposalIdb, MsgKind::kIdbInit}, Channel::kDexIdbInit},
      {{chan::kDexProposalIdb, MsgKind::kIdbEcho}, Channel::kDexIdbEcho},
      {{chan::kUcDecide, MsgKind::kPlain}, Channel::kUcDecide},
      {{chan::kSmrDissem, MsgKind::kPlain}, Channel::kDissem},
  };
  for (const std::uint64_t id : ids) {
    for (const MsgKind k : {MsgKind::kPlain, MsgKind::kIdbInit, MsgKind::kIdbEcho,
                            static_cast<MsgKind>(7)}) {
      if (id == chan::kUcPhase) continue;  // phase-dependent, below
      const auto it = expect.find({id, k});
      const Channel want = it == expect.end() ? Channel::kOther : it->second;
      // The low 32 bits are per-channel sequencing and never change the class.
      EXPECT_EQ(classify(k, id), want) << id << " kind " << int(k);
      EXPECT_EQ(classify(k, id | 0x1234u), want) << id << " kind " << int(k);
    }
  }
}

TEST(Classifier, UcPhasesSplitEstFromAux) {
  for (const std::uint32_t round : {0u, 1u, 77u}) {
    EXPECT_EQ(classify(MsgKind::kIdbInit, chan::uc_phase_tag(round, 1)), Channel::kUcEstInit);
    EXPECT_EQ(classify(MsgKind::kIdbEcho, chan::uc_phase_tag(round, 1)), Channel::kUcEstEcho);
    EXPECT_EQ(classify(MsgKind::kIdbInit, chan::uc_phase_tag(round, 2)), Channel::kUcAuxInit);
    EXPECT_EQ(classify(MsgKind::kIdbEcho, chan::uc_phase_tag(round, 2)), Channel::kUcAuxEcho);
    // A plain-kind UC phase frame or an unknown phase byte is never dropped.
    EXPECT_EQ(classify(MsgKind::kPlain, chan::uc_phase_tag(round, 1)), Channel::kOther);
    EXPECT_EQ(classify(MsgKind::kIdbInit, chan::uc_phase_tag(round, 3)), Channel::kOther);
  }
}

TEST(Classifier, NamesAreDistinct) {
  std::map<std::string, int> seen;
  for (std::size_t c = 0; c < kChannels; ++c) ++seen[channel_name(static_cast<Channel>(c))];
  EXPECT_EQ(seen.size(), kChannels);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(9), std::nullopt);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 75.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(Percentile, FailuresCountAsInfinity) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 500);
  EXPECT_EQ(percentile(v, 99), 990);
  EXPECT_EQ(supported_percentile(v, 99), 990);
  EXPECT_EQ(supported_percentile(v, 99.9), std::nullopt);
  // Eleven failures push the p99 (ten samples beyond it) to +inf.
  for (int i = 0; i < 11; ++i) v[static_cast<std::size_t>(i)] = kInf;
  EXPECT_TRUE(std::isinf(percentile(v, 99)));
  EXPECT_EQ(percentile(v, 50), 511);
}

TEST(Lateness, StalledGeneratorShowsFromTheDueTime) {
  // 100 cmds/s; the generator stalls 50 ms at command 10, so commands 10..14
  // leave late. Service takes 1 ms from the send.
  const auto due = paced_schedule(7, 100, 40);
  ASSERT_EQ(due.size(), 40u);
  for (std::size_t k = 1; k < due.size(); ++k) EXPECT_LE(due[k - 1], due[k]);
  const std::uint64_t stall_end = due[10] + 50'000'000;
  std::vector<CommandTimes> cs;
  for (std::size_t k = 0; k < due.size(); ++k) {
    CommandTimes c;
    c.due = due[k];
    c.send = k >= 10 ? std::max(due[k], stall_end) : due[k];
    c.ack = c.send + 1'000'000;
    cs.push_back(c);
  }
  double worst_late = 0, worst_from_due = 0, worst_from_send = 0;
  for (const auto& c : cs) {
    worst_late = std::max(worst_late, lateness_ms(c));
    worst_from_due = std::max(worst_from_due, ack_latency_ms(c, true));
    worst_from_send = std::max(worst_from_send, ack_latency_ms(c, false));
  }
  EXPECT_NEAR(worst_late, 50.0, 1e-6);
  EXPECT_NEAR(worst_from_due, 51.0, 1e-6);   // the stall is charged
  EXPECT_NEAR(worst_from_send, 1.0, 1e-6);   // timing from the send hides it
  CommandTimes lost = cs[0];
  lost.ack = 0;
  EXPECT_TRUE(std::isinf(ack_latency_ms(lost, true)));
}

TEST(Lateness, ScheduleIsSeededAndHoldsTheRate) {
  EXPECT_EQ(paced_schedule(3, 100, 50), paced_schedule(3, 100, 50));
  EXPECT_NE(paced_schedule(3, 100, 50), paced_schedule(4, 100, 50));
  const auto due = paced_schedule(3, 100, 1000);
  EXPECT_NEAR(static_cast<double>(due.back()) / 1e9, 10.0, 0.02);
}

TEST(Tiling, AcceptsExactTilesAndRejectsAGap) {
  CommandTimes c{100, 110, 130, 160, 200, 250};
  const auto spans = command_spans(c);
  EXPECT_EQ(check_tiling(Span{c.due, c.ack}, spans, 1), "");

  auto gap = spans;
  gap[2].start += 5;  // 5 ns nobody accounts for
  EXPECT_NE(check_tiling(Span{c.due, c.ack}, gap, 1), "");
  EXPECT_EQ(check_tiling(Span{c.due, c.ack}, gap, 5), "");  // within tolerance

  auto overlap = spans;
  overlap[3].start -= 4;
  EXPECT_NE(check_tiling(Span{c.due, c.ack}, overlap, 1), "");

  CommandTimes backwards = c;
  backwards.commit = 150;  // commit seen before the digest went out
  EXPECT_NE(check_tiling(Span{backwards.due, backwards.ack}, command_spans(backwards), 1), "");

  auto short_end = spans;
  short_end[4].end -= 10;
  EXPECT_NE(check_tiling(Span{c.due, c.ack}, short_end, 1), "");
}

}  // namespace
}  // namespace perfbench
