// AnalyzerSession dedup and checkpoint layout: duplicates are recognised
// from the analyzer's own state (consumed prefix + buffer), before and
// after a restore, and the checkpoint carries no per-message dedup record.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/session.hpp"
#include "core/instrumentor.hpp"
#include "observer/checkpoint.hpp"
#include "program/corpus.hpp"
#include "program/scheduler.hpp"
#include "trace/channel.hpp"

namespace mpx::analysis {
namespace {

using Ingest = AnalyzerSession::Ingest;

/// serializedWriters(threads, writesEach) under a seeded schedule, with
/// every write of `total` relevant: a path lattice of threads * writesEach
/// messages, in emission order.
std::vector<trace::Message> serializedMessages(std::size_t threads,
                                               std::size_t writesEach,
                                               AnalyzerSession::Config& cfg) {
  const program::Program prog =
      program::corpus::serializedWriters(threads, writesEach);
  const program::ExecutionRecord rec = program::runProgramRandom(prog, 7);
  trace::CollectingSink sink;
  core::Instrumentor instr(
      core::RelevancePolicy::writesOf({prog.vars.id("total")}), sink);
  for (const trace::Event& e : rec.events) instr.onEvent(e);

  cfg.threads = static_cast<std::uint32_t>(threads);
  cfg.specs = {"total >= 0"};
  cfg.handshakeSpecs = cfg.specs;
  cfg.tracked = {"total"};
  cfg.vars = prog.vars;
  return sink.take();
}

std::unique_ptr<AnalyzerSession> roundTrip(AnalyzerSession& s) {
  observer::ckpt::Writer w;
  s.checkpoint(w);
  const std::vector<std::uint8_t> blob = w.take();
  observer::ckpt::Reader r(blob);
  return AnalyzerSession::restore(r);
}

/// Byte offset in a v3 session blob where v2 kept its dedup bitmaps: after
/// the config and the session bookkeeping (layout: checkpoint()).
std::size_t bitmapOffset(const std::vector<std::uint8_t>& blob) {
  observer::ckpt::Reader r(blob);
  (void)r.u8();   // version
  (void)r.u32();  // threads
  for (int list = 0; list < 4; ++list) {  // specs, handshake, tracked, analyses
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) (void)r.str();
  }
  const std::uint32_t vars = r.u32();
  for (std::uint32_t v = 0; v < vars; ++v) {
    (void)r.str();
    (void)r.i64();
    (void)r.u8();
  }
  (void)r.u64();  // expectedStreams
  (void)r.u8();   // retention
  (void)r.u64();  // maxNodesPerLevel
  (void)r.u64();  // maxViolations
  (void)r.boolean();  // recordPaths
  for (int i = 0; i < 6; ++i) (void)r.u64();  // beam .. minFrontier
  (void)r.u64();      // streamsEnded
  (void)r.boolean();  // finished
  (void)r.str();      // streamError
  (void)r.u64();      // epoch
  (void)r.u64();      // restoreCount
  EXPECT_TRUE(r.ok());
  return blob.size() - r.remaining();
}

TEST(AnalyzerSession, RestoredSessionRejectsCollectedAndBufferedIndices) {
  AnalyzerSession::Config cfg;
  const auto msgs = serializedMessages(2, 20, cfg);
  ASSERT_EQ(msgs.size(), 40u);
  // Hold back message 30: the path lattice stops below it, so 31..39 stay
  // buffered while 0..29 are consumed (and the early ones collected).
  constexpr std::size_t kHeld = 30;
  AnalyzerSession live(cfg);
  const char* err = nullptr;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    if (i == kHeld) continue;
    ASSERT_EQ(live.ingest(msgs[i], &err), Ingest::kIngested) << i;
  }
  ASSERT_EQ(live.pendingMessages(), msgs.size() - kHeld - 1);

  auto restored = roundTrip(live);
  ASSERT_NE(restored, nullptr);
  for (AnalyzerSession* s : {&live, restored.get()}) {
    EXPECT_EQ(s->ingest(msgs[0], &err), Ingest::kDuplicate);  // collected
    EXPECT_EQ(s->ingest(msgs[kHeld - 1], &err), Ingest::kDuplicate);
    EXPECT_EQ(s->ingest(msgs[kHeld + 1], &err), Ingest::kDuplicate);  // buffered
    EXPECT_EQ(s->ingest(msgs.back(), &err), Ingest::kDuplicate);
  }
  ASSERT_EQ(restored->ingest(msgs[kHeld], &err), Ingest::kIngested);
  EXPECT_EQ(restored->ingest(msgs[kHeld], &err), Ingest::kDuplicate);
  restored->noteStreamEnd();
  EXPECT_TRUE(restored->finished()) << restored->streamError();
}

TEST(AnalyzerSession, VersionTwoBlobWithDedupBitmapsStillRestores) {
  AnalyzerSession::Config cfg;
  const auto msgs = serializedMessages(2, 10, cfg);
  const std::size_t half = msgs.size() / 2;

  AnalyzerSession ref(cfg);
  const char* err = nullptr;
  for (const auto& m : msgs) ASSERT_EQ(ref.ingest(m, &err), Ingest::kIngested);
  ref.noteStreamEnd();
  ASSERT_TRUE(ref.finished());

  AnalyzerSession live(cfg);
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_EQ(live.ingest(msgs[i], &err), Ingest::kIngested);
  }
  observer::ckpt::Writer w;
  live.checkpoint(w);
  const std::vector<std::uint8_t> v3 = w.take();

  // The same blob in the v2 layout: per thread, the count and the sorted
  // own-clock indices ingested so far, spliced in before the analyzer.
  const auto v2Blob = [&](std::uint64_t hostileIndex) {
    const std::size_t at = bitmapOffset(v3);
    observer::ckpt::Writer v2;
    v2.u8(2);
    v2.bytes(v3.data() + 1, at - 1);
    for (ThreadId j = 0; j < cfg.threads; ++j) {
      std::vector<std::uint64_t> ks;
      for (std::size_t i = 0; i < half; ++i) {
        if (msgs[i].event.thread == j) ks.push_back(msgs[i].clock[j]);
      }
      if (hostileIndex != 0 && j == 0) ks.push_back(hostileIndex);
      std::sort(ks.begin(), ks.end());
      v2.u64(ks.size());
      for (const std::uint64_t k : ks) v2.u64(k);
    }
    v2.bytes(v3.data() + at, v3.size() - at);
    return v2.take();
  };

  const std::vector<std::uint8_t> good = v2Blob(0);
  observer::ckpt::Reader r(good);
  auto restored = AnalyzerSession::restore(r);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(restored->ingest(msgs[0], &err), Ingest::kDuplicate);
  for (std::size_t i = half; i < msgs.size(); ++i) {
    ASSERT_EQ(restored->ingest(msgs[i], &err), Ingest::kIngested) << i;
  }
  restored->noteStreamEnd();
  ASSERT_TRUE(restored->finished()) << restored->streamError();
  EXPECT_EQ(restored->renderReport(), ref.renderReport());

  // An index beyond the own-clock cap marks the snapshot corrupt.
  const std::vector<std::uint8_t> hostile = v2Blob((1u << 24) + 1);
  observer::ckpt::Reader bad(hostile);
  EXPECT_EQ(AnalyzerSession::restore(bad), nullptr);
}

TEST(AnalyzerSession, CheckpointKeepsNoPerMessageDedupRecord) {
  AnalyzerSession::Config cfg;
  const auto msgs = serializedMessages(2, 2000, cfg);
  ASSERT_EQ(msgs.size(), 4000u);
  AnalyzerSession s(cfg);
  const char* err = nullptr;
  std::size_t at3000 = 0;
  std::size_t at4000 = 0;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    ASSERT_EQ(s.ingest(msgs[i], &err), Ingest::kIngested) << i;
    if (i + 1 == 3000 || i + 1 == 4000) {
      observer::ckpt::Writer w;
      s.checkpoint(w);
      (i + 1 == 3000 ? at3000 : at4000) = w.size();
    }
  }
  // The v2 layout, with a dedup bitmap of one u64 per ingested message,
  // grew by 46508 B over these 1000 messages (132889 B -> 179397 B).
  // Without the bitmap the growth must be at least 8 B per message less.
  constexpr std::size_t kBitmapLayoutGrowth = 46508;
  EXPECT_LE(at4000 - at3000 + 8 * 1000, kBitmapLayoutGrowth)
      << "checkpoint at 3000 messages: " << at3000 << " B, at 4000: "
      << at4000 << " B";
}

}  // namespace
}  // namespace mpx::analysis
