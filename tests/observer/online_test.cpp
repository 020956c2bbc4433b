// The online, incremental lattice analyzer: same verdicts as the batch
// lattice, levels advanced as early as the buffered messages allow,
// violations reported before the trace even ends.
#include "observer/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "../support/fixtures.hpp"
#include "analysis/report.hpp"
#include "logic/monitor.hpp"
#include "logic/parser.hpp"
#include "observer/checkpoint.hpp"
#include "program/corpus.hpp"
#include "trace/codec.hpp"

namespace mpx::observer {
namespace {

using mpx::testing::landingComputation;
using mpx::testing::observe;
using mpx::testing::xyzComputation;

/// All messages of a finalized graph in emission (globalSeq) order.
std::vector<trace::Message> messagesInOrder(const CausalityGraph& g) {
  std::vector<trace::Message> out;
  for (const auto& ref : g.observedOrder()) out.push_back(g.message(ref));
  return out;
}

TEST(OnlineAnalyzer, MatchesBatchLatticeOnLanding) {
  const auto c = landingComputation();
  logic::SynthesizedMonitor batchMon(logic::SpecParser(c.space).parse(
      program::corpus::landingProperty()));
  ComputationLattice batch(c.graph, c.space);
  std::vector<Violation> batchViolations;
  batch.check(batchMon, batchViolations);

  logic::SynthesizedMonitor onlineMon(logic::SpecParser(c.space).parse(
      program::corpus::landingProperty()));
  OnlineAnalyzer online(c.space, c.prog.threadCount(), &onlineMon);
  for (const auto& m : messagesInOrder(c.graph)) online.onMessage(m);
  online.endOfTrace();

  EXPECT_TRUE(online.finished());
  EXPECT_EQ(online.stats().totalNodes, batch.stats().totalNodes);
  EXPECT_EQ(online.stats().pathCount, batch.stats().pathCount);
  EXPECT_EQ(online.stats().levels, batch.stats().levels);
  EXPECT_EQ(online.violations().size(), batchViolations.size());
}

TEST(OnlineAnalyzer, AnyArrivalOrderSameResult) {
  const auto c = xyzComputation();
  auto msgs = messagesInOrder(c.graph);
  std::mt19937_64 rng(7);

  std::optional<std::size_t> nodes;
  std::optional<std::size_t> nViolations;
  for (int round = 0; round < 20; ++round) {
    std::shuffle(msgs.begin(), msgs.end(), rng);
    logic::SynthesizedMonitor mon(
        logic::SpecParser(c.space).parse(program::corpus::xyzProperty()));
    OnlineAnalyzer online(c.space, c.prog.threadCount(), &mon);
    for (const auto& m : msgs) online.onMessage(m);
    online.endOfTrace();
    ASSERT_TRUE(online.finished());
    if (!nodes) {
      nodes = online.stats().totalNodes;
      nViolations = online.violations().size();
    }
    EXPECT_EQ(online.stats().totalNodes, *nodes) << "round " << round;
    EXPECT_EQ(online.violations().size(), *nViolations) << "round " << round;
  }
  EXPECT_EQ(*nodes, 7u);
  EXPECT_EQ(*nViolations, 1u);
}

TEST(OnlineAnalyzer, LevelsAdvanceAsMessagesArrive) {
  const auto c = xyzComputation();
  const auto msgs = messagesInOrder(c.graph);  // e1, e2, e4, e3
  logic::SynthesizedMonitor mon(
      logic::SpecParser(c.space).parse(program::corpus::xyzProperty()));
  OnlineAnalyzer online(c.space, c.prog.threadCount(), &mon);

  EXPECT_EQ(online.levelsCompleted(), 1u);  // level 0 exists
  online.onMessage(msgs[0]);                // e1 = <x=0, T1>
  // T2 stream still unknown; the analyzer cannot rule out that e1 has an
  // enabled sibling — but the frontier cut is level 0 and its T1-successor
  // is available while T2 has no messages... the whole-level rule waits.
  EXPECT_EQ(online.levelsCompleted(), 1u);
  online.onMessage(msgs[1]);  // e2 = <z=1, T2>
  EXPECT_GE(online.levelsCompleted(), 2u);  // level 1 = {S10} computable
  online.onMessage(msgs[2]);  // e4 = <x=1, T2>
  online.onMessage(msgs[3]);  // e3 = <y=1, T1>
  online.endOfTrace();
  EXPECT_TRUE(online.finished());
  EXPECT_EQ(online.levelsCompleted(), 5u);
}

TEST(OnlineAnalyzer, ViolationReportedBeforeEndOfTrace) {
  // Feed all four xyz messages but DO NOT end the trace: the violation is
  // already known (it occurs on the final level, which is computable the
  // moment all its events are present... except the analyzer must wait for
  // possible further events).  So instead check the landing case at an
  // intermediate level: the violating monitor state appears at level 3 of
  // 3 — also final.  The honest early-detection case: a 3-event thread
  // where the violation fires at level 1.
  trace::VarTable dummy;
  program::ProgramBuilder b;
  const VarId x = b.var("x", 0);
  const VarId y = b.var("y", 0);
  auto t1 = b.thread();
  t1.write(x, program::lit(-1)).write(x, program::lit(0));
  auto t2 = b.thread();
  t2.write(y, program::lit(1)).write(y, program::lit(2));
  program::GreedyScheduler sched;
  const auto c = observe(b.build(), sched, {"x", "y"});

  logic::SynthesizedMonitor mon(
      logic::SpecParser(c.space).parse("x >= 0"));
  OnlineAnalyzer online(c.space, c.prog.threadCount(), &mon);
  const auto msgs = messagesInOrder(c.graph);
  // Feed only the first events of each thread: level 1 contains the state
  // x = -1, violating "x >= 0".
  online.onMessage(msgs[0]);  // x = -1 (T1 first)
  ASSERT_GE(msgs.size(), 2u);
  online.onMessage(msgs[2]);  // y = 1 (T2 first)
  EXPECT_GE(online.levelsCompleted(), 2u);
  EXPECT_FALSE(online.violations().empty())
      << "violation should be reported before the trace ends";
  // Finish cleanly.
  online.onMessage(msgs[1]);
  online.onMessage(msgs[3]);
  online.endOfTrace();
  EXPECT_TRUE(online.finished());
}

TEST(OnlineAnalyzer, DuplicateMessageRejected) {
  const auto c = landingComputation();
  OnlineAnalyzer online(c.space, c.prog.threadCount(), nullptr);
  const auto msgs = messagesInOrder(c.graph);
  online.onMessage(msgs[0]);
  EXPECT_THROW(online.onMessage(msgs[0]), std::runtime_error);
}

TEST(OnlineAnalyzer, GapAtEndOfTraceRejected) {
  const auto c = landingComputation();
  OnlineAnalyzer online(c.space, c.prog.threadCount(), nullptr);
  const auto msgs = messagesInOrder(c.graph);
  // Drop the first T1 message but keep the second: a gap.
  for (std::size_t i = 1; i < msgs.size(); ++i) online.onMessage(msgs[i]);
  EXPECT_THROW(online.endOfTrace(), std::runtime_error);
}

TEST(OnlineAnalyzer, MessageAfterEndRejected) {
  const auto c = landingComputation();
  OnlineAnalyzer online(c.space, c.prog.threadCount(), nullptr);
  for (const auto& m : messagesInOrder(c.graph)) online.onMessage(m);
  online.endOfTrace();
  EXPECT_THROW(online.onMessage(messagesInOrder(c.graph)[0]),
               std::logic_error);
}

TEST(OnlineAnalyzer, StructureOnlyModeCountsRuns) {
  const auto c = landingComputation();
  OnlineAnalyzer online(c.space, c.prog.threadCount(), nullptr);
  for (const auto& m : messagesInOrder(c.graph)) online.onMessage(m);
  online.endOfTrace();
  EXPECT_EQ(online.stats().pathCount, 3u);
  EXPECT_EQ(online.stats().totalNodes, 6u);
  EXPECT_TRUE(online.violations().empty());
}

TEST(OnlineAnalyzer, RandomProgramsMatchBatch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    program::corpus::RandomProgramOptions opts;
    opts.threads = 3;
    opts.vars = 2;
    opts.opsPerThread = 5;
    program::RandomScheduler sched(seed * 5 + 1);
    const auto c = observe(program::corpus::randomProgram(seed, opts), sched,
                           {"g0", "g1"});

    const std::string spec = "historically g0 <= g1 + 6";
    logic::SynthesizedMonitor batchMon(logic::SpecParser(c.space).parse(spec));
    ComputationLattice batch(c.graph, c.space);
    std::vector<Violation> batchViolations;
    batch.check(batchMon, batchViolations);

    logic::SynthesizedMonitor onlineMon(
        logic::SpecParser(c.space).parse(spec));
    OnlineAnalyzer online(c.space, c.prog.threadCount(), &onlineMon);
    auto msgs = messagesInOrder(c.graph);
    std::mt19937_64 rng(seed);
    std::shuffle(msgs.begin(), msgs.end(), rng);
    for (const auto& m : msgs) online.onMessage(m);
    online.endOfTrace();

    EXPECT_EQ(online.stats().totalNodes, batch.stats().totalNodes)
        << "seed " << seed;
    EXPECT_EQ(online.stats().pathCount, batch.stats().pathCount);
    EXPECT_EQ(online.violations().empty(), batchViolations.empty());
  }
}

/// Brute-force pending count: delivered messages beyond the consumption
/// watermark.
std::size_t recountPending(const OnlineAnalyzer& online,
                           const std::vector<trace::Message>& delivered) {
  std::size_t pending = 0;
  for (const auto& m : delivered) {
    const ThreadId j = m.event.thread;
    if (m.clock[j] > online.consumedK()[j]) ++pending;
  }
  return pending;
}

TEST(OnlineAnalyzer, PendingCountMatchesRecountUnderShuffleAndBudget) {
  // Shedding can drop the cut that held a thread's highest index; that
  // thread's watermark then falls and its messages count as pending again.
  // (Seed 8 has such a level.)
  std::size_t sheddingRuns = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    program::corpus::RandomProgramOptions popts;
    popts.threads = 3 + seed % 2;
    popts.vars = 2;
    popts.opsPerThread = 10;
    program::RandomScheduler sched(seed * 3 + 2);
    const auto c = observe(program::corpus::randomProgram(seed, popts), sched,
                           {"g0", "g1"});
    auto msgs = messagesInOrder(c.graph);
    std::mt19937_64 rng(seed);
    std::shuffle(msgs.begin(), msgs.end(), rng);

    for (const std::size_t maxFrontier : {std::size_t{0}, std::size_t{2}}) {
      LatticeOptions opts;
      opts.maxFrontier = maxFrontier;
      logic::SynthesizedMonitor mon(
          logic::SpecParser(c.space).parse("historically g0 <= g1 + 6"));
      OnlineAnalyzer online(c.space, c.prog.threadCount(), &mon, opts);
      std::vector<trace::Message> delivered;
      for (const auto& m : msgs) {
        online.onMessage(m);
        delivered.push_back(m);
        ASSERT_EQ(online.pendingMessages(), recountPending(online, delivered))
            << "seed " << seed << " maxFrontier " << maxFrontier
            << " after " << delivered.size() << " messages";
      }
      online.endOfTrace();
      ASSERT_TRUE(online.finished());
      EXPECT_EQ(online.pendingMessages(), 0u);
      if (online.stats().droppedNodes > 0) ++sheddingRuns;
    }
  }
  EXPECT_GT(sheddingRuns, 0u) << "the budget arm never shed a node";
}

/// Message count per thread in a checkpoint blob's buffer section, whose
/// byte range lands in `begin`/`end` (layout: OnlineAnalyzer::checkpoint).
std::vector<std::uint64_t> bufferedPerThread(
    const std::vector<std::uint8_t>& blob, std::size_t* begin = nullptr,
    std::size_t* end = nullptr) {
  ckpt::Reader r(blob);
  (void)r.u8();  // version
  const std::uint64_t threads = r.u64();
  (void)r.boolean();  // ended
  (void)r.boolean();  // finished
  (void)r.u64();      // pending
  for (std::uint64_t j = 0; j < threads; ++j) (void)r.u64();  // consumedK
  if (begin != nullptr) *begin = blob.size() - r.remaining();
  std::vector<std::uint64_t> counts;
  for (std::uint64_t j = 0; j < threads; ++j) {
    counts.push_back(r.u64());
    for (std::uint64_t i = 0; i < counts.back(); ++i) {
      (void)r.u64();  // k
      std::vector<std::uint8_t> enc(r.u64());
      EXPECT_TRUE(r.raw(enc.data(), enc.size()));
    }
  }
  if (end != nullptr) *end = blob.size() - r.remaining();
  EXPECT_TRUE(r.ok());
  return counts;
}

/// Two threads taking strict turns: every message's clock covers the
/// previous one, so the lattice is a single path and the frontier one cut.
std::vector<trace::Message> alternatingPath(std::size_t n) {
  std::vector<trace::Message> msgs;
  std::uint64_t own[2] = {0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const ThreadId t = static_cast<ThreadId>(i % 2);
    trace::Message m;
    m.event.kind = trace::EventKind::kInternal;
    m.event.thread = t;
    m.event.localSeq = ++own[t];
    m.event.globalSeq = i;
    m.clock = vc::VectorClock(2);
    m.clock.set(t, own[t]);
    m.clock.set(1 - t, own[1 - t]);
    msgs.push_back(std::move(m));
  }
  return msgs;
}

TEST(OnlineAnalyzer, DuplicateOfCollectedMessageRejected) {
  const auto msgs = alternatingPath(10);
  OnlineAnalyzer online(StateSpace(), 2, nullptr);
  for (const auto& m : msgs) online.onMessage(m);
  // The first message left the buffer levels ago; a replay is still a
  // duplicate, not a new event.
  EXPECT_THROW(online.onMessage(msgs[0]), std::runtime_error);
}

TEST(OnlineAnalyzer, BufferStaysBoundedOnLongPathTrace) {
  constexpr std::size_t kMessages = 4000;
  auto msgs = alternatingPath(kMessages);
  // Local disorder within windows of 32, as a network would deliver.
  std::mt19937_64 rng(11);
  for (std::size_t b = 0; b < msgs.size(); b += 32) {
    std::shuffle(msgs.begin() + static_cast<std::ptrdiff_t>(b),
                 msgs.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(b + 32, msgs.size())),
                 rng);
  }

  OnlineAnalyzer online(StateSpace(), 2, nullptr);
  std::uint64_t peak = 0;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    online.onMessage(msgs[i]);
    if (i % 97 != 0 && i + 1 != msgs.size()) continue;
    ckpt::Writer w;
    online.checkpoint(w);
    const auto counts = bufferedPerThread(w.data());
    const std::uint64_t buffered = counts[0] + counts[1];
    // One consumed message per thread stays (the frontier cut's own
    // event); everything else buffered is still pending.
    ASSERT_LE(buffered, 2 + online.pendingMessages()) << "after " << i + 1;
    peak = std::max(peak, buffered);
  }
  online.endOfTrace();
  EXPECT_TRUE(online.finished());
  EXPECT_EQ(online.levelsCompleted(), kMessages + 1);
  EXPECT_LT(peak, 100u) << "buffer grew with the trace";
}

TEST(OnlineAnalyzer, RestoreFromCollectedAndFullBufferCheckpoints) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    program::corpus::RandomProgramOptions popts;
    popts.threads = 3;
    popts.vars = 2;
    popts.opsPerThread = 10;
    program::RandomScheduler sched(seed * 7 + 3);
    const auto c = observe(program::corpus::randomProgram(seed, popts), sched,
                           {"g0", "g1"});
    auto msgs = messagesInOrder(c.graph);
    std::mt19937_64 rng(seed + 100);
    std::shuffle(msgs.begin(), msgs.end(), rng);
    const std::string spec = "historically g0 <= g1 + 2";
    const std::size_t threads = c.prog.threadCount();

    logic::SynthesizedMonitor refMon(logic::SpecParser(c.space).parse(spec));
    OnlineAnalyzer ref(c.space, threads, &refMon);
    for (const auto& m : msgs) ref.onMessage(m);
    ref.endOfTrace();
    const std::string want = analysis::renderViolationReport(
        c.space, ref.violations(), ref.stats(), ref.finished());

    for (std::size_t cutAt = 1; cutAt < msgs.size(); cutAt += 3) {
      logic::SynthesizedMonitor liveMon(
          logic::SpecParser(c.space).parse(spec));
      OnlineAnalyzer live(c.space, threads, &liveMon);
      for (std::size_t i = 0; i < cutAt; ++i) live.onMessage(msgs[i]);
      ckpt::Writer w;
      live.checkpoint(w);
      const std::vector<std::uint8_t> collected = w.take();

      // The same checkpoint with every delivered message buffered, as an
      // analyzer that never collects consumed messages writes it.
      std::size_t begin = 0;
      std::size_t end = 0;
      (void)bufferedPerThread(collected, &begin, &end);
      ckpt::Writer full;
      full.bytes(collected.data(), begin);
      for (ThreadId j = 0; j < threads; ++j) {
        std::vector<const trace::Message*> mine;
        for (std::size_t i = 0; i < cutAt; ++i) {
          if (msgs[i].event.thread == j) mine.push_back(&msgs[i]);
        }
        std::sort(mine.begin(), mine.end(), [j](const auto* a, const auto* b) {
          return a->clock[j] < b->clock[j];
        });
        full.u64(mine.size());
        for (const trace::Message* m : mine) {
          full.u64(m->clock[j]);
          std::vector<std::uint8_t> enc;
          trace::BinaryCodec::encode(*m, enc);
          full.u64(enc.size());
          full.bytes(enc.data(), enc.size());
        }
      }
      full.bytes(collected.data() + end, collected.size() - end);

      // A pending count that disagrees with the buffer marks a corrupt
      // snapshot (the count is kept incrementally from here on).
      std::vector<std::uint8_t> corrupt = collected;
      ++corrupt[1 + 8 + 2];  // after version, thread count, two flags
      logic::SynthesizedMonitor badMon(logic::SpecParser(c.space).parse(spec));
      OnlineAnalyzer rejected(c.space, threads, &badMon);
      ckpt::Reader badReader(corrupt);
      EXPECT_FALSE(rejected.restore(badReader)) << "seed " << seed;

      for (const auto* blob : {&collected, &full.data()}) {
        logic::SynthesizedMonitor mon(logic::SpecParser(c.space).parse(spec));
        OnlineAnalyzer restored(c.space, threads, &mon);
        ckpt::Reader r(*blob);
        ASSERT_TRUE(restored.restore(r)) << "seed " << seed;
        EXPECT_EQ(restored.pendingMessages(), live.pendingMessages());
        // A restored analyzer writes the collected form either way.
        ckpt::Writer again;
        restored.checkpoint(again);
        EXPECT_EQ(again.data(), collected)
            << "seed " << seed << " cut at " << cutAt;
        for (std::size_t i = cutAt; i < msgs.size(); ++i) {
          restored.onMessage(msgs[i]);
        }
        restored.endOfTrace();
        EXPECT_EQ(analysis::renderViolationReport(
                      c.space, restored.violations(), restored.stats(),
                      restored.finished()),
                  want)
            << "seed " << seed << " cut at " << cutAt
            << (blob == &collected ? " (collected)" : " (full buffer)");
      }
    }
  }
}

}  // namespace
}  // namespace mpx::observer
