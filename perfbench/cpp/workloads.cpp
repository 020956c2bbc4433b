#include "workloads.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "analysis/report.hpp"
#include "core/instrumentor.hpp"
#include "observer/online.hpp"
#include "program/corpus.hpp"
#include "program/program.hpp"
#include "program/scheduler.hpp"
#include "trace/channel.hpp"

namespace perfbench {

namespace {

/// SplitMix64: derives independent per-trace seeds from the workload seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// FNV-1a over the generated inputs and reference results.
struct Fingerprint {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

// ingest_narrow: every increment of `total` holds lock m, so the relevant
// messages form one chain (a path lattice) however the seed schedules the
// 16 threads; 16 threads make kAuto pick the tree clock.
constexpr std::size_t kNarrowThreads = 16;
constexpr std::size_t kNarrowWritesEach = 128;
constexpr std::size_t kNarrowPool = 8;

// wide_lattice: 4 threads, each writing its own tracked variable; a few
// writes happen under one lock that also bumps a shared counter, which is
// the only cross-thread ordering.  Programs are drawn until the lattice
// size falls in a fixed band, so the work per trace barely depends on the
// seed.
constexpr std::size_t kWideThreads = 4;
constexpr std::size_t kWideWritesEach = 8;
constexpr std::uint64_t kWideLockedPercent = 15;
constexpr std::size_t kWidePool = 64;
constexpr std::size_t kWideMinNodes = 3000;
constexpr std::size_t kWideMaxNodes = 4500;
constexpr std::size_t kWideMaxDraws = 5000;
const std::vector<std::string> kWideSpecs = {
    "!(g0 = 9 && g1 = 9 && g2 = 9)",
    "g3 > 7 -> [g0 <= 6, g1 > 8)",
    "!(g2 + g3 > 17)",
};

// threads_runtime: each app thread's script performs exactly this mix
// (8000 shared accesses, 10% of them relevant).  The daemon analyses a
// message a little slower than the two threads emit one, so a backlog
// builds over the trace and the verdict wait is mostly that work rather
// than thread wake-ups.
constexpr std::uint32_t kRuntimeIrrelevantEach = 6400;
constexpr std::uint32_t kRuntimeRelevantEach = 800;
constexpr std::uint32_t kRuntimeLockPairsEach = 400;
// Traces per run: when the two threads' last messages go out relative to
// close() depends on the block order, so a run cycles through many.
constexpr std::size_t kRuntimePool = 16;

/// Runs `prog` under a seeded random schedule and Algorithm A; the
/// reference fields stay empty (see referenceReport).
VmTrace recordVmTrace(const program::Program& prog, std::uint64_t schedSeed,
                      const std::vector<std::string>& specs,
                      const std::vector<std::string>& tracked) {
  VmTrace t;
  program::RandomScheduler sched(schedSeed);
  program::ExecutionRecord rec = program::runProgram(prog, sched);
  if (rec.deadlocked) throw std::runtime_error("generated program deadlocked");
  t.events = std::move(rec.events);
  for (const std::string& name : tracked) {
    t.relevantVars.insert(prog.vars.id(name));
  }
  const auto threads = static_cast<std::uint32_t>(prog.threadCount());
  t.handshake = net::makeHandshake(threads, specs, tracked, prog.vars);

  trace::CollectingSink sink;
  core::Instrumentor instr(core::RelevancePolicy::writesOf(t.relevantVars),
                           sink);
  instr.reserve(threads, prog.vars.size());
  for (const trace::Event& e : t.events) instr.onEvent(e);
  t.messages = sink.take();
  return t;
}

/// Lattice nodes of `t`'s computation (a structure-only pass: cheaper than
/// the reference, which also runs the monitors).
std::size_t latticeNodes(const VmTrace& t) {
  const analysis::AnalyzerSession::Config cfg = sessionConfig(t.handshake);
  observer::OnlineAnalyzer a(
      observer::StateSpace::byNames(cfg.vars, cfg.tracked), cfg.threads,
      static_cast<observer::LatticeMonitor*>(nullptr), cfg.lattice);
  for (const trace::Message& m : t.messages) a.onMessage(m);
  a.endOfTrace();
  return a.stats().totalNodes;
}

std::vector<VmTrace> narrowPool(std::uint64_t seed) {
  const program::Program prog =
      program::corpus::serializedWriters(kNarrowThreads, kNarrowWritesEach);
  std::vector<VmTrace> out;
  for (std::size_t i = 0; i < kNarrowPool; ++i) {
    out.push_back(recordVmTrace(prog, mix(seed ^ (i + 1)), {"total >= 0"},
                                {"total"}));
    VmTrace& t = out.back();
    t.reference = referenceReport(t.handshake, t.messages, &t.stats);
  }
  return out;
}

/// `prefix` followed by `i` ("g0", "w3", ...).
std::string indexed(const char* prefix, std::size_t i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

program::Program wideProgram(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  program::ProgramBuilder b;
  std::vector<VarId> g;
  for (std::size_t i = 0; i < kWideThreads; ++i) {
    g.push_back(b.var(indexed("g", i), static_cast<Value>(rng() % 5)));
  }
  const VarId shared = b.var("s", 0);
  const LockId lock = b.lock("L");
  for (std::size_t i = 0; i < kWideThreads; ++i) {
    auto t = b.thread(indexed("w", i));
    for (std::size_t k = 0; k < kWideWritesEach; ++k) {
      if (rng() % 100 < kWideLockedPercent) {
        t.lockAcquire(lock)
            .read(shared, 0)
            .write(shared, program::reg(0) + program::lit(1))
            .write(g[i], program::reg(0) % program::lit(10))
            .lockRelease(lock);
      } else {
        t.write(g[i], program::lit(static_cast<Value>(rng() % 10)));
      }
    }
  }
  return b.build();
}

std::vector<VmTrace> widePool(std::uint64_t seed) {
  const std::vector<std::string> tracked = {"g0", "g1", "g2", "g3"};
  std::vector<VmTrace> out;
  for (std::size_t draw = 0; out.size() < kWidePool; ++draw) {
    if (draw == kWideMaxDraws) {
      throw std::runtime_error("wide_lattice: too few programs in the band");
    }
    const std::uint64_t s = mix(seed ^ (draw + 1));
    VmTrace t = recordVmTrace(wideProgram(s), mix(s), kWideSpecs, tracked);
    const std::size_t nodes = latticeNodes(t);
    if (nodes >= kWideMinNodes && nodes <= kWideMaxNodes) {
      t.reference = referenceReport(t.handshake, t.messages, &t.stats);
      out.push_back(std::move(t));
    }
  }
  return out;
}

/// `total` operations of one kind cut into blocks of [lo, hi] operations
/// (the last block takes the remainder).
void appendBlocks(Script& s, std::mt19937_64& rng, OpKind kind,
                  std::uint32_t total, std::uint32_t lo, std::uint32_t hi) {
  while (total > 0) {
    const auto n = std::min<std::uint32_t>(
        total, lo + static_cast<std::uint32_t>(rng() % (hi - lo + 1)));
    s.push_back(Block{kind, n});
    total -= n;
  }
}

ThreadScripts runtimeScripts(std::uint64_t seed) {
  // Every script has the same operation mix; the seed only cuts it into
  // blocks and orders them, so the work per trace does not depend on it.
  ThreadScripts out;
  for (std::uint32_t th = 0; th < kRuntimeThreads; ++th) {
    std::mt19937_64 rng(mix(seed ^ (0x100 + th)));
    Script s;
    appendBlocks(s, rng, OpKind::kIrrelevant, kRuntimeIrrelevantEach, 8, 24);
    appendBlocks(s, rng, OpKind::kRelevant, kRuntimeRelevantEach, 1, 3);
    appendBlocks(s, rng, OpKind::kLockPair, kRuntimeLockPairsEach, 1, 2);
    for (std::size_t i = s.size(); i > 1; --i) {
      std::swap(s[i - 1], s[rng() % i]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ThreadScripts> runtimePool(std::uint64_t seed) {
  std::vector<ThreadScripts> out;
  for (std::size_t i = 0; i < kRuntimePool; ++i) {
    out.push_back(runtimeScripts(mix(seed ^ (i + 1))));
  }
  return out;
}

}  // namespace

std::uint64_t scriptAccesses(const Script& s) {
  std::uint64_t n = 0;
  for (const Block& b : s) {
    n += b.kind == OpKind::kLockPair ? 2ull * b.count : b.count;
  }
  return n;
}

std::uint64_t scriptRelevant(const Script& s) {
  std::uint64_t n = 0;
  for (const Block& b : s) n += b.kind == OpKind::kRelevant ? b.count : 0;
  return n;
}

Pool buildPool(const std::string& workload, std::uint64_t seed) {
  Pool pool;
  if (workload == "ingest_narrow") {
    pool.traces = narrowPool(seed);
  } else if (workload == "wide_lattice") {
    pool.traces = widePool(seed);
  } else if (workload == "threads_runtime") {
    pool.runtimeTraces = runtimePool(seed);
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  Fingerprint fp;
  fp.str(workload);
  for (const VmTrace& t : pool.traces) {
    fp.u64(t.events.size());
    fp.u64(t.messages.size());
    for (const trace::Message& m : t.messages) {
      fp.u64(m.event.thread);
      fp.u64(static_cast<std::uint64_t>(m.event.value));
      fp.u64(m.clock.size());
      for (ThreadId j = 0; j < m.clock.size(); ++j) fp.u64(m.clock.get(j));
    }
    fp.str(t.reference);
    fp.u64(t.stats.totalNodes);
    fp.u64(t.stats.levels);
  }
  for (const ThreadScripts& t : pool.runtimeTraces) {
    for (const Script& s : t) {
      for (const Block& b : s) {
        fp.u64(static_cast<std::uint64_t>(b.kind));
        fp.u64(b.count);
      }
    }
  }
  pool.fingerprint = fp.h;
  return pool;
}

analysis::AnalyzerSession::Config sessionConfig(const net::Handshake& h) {
  analysis::AnalyzerSession::Config cfg;
  cfg.threads = h.threads;
  cfg.specs = h.specs;
  cfg.handshakeSpecs = h.specs;
  cfg.tracked = h.tracked;
  cfg.vars = h.vars;
  cfg.expectedStreams = 1;
  cfg.lattice.parallel.jobs = 1;
  return cfg;
}

std::string referenceReport(const net::Handshake& h,
                            const std::vector<trace::Message>& msgs,
                            observer::LatticeStats* stats) {
  analysis::AnalyzerSession session(sessionConfig(h));
  for (const trace::Message& m : msgs) {
    const char* err = nullptr;
    if (session.ingest(m, &err) !=
        analysis::AnalyzerSession::Ingest::kIngested) {
      throw std::runtime_error(std::string("reference ingest failed: ") +
                               (err != nullptr ? err : "duplicate"));
    }
  }
  session.noteStreamEnd();
  if (!session.finished()) {
    throw std::runtime_error("reference analysis did not finish: " +
                             session.streamError());
  }
  if (stats != nullptr) *stats = session.stats();
  return renderSessionReport(session);
}

std::string renderSessionReport(const analysis::AnalyzerSession& s) {
  std::string body = s.renderReport();
  const std::vector<observer::AnalysisReport> reports = s.analysisReports();
  if (!reports.empty()) {
    body += '\n';
    body += analysis::renderAnalysisReports(reports);
  }
  return body;
}

}  // namespace perfbench
