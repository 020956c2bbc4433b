// Workload generation: everything the benchmark builds in set-up from the
// workload seed.  The daemon only ever receives the traces generated here.
//
//   ingest_narrow   16-thread lock-serialized VM programs, ~2k relevant
//                   messages per trace, one spec; path lattice.
//   wide_lattice    4-thread seeded random VM programs, tens of relevant
//                   messages per trace, K = 3 specs, thousands of lattice
//                   nodes per trace.
//   threads_runtime per-thread scripts of SharedVar / InstrumentedMutex
//                   operations that two real std::threads run through
//                   runtime::Runtime.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/session.hpp"
#include "net/wire.hpp"
#include "observer/lattice_types.hpp"
#include "trace/event.hpp"

namespace perfbench {

using namespace mpx;

/// One recorded VM execution, sent to the daemon as its own session.
struct VmTrace {
  /// Threads, specs, tracked names and VarTable (tenant and trace id are
  /// filled per send).
  net::Handshake handshake;
  std::unordered_set<VarId> relevantVars;  ///< writesOf() relevance
  std::vector<trace::Event> events;        ///< the execution, in order M
  std::vector<trace::Message> messages;    ///< Algorithm A output, in order
  /// The in-process reference report, in the daemon's /report format.
  std::string reference;
  observer::LatticeStats stats;  ///< of the reference analysis
};

/// One block of the runtime workload's per-thread script.
enum class OpKind : std::uint8_t {
  kIrrelevant,  ///< `count` SharedVar accesses (alternating load/store)
  kRelevant,    ///< `count` stores to the markRelevant variable
  kLockPair,    ///< `count` InstrumentedMutex lock/unlock pairs
};
struct Block {
  OpKind kind = OpKind::kIrrelevant;
  std::uint32_t count = 0;
};
using Script = std::vector<Block>;
/// One threads_runtime trace: a script per app thread.
using ThreadScripts = std::vector<Script>;

/// Shared accesses a script performs (a lock pair counts as two).
[[nodiscard]] std::uint64_t scriptAccesses(const Script& s);
/// Relevant stores a script performs (= messages it emits).
[[nodiscard]] std::uint64_t scriptRelevant(const Script& s);

struct Pool {
  std::vector<VmTrace> traces;  ///< VM workloads
  std::vector<ThreadScripts> runtimeTraces;  ///< threads_runtime
  /// Hash over every generated input and reference result: the same seed
  /// must give the same fingerprint.
  std::uint64_t fingerprint = 0;
};

/// Generates the workload's inputs (and reference reports) from `seed`.
/// Throws std::runtime_error for an unknown workload name.
[[nodiscard]] Pool buildPool(const std::string& workload, std::uint64_t seed);

/// The session config the daemon derives from `h` (jobs = 1, one stream).
[[nodiscard]] analysis::AnalyzerSession::Config sessionConfig(
    const net::Handshake& h);

/// The in-process reference: feeds `msgs` to an AnalyzerSession with the
/// daemon's config for `h` and returns its report; `stats` (optional)
/// receives the lattice statistics.  Throws if the analysis fails.
[[nodiscard]] std::string referenceReport(
    const net::Handshake& h, const std::vector<trace::Message>& msgs,
    observer::LatticeStats* stats);

/// A session's report exactly as the daemon's /report endpoint renders it.
[[nodiscard]] std::string renderSessionReport(
    const analysis::AnalyzerSession& s);

/// threads_runtime application threads.
inline constexpr std::uint32_t kRuntimeThreads = 2;

}  // namespace perfbench
