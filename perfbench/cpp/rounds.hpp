// One closed-loop round of the benchmark: hand a trace (or two concurrent
// traces) to the daemon over loopback, wait for the verdict, check it.
// Traced rounds also record layer spans, and replay() re-runs a trace's
// messages stage by stage through the public functions of each module.
#pragma once

#include <cstdint>
#include <vector>

#include "net/observerd.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Run-wide state shared by every round.
struct Bench {
  net::ObserverDaemon* daemon = nullptr;
  /// Non-null while a traced round runs.
  SpanRecorder* spans = nullptr;
  std::uint64_t nextTraceId = 0;
  /// Trace ids sent to earlier daemons: this daemon's sessions are the
  /// trace ids above it.
  std::uint64_t sessionBase = 0;
  /// /report requests made; the daemon counts each as a rejected
  /// connection, so they are subtracted from connectionsRejected().
  std::uint64_t probes = 0;
  /// threads_runtime: the in-process reference report (interleaving
  /// independent: the relevant stores form one chain and the property
  /// always holds).
  std::string runtimeReference;
};

struct RoundResult {
  std::vector<std::uint64_t> traceIds;  ///< one per trace of the round
  std::uint32_t traces = 0;
  std::uint32_t failed = 0;      ///< traces that failed (see README)
  std::uint32_t mismatches = 0;  ///< daemon report != in-process reference
  std::uint64_t messages = 0;    ///< relevant messages that reached a verdict
  std::uint64_t wallNs = 0;      ///< round start -> verdict
  std::uint64_t verdictNs = 0;   ///< last close() call -> verdict
  std::uint64_t appNs = 0;       ///< the instrumented application loop
  std::uint64_t plainNs = 0;     ///< same loop on plain atomics + std::mutex
  /// Shared accesses of that loop (VM workloads: the events Algorithm A
  /// processed).
  std::uint64_t accesses = 0;
  // Layer counts (every round).
  std::uint64_t joinEntries = 0;     ///< Instrumentor::clockStats()
  std::uint64_t dataFrames = 0;      ///< event frames the emitters sent
  std::uint64_t reconnects = 0;
  std::uint64_t dropped = 0;
  std::uint64_t pendingAtClose = 0;  ///< traced rounds only
  std::uint64_t enqueueNs = 0;       ///< threads_runtime traced rounds
  /// threads_runtime traced rounds: the messages the runtime emitted, for
  /// replay().
  std::vector<trace::Message> recorded;
};

[[nodiscard]] RoundResult runVmRound(Bench& b,
                                     const std::vector<const VmTrace*>& traces);
[[nodiscard]] RoundResult runRuntimeRound(Bench& b,
                                          const ThreadScripts& scripts);

/// threads_runtime: the handshake of every trace (threads, spec, tracked
/// variable and the VarTable the runtime world declares).
[[nodiscard]] const net::Handshake& runtimeHandshake();

/// threads_runtime set-up: runs the scripts once in process into an
/// AnalyzerSession and returns its report.
[[nodiscard]] std::string runtimeReferenceReport(const ThreadScripts& scripts);

/// Per-trace replay output the spans do not carry.
struct ReplayResult {
  std::uint64_t wireBytes = 0;
  std::uint64_t frames = 0;
  observer::LatticeStats stats;  ///< of the structure-only analyzer
  bool reportMatches = true;     ///< replayed report == `expectedReport`
};

/// Replays `msgs` through encode, deframe, decode, AnalyzerSession ingest
/// and report, CausalityGraph, and OnlineAnalyzer (structure-only and with
/// the spec bus), single-threaded, one span per stage under a "replay"
/// span.  Requires b.spans.
ReplayResult replay(Bench& b, std::uint64_t traceId, const net::Handshake& h,
                    const std::vector<trace::Message>& msgs,
                    const std::string& expectedReport);

}  // namespace perfbench
