// Online, incremental lattice analysis (paper §4):
//
//   "Since events are received incrementally from the instrumented program,
//    one can buffer them at the observer's side and then build the lattice
//    on a level-by-level basis in a top-down manner, as the events become
//    available.  The observer's analysis process can also be performed
//    incrementally, so that parts of the lattice which become non-relevant
//    for the property to check can be garbage-collected while the analysis
//    process continues."
//
// OnlineAnalyzer is a MessageSink: messages arrive one at a time, in ANY
// order (Theorem 3 makes per-thread positions recoverable from the clocks).
// After each arrival it advances the lattice as many whole levels as the
// buffered messages allow, runs the monitor over the new level, reports
// violations immediately, and garbage-collects the previous level together
// with every buffered message no frontier cut can read again (witness
// paths hold EventRefs, not messages), so a level step costs
// O(frontier x threads) however long the trace has run.  The
// offline ComputationLattice is the batch special case of this; the tests
// assert they produce identical verdicts and statistics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "observer/checkpoint.hpp"
#include "observer/global_state.hpp"
#include "observer/lattice.hpp"
#include "trace/channel.hpp"

namespace mpx::observer {

class AnalysisBus;

class OnlineAnalyzer final : public trace::MessageSink {
 public:
  /// `monitor` may be null (structure-only mode).  Violations are appended
  /// to an internal list as soon as they are discovered.
  ///
  /// `threads` is the number of threads of the instrumented program.  The
  /// paper's setting ("we only consider a fixed number of threads", §2):
  /// without it the analyzer could not know whether a level is complete —
  /// an as-yet-silent thread might still contribute a concurrent event to
  /// it.  (Dynamically created threads are announced by their spawner
  /// before their first event, so a dynamic system can conservatively pass
  /// the maximum and let absent threads be closed by endOfTrace().)
  OnlineAnalyzer(StateSpace space, std::size_t threads,
                 LatticeMonitor* monitor, LatticeOptions opts = {});

  /// Plugin-bus form: the bus's packed monitor rides the lattice,
  /// candidate violations are filtered through the owning plugins, every
  /// completed level is dispatched to node-observing plugins, and plugin
  /// finish() hooks run when the analysis finishes.  `bus` must outlive
  /// the analyzer.
  OnlineAnalyzer(StateSpace space, std::size_t threads, AnalysisBus& bus,
                 LatticeOptions opts = {});

  /// Feed one message (any arrival order).  Advances the lattice as far as
  /// the buffered messages permit.
  void onMessage(const trace::Message& m) override {
    onMessage(trace::Message(m));
  }
  /// Same, buffering `m` itself instead of a copy.
  void onMessage(trace::Message&& m);

  /// Declare the stream complete: threads send nothing further.  Required
  /// to finish — a frontier cut at the end of a thread's stream is only
  /// known to be maximal once the stream is known to be over.  Throws if
  /// buffered messages have gaps.
  void endOfTrace();

  /// Violations discovered so far (earliest level first).
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }

  /// Number of completed lattice levels (level 0 counts once the analyzer
  /// is constructed).
  [[nodiscard]] std::uint64_t levelsCompleted() const noexcept {
    return stats_.levels;
  }

  /// True once every buffered event has been consumed after endOfTrace().
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  [[nodiscard]] const LatticeStats& stats() const noexcept { return stats_; }

  /// Messages buffered but not yet consumed into the lattice.
  [[nodiscard]] std::size_t pendingMessages() const noexcept {
    return pending_;
  }

  /// Per-thread consumption watermark: consumedK()[j] is the highest local
  /// sequence number of thread j folded into the current frontier.  A
  /// frame whose per-thread max indices are all <= this vector has been
  /// fully analyzed — the daemon's emit-to-analyze lag is measured against
  /// it.  Size == declared thread count; all zeros before level 1.
  [[nodiscard]] const std::vector<LocalSeq>& consumedK() const noexcept {
    return consumedK_;
  }

  /// True iff thread j's k-th (1-based) message already arrived: folded
  /// into the frontier (whether or not it was collected since) or still
  /// buffered.  The exact duplicate test for at-least-once delivery.
  [[nodiscard]] bool hasMessage(ThreadId j, LocalSeq k) const;

  /// Serializes the complete analyzer state — still-buffered messages, both
  /// intern arenas, the live frontier (with its witness-path DAG), stats
  /// and violations — so an identically-constructed analyzer can restore()
  /// and continue to a byte-identical report.  Plugin state is NOT
  /// included; the session checkpoints each plugin's blob beside this one
  /// (Analysis::checkpoint).  Call only between messages (never from
  /// inside a dispatch).
  void checkpoint(ckpt::Writer& w) const;

  /// Inverse of checkpoint() on a freshly constructed analyzer with the
  /// same (space, threads, monitor/bus, options).  Rebuilds pointer
  /// identity by re-interning arena contents in deterministic order, and
  /// collects buffered messages below the restored frontier (a checkpoint
  /// may hold the whole consumed prefix).
  /// Returns false on any version/bounds/decode mismatch — the input is an
  /// untrusted snapshot file, and a failed restore leaves the analyzer
  /// unusable (discard it).
  [[nodiscard]] bool restore(ckpt::Reader& r);

 private:
  /// The k-th (1-based) message of thread j, if present.
  [[nodiscard]] const trace::Message* find(ThreadId j, LocalSeq k) const;
  /// Thread j's message after `cut`, if present.
  [[nodiscard]] const trace::Message* nextAfter(const Cut& cut,
                                                ThreadId j) const {
    return cut.k[j] == consumedK_[j] ? nextPending_[j]
                                     : find(j, cut.k[j] + 1);
  }
  /// Per-thread minimum and maximum of cut.k over the frontier (minK is 0
  /// for an empty frontier).
  void frontierBounds(std::vector<LocalSeq>& minK,
                      std::vector<LocalSeq>& maxK) const;

  /// Advance whole levels while every needed next-event is available (or
  /// known absent because the trace ended).
  void tryAdvance();
  [[nodiscard]] bool canExpand() const;
  void expandOneLevel();
  [[nodiscard]] bool enabled(const Cut& cut, ThreadId j,
                             const trace::Message& m) const;
  /// Max globalSeq over the cut's per-thread last events — the budget
  /// enforcer's observed-execution key (see budget.hpp).  Every event a
  /// frontier cut includes has already arrived, so the lookup never misses.
  [[nodiscard]] std::uint64_t observedPathKey(const Cut& cut) const;
  [[nodiscard]] parallel::ThreadPool* poolForRun();
  /// Marks the analysis finished: snapshots intern stats and runs the
  /// plugins' finish() hooks (once).
  void finalize();

  StateSpace space_;
  LatticeMonitor* monitor_;
  AnalysisBus* bus_ = nullptr;
  LatticeOptions opts_;
  StateArena states_;
  MonitorSetArena msets_;
  /// buffered_[j][k] = thread j's k-th message (sparse until gaps fill),
  /// for k >= retainedFrom_[j] only.
  std::vector<std::unordered_map<LocalSeq, trace::Message>> buffered_;
  /// Per-thread max frontier index (see consumedK()).
  std::vector<LocalSeq> consumedK_;
  /// Per-thread min frontier index: messages below it were erased.
  std::vector<LocalSeq> retainedFrom_;
  /// nextPending_[j] = thread j's message consumedK_[j] + 1 when it has
  /// arrived, else null: the lookup every frontier cut at the watermark
  /// makes, kept up to date instead of repeated per cut and level.
  std::vector<const trace::Message*> nextPending_;
  /// frontierBounds() outputs of the level step, kept to reuse capacity.
  std::vector<LocalSeq> minKScratch_;
  std::vector<LocalSeq> maxKScratch_;
  /// Arrived messages above consumedK_, kept up to date incrementally.
  std::size_t pending_ = 0;
  bool ended_ = false;
  bool finished_ = false;
  detail::Frontier frontier_;
  /// Accounted bytes of frontier_ (budget.hpp byte model), maintained so
  /// each level's enforcement sees the previous frontier's carry cost.
  std::uint64_t liveFrontierBytes_ = 0;
  LatticeStats stats_;
  std::vector<Violation> violations_;
  /// Lazily created when opts_.parallel asks for jobs > 1 and no external
  /// pool was injected.
  std::unique_ptr<parallel::ThreadPool> ownedPool_;
};

}  // namespace mpx::observer
