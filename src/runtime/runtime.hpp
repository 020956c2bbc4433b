// Instrumented shared-memory runtime for REAL C++ threads.
//
// The paper lists three ways to deploy Algorithm A: bytecode
// instrumentation, a modified JVM, or "to enforce shared variable updates
// via library functions, which execute A as well" (§1).  This module is
// that third option for C++: programs declare their shared variables as
// mpx::runtime::SharedVar, their locks as InstrumentedMutex, and every
// access runs Algorithm A before returning.
//
// Locking is STRIPED, not global: every shared variable carries its own
// mutex protecting its value and its MVCs (V^a_x, V^w_x), and the thread
// registry is sharded.  Algorithm A makes this sound because one event
// touches exactly one variable's state plus the issuing thread's own clock
// (V_i), which no other thread ever reads or writes:
//
//  * Per-variable atomicity — steps 2-3 for an event on x read and write
//    only {V_i, V^a_x, V^w_x, value_x}, all under x's mutex, so
//    same-variable accesses are serialized exactly as §2.1's "all shared
//    memory accesses are atomic and instantaneous" requires.
//  * Total order M — each event draws its globalSeq from one atomic
//    counter WHILE HOLDING the variable's mutex.  Same-variable events get
//    seqs in their serialization order, same-thread events in program
//    order; causality ≺ is the transitive closure of those two edge kinds,
//    so e ≺ e' still implies seq(e) < seq(e') (the Theorem 3 invariant the
//    runtime tests assert).  Any linearization of the striped execution in
//    seq order is a legal execution of the old single-mutex runtime.
//  * Lock ordering — an event path holds at most ONE variable mutex.  Any
//    future multi-variable operation MUST acquire variable mutexes in
//    ascending VarId order.  The full hierarchy is
//      structMu_ (shared) -> var mutex -> { recordMu_ | sinkMu_ }
//    where structMu_ is held shared on event paths and uniquely only by
//    declare()/markRelevant() (which grow the tables).
//
// See DESIGN.md ("Striped runtime locking") for the full argument.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/instrumentor.hpp"
#include "detect/race_detector.hpp"
#include "trace/channel.hpp"
#include "trace/var_table.hpp"
#include "vc/vector_clock.hpp"

namespace mpx::runtime {

/// Per-thread instrumentation state: the MVC V_i, the thread's local event
/// numbering, and its lockset.  Only ever touched by the owning thread
/// (under the variable mutex of the event being processed).
struct ThreadState {
  ThreadId id = 0;
  vc::VectorClock vi;            ///< V_i
  LocalSeq nextLocal = 1;
  std::vector<VarId> heldLocks;  ///< lock VarIds currently held
};

/// Maps std::thread ids to the dense ThreadIds the MVCs are indexed by,
/// sharded so registration lookups of different threads do not contend.
/// Threads register lazily on their first instrumented access — this is
/// the "dynamically created threads" support the paper mentions in §2.
class ShardedThreadRegistry {
 public:
  ShardedThreadRegistry();

  /// State of the calling thread, registering it if new.  Thread-safe; the
  /// returned reference is stable for the registry's lifetime and cached
  /// thread-locally.
  ThreadState& current();

  [[nodiscard]] std::size_t threadCount() const noexcept {
    return next_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::thread::id, std::unique_ptr<ThreadState>> states;
  };
  std::array<Shard, kShards> shards_;
  std::atomic<ThreadId> next_{0};
  std::uint64_t generation_;  ///< process-unique key for the TLS cache
};

class SharedVar;
class InstrumentedMutex;
class InstrumentedCondition;

/// The per-program instrumentation context: variable table, Algorithm A
/// state, and the observer-bound message stream.
class Runtime {
 public:
  /// Messages for relevant events are pushed into `sink`.  Emissions are
  /// serialized (the sink need not be thread-safe); each thread's messages
  /// arrive in its program order, cross-thread interleaving follows the
  /// total order M.
  explicit Runtime(trace::MessageSink& sink);

  /// Declares a shared variable.  Thread-safe; idempotent per name.
  SharedVar declare(const std::string& name, Value initial = 0);

  /// Declares an instrumented lock.
  std::unique_ptr<InstrumentedMutex> declareMutex(const std::string& name);

  /// Declares an instrumented condition variable (uses `mutex`'s lock).
  std::unique_ptr<InstrumentedCondition> declareCondition(
      const std::string& name);

  /// Marks a variable relevant: its writes are reported to the observer
  /// (JMPaX marks exactly the spec's variables).
  void markRelevant(const std::string& name);

  /// Annotated atomic-region boundaries (ISSUE 10): emit a kRegionBegin /
  /// kRegionEnd marker event on the calling thread.  Region markers access
  /// no variable (Algorithm A steps 2-3 skip them) but are ALWAYS relevant:
  /// the thread's own clock component ticks and a message is emitted, so
  /// the observer can segment the thread's relevant events into
  /// transactions for conflict-serializability checking.  `regionId` is a
  /// programmer-chosen label carried in the event's value; nesting is
  /// allowed (the analysis merges nested regions into the outermost one).
  void atomicBegin(Value regionId = 0);
  void atomicEnd(Value regionId = 0);

  [[nodiscard]] const trace::VarTable& vars() const noexcept { return vars_; }
  [[nodiscard]] std::uint64_t eventsProcessed() const;
  [[nodiscard]] std::uint64_t messagesEmitted() const;
  [[nodiscard]] std::size_t threadsSeen() const;

  /// Record every event with the locks its thread held at that instant —
  /// the input the race predictor needs.  Must be enabled before the
  /// threads run; the recording is drained with takeRecording().
  void enableRecording();
  struct RecordedEvent {
    trace::Event event;
    std::vector<VarId> locksHeld;  ///< lock VarIds held by event.thread
  };
  /// The recording in total order M (sorted by globalSeq — appends from
  /// different stripes may land out of order).
  [[nodiscard]] std::vector<RecordedEvent> takeRecording();

  /// Predictive race analysis over a recording: instruments the recorded
  /// events with the race-detection causality projection (candidate
  /// variables excluded from MVC joins; §3.1 sync edges kept) and reports
  /// conflicting concurrent access pairs.  Lock identity for the lockset
  /// refinement is the lock variable id.
  [[nodiscard]] std::vector<detect::RaceReport> analyzeRaces(
      const std::vector<RecordedEvent>& recording,
      const std::vector<std::string>& varNames,
      detect::RaceOptions opts = {}) const;

 private:
  friend class SharedVar;
  friend class InstrumentedMutex;
  friend class InstrumentedCondition;

  /// Striped per-variable state: the current value and the variable MVCs,
  /// all under the stripe mutex.
  struct VarState {
    std::mutex mu;
    Value value = 0;
    vc::VectorClock va;  ///< V^a_x
    vc::VectorClock vw;  ///< V^w_x
    std::uint64_t contended = 0;  ///< contended acquisitions (under mu)
  };

  /// The instrumented access primitives; each locks the variable's stripe,
  /// stamps the event into the total order M, and runs Algorithm A.
  Value read(VarId v);
  void write(VarId v, Value value);
  void syncEvent(trace::EventKind kind, VarId v);

  /// Shared event path: called with structMu_ held shared.  Runs Algorithm
  /// A steps 1-4 for one event under the variable's stripe mutex.
  Value processEvent(trace::EventKind kind, VarId v, Value writeValue);

  /// Event path for variable-less region markers: no stripe to lock and no
  /// clock joins — tick, record, emit.
  void regionMarker(trace::EventKind kind, Value regionId);

  VarId internVar(const std::string& name, Value initial, trace::VarRole role);
  [[nodiscard]] VarState& stateOf(VarId v);

  /// Guards the *shape* of the tables (vars_, varStates_ growth, the
  /// relevant set).  Event paths hold it shared; declarations hold it
  /// uniquely.  Never acquired after a stripe mutex.
  mutable std::shared_mutex structMu_;
  trace::VarTable vars_;
  std::deque<VarState> varStates_;  ///< by VarId; deque: stable references
  std::unordered_set<VarId> relevant_;
  trace::MessageSink* sink_;
  mutable std::mutex sinkMu_;    ///< serializes sink_->onMessage
  ShardedThreadRegistry registry_;
  std::atomic<GlobalSeq> nextSeq_{1};
  std::atomic<std::uint64_t> eventsProcessed_{0};
  std::atomic<std::uint64_t> messagesEmitted_{0};
  std::atomic<bool> recording_{false};
  mutable std::mutex recordMu_;  ///< guards recorded_
  std::vector<RecordedEvent> recorded_;
};

/// A shared variable whose every access executes Algorithm A.
class SharedVar {
 public:
  SharedVar() = default;

  [[nodiscard]] Value load() const { return rt_->read(id_); }
  void store(Value v) { rt_->write(id_, v); }

  /// Read-modify-write convenience (two events: a read and a write, like
  /// the paper's x++ which is a read of x followed by a write of x).
  /// NOTE: the two events are individually atomic but the pair is not —
  /// exactly like the paper's x++.
  Value fetchAdd(Value delta) {
    const Value old = load();
    store(old + delta);
    return old;
  }

  [[nodiscard]] VarId id() const noexcept { return id_; }

 private:
  friend class Runtime;
  SharedVar(Runtime& rt, VarId id) : rt_(&rt), id_(id) {}
  Runtime* rt_ = nullptr;
  VarId id_ = kNoVar;
};

/// A mutex whose acquire/release are writes of a lock-role shared variable
/// (paper §3.1), giving synchronized regions the expected happens-before.
class InstrumentedMutex {
 public:
  void lock();
  void unlock();

  /// RAII guard.
  class Guard {
   public:
    explicit Guard(InstrumentedMutex& m) : m_(&m) { m_->lock(); }
    ~Guard() { m_->unlock(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    InstrumentedMutex* m_;
  };

 private:
  friend class Runtime;
  friend class InstrumentedCondition;
  InstrumentedMutex(Runtime& rt, VarId lockVar) : rt_(&rt), lockVar_(lockVar) {}
  Runtime* rt_;
  VarId lockVar_;
  std::mutex m_;
};

/// Condition variable; notify writes the condition's dummy shared variable
/// before notification, and the woken thread writes it after (paper §3.1).
class InstrumentedCondition {
 public:
  /// Must be called with `m` held; releases it while waiting, reacquires
  /// before returning (emitting the §3.1 event pattern).
  template <typename Pred>
  void wait(InstrumentedMutex& m, Pred pred) {
    while (!pred()) {
      rt_->syncEvent(trace::EventKind::kLockRelease, m.lockVar_);
      {
        std::unique_lock<std::mutex> lk(m.m_, std::adopt_lock);
        cv_.wait(lk);
        lk.release();
      }
      rt_->syncEvent(trace::EventKind::kLockAcquire, m.lockVar_);
      rt_->syncEvent(trace::EventKind::kWaitResume, condVar_);
    }
  }

  void notifyAll() {
    rt_->syncEvent(trace::EventKind::kNotify, condVar_);
    cv_.notify_all();
  }

 private:
  friend class Runtime;
  InstrumentedCondition(Runtime& rt, VarId condVar)
      : rt_(&rt), condVar_(condVar) {}
  Runtime* rt_;
  VarId condVar_;
  std::condition_variable cv_;
};

}  // namespace mpx::runtime

/// Annotation macros for atomic regions (ISSUE 10).  `rt` is a
/// mpx::runtime::Runtime (or reference); `id` is an integer region label.
/// Wrap the code the programmer intends to execute atomically:
///
///   MPX_ATOMIC_BEGIN(rt, 1);
///   acct.write(acct.read() + amount);
///   MPX_ATOMIC_END(rt, 1);
///
/// AtomicityAnalysis reports every observed cut under which the enclosed
/// accesses are not conflict-serializable with the other threads' regions.
#define MPX_ATOMIC_BEGIN(rt, id) (rt).atomicBegin(id)
#define MPX_ATOMIC_END(rt, id) (rt).atomicEnd(id)
