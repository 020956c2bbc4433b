#include "rounds.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/instrumentor.hpp"
#include "logic/parser.hpp"
#include "logic/spec_analysis.hpp"
#include "net/emitter.hpp"
#include "net/socket.hpp"
#include "observer/causality.hpp"
#include "observer/online.hpp"
#include "runtime/runtime.hpp"
#include "trace/channel.hpp"
#include "trace/codec.hpp"

namespace perfbench {

namespace {

constexpr const char* kTenant = "perfbench";
/// Events fed per trace before switching to the other trace of a round;
/// also the granularity of the traced run's core.algo_a / net.enqueue
/// spans (per-call spans would cost as much as the calls).
constexpr std::size_t kChunk = 256;
constexpr std::chrono::seconds kVerdictTimeout{10};

class BufferSink final : public trace::MessageSink {
 public:
  void onMessage(const trace::Message& m) override { buf.push_back(m); }
  std::vector<trace::Message> buf;
};

/// threads_runtime traced rounds: times each SocketEmitter::onMessage call
/// and keeps the messages for replay().  Runtime calls its sink under its
/// own sink mutex, so the members need no lock.
class TimingSink final : public trace::MessageSink {
 public:
  explicit TimingSink(trace::MessageSink& next) : next_(&next) {}
  void onMessage(const trace::Message& m) override {
    const std::uint64_t t0 = nowNs();
    next_->onMessage(m);
    ns += nowNs() - t0;
    recorded.push_back(m);
  }
  std::uint64_t ns = 0;
  std::vector<trace::Message> recorded;

 private:
  trace::MessageSink* next_;
};

net::EmitterOptions emitterOptions(const Bench& b, const net::Handshake& h,
                                   std::uint64_t traceId) {
  net::EmitterOptions o;
  o.port = b.daemon->port();
  o.handshake = h;
  o.handshake.tenant = kTenant;
  o.handshake.traceId = traceId;
  o.jitterSeed = traceId;
  return o;
}

/// The session's report from the daemon's /report endpoint ("" on error).
std::string fetchReport(Bench& b, std::uint64_t traceId) {
  ++b.probes;
  net::Socket s = net::Socket::connectTo("127.0.0.1", b.daemon->port());
  if (!s.valid()) return {};
  const std::string req = "GET /report?tenant=" + std::string(kTenant) +
                          "&trace=" + std::to_string(traceId) +
                          " HTTP/1.0\r\n\r\n";
  if (!s.sendAll(req.data(), req.size())) return {};
  std::string resp;
  char buf[8192];
  std::ptrdiff_t n;
  while ((n = s.recvSome(buf, sizeof buf)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t body = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos) {
    return {};
  }
  return resp.substr(body + 4);
}

/// A recorded execution's shared operations on plain memory: the
/// uninstrumented baseline of the VM workloads' application loop.
struct PlainVmWorld {
  explicit PlainVmWorld(std::size_t vars) : values(vars), locks(vars) {}
  void step(const trace::Event& e) {
    if (e.var >= values.size()) return;
    switch (e.kind) {
      case trace::EventKind::kRead:
        sum += values[e.var].load();
        break;
      case trace::EventKind::kLockAcquire:
        locks[e.var].lock();
        break;
      case trace::EventKind::kLockRelease:
        locks[e.var].unlock();
        break;
      case trace::EventKind::kInternal:
      case trace::EventKind::kRegionBegin:
      case trace::EventKind::kRegionEnd:
        break;
      default:  // writes and write-like synchronization events
        values[e.var].store(e.value);
        break;
    }
  }
  std::vector<std::atomic<Value>> values;
  std::vector<std::mutex> locks;
  Value sum = 0;
};

/// Feeds the traces' events chunk by chunk, alternating between traces.
/// `chunk(i, begin, end)` handles events [begin, end) of trace i.
template <typename Fn>
void interleave(const std::vector<const VmTrace*>& traces, Fn&& chunk) {
  std::size_t longest = 0;
  for (const VmTrace* t : traces) longest = std::max(longest, t->events.size());
  for (std::size_t base = 0; base < longest; base += kChunk) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const std::size_t size = traces[i]->events.size();
      if (base < size) chunk(i, base, std::min(base + kChunk, size));
    }
  }
}

// --- threads_runtime ----------------------------------------------------

constexpr const char* kRuntimeShared[] = {"a", "b", "c"};
constexpr const char* kRuntimeRelevant = "count";
constexpr const char* kRuntimeSpec = "count >= 0";

/// The runtime world: SharedVars a, b, c (irrelevant), count (relevant),
/// and mutex m, declared in a fixed order so every Runtime gets the same
/// VarTable.
struct RuntimeWorld {
  explicit RuntimeWorld(runtime::Runtime& rt) {
    for (const char* name : kRuntimeShared) vars.push_back(rt.declare(name));
    count = rt.declare(kRuntimeRelevant);
    m = rt.declareMutex("m");
    rt.markRelevant(kRuntimeRelevant);
  }
  Value load(std::size_t i) { return vars[i].load(); }
  void store(std::size_t i, Value v) { vars[i].store(v); }
  void storeRelevant(Value v) { count.store(v); }
  void lock() { m->lock(); }
  void unlock() { m->unlock(); }

  std::vector<runtime::SharedVar> vars;
  runtime::SharedVar count;
  std::unique_ptr<runtime::InstrumentedMutex> m;
};

/// The same operations on plain atomics and std::mutex.  Each variable
/// has its own cache line, so the layout (and with it the cost of the two
/// threads' sharing) does not depend on where the object lands.
struct PlainRuntimeWorld {
  Value load(std::size_t i) { return vars[i].v.load(); }
  void store(std::size_t i, Value v) { vars[i].v.store(v); }
  void storeRelevant(Value v) { count.v.store(v); }
  void lock() { m.m.lock(); }
  void unlock() { m.m.unlock(); }

  struct alignas(64) Var {
    std::atomic<Value> v{0};
  };
  struct alignas(64) Mutex {
    std::mutex m;
  };
  Var vars[3];
  Var count;
  Mutex m;
};

const char* blockSpanName(OpKind k) {
  switch (k) {
    case OpKind::kIrrelevant:
      return "runtime.irrelevant";
    case OpKind::kRelevant:
      return "runtime.relevant";
    case OpKind::kLockPair:
      return "runtime.lock_pair";
  }
  return "runtime.block";
}

template <typename World>
Value runScript(const Script& s, World& w, std::vector<Span>* blocks,
                std::uint32_t tid, std::uint64_t traceId) {
  Value v = 0;
  Value sum = 0;
  for (const Block& blk : s) {
    const std::uint64_t t0 = blocks != nullptr ? nowNs() : 0;
    switch (blk.kind) {
      case OpKind::kIrrelevant:
        for (std::uint32_t i = 0; i < blk.count; ++i) {
          if ((i & 1u) != 0) {
            w.store(i % 3, ++v);
          } else {
            sum += w.load(i % 3);
          }
        }
        break;
      case OpKind::kRelevant:
        for (std::uint32_t i = 0; i < blk.count; ++i) w.storeRelevant(++v);
        break;
      case OpKind::kLockPair:
        for (std::uint32_t i = 0; i < blk.count; ++i) {
          w.lock();
          w.unlock();
        }
        break;
    }
    if (blocks != nullptr) {
      blocks->push_back(Span{blockSpanName(blk.kind), t0, nowNs(), kNoParent,
                             traceId, tid, blk.count});
    }
  }
  return sum;
}

/// Runs one script per thread on `w`, released together; returns the wall
/// time from the first thread's start to the last thread's end.  With a
/// recorder, adds a runtime.app span over that interval whose children are
/// the per-block spans.
template <typename World>
std::uint64_t runApp(const ThreadScripts& scripts, World& w,
                     SpanRecorder* sp, std::int64_t parent,
                     std::uint64_t traceId) {
  const std::size_t n = scripts.size();
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> start(n, 0);
  std::vector<std::uint64_t> end(n, 0);
  std::vector<std::vector<Span>> blocks(n);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      start[i] = nowNs();
      runScript(scripts[i], w, sp != nullptr ? &blocks[i] : nullptr,
                static_cast<std::uint32_t>(i + 1), traceId);
      end[i] = nowNs();
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  go.store(true);
  for (std::thread& t : threads) t.join();
  const std::uint64_t first = *std::min_element(start.begin(), start.end());
  const std::uint64_t last = *std::max_element(end.begin(), end.end());
  if (sp != nullptr) {
    std::uint64_t accesses = 0;
    for (const Script& s : scripts) accesses += scriptAccesses(s);
    const std::int64_t app =
        sp->add(Span{"runtime.app", first, last, parent, traceId, 0, accesses});
    for (auto& list : blocks) {
      for (Span& s : list) {
        s.parent = app;
        sp->add(s);
      }
    }
  }
  return last - first;
}

/// The uninstrumented baseline runs once per round, like the instrumented
/// application it is compared with: before the timed round on even trace
/// ids and after it on odd ones, so neither side always finds the warmer
/// caches.
bool plainFirst(std::uint64_t traceId) { return traceId % 2 == 0; }

std::uint64_t relevantOf(const ThreadScripts& scripts) {
  std::uint64_t n = 0;
  for (const Script& s : scripts) n += scriptRelevant(s);
  return n;
}

/// Waits until the verdict of every trace sent so far is available.
/// waitFinished() alone is not enough: it returns true as soon as every
/// session the daemon knows is finished, which can be before it has
/// processed the handshake that creates the newest session.  Every trace
/// id is one session, so the newest one exists once sessionCount()
/// reaches it.
bool awaitVerdict(const Bench& b) {
  const auto deadline = std::chrono::steady_clock::now() + kVerdictTimeout;
  net::ObserverDaemon& d = *b.daemon;
  while (d.sessionCount() < b.nextTraceId - b.sessionBase) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return d.waitFinished(std::max(left, std::chrono::milliseconds(1)));
}

/// The session's pendingMessages now (traced rounds only: the snapshot
/// walks every session of the daemon).
std::uint64_t pendingOf(const net::ObserverDaemon& d, std::uint64_t traceId) {
  for (const net::SessionSnapshot& s : d.sessionSnapshots()) {
    if (s.tenant == kTenant && s.traceId == traceId) return s.pendingMessages;
  }
  return 0;
}

/// Per-trace failure inputs the emitter exposes.
bool emitterFailed(const net::SocketEmitter& e) {
  return e.failed() || e.droppedMessages() != 0;
}

/// Event frames sent: every frame but the handshake and end-of-trace.
std::uint64_t dataFrames(const net::SocketEmitter& e) {
  const std::uint64_t sent = e.framesSent();
  return sent > 2 ? sent - 2 : 0;
}

}  // namespace

const net::Handshake& runtimeHandshake() {
  static const net::Handshake h = [] {
    trace::CollectingSink sink;
    runtime::Runtime rt(sink);
    RuntimeWorld w(rt);
    return net::makeHandshake(kRuntimeThreads,
                              std::vector<std::string>{kRuntimeSpec},
                              {kRuntimeRelevant}, rt.vars());
  }();
  return h;
}

RoundResult runVmRound(Bench& b, const std::vector<const VmTrace*>& traces) {
  RoundResult r;
  SpanRecorder* sp = b.spans;
  net::ObserverDaemon& d = *b.daemon;
  const std::size_t n = traces.size();
  const std::uint64_t ingested0 = d.messagesIngested();
  std::vector<std::uint64_t> ids(n);
  for (std::uint64_t& id : ids) id = ++b.nextTraceId;

  // The same events on plain memory, one pass like the instrumented loop.
  const auto plainPass = [&traces] {
    std::vector<PlainVmWorld> plain;
    for (const VmTrace* t : traces) {
      plain.emplace_back(t->handshake.vars.size());
    }
    const std::uint64_t p0 = nowNs();
    interleave(traces, [&](std::size_t i, std::size_t lo, std::size_t hi) {
      const std::vector<trace::Event>& ev = traces[i]->events;
      for (std::size_t k = lo; k < hi; ++k) plain[i].step(ev[k]);
    });
    return nowNs() - p0;
  };
  if (plainFirst(ids[0])) r.plainNs = plainPass();

  const std::uint64_t t0 = nowNs();
  const std::int64_t root =
      sp != nullptr ? sp->begin("round", ids[0]) : kNoParent;
  std::vector<std::unique_ptr<net::SocketEmitter>> emitters;
  std::vector<BufferSink> buffers(n);
  std::vector<std::unique_ptr<core::Instrumentor>> instrs;
  for (std::size_t i = 0; i < n; ++i) {
    const VmTrace& t = *traces[i];
    emitters.push_back(std::make_unique<net::SocketEmitter>(
        emitterOptions(b, t.handshake, ids[i])));
    trace::MessageSink& sink =
        sp != nullptr ? static_cast<trace::MessageSink&>(buffers[i])
                      : *emitters[i];
    instrs.push_back(std::make_unique<core::Instrumentor>(
        core::RelevancePolicy::writesOf(t.relevantVars), sink));
    instrs.back()->reserve(t.handshake.threads, t.handshake.vars.size());
  }

  const std::uint64_t a0 = nowNs();
  interleave(traces, [&](std::size_t i, std::size_t lo, std::size_t hi) {
    const std::vector<trace::Event>& ev = traces[i]->events;
    core::Instrumentor& instr = *instrs[i];
    if (sp == nullptr) {
      for (std::size_t k = lo; k < hi; ++k) instr.onEvent(ev[k]);
      return;
    }
    const std::int64_t algo = sp->begin("core.algo_a", ids[i], root);
    for (std::size_t k = lo; k < hi; ++k) instr.onEvent(ev[k]);
    sp->end(algo, hi - lo);
    std::vector<trace::Message>& buf = buffers[i].buf;
    const std::int64_t enq = sp->begin("net.enqueue", ids[i], root);
    for (const trace::Message& m : buf) emitters[i]->onMessage(m);
    sp->end(enq, buf.size());
    buf.clear();
  });
  const std::uint64_t a1 = nowNs();

  std::uint64_t lastClose = 0;
  for (std::size_t i = 0; i < n; ++i) {
    lastClose = nowNs();
    const std::int64_t c =
        sp != nullptr ? sp->begin("net.close", ids[i], root) : kNoParent;
    emitters[i]->close();
    if (sp != nullptr) {
      sp->end(c, 1);
      r.pendingAtClose += pendingOf(d, ids[i]);
    }
  }
  const std::int64_t wait =
      sp != nullptr ? sp->begin("net.verdict_wait", ids[0], root) : kNoParent;
  const bool finished = awaitVerdict(b);
  const std::uint64_t tv = nowNs();
  if (sp != nullptr) sp->end(wait, 1);

  r.traceIds = ids;
  r.traces = static_cast<std::uint32_t>(n);
  r.wallNs = tv - t0;
  r.verdictNs = tv - lastClose;
  r.appNs = a1 - a0;

  // Untimed from here: verdict checks, then the baseline on odd ids.
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const VmTrace& t = *traces[i];
    const net::SocketEmitter& e = *emitters[i];
    expected += t.messages.size();
    r.accesses += t.events.size();
    r.joinEntries += instrs[i]->clockStats().joinEntriesTouched;
    r.dataFrames += dataFrames(e);
    r.reconnects += e.reconnects();
    r.dropped += e.droppedMessages();
    if (!finished || emitterFailed(e)) {
      ++r.failed;
      continue;
    }
    r.messages += t.messages.size();
    if (fetchReport(b, ids[i]) != t.reference) ++r.mismatches;
  }
  if (sp != nullptr) sp->end(root, r.messages);
  if (r.failed == 0 && d.messagesIngested() - ingested0 != expected) {
    r.mismatches = r.traces;
  }
  if (!plainFirst(ids[0])) r.plainNs = plainPass();
  return r;
}

RoundResult runRuntimeRound(Bench& b, const ThreadScripts& scripts) {
  RoundResult r;
  SpanRecorder* sp = b.spans;
  net::ObserverDaemon& d = *b.daemon;
  const std::uint64_t ingested0 = d.messagesIngested();
  const std::uint64_t expected = relevantOf(scripts);
  const std::uint64_t id = ++b.nextTraceId;
  PlainRuntimeWorld plain;
  if (plainFirst(id)) {
    r.plainNs = runApp(scripts, plain, nullptr, kNoParent, id);
  }

  const std::uint64_t t0 = nowNs();
  const std::int64_t root = sp != nullptr ? sp->begin("round", id) : kNoParent;
  net::SocketEmitter emitter(emitterOptions(b, runtimeHandshake(), id));
  TimingSink timing(emitter);
  std::uint64_t emitted = 0;
  std::uint64_t lastClose = 0;
  {
    runtime::Runtime rt(sp != nullptr ? static_cast<trace::MessageSink&>(timing)
                                      : emitter);
    RuntimeWorld w(rt);
    r.appNs = runApp(scripts, w, sp, root, id);
    emitted = rt.messagesEmitted();
    lastClose = nowNs();
    const std::int64_t c =
        sp != nullptr ? sp->begin("net.close", id, root) : kNoParent;
    emitter.close();
    if (sp != nullptr) {
      sp->end(c, 1);
      r.pendingAtClose = pendingOf(d, id);
    }
  }
  const std::int64_t wait =
      sp != nullptr ? sp->begin("net.verdict_wait", id, root) : kNoParent;
  const bool finished = awaitVerdict(b);
  const std::uint64_t tv = nowNs();
  if (sp != nullptr) sp->end(wait, 1);

  r.traceIds = {id};
  r.traces = 1;
  r.wallNs = tv - t0;
  r.verdictNs = tv - lastClose;
  r.dataFrames = dataFrames(emitter);
  r.reconnects = emitter.reconnects();
  r.dropped = emitter.droppedMessages();
  for (const Script& s : scripts) r.accesses += scriptAccesses(s);
  if (!finished || emitterFailed(emitter)) {
    r.failed = 1;
  } else {
    r.messages = emitted;
    if (emitted != expected || d.messagesIngested() - ingested0 != emitted ||
        fetchReport(b, id) != b.runtimeReference) {
      r.mismatches = 1;
    }
  }
  if (sp != nullptr) {
    sp->end(root, r.messages);
    r.enqueueNs = timing.ns;
    r.recorded = std::move(timing.recorded);
  }
  if (!plainFirst(id)) {
    r.plainNs = runApp(scripts, plain, nullptr, kNoParent, id);
  }
  return r;
}

std::string runtimeReferenceReport(const ThreadScripts& scripts) {
  trace::CollectingSink sink;
  {
    runtime::Runtime rt(sink);
    RuntimeWorld w(rt);
    runApp(scripts, w, nullptr, kNoParent, 0);
  }
  return referenceReport(runtimeHandshake(), sink.messages(), nullptr);
}

ReplayResult replay(Bench& b, std::uint64_t traceId, const net::Handshake& h,
                    const std::vector<trace::Message>& msgs,
                    const std::string& expectedReport) {
  SpanRecorder& sp = *b.spans;
  ReplayResult out;
  const std::int64_t root = sp.begin("replay", traceId);

  // The emitter's framing: batches of maxBatch messages, each a
  // kEventsSparse frame with a send-timestamp prefix.
  const std::size_t batch = net::EmitterOptions{}.maxBatch;
  std::vector<std::uint8_t> wire;
  std::int64_t s = sp.begin("trace.encode", traceId, root);
  std::vector<std::uint8_t> payload;
  for (std::size_t lo = 0; lo < msgs.size(); lo += batch) {
    const std::uint64_t sendNs = nowNs();
    payload.resize(net::kEventsTsPrefixSize);
    std::memcpy(payload.data(), &sendNs, sizeof sendNs);
    trace::SparseClockCodec::FrameState st;
    const std::size_t hi = std::min(lo + batch, msgs.size());
    for (std::size_t k = lo; k < hi; ++k) {
      trace::SparseClockCodec::encode(msgs[k], st, payload);
    }
    net::appendFrame(wire, net::FrameType::kEventsSparse, payload);
  }
  sp.end(s, msgs.size());
  out.wireBytes = wire.size();

  s = sp.begin("net.deframe", traceId, root);
  net::FrameReader reader;
  reader.feed(wire.data(), wire.size());
  std::vector<net::Frame> frames;
  net::Frame f;
  while (reader.next(f) == net::FrameReader::Status::kFrame) {
    frames.push_back(std::move(f));
  }
  sp.end(s, frames.size());
  out.frames = frames.size();

  s = sp.begin("trace.decode", traceId, root);
  std::vector<trace::Message> decoded;
  decoded.reserve(msgs.size());
  for (const net::Frame& fr : frames) {
    std::uint64_t sendNs = 0;
    const char* err = nullptr;
    if (!net::decodeEventsSparsePayload(fr.payload, sendNs, decoded, &err)) {
      throw std::runtime_error(std::string("replay decode failed: ") + err);
    }
  }
  sp.end(s, decoded.size());
  if (decoded.size() != msgs.size()) {
    throw std::runtime_error("replay decoded a different message count");
  }

  s = sp.begin("analysis.ingest", traceId, root);
  analysis::AnalyzerSession session(sessionConfig(h));
  for (const trace::Message& m : decoded) {
    const char* err = nullptr;
    if (session.ingest(m, &err) == analysis::AnalyzerSession::Ingest::kError) {
      throw std::runtime_error(std::string("replay ingest failed: ") + err);
    }
  }
  session.noteStreamEnd();
  sp.end(s, decoded.size());

  s = sp.begin("analysis.report", traceId, root);
  const std::string report = renderSessionReport(session);
  sp.end(s, 1);
  out.reportMatches = report == expectedReport;

  s = sp.begin("observer.causality", traceId, root);
  {
    observer::CausalityGraph g;
    for (const trace::Message& m : decoded) g.ingest(m);
  }
  sp.end(s, decoded.size());

  const analysis::AnalyzerSession::Config cfg = sessionConfig(h);
  const observer::StateSpace space =
      observer::StateSpace::byNames(cfg.vars, cfg.tracked);
  s = sp.begin("observer.expand", traceId, root);
  {
    observer::OnlineAnalyzer a(space, cfg.threads,
                               static_cast<observer::LatticeMonitor*>(nullptr),
                               cfg.lattice);
    for (const trace::Message& m : decoded) a.onMessage(m);
    a.endOfTrace();
    out.stats = a.stats();
  }
  sp.end(s, out.stats.totalNodes);

  std::vector<std::unique_ptr<logic::SpecAnalysis>> plugins;
  std::vector<observer::Analysis*> raw;
  for (const std::string& spec : cfg.specs) {
    plugins.push_back(std::make_unique<logic::SpecAnalysis>(
        space, logic::SpecParser(space).parse(spec), spec));
    raw.push_back(plugins.back().get());
  }
  observer::AnalysisBus bus(raw);
  s = sp.begin("observer.monitored", traceId, root);
  {
    observer::OnlineAnalyzer a(space, cfg.threads, bus, cfg.lattice);
    for (const trace::Message& m : decoded) a.onMessage(m);
    a.endOfTrace();
  }
  sp.end(s, out.stats.totalNodes);

  sp.end(root, msgs.size());
  return out;
}

}  // namespace perfbench
