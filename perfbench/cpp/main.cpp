// mpx_perfbench: the MPX end-to-end benchmark (see ../README.md).
//
//   mpx_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//
// Set-up (repeated, median reported as setup_s) generates the workload's
// traces from the seed, builds their in-process reference reports and
// starts an in-process ObserverDaemon.  The run then hands traces to the
// daemon over loopback in a closed loop for S seconds.  --trace 0 reports
// the end-to-end metrics; --trace 1 alternates traced and untraced rounds
// and reports the per-layer ledger.  The last stdout line is the result
// JSON; the exit code is non-zero when a verdict mismatched or a trace
// failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/observerd.hpp"
#include "rounds.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-up repetitions per run; setup_s is their median.  Quick set-ups
/// repeat until kSetupMinSeconds have been spent, so their median rests on
/// more samples.
constexpr std::size_t kSetupMinRepeats = 3;
constexpr std::size_t kSetupMaxRepeats = 15;
constexpr double kSetupMinSeconds = 2.0;
/// Untimed rounds before measuring (thread-local caches, allocator, the
/// daemon's first sessions).  Their verdicts are still checked.
constexpr int kWarmupRounds = 2;
/// The daemon keeps every finished session, so each daemon serves this
/// many traces and is then replaced (untimed).  Memory and the daemon's
/// per-session scans then depend on this constant, not on how many traces
/// a run manages: peak_rss_mb shows the retention of one batch.
constexpr std::uint64_t kTracesPerDaemon = 64;
/// Spans written to the Chrome trace file (all of them feed the ledger).
constexpr std::size_t kMaxSpansWritten = 50000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string outDir = ".bench_build/perfbench-results";
  std::string commit = "unknown";
  std::string sourceDigest = "unknown";
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--out-dir") {
      a.outDir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--source-digest") {
      a.sourceDigest = v;
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) {
    throw std::runtime_error("--trace is 0 or 1");
  }
  return a;
}

template <typename T>
double d(T v) {
  return static_cast<double>(v);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Linear-interpolated quantile of `v` (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * d(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - d(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string jsonStr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

/// Every digit of a measured value.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Totals over a set of rounds.
struct Acc {
  std::uint64_t rounds = 0;
  std::uint64_t traces = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t messages = 0;
  std::uint64_t wallNs = 0;
  std::uint64_t joinEntries = 0;
  std::uint64_t dataFrames = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t dropped = 0;
  std::uint64_t pendingAtClose = 0;
  std::uint64_t enqueueNs = 0;
  std::uint64_t accesses = 0;
  std::vector<double> verdictMs;
  std::vector<double> appNsPerAccess;
  std::vector<double> slowdown;

  void add(const RoundResult& r) {
    ++rounds;
    traces += r.traces;
    failed += r.failed;
    mismatches += r.mismatches;
    messages += r.messages;
    wallNs += r.wallNs;
    joinEntries += r.joinEntries;
    dataFrames += r.dataFrames;
    reconnects += r.reconnects;
    dropped += r.dropped;
    pendingAtClose += r.pendingAtClose;
    enqueueNs += r.enqueueNs;
    accesses += r.accesses;
    if (r.failed == 0) {
      verdictMs.push_back(d(r.verdictNs) / 1e6);
      appNsPerAccess.push_back(ratio(d(r.appNs), d(r.accesses)));
      slowdown.push_back(ratio(d(r.appNs), d(r.plainNs)));
    }
  }
  [[nodiscard]] double msgsPerS() const {
    return ratio(d(messages), d(wallNs) / 1e9);
  }
};

/// Totals over the traced run's stage-by-stage replays.
struct Replays {
  std::uint64_t count = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t messages = 0;
  std::uint64_t wireBytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t nodes = 0;
  std::uint64_t levels = 0;
  std::size_t maxWidth = 0;

  void add(const ReplayResult& r, std::size_t msgs) {
    ++count;
    mismatches += r.reportMatches ? 0 : 1;
    messages += msgs;
    wireBytes += r.wireBytes;
    frames += r.frames;
    nodes += r.stats.totalNodes;
    levels += r.stats.levels;
    maxWidth = std::max(maxWidth, r.stats.peakLevelWidth);
  }
};

/// Counters summed over every daemon of the run.
struct DaemonTotals {
  /// Connections aborted, shed or rejected, net of the benchmark's own
  /// /report probes (which a daemon counts as rejected once each closed).
  std::uint64_t connsFailed = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t ingested = 0;

  void retire(net::ObserverDaemon& d, std::uint64_t probes) {
    for (int i = 0; i < 200 && d.connectionsRejected() < probes; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const std::uint64_t rejected = d.connectionsRejected();
    connsFailed += d.connectionsAborted() + d.connectionsShed() +
                   (rejected > probes ? rejected - probes : 0);
    duplicates += d.duplicatesIgnored();
    ingested += d.messagesIngested();
    d.stop();
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

std::unique_ptr<net::ObserverDaemon> startDaemon() {
  net::DaemonOptions o;
  o.jobs = 1;
  o.expectedStreams = 1;
  o.logErrors = false;
  auto dmn = std::make_unique<net::ObserverDaemon>(o);
  if (!dmn->start()) throw std::runtime_error("cannot start the daemon");
  return dmn;
}

/// The repeated set-up: the last repetition's pool and daemon are kept.
struct SetUp {
  Pool pool;
  std::string runtimeReference;
  std::unique_ptr<net::ObserverDaemon> daemon;
  std::vector<double> seconds;
  /// Every repetition produced the same pool fingerprint (and, for
  /// threads_runtime, identical reference reports).
  bool deterministic = true;
};

SetUp setUp(const Args& a) {
  SetUp s;
  double spent = 0;
  for (std::size_t rep = 0; rep < kSetupMinRepeats ||
                            (rep < kSetupMaxRepeats && spent < kSetupMinSeconds);
       ++rep) {
    const std::uint64_t t0 = nowNs();
    Pool p = buildPool(a.workload, a.seed);
    // threads_runtime: every trace emits the same number of messages along
    // one chain, so all reference reports must be identical.
    std::string ref;
    for (const ThreadScripts& t : p.runtimeTraces) {
      const std::string r = runtimeReferenceReport(t);
      if (ref.empty()) ref = r;
      s.deterministic = s.deterministic && r == ref;
    }
    auto dmn = startDaemon();
    s.seconds.push_back(d(nowNs() - t0) / 1e9);
    spent += s.seconds.back();
    if (rep > 0) {
      s.deterministic = s.deterministic &&
                        p.fingerprint == s.pool.fingerprint &&
                        ref == s.runtimeReference;
      s.daemon->stop();
    }
    s.daemon = std::move(dmn);
    s.pool = std::move(p);
    s.runtimeReference = std::move(ref);
  }
  return s;
}

std::vector<Metric> endToEndMetrics(const Acc& u,
                                    const std::vector<double>& setupS) {
  const double peakRssMiB = [] {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return d(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
  }();
  const std::size_t n = u.verdictMs.size();
  return {
      {"msgs_per_s", u.msgsPerS(), "msg/s", u.rounds},
      {"verdict_p50_ms", median(u.verdictMs), "ms", n},
      {"verdict_p95_ms", quantile(u.verdictMs, 0.95), "ms", n},
      {"app_ns_per_access", median(u.appNsPerAccess), "ns", n},
      {"app_slowdown", median(u.slowdown), "ratio", n},
      {"peak_rss_mb", peakRssMiB, "MiB", 1},
      {"setup_s", median(setupS), "s", setupS.size()},
  };
}

/// Inputs of the per-layer ledger.
struct LedgerInputs {
  bool vm = false;
  const Pool* pool = nullptr;
  const SpanRecorder* spans = nullptr;
  const Acc* traced = nullptr;
  const Acc* untraced = nullptr;
  const Replays* replays = nullptr;
};

std::vector<Metric> ledgerMetrics(const LedgerInputs& in) {
  const std::map<std::string, SpanRecorder::Total> totals =
      in.spans->totals();
  const auto total = [&](const char* n) {
    const auto it = totals.find(n);
    return it == totals.end() ? SpanRecorder::Total{} : it->second;
  };
  const auto self = [&](const char* n) { return d(total(n).selfNs); };
  const auto spansOf = [&](const char* n) {
    return static_cast<std::size_t>(total(n).spans);
  };
  // Self time per item the spans covered (events, messages, nodes).
  const auto perItem = [&](const char* n) {
    return ratio(self(n), d(total(n).count));
  };
  const auto meanMs = [&](const char* n) {
    return ratio(d(total(n).durationNs), d(spansOf(n))) / 1e6;
  };
  const bool vm = in.vm;
  const Acc& tr = *in.traced;
  const Replays& rp = *in.replays;
  const double live = d(tr.messages);
  const double replayed = d(rp.messages);
  const std::size_t rs = rp.count;
  const std::size_t vmRounds = vm ? tr.rounds : 0;
  const std::size_t rtRounds = vm ? 0 : tr.rounds;

  // Lattice shape: over the whole generated trace set, so it repeats
  // exactly for a seed (threads_runtime: over the replays, whose chains
  // all have the same length).
  double nodesPerMsg = ratio(d(rp.nodes), replayed);
  double levels = ratio(d(rp.levels), d(rs));
  double maxWidth = d(rp.maxWidth);
  std::size_t shapeN = rs;
  if (vm) {
    double nodes = 0;
    double msgs = 0;
    double lv = 0;
    maxWidth = 0;
    for (const VmTrace& t : in.pool->traces) {
      nodes += d(t.stats.totalNodes);
      msgs += d(t.messages.size());
      lv += d(t.stats.levels);
      maxWidth = std::max(maxWidth, d(t.stats.peakLevelWidth));
    }
    shapeN = in.pool->traces.size();
    nodesPerMsg = ratio(nodes, msgs);
    levels = ratio(lv, d(shapeN));
  }

  // Ledger: per-message stage self times against the untraced live cost
  // per message.  The application part is Algorithm A plus the emitter
  // calls (VM workloads) or the runtime threads' wall time.
  const double appPerMsg =
      vm ? ratio(self("core.algo_a") + self("net.enqueue"), live)
         : ratio(d(total("runtime.app").durationNs), live);
  const double replayPerMsg =
      ratio(self("trace.encode") + self("net.deframe") +
                self("trace.decode") + self("analysis.ingest") +
                self("analysis.report"),
            replayed);
  const double liveNsPerMsg = ratio(1e9, in.untraced->msgsPerS());

  return {
      {"runtime.irrelevant_access_ns", perItem("runtime.irrelevant"), "ns",
       spansOf("runtime.irrelevant")},
      {"runtime.relevant_access_ns", perItem("runtime.relevant"), "ns",
       spansOf("runtime.relevant")},
      {"runtime.lock_pair_ns", perItem("runtime.lock_pair"), "ns",
       spansOf("runtime.lock_pair")},
      {"runtime.msgs_per_access", vm ? 0 : ratio(live, d(tr.accesses)),
       "msg/access", rtRounds},
      {"core.algo_a_ns_per_event", perItem("core.algo_a"), "ns",
       spansOf("core.algo_a")},
      {"core.msgs_per_event", vm ? ratio(live, d(tr.accesses)) : 0, "msg/event",
       vmRounds},
      {"core.join_entries_per_event",
       vm ? ratio(d(tr.joinEntries), d(tr.accesses)) : 0,
       "entries/event", vmRounds},
      {"trace.encode_ns_per_msg", perItem("trace.encode"), "ns", rs},
      {"trace.wire_bytes_per_msg", ratio(d(rp.wireBytes), replayed), "B/msg",
       rs},
      {"trace.decode_ns_per_msg", perItem("trace.decode"), "ns", rs},
      {"net.enqueue_ns_per_msg",
       vm ? perItem("net.enqueue") : ratio(d(tr.enqueueNs), live), "ns",
       tr.rounds},
      {"net.close_ms", meanMs("net.close"), "ms", spansOf("net.close")},
      {"net.msgs_per_frame", ratio(live, d(tr.dataFrames)), "msg/frame",
       tr.rounds},
      {"net.deframe_ns_per_frame", ratio(self("net.deframe"), d(rp.frames)),
       "ns", rs},
      {"net.verdict_wait_ms", meanMs("net.verdict_wait"), "ms",
       spansOf("net.verdict_wait")},
      {"net.pending_at_close", ratio(d(tr.pendingAtClose), d(tr.traces)),
       "msg", tr.traces},
      {"analysis.ingest_ns_per_msg", perItem("analysis.ingest"), "ns", rs},
      {"analysis.report_ms", meanMs("analysis.report"), "ms", rs},
      {"observer.causality_ns_per_msg", perItem("observer.causality"), "ns",
       rs},
      {"observer.expand_ns_per_node", perItem("observer.expand"), "ns", rs},
      {"observer.nodes_per_msg", nodesPerMsg, "node/msg", shapeN},
      {"observer.max_level_width", maxWidth, "node", shapeN},
      {"observer.levels", levels, "level", shapeN},
      {"logic.monitor_ns_per_node",
       ratio(self("observer.monitored") - self("observer.expand"),
             d(total("observer.expand").count)),
       "ns", rs},
      {"ledger.explained_ratio", ratio(appPerMsg + replayPerMsg, liveNsPerMsg),
       "ratio", rs},
      {"ledger.trace_overhead_ratio",
       ratio(in.untraced->msgsPerS(), tr.msgsPerS()), "ratio", tr.rounds},
  };
}

std::string contextJson(const Args& a) {
  std::string s = "{\"workload\": " + jsonStr(a.workload);
  s += ", \"seed\": " + std::to_string(a.seed);
  s += ", \"seconds\": " + num(a.seconds);
  s += ", \"trace\": " + std::to_string(a.trace);
  s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
#if defined(__clang__)
  s += ", \"compiler\": " + jsonStr("clang " __clang_version__);
#else
  s += ", \"compiler\": " + jsonStr("gcc " __VERSION__);
#endif
  s += ", \"cmake_build_type\": " + jsonStr(PERFBENCH_BUILD_TYPE);
  s += ", \"mpx_telemetry\": ";
  s += MPX_TELEMETRY_ENABLED ? "\"ON\"" : "\"OFF\"";
  s += ", \"git_commit\": " + jsonStr(a.commit);
  s += ", \"source_digest\": " + jsonStr(a.sourceDigest);
  return s + "}";
}

int run(const Args& a) {
  const bool vm = a.workload != "threads_runtime";
  const std::size_t perRound = a.workload == "ingest_narrow" ? 2 : 1;
  SetUp su = setUp(a);
  const Pool& pool = su.pool;

  Bench bench;
  bench.daemon = su.daemon.get();
  bench.runtimeReference = su.runtimeReference;
  SpanRecorder spans;
  std::size_t cursor = 0;
  Acc warm;
  Acc untraced;
  Acc traced;
  Replays replays;
  DaemonTotals daemons;

  const auto oneRound = [&](bool tracedRound) {
    bench.spans = tracedRound ? &spans : nullptr;
    RoundResult r;
    std::vector<const VmTrace*> picked;
    if (vm) {
      for (std::size_t i = 0; i < perRound; ++i) {
        picked.push_back(&pool.traces[cursor++ % pool.traces.size()]);
      }
      r = runVmRound(bench, picked);
    } else {
      const std::size_t n = pool.runtimeTraces.size();
      r = runRuntimeRound(bench, pool.runtimeTraces[cursor++ % n]);
    }
    if (tracedRound && r.failed == 0) {
      for (std::size_t i = 0; i < r.traceIds.size(); ++i) {
        const net::Handshake& h =
            vm ? picked[i]->handshake : runtimeHandshake();
        const std::vector<trace::Message>& msgs =
            vm ? picked[i]->messages : r.recorded;
        const std::string& ref =
            vm ? picked[i]->reference : su.runtimeReference;
        replays.add(replay(bench, r.traceIds[i], h, msgs, ref), msgs.size());
      }
    }
    bench.spans = nullptr;
    if (bench.nextTraceId - bench.sessionBase >= kTracesPerDaemon) {
      daemons.retire(*su.daemon, bench.probes);
      su.daemon = startDaemon();
      bench.daemon = su.daemon.get();
      bench.sessionBase = bench.nextTraceId;
      bench.probes = 0;
    }
    return r;
  };

  for (int i = 0; i < kWarmupRounds; ++i) warm.add(oneRound(false));
  const std::uint64_t deadline =
      nowNs() + static_cast<std::uint64_t>(a.seconds * 1e9);
  for (std::uint64_t k = 0; nowNs() < deadline || k < 2; ++k) {
    const bool tracedRound = a.trace == 1 && k % 2 == 0;
    (tracedRound ? traced : untraced).add(oneRound(tracedRound));
  }
  daemons.retire(*su.daemon, bench.probes);

  const std::uint64_t attempted = warm.traces + untraced.traces + traced.traces;
  const std::uint64_t failed = std::min<std::uint64_t>(
      attempted,
      warm.failed + untraced.failed + traced.failed + daemons.connsFailed);
  const std::uint64_t mismatches = warm.mismatches + untraced.mismatches +
                                   traced.mismatches + replays.mismatches;
  const bool correct = mismatches == 0 && su.deterministic;
  const double failedRatio = ratio(d(failed), d(attempted));
  // Dropped messages and failed connections fail their trace, and
  // reconnects and duplicates do not occur on loopback, so these read 0 on
  // a passing run: they go to '#' lines and the result file, not to
  // BENCHMARK.json.
  const std::vector<Metric> failureCounters = {
      {"net.reconnects",
       d(warm.reconnects + untraced.reconnects + traced.reconnects), "count",
       attempted},
      {"net.dropped_msgs", d(warm.dropped + untraced.dropped + traced.dropped),
       "msg", attempted},
      {"net.conns_failed", d(daemons.connsFailed), "count", attempted},
      {"analysis.duplicate_ratio",
       ratio(d(daemons.duplicates), d(daemons.ingested + daemons.duplicates)),
       "ratio", attempted},
  };

  std::vector<Metric> metrics;
  if (a.trace == 0) {
    metrics = endToEndMetrics(untraced, su.seconds);
  } else {
    LedgerInputs in;
    in.vm = vm;
    in.pool = &pool;
    in.spans = &spans;
    in.traced = &traced;
    in.untraced = &untraced;
    in.replays = &replays;
    metrics = ledgerMetrics(in);
  }

  // --- output ------------------------------------------------------------
  const std::string ctx = contextJson(a);
  std::printf("# context %s\n", ctx.c_str());
  std::printf("# pool fingerprint %016llx (%zu set-ups, %s)\n",
              static_cast<unsigned long long>(pool.fingerprint),
              su.seconds.size(),
              su.deterministic ? "identical" : "DIFFERENT");
  std::printf("# set-up seconds");
  for (const double t : su.seconds) std::printf(" %.4f", t);
  std::printf("\n");
  std::printf("# verdict_mismatches %llu count\n",
              static_cast<unsigned long long>(mismatches));
  std::printf("# failed_ratio %.6f ratio (%llu of %llu traces)\n", failedRatio,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const Metric& m : failureCounters) {
    std::printf("# counter %-22s %16.6f %-13s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("# %-30s %16.6f %-13s samples=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  if (a.trace == 0) {
    const std::size_t n = untraced.verdictMs.size();
    const std::size_t beyond =
        n - static_cast<std::size_t>(std::ceil(0.95 * d(n)));
    if (beyond < 10) {
      std::printf("# note: verdict_p95_ms has only %zu samples beyond it\n",
                  beyond);
    }
  }

  std::string result = "{\"correct\": ";
  result += correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted);
  result += ", \"failed\": " + std::to_string(failed);
  result += ", \"metrics\": {";
  std::string samples = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const char* sep = i == 0 ? "" : ", ";
    result += sep;
    result += jsonStr(m.name);
    result += ": {\"value\": " + num(m.value);
    result += ", \"unit\": " + jsonStr(m.unit) + "}";
    samples += sep;
    samples += jsonStr(m.name) + ": " + std::to_string(m.samples);
  }
  result += "}}";
  samples += "}";
  std::string counters = "{";
  for (const Metric& m : failureCounters) {
    if (counters.size() > 1) counters += ", ";
    counters += jsonStr(m.name) + ": " + num(m.value);
  }
  counters += "}";

  std::error_code ec;
  std::filesystem::create_directories(a.outDir, ec);
  const std::string stem = a.outDir + "/" + a.workload + "_seed" +
                           std::to_string(a.seed) + "_trace" +
                           std::to_string(a.trace);
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"context\": %s, \"result\": %s, \"samples\": %s, "
                 "\"verdict_mismatches\": %llu, \"failed_ratio\": %s, "
                 "\"failure_counters\": %s, "
                 "\"pool_fingerprint\": \"%016llx\"}\n",
                 ctx.c_str(), result.c_str(), samples.c_str(),
                 static_cast<unsigned long long>(mismatches),
                 num(failedRatio).c_str(), counters.c_str(),
                 static_cast<unsigned long long>(pool.fingerprint));
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s.json\n", stem.c_str());
  }
  if (a.trace == 1 &&
      !spans.writeChromeJson(stem + ".spans.json", ctx, kMaxSpansWritten)) {
    std::fprintf(stderr, "cannot write %s.spans.json\n", stem.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpx_perfbench: %s\n", e.what());
    return 2;
  }
}
