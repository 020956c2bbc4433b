// Claim C4 — "at most two consecutive levels in the computation lattice
// need to be stored at any moment" (paper §4.1).
//
// The k-writer workload makes every relevant event pairwise concurrent, so
// the lattice is the product of k chains: total nodes (w+1)^k, runs
// (kw)!/(w!)^k — exponential — while the sliding-window construction keeps
// only two adjacent levels alive.  The counters below print exactly that
// gap (totalNodes vs peakLiveNodes) next to construction time.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"

#include <chrono>
#include <cstdio>

#include "core/instrumentor.hpp"
#include "observer/lattice.hpp"
#include "observer/online.hpp"
#include "program/corpus.hpp"
#include "program/scheduler.hpp"
#include "trace/channel.hpp"

namespace {

using namespace mpx;

struct Computation {
  observer::CausalityGraph graph;
  observer::StateSpace space;
};

Computation buildComputation(std::size_t threads, std::size_t writes) {
  const program::Program prog =
      program::corpus::independentWriters(threads, writes);
  program::GreedyScheduler sched;
  const program::ExecutionRecord rec = program::runProgram(prog, sched);

  Computation c;
  std::unordered_set<VarId> vars;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < threads; ++i) {
    names.push_back("v" + std::to_string(i));
    vars.insert(prog.vars.id(names.back()));
  }
  core::Instrumentor instr(core::RelevancePolicy::writesOf(vars), c.graph);
  for (const auto& e : rec.events) instr.onEvent(e);
  c.graph.finalize();
  c.space = observer::StateSpace::byNames(prog.vars, names);
  return c;
}

void BM_Lattice_IndependentWriters(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t writes = static_cast<std::size_t>(state.range(1));
  const Computation c = buildComputation(threads, writes);

  observer::LatticeStats stats;
  for (auto _ : state) {
    observer::ComputationLattice lattice(c.graph, c.space);
    stats = lattice.build();
    benchmark::DoNotOptimize(stats.totalNodes);
  }
  state.counters["nodes"] = static_cast<double>(stats.totalNodes);
  state.counters["peakLive"] = static_cast<double>(stats.peakLiveNodes);
  state.counters["runs"] = static_cast<double>(stats.pathCount);
  state.counters["levels"] = static_cast<double>(stats.levels);
  state.counters["edges"] = static_cast<double>(stats.totalEdges);
}
BENCHMARK(BM_Lattice_IndependentWriters)
    ->Args({2, 2})
    ->Args({2, 8})
    ->Args({3, 3})
    ->Args({3, 5})
    ->Args({4, 3})
    ->Args({4, 4})
    ->Args({5, 3});

/// The other extreme: fully ordered relevant events — a path lattice.
Computation buildSerialized(std::size_t threads, std::size_t writes) {
  const program::Program prog =
      program::corpus::serializedWriters(threads, writes);
  program::GreedyScheduler sched;
  const program::ExecutionRecord rec = program::runProgram(prog, sched);

  Computation c;
  core::Instrumentor instr(
      core::RelevancePolicy::writesOf({prog.vars.id("total")}), c.graph);
  for (const auto& e : rec.events) instr.onEvent(e);
  c.graph.finalize();
  c.space = observer::StateSpace::byNames(prog.vars, {"total"});
  return c;
}

void BM_Lattice_SerializedWriters(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t writes = static_cast<std::size_t>(state.range(1));
  const Computation c = buildSerialized(threads, writes);

  observer::LatticeStats stats;
  for (auto _ : state) {
    observer::ComputationLattice lattice(c.graph, c.space);
    stats = lattice.build();
    benchmark::DoNotOptimize(stats.totalNodes);
  }
  state.counters["nodes"] = static_cast<double>(stats.totalNodes);
  state.counters["peakLive"] = static_cast<double>(stats.peakLiveNodes);
  state.counters["runs"] = static_cast<double>(stats.pathCount);
}
BENCHMARK(BM_Lattice_SerializedWriters)->Args({3, 5})->Args({4, 8});

void BM_Lattice_SerializedWritersOnline(benchmark::State& state) {
  // The same path lattice fed to the OnlineAnalyzer one message at a time.
  // Consumed messages are collected as the frontier passes them, so a
  // level step costs the same however many levels came before it:
  // ns_per_level stays flat as the trace grows.
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t writes = static_cast<std::size_t>(state.range(1));
  const Computation c = buildSerialized(threads, writes);
  std::vector<trace::Message> msgs;
  for (const auto& ref : c.graph.observedOrder()) {
    msgs.push_back(c.graph.message(ref));
  }

  std::uint64_t levels = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    observer::OnlineAnalyzer online(c.space, threads, nullptr);
    for (const auto& m : msgs) online.onMessage(m);
    online.endOfTrace();
    levels = online.levelsCompleted();
    benchmark::DoNotOptimize(levels);
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["levels"] = static_cast<double>(levels);
  state.counters["ns_per_level"] =
      elapsed.count() / static_cast<double>(state.iterations() * levels);
}
BENCHMARK(BM_Lattice_SerializedWritersOnline)
    ->Args({2, 200})
    ->Args({2, 800})
    ->Args({2, 3200})
    ->Args({16, 128});

void printLevelTable() {
  std::printf(
      "=== Claim C4: sliding-window memory vs lattice size "
      "(k writers x w writes) ===\n");
  std::printf("%8s %8s %12s %12s %14s\n", "threads", "writes", "nodes",
              "peakLive", "runs");
  for (const auto& [threads, writes] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 4}, {3, 3}, {3, 5}, {4, 3}, {4, 4}, {5, 3}}) {
    const Computation c = buildComputation(threads, writes);
    observer::ComputationLattice lattice(c.graph, c.space);
    const auto& stats = lattice.build();
    std::printf("%8zu %8zu %12zu %12zu %14llu\n", threads, writes,
                stats.totalNodes, stats.peakLiveNodes,
                static_cast<unsigned long long>(stats.pathCount));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  printLevelTable();
  return mpx::bench::runAndExport("lattice_levels", argc, argv);
}
