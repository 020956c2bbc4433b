#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t SpanRecorder::add(const Span& s) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanRecorder::begin(const char* name, std::uint64_t traceId,
                                 std::int64_t parent, std::uint64_t count) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.traceId = traceId;
  s.count = count;
  s.startNs = nowNs();
  return add(s);
}

void SpanRecorder::end(std::int64_t id, std::uint64_t count) {
  const std::uint64_t t = nowNs();
  std::lock_guard<std::mutex> lk(mu_);
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.endNs = t;
  if (count != 0) s.count = count;
}

std::vector<std::uint64_t> SpanRecorder::selfTimesLocked() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.startNs, p.startNs);
    const std::uint64_t hi = std::min(s.endNs, p.endNs);
    if (lo < hi) {
      children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<std::uint64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.endNs > s.startNs ? s.endNs - s.startNs : 0;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    // Union of the child intervals: children on different threads (the
    // runtime workload's two app threads) may overlap.
    std::uint64_t covered = 0;
    std::uint64_t curLo = 0;
    std::uint64_t curHi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (!open || lo > curHi) {
        if (open) covered += curHi - curLo;
        curLo = lo;
        curHi = hi;
        open = true;
      } else {
        curHi = std::max(curHi, hi);
      }
    }
    if (open) covered += curHi - curLo;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

std::map<std::string, SpanRecorder::Total> SpanRecorder::totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<std::uint64_t> self = selfTimesLocked();
  std::map<std::string, Total> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Total& t = out[s.name];
    ++t.spans;
    t.durationNs += s.endNs > s.startNs ? s.endNs - s.startNs : 0;
    t.selfNs += self[i];
    t.count += s.count;
  }
  return out;
}

bool SpanRecorder::writeChromeJson(const std::string& path,
                                   const std::string& contextJson,
                                   std::size_t maxSpans) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<std::uint64_t> self = selfTimesLocked();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.startNs);
  const std::size_t n = std::min(maxSpans, spans_.size());
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.endNs > s.startNs ? s.endNs - s.startNs : 0;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"span_id\": %zu, \"parent\": %lld, "
                 "\"trace_id\": %llu, \"count\": %llu, \"self_us\": %.3f}}",
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<int>(std::string(s.name).find('.')), s.name,
                 static_cast<double>(s.startNs - origin) / 1e3,
                 static_cast<double>(dur) / 1e3, s.tid, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.traceId),
                 static_cast<unsigned long long>(s.count),
                 static_cast<double>(self[i]) / 1e3);
  }
  std::fprintf(f,
               "\n], \"otherData\": {\"context\": %s, "
               "\"spans_recorded\": %zu, \"spans_written\": %zu}}\n",
               contextJson.c_str(), spans_.size(), n);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
