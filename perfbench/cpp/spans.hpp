// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around the benchmark's own calls into each MPX layer
// (never inside the library), kept in memory while the run is measured, and
// written as Chrome trace-event JSON when it ends.  A span's self time is
// its duration minus the part of its interval that its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (the one clock every span uses).
inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  const char* name = "";  ///< a string literal: the layer.stage name
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::int64_t parent = kNoParent;  ///< index into the recorder, or none
  std::uint64_t traceId = 0;        ///< the daemon session's trace id
  std::uint32_t tid = 0;            ///< 0 = main thread, 1.. = app threads
  std::uint64_t count = 0;          ///< work items the span covers
};

class SpanRecorder {
 public:
  /// Records a finished span; returns its id (for children's `parent`).
  /// Thread-safe.
  std::int64_t add(const Span& s);

  /// Opens a span now; close it with end().
  std::int64_t begin(const char* name, std::uint64_t traceId,
                     std::int64_t parent = kNoParent, std::uint64_t count = 0);
  void end(std::int64_t id, std::uint64_t count = 0);

  /// Per-name totals over every recorded span.
  struct Total {
    std::uint64_t spans = 0;
    std::uint64_t durationNs = 0;
    std::uint64_t selfNs = 0;
    std::uint64_t count = 0;
  };
  /// Computes self times (duration minus the union of child intervals,
  /// clipped to the parent) and sums them by span name.
  [[nodiscard]] std::map<std::string, Total> totals() const;

  /// Writes {"traceEvents": [...], "otherData": <contextJson>} with the
  /// first `maxSpans` spans (a long traced run records millions).  Returns
  /// false when the file cannot be written.
  bool writeChromeJson(const std::string& path, const std::string& contextJson,
                       std::size_t maxSpans) const;

 private:
  [[nodiscard]] std::vector<std::uint64_t> selfTimesLocked() const;

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
