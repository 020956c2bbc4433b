// Snapshot files: the daemon's epoch checkpoints on disk.
//
// A snapshot holds every live AnalyzerSession of one daemon at one epoch,
// each as a self-contained session blob (analysis/session.hpp), so a
// restarted daemon resumes mid-trace where the checkpoint left it.  The
// emitter side's at-least-once redelivery replays the gap between the
// checkpointed watermark and the kill point; each session's analyzer drops
// every message it already holds or consumed, so the resumed analysis is
// byte-identical to an uninterrupted run.
//
// File layout (little-endian):
//
//   u32 magic "MPXS" | u16 version | u64 sessionCount
//   sessionCount × ( str tenant | u64 traceId | u64 blobLen | blob )
//   u32 crc32 (over every preceding byte)
//
// The trailing CRC makes torn or bit-flipped files detectable before any
// blob is parsed; writes go to "<path>.tmp" and are renamed into place, so
// a crash mid-write never clobbers the previous good snapshot.  Readers
// treat the file as hostile input (it also feeds a fuzz target): every
// length word is bounds-checked and failures come back as static strings,
// never exceptions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "observer/checkpoint.hpp"

namespace mpx::net {

inline constexpr std::uint32_t kSnapshotMagic = 0x5358504Du;  // "MPXS" LE
inline constexpr std::uint16_t kSnapshotVersion = 1;
/// A snapshot never legitimately holds more sessions than a daemon holds
/// connections; the cap keeps a hostile count from driving allocation.
inline constexpr std::uint64_t kMaxSnapshotSessions = 1u << 16;

/// One checkpointed session: its routing key and its opaque blob
/// (AnalyzerSession::checkpoint output — parsed by the session layer, not
/// here).
struct SnapshotEntry {
  std::string tenant;
  std::uint64_t traceId = 0;
  std::vector<std::uint8_t> blob;
};

/// CRC-32 (IEEE 802.3, reflected) over `data` — the checksum the snapshot
/// trailer carries.  Exposed so tests and the corpus generator can frame
/// valid files.
[[nodiscard]] std::uint32_t snapshotCrc32(const std::uint8_t* data,
                                          std::size_t len);

/// Serializes `entries` into a complete snapshot file image (header +
/// entries + CRC trailer).
[[nodiscard]] std::vector<std::uint8_t> encodeSnapshot(
    const std::vector<SnapshotEntry>& entries);

/// Parses a snapshot file image.  Returns false with a static reason in
/// `*error` on any malformed input (bad magic/version, truncation,
/// hostile length words, CRC mismatch); `out` is left empty then.  Never
/// throws.
[[nodiscard]] bool decodeSnapshot(const std::uint8_t* data, std::size_t len,
                                  std::vector<SnapshotEntry>& out,
                                  const char** error);

/// Writes `entries` to `path` atomically: encode, write "<path>.tmp",
/// fsync, rename.  Returns false with a static reason on any I/O failure
/// (the previous snapshot at `path`, if any, is untouched then).
[[nodiscard]] bool writeSnapshotFile(const std::string& path,
                                     const std::vector<SnapshotEntry>& entries,
                                     const char** error);

/// Reads and validates the snapshot at `path`.  Returns false with a
/// static reason when the file is missing, unreadable, or malformed.
[[nodiscard]] bool readSnapshotFile(const std::string& path,
                                    std::vector<SnapshotEntry>& out,
                                    const char** error);

}  // namespace mpx::net
