#pragma once
// Durable-file primitives for the mlmd::ft fault-tolerance subsystem
// (DESIGN.md Sec. 10), used by ft::Checkpoint and mlmd_serve's result files:
//
//   AtomicFile  write-to-temp + fsync-free rename so a crash mid-write
//               never leaves a torn file under the final name. A reader
//               either sees the complete previous version or the complete
//               new one — the property checkpoint/restart depends on.
//   crc32       IEEE 802.3 CRC-32, the integrity trailer of the
//               ft::Checkpoint container format.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

namespace mlmd::ft {

/// IEEE CRC-32 (polynomial 0xEDB88320) of `bytes`, continuing from
/// `seed` (pass a previous return value to checksum in chunks).
std::uint32_t crc32(std::span<const std::byte> bytes, std::uint32_t seed = 0);

/// Write-then-rename file writer. Data goes to "<path>.tmp"; commit()
/// flushes, checks stdio error state, closes, and renames over `path`.
/// If commit() is never reached (exception, early return), the
/// destructor discards the temp file and `path` is untouched.
class AtomicFile {
 public:
  /// Opens "<path>.tmp" with the given stdio mode ("wb"/"w"). Throws
  /// std::runtime_error when the temp file cannot be opened.
  explicit AtomicFile(std::string path, const char* mode = "wb");
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// The open stdio stream (null after commit()).
  std::FILE* get() const { return fp_; }

  /// fwrite wrapper that throws std::runtime_error on a short write.
  void write(const void* data, std::size_t size, std::size_t count);

  /// Flush, verify no stdio error was latched, close, and atomically
  /// rename the temp file to the final path. Throws on any failure
  /// (the temp file is removed in that case).
  void commit();

 private:
  void discard();

  std::string path_, tmp_path_;
  std::FILE* fp_ = nullptr;
};

} // namespace mlmd::ft
