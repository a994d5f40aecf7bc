#pragma once
// ft::Checkpoint — the versioned binary checkpoint container (DESIGN.md
// Sec. 10). Layout:
//
//   char     magic[8] = "MLMDCKPT"
//   u32      version  = 1
//   u32      nsections
//   repeated nsections times:
//     u32    name length, name bytes
//     u64    payload length, payload bytes
//   u32      CRC-32 over everything after the magic
//
// Sections are named byte blobs ("atoms.r", "rng.state", ...); composite
// state (pipeline, DC-MESH domain, MD driver) is a set of sections, so
// formats evolve by adding sections without breaking old readers. Files
// are written atomically (AtomicFile: tmp + rename) and verified on read
// (magic, version, CRC), so a restart either gets a bit-exact snapshot or
// a loud error — never a torn state.

#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "mlmd/ft/io.hpp"

namespace mlmd::ft {

inline constexpr char kCheckpointMagic[8] = {'M', 'L', 'M', 'D',
                                             'C', 'K', 'P', 'T'};
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Builder side: collect named sections, then write() atomically.
class CheckpointWriter {
 public:
  /// Add a raw byte section. Re-adding a name overwrites it.
  void add(const std::string& name, std::vector<std::byte> payload);

  /// Add one trivially-copyable value.
  template <class T>
  void add_pod(const std::string& name, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> b(sizeof(T));
    std::memcpy(b.data(), &v, sizeof(T));
    add(name, std::move(b));
  }

  /// Add a vector of trivially-copyable elements.
  template <class T>
  void add_vec(const std::string& name, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> b(v.size() * sizeof(T));
    if (!v.empty()) std::memcpy(b.data(), v.data(), b.size());
    add(name, std::move(b));
  }

  /// Serialize to `path` via AtomicFile; publishes ft.checkpoint.writes /
  /// .bytes counters and the ft.checkpoint.seconds histogram, under an
  /// "ft.checkpoint.write" span.
  void write(const std::string& path) const;

  /// Total payload bytes currently held (for tests / metrics).
  std::size_t payload_bytes() const;

 private:
  std::map<std::string, std::vector<std::byte>> sections_;
};

/// Reader side: parses and CRC-verifies a checkpoint file up front.
class CheckpointReader {
 public:
  /// Throws std::runtime_error on missing file, bad magic, version
  /// mismatch, truncation, or CRC failure.
  explicit CheckpointReader(const std::string& path);

  /// Names of all sections (sorted).
  std::vector<std::string> names() const;

  /// Raw section bytes; throws if absent.
  std::span<const std::byte> raw(const std::string& name) const;

  template <class T>
  T pod(const std::string& name) const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto b = raw(name);
    if (b.size() != sizeof(T))
      throw std::runtime_error("Checkpoint: section '" + name +
                               "' has wrong size in " + path_);
    T v;
    std::memcpy(&v, b.data(), sizeof(T));
    return v;
  }

  template <class T>
  std::vector<T> vec(const std::string& name) const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto b = raw(name);
    if (b.size() % sizeof(T) != 0)
      throw std::runtime_error("Checkpoint: section '" + name +
                               "' is not a whole number of elements in " +
                               path_);
    std::vector<T> v(b.size() / sizeof(T));
    if (!v.empty()) std::memcpy(v.data(), b.data(), b.size());
    return v;
  }

 private:
  std::string path_;
  std::map<std::string, std::vector<std::byte>> sections_;
};

} // namespace mlmd::ft
