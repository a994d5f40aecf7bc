#include "mlmd/ft/checkpoint.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "mlmd/obs/metrics.hpp"
#include "mlmd/obs/trace.hpp"

namespace mlmd::ft {
namespace {

void append_bytes(std::vector<std::byte>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n);
}

template <class T>
void append_pod(std::vector<std::byte>& out, const T& v) {
  append_bytes(out, &v, sizeof(T));
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

void CheckpointWriter::add(const std::string& name,
                           std::vector<std::byte> payload) {
  if (name.empty())
    throw std::invalid_argument("Checkpoint: section name must be non-empty");
  sections_[name] = std::move(payload);
}

std::size_t CheckpointWriter::payload_bytes() const {
  std::size_t n = 0;
  for (const auto& [name, payload] : sections_) n += payload.size();
  return n;
}

void CheckpointWriter::write(const std::string& path) const {
  static auto& h_seconds =
      obs::Registry::global().histogram("ft.checkpoint.seconds");
  obs::ObsScope span("ft.checkpoint.write", obs::Cat::kPhase, &h_seconds);

  // Body: everything after the magic, checksummed as one blob. Checkpoint
  // files are modest (state snapshots, not trajectories), so assembling
  // in memory keeps the CRC and the atomic write trivially correct.
  std::vector<std::byte> body;
  body.reserve(64 + payload_bytes());
  append_pod(body, kCheckpointVersion);
  append_pod(body, static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    append_pod(body, static_cast<std::uint32_t>(name.size()));
    append_bytes(body, name.data(), name.size());
    append_pod(body, static_cast<std::uint64_t>(payload.size()));
    append_bytes(body, payload.data(), payload.size());
  }
  const std::uint32_t crc = crc32(body);

  AtomicFile out(path);
  out.write(kCheckpointMagic, 1, sizeof kCheckpointMagic);
  out.write(body.data(), 1, body.size());
  out.write(&crc, sizeof crc, 1);
  out.commit();

  auto& reg = obs::Registry::global();
  static auto& writes = reg.counter("ft.checkpoint.writes");
  static auto& bytes = reg.counter("ft.checkpoint.bytes");
  writes.add(1);
  bytes.add(sizeof kCheckpointMagic + body.size() + sizeof crc);
}

CheckpointReader::CheckpointReader(const std::string& path) : path_(path) {
  File fp(std::fopen(path.c_str(), "rb"));
  if (!fp) throw std::runtime_error("Checkpoint: cannot open " + path);
  std::vector<std::byte> data;
  char chunk[1 << 16];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof chunk, fp.get())) > 0)
    append_bytes(data, chunk, got);
  if (std::ferror(fp.get()))
    throw std::runtime_error("Checkpoint: read error on " + path);

  if (data.size() < sizeof kCheckpointMagic + 2 * sizeof(std::uint32_t) +
                        sizeof(std::uint32_t))
    throw std::runtime_error("Checkpoint: truncated file " + path);
  if (std::memcmp(data.data(), kCheckpointMagic, sizeof kCheckpointMagic) != 0)
    throw std::runtime_error("Checkpoint: bad magic in " + path);

  // Verify the CRC trailer over the body before parsing anything.
  const std::size_t body_begin = sizeof kCheckpointMagic;
  const std::size_t body_end = data.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, data.data() + body_end, sizeof stored_crc);
  const std::uint32_t actual_crc = crc32(
      std::span<const std::byte>(data.data() + body_begin,
                                 body_end - body_begin));
  if (stored_crc != actual_crc)
    throw std::runtime_error("Checkpoint: CRC mismatch in " + path +
                             " (corrupt or torn file)");

  std::size_t pos = body_begin;
  auto need = [&](std::size_t n) {
    if (pos + n > body_end)
      throw std::runtime_error("Checkpoint: truncated section table in " +
                               path_);
  };
  auto read_u32 = [&] {
    need(sizeof(std::uint32_t));
    std::uint32_t v;
    std::memcpy(&v, data.data() + pos, sizeof v);
    pos += sizeof v;
    return v;
  };
  auto read_u64 = [&] {
    need(sizeof(std::uint64_t));
    std::uint64_t v;
    std::memcpy(&v, data.data() + pos, sizeof v);
    pos += sizeof v;
    return v;
  };

  const std::uint32_t version = read_u32();
  if (version != kCheckpointVersion)
    throw std::runtime_error("Checkpoint: version " + std::to_string(version) +
                             " not supported (want " +
                             std::to_string(kCheckpointVersion) + ") in " +
                             path);
  const std::uint32_t nsections = read_u32();
  for (std::uint32_t i = 0; i < nsections; ++i) {
    const std::uint32_t name_len = read_u32();
    need(name_len);
    std::string name(reinterpret_cast<const char*>(data.data() + pos),
                     name_len);
    pos += name_len;
    const std::uint64_t payload_len = read_u64();
    need(payload_len);
    sections_[name].assign(data.begin() + static_cast<std::ptrdiff_t>(pos),
                           data.begin() +
                               static_cast<std::ptrdiff_t>(pos + payload_len));
    pos += payload_len;
  }
  if (pos != body_end)
    throw std::runtime_error("Checkpoint: trailing bytes after sections in " +
                             path);
}

std::vector<std::string> CheckpointReader::names() const {
  std::vector<std::string> out;
  out.reserve(sections_.size());
  for (const auto& [name, payload] : sections_) out.push_back(name);
  return out;
}

std::span<const std::byte> CheckpointReader::raw(
    const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end())
    throw std::runtime_error("Checkpoint: missing section '" + name +
                             "' in " + path_);
  return it->second;
}

} // namespace mlmd::ft
