#include "src/mph/recover.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "src/mph/errors.hpp"
#include "src/util/crc32.hpp"

namespace mph::recover {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'M', 'P', 'H', 'C', 'K', 'P', 'T', '1'};

void append_bytes(std::vector<std::byte>& out,
                  std::span<const std::byte> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

template <class T>
void append_value(std::vector<std::byte>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

/// Bounds-checked little reader over the serialized image.
struct Reader {
  std::span<const std::byte> data;
  std::size_t pos = 0;
  std::string_view what;

  void need(std::size_t n) const {
    if (n > data.size() - pos) {  // pos + n could wrap for a crafted n
      throw SetupError("checkpoint '" + std::string(what) +
                       "' is truncated (need " + std::to_string(n) +
                       " bytes at offset " + std::to_string(pos) + ", have " +
                       std::to_string(data.size() - pos) + ")");
    }
  }
  template <class T>
  T read() {
    need(sizeof(T));
    T value;
    std::memcpy(&value, data.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }
  std::span<const std::byte> read_span(std::size_t n) {
    need(n);
    const std::span<const std::byte> result = data.subspan(pos, n);
    pos += n;
    return result;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

void Checkpoint::put_doubles(std::string_view key,
                             std::span<const double> values) {
  put_bytes(key, std::as_bytes(values));
}

void Checkpoint::put_u64s(std::string_view key,
                          std::span<const std::uint64_t> values) {
  put_bytes(key, std::as_bytes(values));
}

void Checkpoint::put_bytes(std::string_view key,
                           std::span<const std::byte> bytes) {
  entries_[std::string(key)].assign(bytes.begin(), bytes.end());
}

void Checkpoint::put_scalar(std::string_view key, double value) {
  put_doubles(key, std::span<const double>(&value, 1));
}

void Checkpoint::put_flag(std::string_view key, bool value) {
  const std::uint64_t v = value ? 1 : 0;
  put_u64s(key, std::span<const std::uint64_t>(&v, 1));
}

namespace {

const std::vector<std::byte>& find_entry(
    const std::map<std::string, std::vector<std::byte>, std::less<>>& entries,
    std::string_view key) {
  const auto it = entries.find(key);
  if (it == entries.end()) {
    throw SetupError("checkpoint has no entry '" + std::string(key) + "'");
  }
  return it->second;
}

template <class T>
std::vector<T> entry_as(
    const std::map<std::string, std::vector<std::byte>, std::less<>>& entries,
    std::string_view key) {
  const std::vector<std::byte>& raw = find_entry(entries, key);
  if (raw.size() % sizeof(T) != 0) {
    throw SetupError("checkpoint entry '" + std::string(key) + "' holds " +
                     std::to_string(raw.size()) +
                     " bytes, not a multiple of the element size " +
                     std::to_string(sizeof(T)));
  }
  std::vector<T> values(raw.size() / sizeof(T));
  if (!values.empty()) std::memcpy(values.data(), raw.data(), raw.size());
  return values;
}

}  // namespace

std::vector<double> Checkpoint::doubles(std::string_view key) const {
  return entry_as<double>(entries_, key);
}

std::vector<std::uint64_t> Checkpoint::u64s(std::string_view key) const {
  return entry_as<std::uint64_t>(entries_, key);
}

std::vector<std::byte> Checkpoint::bytes(std::string_view key) const {
  return find_entry(entries_, key);
}

double Checkpoint::scalar(std::string_view key) const {
  const std::vector<double> values = doubles(key);
  if (values.size() != 1) {
    throw SetupError("checkpoint entry '" + std::string(key) + "' holds " +
                     std::to_string(values.size()) + " values, expected 1");
  }
  return values.front();
}

bool Checkpoint::flag(std::string_view key) const {
  const std::vector<std::uint64_t> values = u64s(key);
  if (values.size() != 1) {
    throw SetupError("checkpoint entry '" + std::string(key) + "' holds " +
                     std::to_string(values.size()) + " values, expected 1");
  }
  return values.front() != 0;
}

bool Checkpoint::has(std::string_view key) const noexcept {
  return entries_.contains(key);
}

std::vector<std::byte> Checkpoint::to_bytes() const {
  std::vector<std::byte> out;
  append_bytes(out, std::as_bytes(std::span<const char>(kMagic)));
  append_value(out, kFormatVersion);
  append_value(out, step_);
  append_value(out, static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [key, payload] : entries_) {
    append_value(out, static_cast<std::uint32_t>(key.size()));
    append_bytes(out, std::as_bytes(std::span<const char>(key)));
    append_value(out, static_cast<std::uint64_t>(payload.size()));
    append_bytes(out, payload);
  }
  append_value(out, util::crc32(out));
  return out;
}

Checkpoint Checkpoint::from_bytes(std::span<const std::byte> data,
                                  std::string_view what) {
  Reader in{data, 0, what};
  const std::span<const std::byte> magic = in.read_span(sizeof(kMagic));
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    throw SetupError("checkpoint '" + std::string(what) +
                     "' has a bad magic header (not a checkpoint file?)");
  }
  const auto version = in.read<std::uint32_t>();
  if (version != kFormatVersion) {
    throw SetupError("checkpoint '" + std::string(what) +
                     "' has format version " + std::to_string(version) +
                     ", this build reads version " +
                     std::to_string(kFormatVersion));
  }
  Checkpoint ckpt;
  ckpt.step_ = in.read<std::uint64_t>();
  const auto n_entries = in.read<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_entries; ++i) {
    const auto key_len = in.read<std::uint32_t>();
    const std::span<const std::byte> key_bytes = in.read_span(key_len);
    std::string key(reinterpret_cast<const char*>(key_bytes.data()), key_len);
    const auto payload_len = in.read<std::uint64_t>();
    const std::span<const std::byte> payload =
        in.read_span(static_cast<std::size_t>(payload_len));
    ckpt.entries_[std::move(key)].assign(payload.begin(), payload.end());
  }
  // The CRC covers everything before it; any flipped bit fails here.
  const std::size_t body_end = in.pos;
  const auto stored_crc = in.read<std::uint32_t>();
  const std::uint32_t computed_crc = util::crc32(data.subspan(0, body_end));
  if (stored_crc != computed_crc) {
    throw SetupError("checkpoint '" + std::string(what) +
                     "' failed CRC validation (stored " +
                     std::to_string(stored_crc) + ", computed " +
                     std::to_string(computed_crc) + ") — corrupt file");
  }
  if (in.pos != data.size()) {
    throw SetupError("checkpoint '" + std::string(what) + "' has " +
                     std::to_string(data.size() - in.pos) +
                     " trailing bytes after the CRC");
  }
  return ckpt;
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

CheckpointStore::CheckpointStore(std::string dir, int retain)
    : dir_(std::move(dir)), retain_(retain) {
  if (retain_ < 1) {
    throw SetupError("CheckpointStore: retain must be >= 1, got " +
                     std::to_string(retain_));
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw SetupError("CheckpointStore: cannot create directory '" + dir_ +
                     "': " + ec.message());
  }
}

std::string CheckpointStore::path_of(std::string_view member,
                                     std::uint64_t step) const {
  return (fs::path(dir_) / (std::string(member) + ".step" +
                            std::to_string(step) + ".ckpt"))
      .string();
}

void CheckpointStore::save(std::string_view member,
                           const Checkpoint& ckpt) const {
  const std::vector<std::byte> image = ckpt.to_bytes();
  const std::string final_path = path_of(member, ckpt.step());
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw SetupError("CheckpointStore: cannot open '" + tmp_path +
                       "' for writing");
    }
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    if (!out) {
      throw SetupError("CheckpointStore: short write to '" + tmp_path + "'");
    }
  }
  // Atomic publish: readers see either the old file set or the complete new
  // file, never a partial write.
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    throw SetupError("CheckpointStore: rename '" + tmp_path + "' -> '" +
                     final_path + "' failed: " + ec.message());
  }
  // Prune beyond the retained history (keep the newest `retain` steps).
  const std::vector<std::uint64_t> all = steps(member);
  if (static_cast<int>(all.size()) > retain_) {
    for (std::size_t i = 0; i + static_cast<std::size_t>(retain_) < all.size();
         ++i) {
      fs::remove(path_of(member, all[i]), ec);  // best-effort
    }
  }
}

std::vector<std::uint64_t> CheckpointStore::steps(
    std::string_view member) const {
  const std::string prefix = std::string(member) + ".step";
  const std::string suffix = ".ckpt";
  std::vector<std::uint64_t> result;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    result.push_back(std::stoull(digits));
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::optional<std::uint64_t> CheckpointStore::latest_step(
    std::string_view member) const {
  const std::vector<std::uint64_t> all = steps(member);
  if (all.empty()) return std::nullopt;
  return all.back();
}

std::optional<Checkpoint> CheckpointStore::load_step(std::string_view member,
                                                     std::uint64_t step) const {
  const std::string path = path_of(member, step);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const Checkpoint ckpt =
      Checkpoint::from_bytes(std::as_bytes(std::span<const char>(raw)), path);
  if (ckpt.step() != step) {
    throw SetupError("checkpoint '" + path + "' is stamped step " +
                     std::to_string(ckpt.step()) + " but named step " +
                     std::to_string(step));
  }
  return ckpt;
}

std::optional<Checkpoint> CheckpointStore::load_latest(
    std::string_view member) const {
  const std::optional<std::uint64_t> step = latest_step(member);
  if (!step.has_value()) return std::nullopt;
  return load_step(member, *step);
}

}  // namespace mph::recover
