#include "api/result_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "api/json.hpp"

namespace deproto::api {

namespace {

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), one-shot. ~60 lines beats a new dependency, and a
// cryptographic digest makes accidental key collisions a non-concern even
// across millions of cached jobs (entries still self-verify on load).

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void sha256_block(std::uint32_t state[8], const unsigned char* p) {
  std::uint32_t m[64];
  for (int i = 0; i < 16; ++i) {
    m[i] = (std::uint32_t{p[4 * i]} << 24) |
           (std::uint32_t{p[4 * i + 1]} << 16) |
           (std::uint32_t{p[4 * i + 2]} << 8) | std::uint32_t{p[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(m[i - 15], 7) ^ rotr(m[i - 15], 18) ^ (m[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(m[i - 2], 17) ^ rotr(m[i - 2], 19) ^ (m[i - 2] >> 10);
    m[i] = m[i - 16] + s0 + m[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + S1 + ch + kSha256K[i] + m[i];
    const std::uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = S0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

std::string sha256_hex(const std::string& bytes) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t remaining = bytes.size();
  while (remaining >= 64) {
    sha256_block(state, data);
    data += 64;
    remaining -= 64;
  }
  // Final block(s): message tail, 0x80, zero padding, 64-bit bit length.
  unsigned char tail[128] = {0};
  for (std::size_t i = 0; i < remaining; ++i) tail[i] = data[i];
  tail[remaining] = 0x80;
  const std::size_t tail_len = remaining + 1 + 8 <= 64 ? 64 : 128;
  const std::uint64_t bits = std::uint64_t{bytes.size()} * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<unsigned char>(bits >> (8 * i));
  }
  sha256_block(state, tail);
  if (tail_len == 128) sha256_block(state, tail + 64);

  std::string hex(64, '0');
  static const char kDigits[] = "0123456789abcdef";
  for (int w = 0; w < 8; ++w) {
    for (int nibble = 0; nibble < 8; ++nibble) {
      hex[static_cast<std::size_t>(8 * w + nibble)] =
          kDigits[(state[w] >> (28 - 4 * nibble)) & 0xF];
    }
  }
  return hex;
}

ResultCache::ResultCache(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (!std::filesystem::is_directory(dir_)) {
    throw SpecError("result cache: cannot create directory " + dir_.string() +
                    (ec ? " (" + ec.message() + ")" : ""));
  }
}

std::string ResultCache::key_for_dump(const std::string& spec_dump) const {
  // The canonical compact dump is the content being addressed; the header
  // folds in the format version so a new one invalidates every key at
  // once. The empty line is format v3's salt slot.
  std::string material = "deproto-result-cache/v";
  material += std::to_string(kFormatVersion);
  material += "\n\n";
  material += spec_dump;
  return sha256_hex(material);
}

std::string ResultCache::key_for(const ScenarioSpec& spec) const {
  return key_for_dump(spec.to_json().dump());
}

std::filesystem::path ResultCache::entry_path(const std::string& key) const {
  return dir_ / (key + ".json");
}

ResultCache::EntryRead ResultCache::read_entry(
    const std::filesystem::path& path, const std::string& spec_dump,
    ExperimentResult* out) const {
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) return EntryRead::Absent;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string contents = std::move(buffer).str();
    // Entry: "<header json>\n<result dump>\n".
    const std::size_t split = contents.find('\n');
    if (split == std::string::npos) return EntryRead::Corrupt;
    const Json header = Json::parse(contents.substr(0, split));
    // Self-verification: format and the full stored spec must
    // match. The spec comparison turns a (vanishingly unlikely) hash
    // collision into a miss instead of a silently wrong replay, and
    // doubles as the stale-format check for older entries (their header
    // parses, the format test fails).
    if (header.at("format").as_size() !=
            static_cast<std::size_t>(kFormatVersion) ||
        header.at("spec").dump() != spec_dump) {
      return EntryRead::Corrupt;
    }
    // What remains is the result dump, parsed in place (no second copy).
    std::string& dump = contents.erase(0, split + 1);
    if (!dump.empty() && dump.back() == '\n') dump.pop_back();
    // The header's recorded byte count catches a truncated body (torn
    // writes are already impossible under tmp+rename).
    if (dump.size() != header.at("result_bytes").as_size()) {
      return EntryRead::Corrupt;
    }
    *out = ExperimentResult::from_json(Json::parse(dump));
    return EntryRead::Ok;
  } catch (const std::exception&) {
    return EntryRead::Corrupt;  // unparseable or shape-mismatched entry
  }
}

std::optional<ExperimentResult> ResultCache::load(const ScenarioSpec& spec) {
  const std::string spec_dump = spec.to_json().dump();
  const std::filesystem::path path = entry_path(key_for_dump(spec_dump));

  ExperimentResult result;
  const EntryRead read = read_entry(path, spec_dump, &result);

  if (read == EntryRead::Ok) {
    // A hit is a use: refresh the entry's mtime so the LRU size bound
    // (set_max_bytes) evicts cold entries before replayed ones.
    std::error_code touch_ec;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), touch_ec);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (read == EntryRead::Ok) {
    ++stats_.hits;
    used_.insert(path.filename().string());
    return result;
  }
  ++stats_.misses;
  if (read == EntryRead::Corrupt) ++stats_.corrupt;
  return std::nullopt;
}

void ResultCache::store(const ScenarioSpec& spec,
                        const ExperimentResult& result) {
  const std::string result_dump =
      result.to_json(/*include_timing=*/false).dump();
  Json spec_json = spec.to_json();
  const std::string key = key_for_dump(spec_json.dump());
  const std::filesystem::path path = entry_path(key);

  // Header line only; the (deterministic-form) result dump is appended
  // verbatim as line two. Wall-clock never enters an entry: it would leak
  // one machine's timing into every later replay.
  Json header = Json::object();
  header.set("format", Json::number(kFormatVersion));
  header.set("salt", Json::string(std::string()));  // format v3's slot
  header.set("spec", std::move(spec_json));
  header.set("result_bytes", Json::number(result_dump.size()));

  // Unique tmp name per writer (pid x thread, so concurrent processes
  // sharing one cache dir cannot interleave into the same tmp file), then
  // an atomic rename: a crash mid-write can never leave a torn file under
  // the final name -- at worst a stray .tmp that gc_unused() sweeps up.
  const std::size_t writer =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::filesystem::path tmp =
      dir_ / (key + ".tmp." + std::to_string(getpid()) + "." +
              std::to_string(writer));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << header.dump() << '\n' << result_dump << '\n';
    if (!out.flush().good()) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;  // best-effort: an unwritable cache just stops memoizing
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }

  std::error_code size_ec;
  const std::uint64_t entry_bytes = std::filesystem::file_size(path, size_ec);

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.stores;
  used_.insert(path.filename().string());
  if (max_bytes_ > 0) {
    if (approx_bytes_valid_) {
      approx_bytes_ += size_ec ? 0 : entry_bytes;
    }
    if (!approx_bytes_valid_ || approx_bytes_ > max_bytes_) {
      enforce_size_bound_locked();
    }
  }
}

void ResultCache::note_skipped() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.skipped;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ResultCache::set_max_bytes(std::uint64_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_bytes_ = max_bytes;
  approx_bytes_valid_ = false;  // reseed from a scan at the next store
}

std::uint64_t ResultCache::max_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_bytes_;
}

std::size_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

void ResultCache::enforce_size_bound_locked() {
  struct Entry {
    std::filesystem::file_time_type mtime;
    std::string name;  // mtime tie-break, so eviction order is stable
    std::uint64_t bytes = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& dirent : std::filesystem::directory_iterator(dir_, ec)) {
    if (!dirent.is_regular_file()) continue;
    if (dirent.path().extension() != ".json") continue;  // skip stray .tmp
    std::error_code stat_ec;
    Entry entry;
    entry.mtime = dirent.last_write_time(stat_ec);
    if (stat_ec) continue;
    entry.bytes = dirent.file_size(stat_ec);
    if (stat_ec) continue;
    entry.name = dirent.path().filename().string();
    total += entry.bytes;
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return std::tie(a.mtime, a.name) < std::tie(b.mtime, b.name);
            });
  for (const Entry& entry : entries) {
    if (total <= max_bytes_) break;
    std::error_code remove_ec;
    if (!std::filesystem::remove(dir_ / entry.name, remove_ec)) continue;
    total -= entry.bytes;
    ++evictions_;
  }
  approx_bytes_ = total;
  approx_bytes_valid_ = true;
}

std::size_t ResultCache::gc_unused() {
  std::unordered_set<std::string> keep;
  {
    std::lock_guard<std::mutex> lock(mu_);
    keep = used_;
  }
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& dirent : std::filesystem::directory_iterator(dir_, ec)) {
    if (!dirent.is_regular_file()) continue;
    const std::string name = dirent.path().filename().string();
    if (keep.count(name) != 0) continue;
    std::error_code remove_ec;
    if (std::filesystem::remove(dirent.path(), remove_ec)) ++removed;
  }
  return removed;
}

}  // namespace deproto::api
