#pragma once

// On-disk, content-addressed memoization of ExperimentResults: the unit of
// work a sweep re-executes after editing one axis is the SweepJob, and a
// job is fully determined by its concrete ScenarioSpec (sweep expansion
// bakes the replicate seed into spec.seed). So the cache key is a SHA-256
// over the canonical compact ScenarioSpec JSON plus the cache-format
// version, and the cached payload is the job's deterministic
// ExperimentResult::to_json(false) document -- a warm replay parses to a
// result whose re-dump is byte-identical to the cold run's.
//
//   ResultCache cache("/tmp/deproto-cache");
//   SuiteOptions options;
//   options.cache = &cache;                  // lookup-before-execute +
//   SuiteRunner(options).run(sweep);         // write-through-after
//
// Entries are self-describing two-line files named <key>.json: line one
// is a header object (format version, an empty "salt" field kept for
// format v3, the full spec, and the body's byte count), line two the
// canonical result dump. Anything that fails to open, parse, or validate
// (truncated write, stale format, hash collision) is treated as a miss,
// re-run, and atomically
// overwritten -- a corrupt cache can cost time, never correctness. Several
// processes may share one directory: writes go through a per-writer tmp
// file and an atomic rename. Failed jobs are never cached (they re-run
// every time, counted as `skipped`).

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>

#include "api/experiment.hpp"
#include "api/spec.hpp"

namespace deproto::api {

/// SHA-256 of `bytes` as 64 lowercase hex chars (FIPS 180-4, hand-rolled
/// -- no new dependency). The primitive under key_for(), exposed so tests
/// can pin it against the NIST vectors.
[[nodiscard]] std::string sha256_hex(const std::string& bytes);

/// Cache accounting over one ResultCache's lifetime. SuiteRunner reports
/// the per-run delta in SweepResult::cache; the CLI prints it.
struct CacheStats {
  std::size_t hits = 0;    ///< entries loaded instead of executed
  std::size_t misses = 0;  ///< lookups that had to execute (incl. corrupt)
  std::size_t corrupt = 0;  ///< subset of misses: entry present but invalid
  std::size_t stores = 0;   ///< entries written after a miss
  std::size_t skipped = 0;  ///< failed jobs: never cached, always re-run

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

class ResultCache {
 public:
  /// Bumped whenever the key derivation or the cached payload shape
  /// changes incompatibly; every key hashes it, so a binary with a new
  /// format sees an old directory as all misses instead of bad replays.
  /// v3: two-line entries (header + canonical dump); the header no
  /// longer carries the job's metric vector.
  static constexpr int kFormatVersion = 3;

  /// Opens (creating, with parents) the cache directory. Throws SpecError
  /// when the directory cannot be created.
  explicit ResultCache(std::filesystem::path dir);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }

  /// The content address of one concrete spec: 64 hex chars of
  /// SHA-256("deproto-result-cache/v<N>\n\n<canonical spec dump>"); the
  /// empty line is format v3's salt slot, kept so existing entries hit.
  /// The compact spec dump is canonical by construction (ordered keys,
  /// normalized numbers), so semantically equal specs share a key.
  [[nodiscard]] std::string key_for(const ScenarioSpec& spec) const;

  /// Lookup-before-execute: returns the memoized result, or nullopt on
  /// miss. A present-but-invalid entry (unparseable, wrong format, spec
  /// mismatch) counts as corrupt + miss; the caller re-runs and
  /// store() overwrites it. Thread-safe.
  [[nodiscard]] std::optional<ExperimentResult> load(const ScenarioSpec& spec);

  /// Write-through-after: memoize a successful result under spec's key
  /// (atomic tmp-file + rename, so a crashed run never leaves a torn
  /// entry under the final name). Best-effort: I/O failures are swallowed
  /// -- the cache degrades to re-running, it never fails a sweep.
  /// Thread-safe.
  void store(const ScenarioSpec& spec, const ExperimentResult& result);

  /// Record a job that ran and failed; failures are not memoized.
  void note_skipped();

  [[nodiscard]] CacheStats stats() const;

  /// Size bound on the entry files in dir(): when non-zero, store() keeps
  /// the total size of <key>.json entries at or below `max_bytes` by
  /// evicting least-recently-used entries first (recency is the entry
  /// file's mtime; load() hits refresh it, so replayed entries stay warm).
  /// 0 -- the default -- means unbounded. The bound is enforced as
  /// entries are stored, best-effort: an already-oversized directory only
  /// shrinks once something new is written into it.
  void set_max_bytes(std::uint64_t max_bytes);
  [[nodiscard]] std::uint64_t max_bytes() const;

  /// Entries this instance evicted to stay under max_bytes(). Kept out of
  /// CacheStats so the SweepResult serialization is unchanged.
  [[nodiscard]] std::size_t evictions() const;

  /// Garbage collection: remove every entry file in dir() that this
  /// instance neither loaded nor stored (stale points from edited sweeps,
  /// abandoned tmp files, foreign junk). Call after the runs that define
  /// the live set; returns the number of files removed.
  std::size_t gc_unused();

 private:
  /// key_for with the spec already canonicalized: load/store serialize
  /// the spec exactly once per call instead of once per use.
  [[nodiscard]] std::string key_for_dump(const std::string& spec_dump) const;
  [[nodiscard]] std::filesystem::path entry_path(const std::string& key) const;

  /// Read + verify one entry file against `spec_dump` and parse its
  /// result, stats-free (load() translates the outcome into
  /// hit/miss/corrupt counts).
  enum class EntryRead { Absent, Corrupt, Ok };
  EntryRead read_entry(const std::filesystem::path& path,
                       const std::string& spec_dump,
                       ExperimentResult* out) const;

  /// Rescan dir() and evict oldest-mtime entries (filename breaks ties,
  /// for determinism) until the total is within max_bytes_. Caller holds
  /// mu_. Leaves approx_bytes_ equal to the post-eviction total.
  void enforce_size_bound_locked();

  std::filesystem::path dir_;

  mutable std::mutex mu_;
  std::unordered_set<std::string> used_;  // entry filenames touched
  CacheStats stats_;
  std::uint64_t max_bytes_ = 0;  // 0 = unbounded
  /// Running estimate of the entry bytes in dir(), used to skip the
  /// directory rescan while comfortably under the bound. Lazily seeded
  /// from a scan at the first bounded store; overwrites double-count
  /// until the next enforcement rescan corrects them (approximation only
  /// ever triggers enforcement early, never late by more than the drift).
  std::uint64_t approx_bytes_ = 0;
  bool approx_bytes_valid_ = false;
  std::size_t evictions_ = 0;
};

}  // namespace deproto::api
