// The result cache's contract: keys are content addresses of canonical
// spec JSON (stable and format-sensitive), a warm sweep replays
// byte-identically to the cold run on any thread count while executing
// zero simulations, corrupt entries degrade to misses and heal, failures
// are never memoized, and gc prunes what a run did not touch.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "api/result_cache.hpp"
#include "api/suite_runner.hpp"
#include "api/sweep.hpp"

namespace deproto::api {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty cache directory per test (TempDir is shared across the
/// whole test binary, so scope by test name).
fs::path fresh_dir() {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(testing::TempDir()) / "deproto-cache-test" /
                       (std::string(info->test_suite_name()) + "." +
                        info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<fs::path> entry_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& dirent : fs::directory_iterator(dir)) {
    if (dirent.is_regular_file() &&
        dirent.path().extension() == ".json") {
      files.push_back(dirent.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

SweepSpec tiny_sweep() {
  SweepSpec sweep;
  sweep.name = "cache-unit";
  sweep.base = registry_get("epidemic").scaled_to(200);
  sweep.base.periods = 5;
  sweep.axes.push_back(
      SweepAxis{"n", {Json::number(150), Json::number(200)}});
  sweep.replicates = 2;  // 4 jobs
  return sweep;
}

struct SweepOutput {
  SweepResult result;
  std::string json;   // deterministic to_json(false)
  std::string jsonl;  // streaming sink
};

SweepOutput run_with(ResultCache* cache, std::size_t threads,
                     const SweepSpec& sweep) {
  std::ostringstream jsonl;
  SuiteOptions options;
  options.threads = threads;
  options.jsonl = &jsonl;
  options.cache = cache;
  SweepOutput out;
  out.result = SuiteRunner(options).run(sweep);
  out.json = out.result.to_json(false).dump(2);
  out.jsonl = jsonl.str();
  return out;
}

TEST(Sha256Test, MatchesNistVectors) {
  // FIPS 180-4 / NIST CAVP short-message vectors.
  EXPECT_EQ(
      sha256_hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256_hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // Multi-block message (> 64 bytes) exercises the block loop + the
  // two-block padding tail.
  EXPECT_EQ(
      sha256_hex(std::string(1000, 'a')),
      "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
}

TEST(ResultCacheTest, KeyIsStableContentAddressed) {
  const fs::path dir = fresh_dir();
  ResultCache cache(dir);
  const ScenarioSpec spec = registry_get("epidemic");

  const std::string key = cache.key_for(spec);
  EXPECT_EQ(key.size(), 64U);
  EXPECT_EQ(key, cache.key_for(spec));  // pure function of content
  // Format v3's key material, with its empty salt line, so directories
  // written by earlier v3 binaries keep hitting.
  EXPECT_EQ(key,
            sha256_hex("deproto-result-cache/v3\n\n" + spec.to_json().dump()));

  // Any semantic change to the spec renames the key.
  ScenarioSpec reseeded = spec;
  reseeded.seed += 1;
  EXPECT_NE(cache.key_for(reseeded), key);

  // A copy of the same spec (fresh canonicalization path) agrees: the key
  // addresses content, not identity.
  const ScenarioSpec copy = spec;
  EXPECT_EQ(cache.key_for(copy), key);
}

TEST(ResultCacheTest, ColdMissesWarmHitsAndReplaysByteIdentically) {
  const fs::path dir = fresh_dir();
  const SweepSpec sweep = tiny_sweep();

  ResultCache cold_cache(dir);
  const SweepOutput cold = run_with(&cold_cache, 1, sweep);
  EXPECT_EQ(cold.result.jobs_failed, 0U);
  EXPECT_TRUE(cold.result.cache_enabled);
  EXPECT_EQ(cold.result.cache.hits, 0U);
  EXPECT_EQ(cold.result.cache.misses, 4U);
  EXPECT_EQ(cold.result.cache.stores, 4U);
  EXPECT_EQ(entry_files(dir).size(), 4U);

  // Warm replay, across both thread counts: all hits, zero executions,
  // byte-identical deterministic JSON and JSONL. This is the determinism
  // contract extended to cached replays.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ResultCache warm_cache(dir);
    const SweepOutput warm = run_with(&warm_cache, threads, sweep);
    EXPECT_EQ(warm.result.jobs_failed, 0U) << threads;
    EXPECT_EQ(warm.result.cache.hits, 4U) << threads;
    EXPECT_EQ(warm.result.cache.misses, 0U) << threads;
    EXPECT_EQ(warm.result.cache.stores, 0U) << threads;
    EXPECT_EQ(warm.json, cold.json) << threads;
    EXPECT_EQ(warm.jsonl, cold.jsonl) << threads;
    for (const JobOutcome& outcome : warm.result.jobs) {
      EXPECT_TRUE(outcome.cached);
    }
  }
  // Cache accounting is environment state: absent from the deterministic
  // form (or warm vs cold would differ), present in the timing form.
  EXPECT_EQ(cold.json.find("\"cache\""), std::string::npos);
  EXPECT_NE(cold.result.to_json(true).dump().find("\"cache\""),
            std::string::npos);
}

TEST(ResultCacheTest, CorruptEntriesAreMissesAndHeal) {
  const fs::path dir = fresh_dir();
  const SweepSpec sweep = tiny_sweep();
  std::string cold_json;
  {
    ResultCache cache(dir);
    cold_json = run_with(&cache, 1, sweep).json;
  }
  // Sabotage two of the four entries: one truncated mid-document (the
  // crash-during-write shape), one outright garbage.
  const std::vector<fs::path> entries = entry_files(dir);
  ASSERT_EQ(entries.size(), 4U);
  {
    std::ofstream truncated(entries[0], std::ios::trunc);
    truncated << "{\"format\":1,\"salt\":\"\",\"spec\":{\"na";
  }
  {
    std::ofstream garbage(entries[2], std::ios::trunc);
    garbage << "not json at all\n";
  }

  ResultCache repaired(dir);
  const SweepOutput rerun = run_with(&repaired, 1, sweep);
  EXPECT_EQ(rerun.result.jobs_failed, 0U);
  EXPECT_EQ(rerun.result.cache.hits, 2U);
  EXPECT_EQ(rerun.result.cache.misses, 2U);
  EXPECT_EQ(rerun.result.cache.corrupt, 2U);
  EXPECT_EQ(rerun.result.cache.stores, 2U);  // overwritten in place
  EXPECT_EQ(rerun.json, cold_json);          // corruption never leaks out

  // The overwrite healed the entries: a third run is all hits.
  ResultCache healed(dir);
  const SweepOutput third = run_with(&healed, 1, sweep);
  EXPECT_EQ(third.result.cache.hits, 4U);
  EXPECT_EQ(third.result.cache.corrupt, 0U);
  EXPECT_EQ(third.json, cold_json);
}

TEST(ResultCacheTest, WrongFormatVersionIsCorrupt) {
  const fs::path dir = fresh_dir();
  ResultCache cache(dir);
  const ScenarioSpec spec = tiny_sweep().base;
  // Plant an entry under spec's key claiming a future format: the binary
  // must not try to replay a payload shape it does not understand.
  {
    std::ofstream out(dir / (cache.key_for(spec) + ".json"));
    out << R"({"format":999,"salt":"","spec":{},"result":{}})" << "\n";
  }
  EXPECT_FALSE(cache.load(spec).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1U);
  EXPECT_EQ(cache.stats().misses, 1U);
}

TEST(ResultCacheTest, FailedJobsAreSkippedNeverCached) {
  const fs::path dir = fresh_dir();
  // Zip a valid job against one that throws at launch (negative clock
  // drift on the event backend), mirroring the SuiteRunner failure test.
  SweepSpec sweep = tiny_sweep();
  sweep.axes.clear();
  sweep.replicates = 1;
  sweep.mode = SweepMode::Zip;
  sweep.axes.push_back(
      SweepAxis{"seed", {Json::number(1), Json::number(2)}});
  sweep.axes.push_back(
      SweepAxis{"clock_drift", {Json::number(0.05), Json::number(-2.0)}});
  sweep.base.backend = Backend::Event;

  ResultCache cache(dir);
  const SweepOutput cold = run_with(&cache, 1, sweep);
  EXPECT_EQ(cold.result.jobs_failed, 1U);
  EXPECT_EQ(cold.result.cache.misses, 2U);
  EXPECT_EQ(cold.result.cache.stores, 1U);
  EXPECT_EQ(cold.result.cache.skipped, 1U);
  EXPECT_EQ(entry_files(dir).size(), 1U);

  // Warm: the good job hits; the bad job re-runs, re-fails, re-skips.
  ResultCache warm(dir);
  const SweepOutput rerun = run_with(&warm, 1, sweep);
  EXPECT_EQ(rerun.result.cache.hits, 1U);
  EXPECT_EQ(rerun.result.cache.misses, 1U);
  EXPECT_EQ(rerun.result.cache.skipped, 1U);
  EXPECT_EQ(rerun.json, cold.json);
}

TEST(ResultCacheTest, GcRemovesOnlyUntouchedEntries) {
  const fs::path dir = fresh_dir();
  const SweepSpec sweep = tiny_sweep();
  {
    ResultCache cache(dir);
    (void)run_with(&cache, 1, sweep);
  }
  // Two stale files: an entry from an edited-away sweep point and an
  // abandoned tmp from a crashed writer.
  { std::ofstream(dir / (std::string(64, '0') + ".json")) << "{}\n"; }
  { std::ofstream(dir / (std::string(64, '1') + ".tmp.42")) << "{"; }
  ASSERT_EQ(entry_files(dir).size(), 5U);

  ResultCache cache(dir);
  const SweepOutput warm = run_with(&cache, 1, sweep);
  EXPECT_EQ(warm.result.cache.hits, 4U);
  EXPECT_EQ(cache.gc_unused(), 2U);
  EXPECT_EQ(entry_files(dir).size(), 4U);

  // The surviving entries are exactly the live set: all hits again.
  ResultCache after(dir);
  EXPECT_EQ(run_with(&after, 1, sweep).result.cache.hits, 4U);
}

TEST(ResultCacheTest, NonFiniteMetricsReplayByteIdentically) {
  // The canonical-JSON prerequisite, end to end: a NaN metric serializes
  // as null, and the warm replay must re-emit null -- not some finite
  // fallback -- or cold and warm artifacts diverge on exactly the runs
  // the null encoding exists to save.
  const fs::path dir = fresh_dir();
  ScenarioSpec spec = registry_get("epidemic").scaled_to(150);
  spec.periods = 4;

  ResultCache cache(dir);
  Experiment experiment(spec);
  ExperimentResult fresh = experiment.run();
  fresh.convergence.settle_time = std::nan("");
  const std::string cold_dump = fresh.to_json(false).dump(2);
  EXPECT_NE(cold_dump.find("\"settle_time\": null"), std::string::npos);

  cache.store(spec, fresh);
  const std::optional<ExperimentResult> replay = cache.load(spec);
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(std::isnan(replay->convergence.settle_time));
  EXPECT_EQ(replay->to_json(false).dump(2), cold_dump);
}

TEST(ResultCacheTest, StoreLoadRoundTripsTheDeterministicForm) {
  const fs::path dir = fresh_dir();
  ScenarioSpec spec = registry_get("epidemic").scaled_to(150);
  spec.periods = 4;

  ResultCache cache(dir);
  Experiment experiment(spec);
  const ExperimentResult fresh = experiment.run();
  cache.store(spec, fresh);

  const std::optional<ExperimentResult> replay = cache.load(spec);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->to_json(false).dump(2), fresh.to_json(false).dump(2));
  // Timing is machine state, not content: never memoized.
  EXPECT_DOUBLE_EQ(replay->elapsed_seconds, 0.0);
  EXPECT_EQ(cache.stats(), (CacheStats{1, 0, 0, 1, 0}));
}

TEST(ResultCacheTest, SizeBoundEvictsOldestEntriesFirst) {
  const fs::path dir = fresh_dir();
  ScenarioSpec spec = registry_get("epidemic").scaled_to(150);
  spec.periods = 4;
  ResultCache cache(dir);
  EXPECT_EQ(cache.max_bytes(), 0U);  // unbounded by default
  EXPECT_EQ(cache.evictions(), 0U);
  const ExperimentResult result = Experiment(spec).run();

  // Four entries under distinct keys, with explicitly staggered mtimes
  // (hours apart, so filesystem timestamp granularity cannot reorder the
  // LRU ranking).
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ScenarioSpec variant = spec;
    variant.seed = 1000 + i;
    cache.store(variant, result);
    keys.push_back(cache.key_for(variant));
    fs::last_write_time(
        dir / (keys.back() + ".json"),
        fs::file_time_type::clock::now() -
            std::chrono::hours(24 - static_cast<int>(i)));
  }
  ASSERT_EQ(entry_files(dir).size(), 4U);
  const std::uintmax_t entry_bytes =
      fs::file_size(dir / (keys[0] + ".json"));

  // Bound the directory to ~2.5 entries; the next store (the newest
  // entry) pushes the total over and the oldest entries are evicted
  // until it fits.
  cache.set_max_bytes(entry_bytes * 5 / 2);
  ScenarioSpec fifth = spec;
  fifth.seed = 2000;
  cache.store(fifth, result);
  keys.push_back(cache.key_for(fifth));

  EXPECT_EQ(cache.evictions(), 3U);
  EXPECT_FALSE(fs::exists(dir / (keys[0] + ".json")));
  EXPECT_FALSE(fs::exists(dir / (keys[1] + ".json")));
  EXPECT_FALSE(fs::exists(dir / (keys[2] + ".json")));
  EXPECT_TRUE(fs::exists(dir / (keys[3] + ".json")));
  EXPECT_TRUE(fs::exists(dir / (keys[4] + ".json")));
}

TEST(ResultCacheTest, LoadRefreshesRecencySoReplayedEntriesSurvive) {
  const fs::path dir = fresh_dir();
  ScenarioSpec spec = registry_get("epidemic").scaled_to(150);
  spec.periods = 4;
  ResultCache cache(dir);
  const ExperimentResult result = Experiment(spec).run();

  std::vector<ScenarioSpec> variants;
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ScenarioSpec variant = spec;
    variant.seed = 1000 + i;
    cache.store(variant, result);
    keys.push_back(cache.key_for(variant));
    fs::last_write_time(dir / (keys.back() + ".json"),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(24));
    variants.push_back(std::move(variant));
  }
  // A hit on the first (otherwise oldest) entry bumps its mtime to now.
  ASSERT_TRUE(cache.load(variants[0]).has_value());

  const std::uintmax_t entry_bytes =
      fs::file_size(dir / (keys[0] + ".json"));
  cache.set_max_bytes(entry_bytes * 5 / 2);
  ScenarioSpec fourth = spec;
  fourth.seed = 2000;
  cache.store(fourth, result);

  // The cold entries went; the replayed one and the new store survive.
  EXPECT_EQ(cache.evictions(), 2U);
  EXPECT_TRUE(fs::exists(dir / (keys[0] + ".json")));
  EXPECT_FALSE(fs::exists(dir / (keys[1] + ".json")));
  EXPECT_FALSE(fs::exists(dir / (keys[2] + ".json")));
  EXPECT_TRUE(fs::exists(dir / (cache.key_for(fourth) + ".json")));
}

TEST(ResultCacheTest, TwoHandlesOnOneDirectoryShareEntries) {
  // Two CLIs sharing a cache directory: what one stores, the other
  // replays, and each handle counts only its own lookups.
  const fs::path dir = fresh_dir();
  ScenarioSpec spec = registry_get("epidemic").scaled_to(150);
  spec.periods = 4;
  const ExperimentResult fresh = Experiment(spec).run();

  ResultCache writer(dir);
  ResultCache reader(dir);
  EXPECT_FALSE(reader.load(spec).has_value());
  writer.store(spec, fresh);
  const std::optional<ExperimentResult> replay = reader.load(spec);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->to_json(false).dump(), fresh.to_json(false).dump());
  EXPECT_EQ(writer.stats(), (CacheStats{0, 0, 0, 1, 0}));
  EXPECT_EQ(reader.stats(), (CacheStats{1, 1, 0, 0, 0}));
}

TEST(ResultCacheTest, ConcurrentStoresOfOneKeyLeaveOneValidEntry) {
  // Every writer goes through its own tmp file and an atomic rename, so
  // racing stores of the same key leave exactly one complete entry and
  // no tmp debris.
  const fs::path dir = fresh_dir();
  ScenarioSpec spec = registry_get("epidemic").scaled_to(150);
  spec.periods = 4;
  const ExperimentResult fresh = Experiment(spec).run();

  ResultCache cache(dir);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 10; ++i) cache.store(spec, fresh);
    });
  }
  for (std::thread& writer : writers) writer.join();

  std::size_t files = 0;
  for (const auto& dirent : fs::directory_iterator(dir)) {
    (void)dirent;
    ++files;
  }
  EXPECT_EQ(files, 1U);
  EXPECT_EQ(entry_files(dir).size(), 1U);
  EXPECT_EQ(cache.stats().stores, 40U);
  ResultCache reader(dir);
  const std::optional<ExperimentResult> replay = reader.load(spec);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->to_json(false).dump(), fresh.to_json(false).dump());
}

TEST(ResultCacheTest, TruncatedBodyUnderAValidHeaderIsCorrupt) {
  // The header parses and matches, but the body is shorter than its
  // recorded result_bytes: a miss, never a replay of half a document.
  const fs::path dir = fresh_dir();
  ScenarioSpec spec = registry_get("epidemic").scaled_to(150);
  spec.periods = 4;
  ResultCache cache(dir);
  cache.store(spec, Experiment(spec).run());

  const fs::path entry = dir / (cache.key_for(spec) + ".json");
  std::string contents;
  {
    std::ifstream in(entry, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
  }
  const std::size_t split = contents.find('\n');
  ASSERT_NE(split, std::string::npos);
  {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    // Drop the body's closing brace (and newline): still one line, but
    // one byte short of what the header promises.
    out << contents.substr(0, contents.size() - 2) << "\n";
  }
  EXPECT_FALSE(cache.load(spec).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1U);
}

TEST(ResultCacheTest, EntryForAnotherSpecUnderThisKeyIsCorrupt) {
  // The stored spec is compared in full, so an entry filed under the
  // wrong key (the shape of a hash collision) is a miss, not a replay of
  // another job's result.
  const fs::path dir = fresh_dir();
  ScenarioSpec a = registry_get("epidemic").scaled_to(150);
  a.periods = 4;
  ScenarioSpec b = a;
  b.seed = a.seed + 1;
  ResultCache cache(dir);
  cache.store(a, Experiment(a).run());
  fs::copy_file(dir / (cache.key_for(a) + ".json"),
                dir / (cache.key_for(b) + ".json"));

  EXPECT_FALSE(cache.load(b).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1U);
  EXPECT_TRUE(cache.load(a).has_value());
}

}  // namespace
}  // namespace deproto::api
