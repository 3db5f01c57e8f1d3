// Config corpus: fixed-seed mutants of the bundled scenario files
// (examples/scenarios/*.cfg) must either build and run or throw a
// std::exception that says what is wrong -- never hang, crash or quietly
// run something else. Everything runs in this process.

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "ff/core/experiment.h"
#include "ff/core/scenario_config.h"
#include "ff/util/config.h"
#include "ff/util/rng.h"

namespace ff::core {
namespace {

constexpr std::size_t kMaxMutants = 200;

std::vector<std::filesystem::path> bundled_configs() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(FF_SCENARIO_DIR)) {
    if (entry.path().extension() == ".cfg") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Builds and runs `config` the way ffctl does, with the run capped at
/// 0.5 s of simulated time.
void build_and_run(const Config& config) {
  config.reject_unknown_keys(config_keys());
  Scenario s = scenario_from_config(config);
  s.duration = std::min<SimDuration>(s.duration, kSecond / 2);
  (void)Experiment(std::move(s), controller_factory_from_config(config))
      .run();
}

/// Swaps two neighbouring characters of `key`, or doubles its last one
/// when the swap would change nothing.
std::string misspell(const std::string& key, Rng& rng) {
  std::string out = key;
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(key.size()) - 2));
  std::swap(out[i], out[i + 1]);
  if (out == key) out += key.back();
  return out;
}

/// One mutation of one key: drop it, misspell it, or replace its value.
Config mutate(const Config& base, const std::string& key, int kind,
              Rng& rng) {
  static const char* const kValues[] = {"", "nan", "-1", "1e300"};
  Config out;
  for (const auto& [k, v] : base.entries()) {
    if (k != key) {
      out.set(k, v);
    } else if (kind == 1) {
      out.set(misspell(k, rng), v);
    } else if (kind >= 2) {
      out.set(k, kValues[kind - 2]);
    }  // kind 0 drops the key
  }
  return out;
}

std::string describe(const Config& config) {
  std::string out;
  for (const auto& [k, v] : config.entries()) out += k + "=" + v + " ";
  return out;
}

TEST(ConfigCorpus, BundledScenariosValidate) {
  const auto paths = bundled_configs();
  ASSERT_FALSE(paths.empty());
  for (const auto& path : paths) {
    SCOPED_TRACE(path.string());
    const Config config = Config::from_file(path.string());
    EXPECT_NO_THROW(config.reject_unknown_keys(config_keys()));
    EXPECT_NO_THROW(scenario_from_config(config).validate());
    EXPECT_NO_THROW((void)controller_factory_from_config(config));
  }
}

/// Every single-key mutation of every bundled file, then random pairs of
/// mutations up to kMaxMutants.
TEST(ConfigCorpus, MutantsRunOrFailWithAMessage) {
  std::vector<std::pair<Config, std::vector<std::string>>> files;
  for (const auto& path : bundled_configs()) {
    Config config = Config::from_file(path.string());
    std::vector<std::string> keys;
    for (const auto& entry : config.entries()) keys.push_back(entry.first);
    files.emplace_back(std::move(config), std::move(keys));
  }
  ASSERT_FALSE(files.empty());

  constexpr int kKinds = 6;  // drop, misspell, and four values
  Rng rng(2026);
  std::vector<Config> mutants;
  for (const auto& [config, keys] : files) {
    for (const std::string& key : keys) {
      for (int kind = 0; kind < kKinds; ++kind) {
        mutants.push_back(mutate(config, key, kind, rng));
      }
    }
  }
  while (mutants.size() < kMaxMutants) {
    const auto& [config, keys] = files[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(files.size()) - 1))];
    const auto pick = [&] {
      return keys[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(keys.size()) - 1))];
    };
    const auto kind = [&] {
      return static_cast<int>(rng.uniform_int(0, kKinds - 1));
    };
    const Config once = mutate(config, pick(), kind(), rng);
    mutants.push_back(mutate(once, pick(), kind(), rng));
  }
  mutants.resize(std::min(mutants.size(), kMaxMutants));

  std::size_t ran = 0;
  for (const Config& mutant : mutants) {
    SCOPED_TRACE(describe(mutant));
    try {
      build_and_run(mutant);
      ++ran;
    } catch (const std::exception& e) {
      EXPECT_STRNE(e.what(), "");
    }
  }
  // The corpus is not vacuous: dropping a key or setting a harmless value
  // leaves plenty of runnable scenarios.
  EXPECT_GT(ran, 10u);
}

}  // namespace
}  // namespace ff::core
