#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/method_spec.hpp"
#include "util/rng.hpp"
#include "workload/scenario_spec.hpp"

namespace {

// `compare_schedulers --list-methods` / `--list-scenarios` print these
// listings verbatim, and CI parses them with awk, so their bytes are a
// documented contract. The FNV-1a digests (util::hash_str) were captured
// before the method and scenario registries moved onto the shared
// util::SpecTable; any change to a name, label, doc string, declared
// parameter, default or column layout moves them.
constexpr std::uint64_t kMethodListingDigest = 0xac7e7056c0fc3b5cULL;
constexpr std::uint64_t kScenarioListingDigest = 0xf6567256ee307a3eULL;

TEST(SpecRegistryGolden, ListingsMatchPinnedDigests) {
  const std::string methods = reasched::harness::MethodRegistry::instance().describe();
  const std::string scenarios = reasched::workload::ScenarioRegistry::instance().describe();
  EXPECT_EQ(reasched::util::hash_str(methods), kMethodListingDigest) << methods;
  EXPECT_EQ(reasched::util::hash_str(scenarios), kScenarioListingDigest) << scenarios;
}

}  // namespace
