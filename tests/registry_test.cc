#include "src/ind/registry.h"

#include <gtest/gtest.h>

#include "src/common/temp_dir.h"
#include "src/ind/de_marchi.h"
#include "tests/test_util.h"

namespace spider {
namespace {

TEST(RegistryTest, AllBuiltinApproachesAreRegistered) {
  // Names() lists every family in registration order: unary verifiers,
  // n-ary expansions, then the UCC/FD/AFD discoverers.
  const std::vector<std::string> names = AlgorithmRegistry::Global().Names();
  EXPECT_EQ(names,
            (std::vector<std::string>{
                "brute-force", "single-pass", "sql-join", "sql-minus",
                "sql-not-in", "spider-merge", "de-marchi", "bell-brockhausen",
                "nary", "clique-nary", "zigzag", "ucc-levelwise",
                "fd-levelwise", "afd-levelwise"}));
  for (const std::string& name : names) {
    EXPECT_TRUE(AlgorithmRegistry::Global().Contains(name)) << name;
  }
  EXPECT_EQ(testing::Approaches(testing::Family::kUnary).size(), 8u);
  EXPECT_EQ(testing::Approaches(testing::Family::kNary),
            (std::vector<std::string>{"nary", "clique-nary", "zigzag"}));
  EXPECT_EQ(testing::Approaches(testing::Family::kDependency),
            (std::vector<std::string>{"ucc-levelwise", "fd-levelwise",
                                      "afd-levelwise"}));
}

TEST(RegistryTest, NamesForKindPartitionTheNamespace) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  // kInd spans both IND families: unary verifiers then n-ary expansions.
  std::vector<std::string> ind_names =
      testing::Approaches(testing::Family::kUnary);
  for (const std::string& name : testing::Approaches(testing::Family::kNary)) {
    ind_names.push_back(name);
  }
  EXPECT_EQ(registry.NamesForKind(DependencyKind::kInd), ind_names);
  EXPECT_EQ(registry.NamesForKind(DependencyKind::kUcc),
            std::vector<std::string>{"ucc-levelwise"});
  EXPECT_EQ(registry.NamesForKind(DependencyKind::kFd),
            std::vector<std::string>{"fd-levelwise"});
  EXPECT_EQ(registry.NamesForKind(DependencyKind::kAfd),
            std::vector<std::string>{"afd-levelwise"});

  // The per-kind default is the kind's first registered name.
  auto default_ind = registry.DefaultNameForKind(DependencyKind::kInd);
  ASSERT_TRUE(default_ind.ok());
  EXPECT_EQ(*default_ind, ind_names.front());
  auto default_ucc = registry.DefaultNameForKind(DependencyKind::kUcc);
  ASSERT_TRUE(default_ucc.ok());
  EXPECT_EQ(*default_ucc, "ucc-levelwise");
}

TEST(RegistryTest, DependencyCapabilitiesCarryTheirKind) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  for (const std::string& name : testing::Approaches(testing::Family::kUnary)) {
    auto capabilities = registry.GetCapabilities(name);
    ASSERT_TRUE(capabilities.ok()) << name;
    EXPECT_EQ(capabilities->kind, DependencyKind::kInd) << name;
  }
  for (const std::string& name : testing::Approaches(testing::Family::kNary)) {
    auto capabilities = registry.GetCapabilities(name);
    ASSERT_TRUE(capabilities.ok()) << name;
    EXPECT_EQ(capabilities->kind, DependencyKind::kInd) << name;
  }
  for (const std::string& name :
       testing::Approaches(testing::Family::kDependency)) {
    auto capabilities = registry.GetCapabilities(name);
    ASSERT_TRUE(capabilities.ok()) << name;
    EXPECT_NE(capabilities->kind, DependencyKind::kInd) << name;
    EXPECT_FALSE(capabilities->nary) << name;
    // The discoverers ride the sorted-set seam: they stream, so they can
    // profile disk workspaces, and they dispatch per-table on the pool.
    EXPECT_TRUE(capabilities->needs_extractor) << name;
    EXPECT_TRUE(capabilities->supports_out_of_core) << name;
    EXPECT_TRUE(capabilities->parallel_safe) << name;
    EXPECT_TRUE(capabilities->supports_time_budget) << name;
  }
}

TEST(RegistryTest, CreateDependencyValidatesFamilyAndConfig) {
  auto dir = TempDir::Make("spider-registry-dependency");
  ASSERT_TRUE(dir.ok());
  ValueSetExtractor extractor((*dir)->path());
  AlgorithmConfig config;
  config.extractor = &extractor;
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();

  for (const std::string& name :
       testing::Approaches(testing::Family::kDependency)) {
    auto algorithm = registry.CreateDependency(name, config);
    ASSERT_TRUE(algorithm.ok())
        << name << ": " << algorithm.status().ToString();
    EXPECT_EQ((*algorithm)->name(), name);
    // Cross-family misuse is a usage error, not NotFound.
    EXPECT_TRUE(registry.Create(name, config).status().IsInvalidArgument())
        << name;
    EXPECT_TRUE(
        registry.CreateNary(name, config).status().IsInvalidArgument())
        << name;
  }
  EXPECT_TRUE(registry.CreateDependency("spider-merge", config)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.CreateDependency("no-such-approach", config)
                  .status()
                  .IsNotFound());

  // The extractor requirement holds for the dependency family too.
  EXPECT_TRUE(registry.CreateDependency("ucc-levelwise", {})
                  .status()
                  .IsInvalidArgument());

  // An error threshold needs an approach that understands approximate
  // discovery: the AFD discoverer does, the exact ones don't.
  AlgorithmConfig approximate = config;
  approximate.error_threshold = 0.25;
  EXPECT_TRUE(registry.CreateDependency("afd-levelwise", approximate).ok());
  EXPECT_TRUE(registry.CreateDependency("fd-levelwise", approximate)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.CreateDependency("ucc-levelwise", approximate)
                  .status()
                  .IsInvalidArgument());
  // And it must be a valid g3' error: [0, 1).
  approximate.error_threshold = 1.0;
  EXPECT_TRUE(registry.CreateDependency("afd-levelwise", approximate)
                  .status()
                  .IsInvalidArgument());
}

TEST(RegistryTest, UnknownNameSuggestsTheNearestApproach) {
  // Lookup failures teach the namespace: valid names grouped per kind
  // plus a nearest-match suggestion for plausible typos.
  Status status =
      AlgorithmRegistry::Global().Create("spider-merg", {}).status();
  ASSERT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_NE(status.message().find("did you mean 'spider-merge'?"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("ucc: ucc-levelwise"), std::string::npos)
      << status.ToString();

  // Unrelated garbage gets the listing but no far-fetched suggestion.
  Status garbage =
      AlgorithmRegistry::Global().Create("qqqqqqqqqqqq", {}).status();
  ASSERT_TRUE(garbage.IsNotFound());
  EXPECT_EQ(garbage.message().find("did you mean"), std::string::npos)
      << garbage.ToString();
}

TEST(RegistryTest, NaryCapabilitiesStreamOutOfCore) {
  for (const std::string& name : testing::Approaches(testing::Family::kNary)) {
    auto capabilities = AlgorithmRegistry::Global().GetCapabilities(name);
    ASSERT_TRUE(capabilities.ok()) << name;
    EXPECT_TRUE(capabilities->nary) << name;
    EXPECT_TRUE(capabilities->supports_out_of_core) << name;
    EXPECT_TRUE(capabilities->needs_extractor) << name;
    EXPECT_TRUE(capabilities->parallel_safe) << name;
  }
  // Unary capabilities never carry the nary flag.
  for (const std::string& name : testing::Approaches(testing::Family::kUnary)) {
    auto capabilities = AlgorithmRegistry::Global().GetCapabilities(name);
    ASSERT_TRUE(capabilities.ok()) << name;
    EXPECT_FALSE(capabilities->nary) << name;
  }
}

TEST(RegistryTest, CreateAndCreateNaryRejectTheWrongKind) {
  auto dir = TempDir::Make("spider-registry-nary");
  ASSERT_TRUE(dir.ok());
  ValueSetExtractor extractor((*dir)->path());
  AlgorithmConfig config;
  config.extractor = &extractor;

  // A unary name through CreateNary (and vice versa) is a usage error,
  // not NotFound — the name exists, the kind is wrong.
  EXPECT_TRUE(AlgorithmRegistry::Global()
                  .Create("zigzag", config)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(AlgorithmRegistry::Global()
                  .CreateNary("spider-merge", config)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(AlgorithmRegistry::Global()
                  .CreateNary("no-such-approach", config)
                  .status()
                  .IsNotFound());

  // The extractor requirement is enforced for n-ary expansions too.
  EXPECT_TRUE(AlgorithmRegistry::Global()
                  .CreateNary("nary", {})
                  .status()
                  .IsInvalidArgument());

  // Approximate discovery is gated per approach: the levelwise expansion
  // accepts a g3' error threshold, the maximal-IND searches verify exact
  // containment only.
  AlgorithmConfig partial = config;
  partial.min_coverage = 0.9;
  EXPECT_TRUE(AlgorithmRegistry::Global()
                  .CreateNary("clique-nary", partial)
                  .status()
                  .IsInvalidArgument());
  AlgorithmConfig approximate = config;
  approximate.error_threshold = 0.1;
  EXPECT_TRUE(AlgorithmRegistry::Global().CreateNary("nary", approximate).ok());
  EXPECT_TRUE(AlgorithmRegistry::Global()
                  .CreateNary("clique-nary", approximate)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(AlgorithmRegistry::Global()
                  .CreateNary("zigzag", approximate)
                  .status()
                  .IsInvalidArgument());
  for (const std::string& name : testing::Approaches(testing::Family::kNary)) {
    auto algorithm = AlgorithmRegistry::Global().CreateNary(name, config);
    ASSERT_TRUE(algorithm.ok()) << name << ": "
                                << algorithm.status().ToString();
    EXPECT_EQ((*algorithm)->name(), name);
  }
}

TEST(RegistryTest, BuiltinCapabilitiesAreParallelSafe) {
  // The session's partitioned dispatcher relies on every built-in being
  // runnable as independent instances over disjoint candidate partitions.
  for (const std::string& name : testing::Approaches(testing::Family::kUnary)) {
    auto capabilities = AlgorithmRegistry::Global().GetCapabilities(name);
    ASSERT_TRUE(capabilities.ok()) << name;
    EXPECT_TRUE(capabilities->parallel_safe) << name;
  }
}

TEST(RegistryTest, CreateResolvesEveryNameAndNameMatches) {
  auto dir = TempDir::Make("spider-registry-test");
  ASSERT_TRUE(dir.ok());
  ValueSetExtractor extractor((*dir)->path());
  AlgorithmConfig config;
  config.extractor = &extractor;
  for (const std::string& name : testing::Approaches(testing::Family::kUnary)) {
    auto algorithm = AlgorithmRegistry::Global().Create(name, config);
    ASSERT_TRUE(algorithm.ok()) << name << ": "
                                << algorithm.status().ToString();
    // The registered name is the algorithm's display name.
    EXPECT_EQ((*algorithm)->name(), name);
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  auto result = AlgorithmRegistry::Global().Create("no-such-approach", {});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
  EXPECT_FALSE(AlgorithmRegistry::Global().Contains("no-such-approach"));
}

TEST(RegistryTest, ExtractorRequirementMatchesCapabilities) {
  // Creating without an extractor must fail exactly for the approaches
  // whose capabilities say they need one.
  for (const std::string& name : testing::Approaches(testing::Family::kUnary)) {
    auto capabilities = AlgorithmRegistry::Global().GetCapabilities(name);
    ASSERT_TRUE(capabilities.ok()) << name;
    auto without = AlgorithmRegistry::Global().Create(name, {});
    EXPECT_EQ(without.ok(), !capabilities->needs_extractor) << name;
  }
}

TEST(RegistryTest, PartialCoverageRequiresCapability) {
  auto dir = TempDir::Make("spider-registry-partial");
  ASSERT_TRUE(dir.ok());
  ValueSetExtractor extractor((*dir)->path());
  AlgorithmConfig config;
  config.extractor = &extractor;
  config.min_coverage = 0.9;
  for (const std::string& name : testing::Approaches(testing::Family::kUnary)) {
    auto capabilities = AlgorithmRegistry::Global().GetCapabilities(name);
    ASSERT_TRUE(capabilities.ok()) << name;
    auto created = AlgorithmRegistry::Global().Create(name, config);
    EXPECT_EQ(created.ok(), capabilities->supports_partial) << name;
  }
}

TEST(RegistryTest, DatabaseInternalCapabilityMatchesBehavior) {
  // Database-internal approaches must answer without any sorted value
  // sets; database-external ones read them (tuples_read > 0).
  Catalog catalog;
  testing::AddStringColumn(&catalog, "child", "fk", {"a", "b"});
  testing::AddStringColumn(&catalog, "parent", "pk", {"a", "b", "c"}, true);
  const std::vector<IndCandidate> candidates = {
      {{"child", "fk"}, {"parent", "pk"}}};

  auto dir = TempDir::Make("spider-registry-behavior");
  ASSERT_TRUE(dir.ok());
  for (const std::string& name : testing::Approaches(testing::Family::kUnary)) {
    auto capabilities = AlgorithmRegistry::Global().GetCapabilities(name);
    ASSERT_TRUE(capabilities.ok()) << name;
    ValueSetExtractor extractor((*dir)->path());
    AlgorithmConfig config;
    config.extractor = &extractor;
    auto algorithm = AlgorithmRegistry::Global().Create(name, config);
    ASSERT_TRUE(algorithm.ok()) << name;
    auto result = (*algorithm)->Run(catalog, candidates);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ(result->satisfied.size(), 1u) << name;
    if (capabilities->needs_extractor) {
      EXPECT_GT(result->counters.tuples_read, 0) << name;
    }
  }
}

TEST(RegistryTest, DuplicateRegistrationIsRejected) {
  AlgorithmRegistry registry;
  auto factory = [](const AlgorithmConfig&) {
    return Result<std::unique_ptr<IndAlgorithm>>(
        Status::Internal("never called"));
  };
  ASSERT_TRUE(registry.Register("custom", {}, factory).ok());
  Status duplicate = registry.Register("custom", {}, factory);
  EXPECT_TRUE(duplicate.IsAlreadyExists()) << duplicate.ToString();
  EXPECT_FALSE(registry.Register("", {}, factory).ok());
}

TEST(RegistryTest, CustomRegistrationIsCreatable) {
  // The extension path: a consumer registers its own approach and resolves
  // it by name, no enum involved.
  AlgorithmRegistry registry;
  AlgorithmCapabilities capabilities;
  capabilities.summary = "delegates to de-marchi";
  ASSERT_TRUE(registry
                  .Register("my-approach", capabilities,
                            [](const AlgorithmConfig&) {
                              return Result<std::unique_ptr<IndAlgorithm>>(
                                  std::make_unique<DeMarchiAlgorithm>());
                            })
                  .ok());
  auto algorithm = registry.Create("my-approach", {});
  ASSERT_TRUE(algorithm.ok());
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"my-approach"});
}

}  // namespace
}  // namespace spider
