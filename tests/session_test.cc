#include "src/ind/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>

#include "src/common/temp_dir.h"
#include "src/datagen/pdb_like.h"
#include "src/datagen/uniprot_like.h"
#include "src/extsort/sorted_set_file.h"
#include "src/ind/de_marchi.h"
#include "src/storage/disk_store.h"
#include "tests/test_util.h"

namespace spider {
namespace {

// A small catalog with one true FK-style inclusion and one decoy.
void FillCatalog(Catalog* catalog) {
  testing::AddStringColumn(catalog, "child", "fk", {"a", "b", "a", "b"});
  testing::AddStringColumn(catalog, "parent", "pk", {"a", "b", "c"}, true);
  testing::AddStringColumn(catalog, "decoy", "pk", {"x", "y", "z"}, true);
}

TEST(SessionTest, SweepOverAllApproachesFindsIdenticalInds) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);

  std::set<Ind> reference;
  bool first = true;
  for (const std::string& name : testing::Approaches(testing::Family::kUnary)) {
    RunOptions options;
    options.approach = name;
    auto report = session.Run(options);
    ASSERT_TRUE(report.ok()) << name << ": " << report.status().ToString();
    EXPECT_EQ(report->approach, name);
    EXPECT_TRUE(report->run.finished) << name;
    auto found = testing::ToSet(report->run.satisfied);
    if (first) {
      reference = found;
      first = false;
      EXPECT_TRUE(reference.contains(Ind{{"child", "fk"}, {"parent", "pk"}}));
    } else {
      EXPECT_EQ(found, reference) << name;
    }
  }
}

TEST(SessionTest, ExtractorCacheIsSharedAcrossRuns) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);

  RunOptions options;
  options.approach = "brute-force";
  auto one = session.Run(options);
  ASSERT_TRUE(one.ok());
  EXPECT_GT(one->run.counters.files_opened, 0);

  // The first run materialized the sorted sets into the session's cache.
  auto extractor = session.extractor();
  ASSERT_TRUE(extractor.ok());
  EXPECT_TRUE((*extractor)->Lookup(AttributeRef{"child", "fk"}).ok());

  // A second run (even with a different approach) reuses them.
  options.approach = "spider-merge";
  auto two = session.Run(options);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(testing::ToSet(one->run.satisfied),
            testing::ToSet(two->run.satisfied));
}

TEST(SessionTest, OwnedCatalogConstructor) {
  auto catalog = std::make_unique<Catalog>("owned");
  FillCatalog(catalog.get());
  SpiderSession session(std::move(catalog));
  auto report = session.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(testing::ToSet(report->run.satisfied)
                  .contains(Ind{{"child", "fk"}, {"parent", "pk"}}));
}

TEST(SessionTest, UnknownApproachFailsBeforeAnyWork) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);
  RunOptions options;
  options.approach = "definitely-not-registered";
  auto report = session.Run(options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsNotFound());
}

TEST(SessionTest, SigmaRequiresPartialCapableApproach) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);

  RunOptions options;
  options.approach = "brute-force";
  options.min_coverage = 0.8;
  auto rejected = session.Run(options);
  EXPECT_FALSE(rejected.ok());

  options.approach = "spider-merge";
  auto accepted = session.Run(options);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  // σ-partial is a superset of the exact result.
  EXPECT_TRUE(testing::ToSet(accepted->run.satisfied)
                  .contains(Ind{{"child", "fk"}, {"parent", "pk"}}));
}

TEST(SessionTest, TimeBudgetTerminatesBruteForceEarly) {
  // A generated dataset with enough candidates that a microscopic budget
  // expires mid-run: finished == false, satisfied is a partial subset.
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 60;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);

  RunOptions unbounded;
  unbounded.approach = "brute-force";
  auto full = session.Run(unbounded);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->run.finished);
  ASSERT_FALSE(full->run.satisfied.empty());

  RunOptions bounded = unbounded;
  bounded.time_budget_seconds = 1e-9;
  auto partial = session.Run(bounded);
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->run.finished);
  EXPECT_LT(partial->run.satisfied.size(), full->run.satisfied.size());
  // Whatever was confirmed before the budget expired is genuine.
  auto full_set = testing::ToSet(full->run.satisfied);
  for (const Ind& ind : partial->run.satisfied) {
    EXPECT_TRUE(full_set.contains(ind)) << ind.ToString();
  }
}

TEST(SessionTest, TimeBudgetBoundsEveryExternalApproach) {
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 60;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());

  for (const char* name :
       {"brute-force", "single-pass", "spider-merge", "de-marchi",
        "bell-brockhausen"}) {
    SpiderSession session(**catalog);
    RunOptions options;
    options.approach = name;
    options.time_budget_seconds = 1e-9;
    auto report = session.Run(options);
    ASSERT_TRUE(report.ok()) << name;
    EXPECT_FALSE(report->run.finished) << name;
  }
}

TEST(SessionTest, CancellationStopsTheRun) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);

  CancellationToken token;
  token.Cancel();  // pre-cancelled: the run must stop at the first poll
  RunOptions options;
  options.approach = "brute-force";
  options.cancel = &token;
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->run.finished);
  EXPECT_TRUE(report->run.satisfied.empty());
}

TEST(SessionTest, ProgressCallbackSeesEveryCandidate) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);

  int64_t calls = 0;
  int64_t last_done = 0;
  int64_t reported_total = -1;
  RunOptions options;
  options.approach = "brute-force";
  options.progress = [&](const RunProgress& progress) {
    ++calls;
    last_done = progress.done;
    reported_total = progress.total;
  };
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  const int64_t candidates =
      static_cast<int64_t>(report->candidates.candidates.size());
  ASSERT_GT(candidates, 0);
  EXPECT_EQ(calls, candidates);
  EXPECT_EQ(last_done, candidates);
  EXPECT_EQ(reported_total, candidates);
}

TEST(SessionTest, ReportToStringNamesTheApproach) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);
  RunOptions options;
  options.approach = "sql-join";
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->ToString().find("sql-join"), std::string::npos);
}

// --- Coverage migrated from the deleted IndProfiler shim tests ----------

TEST(SessionTest, WorkDirOptionIsUsed) {
  Catalog catalog;
  FillCatalog(&catalog);
  auto dir = TempDir::Make("spider-session-work");
  ASSERT_TRUE(dir.ok());
  SessionOptions options;
  options.work_dir = (*dir)->path().string();
  SpiderSession session(catalog, options);
  ASSERT_TRUE(session.Run().ok());
  // Sorted sets were materialized into the provided directory.
  bool any_set_file = false;
  for (const auto& entry :
       std::filesystem::directory_iterator((*dir)->path())) {
    if (entry.path().extension() == ".set") any_set_file = true;
  }
  EXPECT_TRUE(any_set_file);
}

TEST(SessionTest, EmptyCatalog) {
  Catalog catalog;
  SpiderSession session(catalog);
  auto report = session.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->run.satisfied.empty());
  EXPECT_EQ(report->candidates.raw_pair_count, 0);
}

TEST(SessionTest, MaxValuePretestReducesCandidates) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);
  auto baseline = session.Run();
  ASSERT_TRUE(baseline.ok());

  RunOptions pruned_options;
  pruned_options.generator.max_value_pretest = true;
  auto improved = session.Run(pruned_options);
  ASSERT_TRUE(improved.ok());
  EXPECT_LT(improved->candidates.candidates.size(),
            baseline->candidates.candidates.size());
  // Pruning must not lose INDs.
  EXPECT_EQ(testing::ToSet(improved->run.satisfied),
            testing::ToSet(baseline->run.satisfied));
}

// --- Partitioned parallel dispatch --------------------------------------

TEST(PartitionTest, DisjointCandidatesSplitIntoComponents) {
  std::vector<IndCandidate> candidates = {
      {{"a", "x"}, {"b", "x"}},  // component 1: {a.x, b.x}
      {{"c", "x"}, {"d", "x"}},  // component 2: {c.x, d.x}
      {{"b", "x"}, {"a", "x"}},  // component 1 again (shared attributes)
  };
  auto partitions = PartitionCandidatesByComponent(candidates);
  ASSERT_EQ(partitions.size(), 2u);
  EXPECT_EQ(partitions[0].size(), 2u);  // both component-1 edges, input order
  EXPECT_EQ(partitions[0][0], candidates[0]);
  EXPECT_EQ(partitions[0][1], candidates[2]);
  EXPECT_EQ(partitions[1].size(), 1u);
  EXPECT_EQ(partitions[1][0], candidates[1]);
}

TEST(PartitionTest, SplitForParallelismHalvesTheLargestPartition) {
  // One fully connected component of 32 candidates, one small one of 2.
  std::vector<IndCandidate> candidates;
  std::vector<std::vector<IndCandidate>> partitions(2);
  for (int i = 0; i < 32; ++i) {
    partitions[0].push_back(
        {{"t", "c" + std::to_string(i)}, {"t", "hub"}});
  }
  partitions[1].push_back({{"u", "a"}, {"u", "b"}});
  partitions[1].push_back({{"u", "b"}, {"u", "a"}});
  const std::vector<std::vector<IndCandidate>> original = partitions;

  auto split = SplitPartitionsForParallelism(std::move(partitions), 4);
  ASSERT_EQ(split.size(), 4u);
  // 32 → 16+16, then the first 16 (earliest tie) → 8+8.
  EXPECT_EQ(split[0].size(), 8u);
  EXPECT_EQ(split[1].size(), 8u);
  EXPECT_EQ(split[2].size(), 16u);
  EXPECT_EQ(split[3].size(), 2u);
  // Concatenating the splits reproduces the input candidate order.
  std::vector<IndCandidate> flattened;
  for (const auto& partition : split) {
    flattened.insert(flattened.end(), partition.begin(), partition.end());
  }
  std::vector<IndCandidate> expected = original[0];
  expected.insert(expected.end(), original[1].begin(), original[1].end());
  EXPECT_EQ(flattened, expected);
}

TEST(PartitionTest, SplitForParallelismLeavesSmallPartitionsAlone) {
  // Below 2 × kMinSplitPartition nothing splits: duplicated
  // referenced-side reads would outweigh the parallelism.
  std::vector<std::vector<IndCandidate>> partitions(1);
  for (size_t i = 0; i < 2 * kMinSplitPartition - 1; ++i) {
    partitions[0].push_back(
        {{"t", "c" + std::to_string(i)}, {"t", "hub"}});
  }
  auto split = SplitPartitionsForParallelism(std::move(partitions), 8);
  EXPECT_EQ(split.size(), 1u);
}

TEST(PartitionTest, ChainedAttributesStayInOnePartition) {
  // a ⊆ b, b ⊆ c: one transitive component even though no candidate names
  // both a and c.
  std::vector<IndCandidate> candidates = {
      {{"t", "a"}, {"t", "b"}},
      {{"t", "b"}, {"t", "c"}},
  };
  auto partitions = PartitionCandidatesByComponent(candidates);
  ASSERT_EQ(partitions.size(), 1u);
  EXPECT_EQ(partitions[0].size(), 2u);
}

// A catalog of `clusters` disjoint FK clusters whose value ranges do not
// overlap, so the min/max-value pretests prune every cross-cluster
// candidate and the attribute graph decomposes into `clusters` components.
void FillClusteredCatalog(Catalog* catalog, int clusters) {
  for (int k = 0; k < clusters; ++k) {
    const std::string prefix(1, static_cast<char>('a' + k));
    const std::string suffix = std::to_string(k);
    testing::AddStringColumn(catalog, "child" + suffix, "fk",
                             {prefix + "1", prefix + "2", prefix + "1"});
    testing::AddStringColumn(
        catalog, "parent" + suffix, "pk",
        {prefix + "1", prefix + "2", prefix + "3"}, true);
  }
}

TEST(SessionTest, ParallelRunMatchesSerialForEveryApproach) {
  // The acceptance bar for the parallel dispatcher: threads=N returns a
  // byte-identical (sorted) satisfied set for every registered approach,
  // with the candidate set genuinely split across partitions.
  Catalog catalog;
  FillClusteredCatalog(&catalog, 6);
  SpiderSession session(catalog);

  for (const std::string& name : testing::Approaches(testing::Family::kUnary)) {
    RunOptions serial;
    serial.approach = name;
    serial.generator.max_value_pretest = true;
    serial.generator.min_value_pretest = true;
    serial.threads = 1;
    auto serial_report = session.Run(serial);
    ASSERT_TRUE(serial_report.ok()) << name;
    EXPECT_EQ(serial_report->run.satisfied.size(), 6u) << name;

    RunOptions parallel = serial;
    parallel.threads = 4;
    auto parallel_report = session.Run(parallel);
    ASSERT_TRUE(parallel_report.ok()) << name;

    EXPECT_EQ(parallel_report->partitions, 6) << name;
    EXPECT_EQ(parallel_report->threads_used, 4) << name;
    EXPECT_EQ(parallel_report->run.satisfied, serial_report->run.satisfied)
        << name;  // vector equality: same INDs in the same (sorted) order
    EXPECT_EQ(parallel_report->run.counters.tuples_read,
              serial_report->run.counters.tuples_read)
        << name;
  }

  // The dispatcher also runs (and stays correct) when everything is one
  // component — the uniprot-like schema is fully connected.
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 40;
  auto uniprot = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(uniprot.ok());
  SpiderSession connected(**uniprot);
  RunOptions serial;
  auto serial_report = connected.Run(serial);
  ASSERT_TRUE(serial_report.ok());
  RunOptions parallel = serial;
  parallel.threads = 4;
  auto parallel_report = connected.Run(parallel);
  ASSERT_TRUE(parallel_report.ok());
  EXPECT_EQ(parallel_report->run.satisfied, serial_report->run.satisfied);
  // The single component is split so --threads=4 actually engages more
  // than one worker (the candidate set is large enough to halve).
  EXPECT_GT(parallel_report->partitions, 1);
}

TEST(SessionTest, ThreadsZeroResolvesToHardwareConcurrency) {
  Catalog catalog;
  FillCatalog(&catalog);
  SpiderSession session(catalog);
  RunOptions options;
  options.threads = 0;
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->threads_used, 1);
  EXPECT_TRUE(testing::ToSet(report->run.satisfied)
                  .contains(Ind{{"child", "fk"}, {"parent", "pk"}}));
}

TEST(SessionTest, SatisfiedSetIsSortedForAnyThreadCount) {
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 40;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);
  for (int threads : {1, 3}) {
    RunOptions options;
    options.threads = threads;
    auto report = session.Run(options);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(std::is_sorted(report->run.satisfied.begin(),
                               report->run.satisfied.end()))
        << "threads=" << threads;
  }
}

TEST(SessionTest, ParallelCancellationStopsEveryPartition) {
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 40;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);

  CancellationToken token;
  token.Cancel();  // pre-cancelled: every partition stops at its first poll
  RunOptions options;
  options.cancel = &token;
  options.threads = 4;
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->run.finished);
  EXPECT_TRUE(report->run.satisfied.empty());
}

TEST(SessionTest, ParallelProgressAggregatesAcrossPartitions) {
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 40;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);

  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> max_done{0};
  RunOptions options;
  options.approach = "brute-force";
  options.threads = 4;
  options.progress = [&](const RunProgress& progress) {
    ++calls;
    int64_t expected = max_done.load();
    while (progress.done > expected &&
           !max_done.compare_exchange_weak(expected, progress.done)) {
    }
  };
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  const int64_t candidates =
      static_cast<int64_t>(report->candidates.candidates.size());
  ASSERT_GT(candidates, 0);
  // Brute force steps once per candidate; the aggregated counter must reach
  // the full candidate count across all partitions.
  EXPECT_EQ(calls.load(), candidates);
  EXPECT_EQ(max_done.load(), candidates);
}

TEST(SessionTest, ParallelTimeBudgetReturnsPartialResult) {
  datagen::UniprotLikeOptions data_options;
  data_options.bioentries = 60;
  auto catalog = datagen::MakeUniprotLike(data_options);
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);

  RunOptions options;
  options.threads = 4;
  options.time_budget_seconds = 1e-9;
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->run.finished);
}

// An IND approach that random-accesses materialized columns: the session
// must refuse it on a disk catalog, as the approach and as an n-ary base.
// It otherwise behaves like de-marchi, so sweeps over the registry that
// happen to run after its registration still agree.
const char kMemoryOnly[] = "memory-only-test";

void RegisterMemoryOnlyApproach() {
  static const bool registered = [] {
    AlgorithmCapabilities capabilities;
    capabilities.parallel_safe = true;
    capabilities.summary = "de-marchi without out-of-core support";
    return AlgorithmRegistry::Global()
        .Register(kMemoryOnly, capabilities,
                  [](const AlgorithmConfig&) {
                    return Result<std::unique_ptr<IndAlgorithm>>(
                        std::make_unique<DeMarchiAlgorithm>());
                  })
        .ok();
  }();
  ASSERT_TRUE(registered);
}

// Pins every up-front InvalidArgument message of the three run families
// (unary, n-ary expansion, dependency discovery), including which check
// wins when a run breaks several rules at once.
TEST(SessionTest, InvalidRunOptionsFailWithPinnedMessages) {
  RegisterMemoryOnlyApproach();
  Catalog memory;
  FillCatalog(&memory);
  auto workspace = TempDir::Make("spider-session-validation");
  ASSERT_TRUE(workspace.ok());
  datagen::PdbLikeOptions pdb;
  pdb.entries = 5;
  pdb.category_tables = 1;
  auto writer = DiskCatalogWriter::Create((*workspace)->path(), "pdb_like");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(datagen::WritePdbLike(pdb, **writer).ok());
  auto disk = (*writer)->Finish();
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->out_of_core());

  const std::string out_of_core =
      std::string("approach '") + kMemoryOnly +
      "' random-accesses materialized columns and cannot profile an "
      "out-of-core (disk-backend) catalog";
  struct Case {
    const char* label;
    bool on_disk;
    std::function<void(RunOptions&)> set;
    std::string message;
  };
  const std::vector<Case> cases = {
      {"kind mismatch, ind approach", false,
       [](RunOptions& o) {
         o.approach = "spider-merge";
         o.kind = DependencyKind::kUcc;
       },
       "approach 'spider-merge' discovers inds, not uccs (approaches for "
       "that kind: ucc-levelwise)"},
      {"kind mismatch, ucc approach", false,
       [](RunOptions& o) {
         o.approach = "ucc-levelwise";
         o.kind = DependencyKind::kFd;
       },
       "approach 'ucc-levelwise' discovers uccs, not fds (approaches for "
       "that kind: fd-levelwise)"},
      {"kind mismatch wins over the error threshold", false,
       [](RunOptions& o) {
         o.approach = "spider-merge";
         o.kind = DependencyKind::kUcc;
         o.error_threshold = 0.1;
       },
       "approach 'spider-merge' discovers inds, not uccs (approaches for "
       "that kind: ucc-levelwise)"},
      {"in-memory approach on a disk catalog", true,
       [](RunOptions& o) { o.approach = kMemoryOnly; }, out_of_core},
      {"out-of-core check wins over the unary error check", true,
       [](RunOptions& o) {
         o.approach = kMemoryOnly;
         o.error_threshold = 0.1;
       },
       out_of_core},
      {"in-memory n-ary base on a disk catalog", true,
       [](RunOptions& o) {
         o.approach = "nary";
         o.nary_base = kMemoryOnly;
       },
       out_of_core},
      {"n-ary threshold of 1", false,
       [](RunOptions& o) {
         o.approach = "nary";
         o.error_threshold = 1.0;
       },
       "error_threshold must be in [0, 1)"},
      {"negative n-ary threshold", false,
       [](RunOptions& o) {
         o.approach = "nary";
         o.error_threshold = -0.1;
       },
       "error_threshold must be in [0, 1)"},
      {"threshold on an exact expansion", false,
       [](RunOptions& o) {
         o.approach = "clique-nary";
         o.error_threshold = 0.1;
       },
       "clique-nary does not support an error threshold (error > 0)"},
      {"threshold check wins over sigma on an expansion", false,
       [](RunOptions& o) {
         o.approach = "zigzag";
         o.error_threshold = 0.1;
         o.min_coverage = 0.9;
       },
       "zigzag does not support an error threshold (error > 0)"},
      {"n-ary with sigma < 1", false,
       [](RunOptions& o) {
         o.approach = "nary";
         o.min_coverage = 0.9;
       },
       "nary does not support partial (sigma < 1) coverage"},
      {"sigma check wins over the base check", false,
       [](RunOptions& o) {
         o.approach = "nary";
         o.min_coverage = 0.9;
         o.nary_base = "zigzag";
       },
       "nary does not support partial (sigma < 1) coverage"},
      {"n-ary base naming an expansion", false,
       [](RunOptions& o) {
         o.approach = "zigzag";
         o.nary_base = "nary";
       },
       "nary_base must name a unary approach, got n-ary expansion 'nary'"},
      {"n-ary sigma above 1 reaches the base's check", false,
       [](RunOptions& o) {
         o.approach = "nary";
         o.min_coverage = 1.5;
       },
       "min_coverage must be in (0, 1]"},
      {"unary run with an error threshold", false,
       [](RunOptions& o) {
         o.approach = "spider-merge";
         o.error_threshold = 0.1;
       },
       "approach 'spider-merge' verifies unary INDs; use min_coverage (σ) "
       "for partial coverage instead of an error threshold"},
      {"unary sigma on an exact verifier", false,
       [](RunOptions& o) {
         o.approach = "brute-force";
         o.min_coverage = 0.5;
       },
       "brute-force does not support partial (sigma < 1) coverage"},
      {"unary sigma above 1", false,
       [](RunOptions& o) {
         o.approach = "spider-merge";
         o.min_coverage = 1.5;
       },
       "min_coverage must be in (0, 1]"},
      {"ucc run with sigma", false,
       [](RunOptions& o) {
         o.approach = "ucc-levelwise";
         o.min_coverage = 0.9;
       },
       "min_coverage (σ) applies to IND verification; use error_threshold "
       "for approximate ucc discovery"},
      {"fd run with sigma above 1", false,
       [](RunOptions& o) {
         o.approach = "fd-levelwise";
         o.min_coverage = 1.5;
       },
       "min_coverage (σ) applies to IND verification; use error_threshold "
       "for approximate fd discovery"},
      {"exact fd run with a threshold", false,
       [](RunOptions& o) {
         o.approach = "fd-levelwise";
         o.error_threshold = 0.1;
       },
       "fd-levelwise does not support an error threshold (error > 0)"},
      {"afd threshold of 1", false,
       [](RunOptions& o) {
         o.approach = "afd-levelwise";
         o.error_threshold = 1.0;
       },
       "error_threshold must be in [0, 1)"},
  };
  for (const Case& c : cases) {
    SpiderSession session(c.on_disk ? **disk : memory);
    RunOptions options;
    c.set(options);
    auto report = session.Run(options);
    ASSERT_FALSE(report.ok()) << c.label;
    EXPECT_TRUE(report.status().IsInvalidArgument())
        << c.label << ": " << report.status().ToString();
    EXPECT_EQ(report.status().message(), c.message) << c.label;
  }
}

// Overwrites one payload byte of the set file at `path` so the record no
// longer matches its footer's zonemap key: the first byte of the first
// record, or the last byte of the last record.
void CorruptSetRecord(const std::filesystem::path& path, bool last_record) {
  std::streamoff offset =
      static_cast<std::streamoff>(kSortedSetHeaderBytes) + 1;
  if (last_record) {
    // The footer offset is the 8 bytes before the closing magic; the last
    // record's payload ends right where the footer begins.
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(std::filesystem::file_size(path) -
                                         kSortedSetTrailerBytes));
    uint64_t footer_offset = 0;
    for (int i = 0; i < 8; ++i) {
      char byte = 0;
      in.read(&byte, 1);
      footer_offset |= static_cast<uint64_t>(static_cast<unsigned char>(byte))
                       << (8 * i);
    }
    ASSERT_TRUE(in.good()) << path;
    offset = static_cast<std::streamoff>(footer_offset) - 1;
  }
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(offset);
  file.put('~');
  ASSERT_TRUE(file.good()) << path;
}

// A corrupt set file stops its reader with a sticky IOError, and its
// stream ends as if exhausted. Every unary approach that reads set files
// must fail the run on it: taken for a clean end, a corrupt dependent set
// would look empty (first record) or fully matched (last record) and
// yield INDs that do not hold.
TEST(SessionTest, CorruptDependentSetFailsTheRun) {
  const Ind fk{{"child", "fk"}, {"parent", "pk"}};
  for (const bool last_record : {false, true}) {
    for (const std::string& name :
         testing::Approaches(testing::Family::kUnary)) {
      auto capabilities = AlgorithmRegistry::Global().GetCapabilities(name);
      ASSERT_TRUE(capabilities.ok()) << name;
      if (!capabilities->needs_extractor) continue;
      SCOPED_TRACE(name + (last_record ? ", last record" : ", first record"));
      Catalog catalog;
      FillCatalog(&catalog);
      SpiderSession session(catalog);
      RunOptions options;
      options.approach = name;
      auto clean = session.Run(options);
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      ASSERT_TRUE(testing::ToSet(clean->run.satisfied).contains(fk));

      // The session's set cache hands the same file to the next run.
      auto extractor = session.extractor();
      ASSERT_TRUE(extractor.ok());
      auto dependent = (*extractor)->Lookup(fk.dependent);
      ASSERT_TRUE(dependent.ok()) << dependent.status().ToString();
      CorruptSetRecord(dependent->path, last_record);

      auto corrupt = session.Run(options);
      ASSERT_FALSE(corrupt.ok());
      EXPECT_TRUE(corrupt.status().IsIOError()) << corrupt.status().ToString();
    }
  }
}

}  // namespace
}  // namespace spider
