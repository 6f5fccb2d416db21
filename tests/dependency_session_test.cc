// End-to-end acceptance suite for the dependency-kind-generic session:
// UCC / FD / AFD discovery over the PdbLike generator's ground-truth
// dependency tables, with every backend × thread-count combination
// required to produce byte-identical results and work counters; plus the
// session-level validation surface (kind mismatches, the --error gate,
// σ vs error separation).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/common/temp_dir.h"
#include "src/datagen/pdb_like.h"
#include "src/ind/registry.h"
#include "src/ind/session.h"
#include "src/storage/catalog_sink.h"
#include "src/storage/disk_store.h"

namespace spider {
namespace {

// Small paper-shaped catalog with two ground-truth dependency tables.
datagen::PdbLikeOptions CatalogOptions() {
  datagen::PdbLikeOptions options;
  options.entries = 15;  // > 2 * dependency_groups, keeps groups non-unique
  options.category_tables = 2;
  options.clean_entry_id_tables = 1;
  options.dependency_tables = 2;
  return options;
}

struct Catalogs {
  std::unique_ptr<Catalog> memory;
  std::unique_ptr<Catalog> disk;
  std::unique_ptr<TempDir> workspace;  // keeps the disk catalog alive
};

Catalogs BuildCatalogs() {
  Catalogs out;
  auto memory = datagen::MakePdbLike(CatalogOptions());
  EXPECT_TRUE(memory.ok());
  out.memory = std::move(memory).value();

  auto dir = TempDir::Make("spider-dependency-parity");
  EXPECT_TRUE(dir.ok());
  out.workspace = std::move(dir).value();
  auto writer = DiskCatalogWriter::Create(out.workspace->path(), "pdb_like");
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE(datagen::WritePdbLike(CatalogOptions(), **writer).ok());
  auto disk = (*writer)->Finish();
  EXPECT_TRUE(disk.ok());
  out.disk = std::move(disk).value();
  EXPECT_TRUE(out.disk->out_of_core());
  return out;
}

SessionReport RunKind(const Catalog& catalog, DependencyKind kind,
                      int threads, double error = 0, int max_lhs = 0) {
  SpiderSession session(catalog);
  RunOptions options;
  auto name = AlgorithmRegistry::Global().DefaultNameForKind(kind);
  EXPECT_TRUE(name.ok());
  options.approach = name.ok() ? *name : "";
  options.kind = kind;
  options.threads = threads;
  options.error_threshold = error;
  options.max_lhs_arity = max_lhs;
  auto report = session.Run(options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return SessionReport{};
  EXPECT_EQ(report->kind, kind);
  EXPECT_TRUE(report->dependency.finished);
  return std::move(report).value();
}

std::vector<std::string> Render(const std::vector<Ucc>& uccs,
                                const std::string& table) {
  std::vector<std::string> out;
  for (const Ucc& ucc : uccs) {
    if (ucc.table == table) out.push_back(ucc.ToString());
  }
  return out;
}

std::vector<const Fd*> TableFds(const std::vector<Fd>& fds,
                                const std::string& table) {
  std::vector<const Fd*> out;
  for (const Fd& fd : fds) {
    if (fd.table == table) out.push_back(&fd);
  }
  return out;
}

std::vector<std::string> Render(const std::vector<const Fd*>& fds) {
  std::vector<std::string> out;
  for (const Fd* fd : fds) out.push_back(fd->ToString());
  return out;
}

TEST(DependencySessionTest, UccGroundTruthOnPdbLike) {
  Catalogs catalogs = BuildCatalogs();
  const SessionReport report = RunKind(*catalogs.memory,
                                       DependencyKind::kUcc, /*threads=*/1);
  // The dependency tables are built so (entry_id, ordinal) is the one
  // minimal key: no single column and no other pair is unique.
  for (const std::string table : {"pdb_dep_0", "pdb_dep_1"}) {
    EXPECT_EQ(Render(report.dependency.uccs, table),
              (std::vector<std::string>{table + "(entry_id, ordinal)"}));
  }
  // The classic tables keep their known keys (sanity: the discoverer ran
  // over the whole catalog, not just the dependency tables).
  const std::vector<std::string> struct_uccs =
      Render(report.dependency.uccs, "pdb_struct");
  EXPECT_NE(std::find(struct_uccs.begin(), struct_uccs.end(),
                      "pdb_struct(entry_id)"),
            struct_uccs.end());
  EXPECT_NE(std::find(struct_uccs.begin(), struct_uccs.end(),
                      "pdb_struct(entry_key)"),
            struct_uccs.end());
  EXPECT_GT(report.dependency.tests, 0);
  EXPECT_TRUE(report.dependency.fds.empty());
}

// Per dependency table (groups=7, violations=1, entries=15), the exact
// minimal FDs up to LHS arity 2 are fixed by construction:
//  * entry_id -> group_id -> group_code, and the code/group bijection;
//  * noisy_code -> group_id / group_code (noise values are unique rows);
//  * (entry_id, ordinal) -> noisy_code (the key; no smaller determinant
//    is exact because entry 0 carries the noise row).
std::vector<std::string> ExpectedExactFds(const std::string& table) {
  return {table + "(entry_id -> group_code)",
          table + "(group_id -> group_code)",
          table + "(noisy_code -> group_code)",
          table + "(entry_id -> group_id)",
          table + "(group_code -> group_id)",
          table + "(noisy_code -> group_id)",
          table + "(entry_id, ordinal -> noisy_code)"};
}

TEST(DependencySessionTest, FdGroundTruthOnPdbLike) {
  Catalogs catalogs = BuildCatalogs();
  const SessionReport report = RunKind(*catalogs.memory, DependencyKind::kFd,
                                       /*threads=*/1);
  for (const std::string table : {"pdb_dep_0", "pdb_dep_1"}) {
    const auto fds = TableFds(report.dependency.fds, table);
    EXPECT_EQ(Render(fds), ExpectedExactFds(table));
    for (const Fd* fd : fds) EXPECT_EQ(fd->error, 0.0) << fd->ToString();
  }
  EXPECT_TRUE(report.dependency.uccs.empty());
}

TEST(DependencySessionTest, AfdThresholdIsHonoredEndToEnd) {
  Catalogs catalogs = BuildCatalogs();
  // Known approximate FDs in each dependency table (LHS arity 1):
  //   entry_id   -> noisy_code  error 1/16  = 0.0625
  //   group_id   -> noisy_code  error 1/8   = 0.125
  //   group_code -> noisy_code  error 1/8   = 0.125
  // --error=0.05 admits none of them; 0.0625 admits exactly the first
  // (inclusive boundary); 0.125 admits all three.
  const std::string table = "pdb_dep_0";
  auto noisy_fds = [&](const SessionReport& report) {
    std::vector<std::string> out;
    for (const Fd* fd : TableFds(report.dependency.fds, table)) {
      if (fd->rhs == "noisy_code") out.push_back(fd->ToString());
    }
    return out;
  };

  const SessionReport strict = RunKind(*catalogs.memory, DependencyKind::kAfd,
                                       1, /*error=*/0.05, /*max_lhs=*/1);
  EXPECT_EQ(noisy_fds(strict), std::vector<std::string>{});

  const SessionReport at = RunKind(*catalogs.memory, DependencyKind::kAfd, 1,
                                   /*error=*/0.0625, /*max_lhs=*/1);
  EXPECT_EQ(noisy_fds(at),
            (std::vector<std::string>{table + "(entry_id -> noisy_code)"}));

  const SessionReport loose = RunKind(*catalogs.memory, DependencyKind::kAfd,
                                      1, /*error=*/0.125, /*max_lhs=*/1);
  EXPECT_EQ(noisy_fds(loose),
            (std::vector<std::string>{table + "(entry_id -> noisy_code)",
                                      table + "(group_code -> noisy_code)",
                                      table + "(group_id -> noisy_code)"}));
  for (const Fd* fd : TableFds(loose.dependency.fds, table)) {
    if (fd->lhs == std::vector<std::string>{"entry_id"} &&
        fd->rhs == "noisy_code") {
      EXPECT_DOUBLE_EQ(fd->error, 0.0625) << fd->ToString();
    }
    if (fd->lhs == std::vector<std::string>{"group_id"} &&
        fd->rhs == "noisy_code") {
      EXPECT_DOUBLE_EQ(fd->error, 0.125) << fd->ToString();
    }
  }
}

void ExpectCountersEqual(const RunCounters& a, const RunCounters& b,
                         const std::string& label) {
  EXPECT_EQ(a.tuples_read, b.tuples_read) << label;
  EXPECT_EQ(a.comparisons, b.comparisons) << label;
  EXPECT_EQ(a.candidates_tested, b.candidates_tested) << label;
  EXPECT_EQ(a.files_opened, b.files_opened) << label;
  EXPECT_EQ(a.peak_open_files, b.peak_open_files) << label;
}

class DependencyParityTest
    : public ::testing::TestWithParam<DependencyKind> {};

TEST_P(DependencyParityTest, BackendsAndThreadCountsAreByteIdentical) {
  const DependencyKind kind = GetParam();
  const double error = kind == DependencyKind::kAfd ? 0.125 : 0;
  Catalogs catalogs = BuildCatalogs();
  const SessionReport reference =
      RunKind(*catalogs.memory, kind, /*threads=*/1, error);
  EXPECT_GT(reference.dependency.tests, 0);

  struct Config {
    const Catalog* catalog;
    int threads;
    const char* label;
  };
  const std::vector<Config> configs = {
      {catalogs.memory.get(), 4, "memory/4"},
      {catalogs.disk.get(), 1, "disk/1"},
      {catalogs.disk.get(), 4, "disk/4"},
  };
  for (const Config& config : configs) {
    const SessionReport report =
        RunKind(*config.catalog, kind, config.threads, error);
    const std::string label =
        std::string(KindName(kind)) + " @ " + config.label;
    EXPECT_EQ(report.dependency.uccs, reference.dependency.uccs) << label;
    EXPECT_EQ(report.dependency.fds, reference.dependency.fds) << label;
    EXPECT_EQ(report.dependency.tests, reference.dependency.tests) << label;
    ExpectCountersEqual(report.dependency.counters,
                        reference.dependency.counters, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, DependencyParityTest,
                         ::testing::Values(DependencyKind::kUcc,
                                           DependencyKind::kFd,
                                           DependencyKind::kAfd));

int CountFiles(const std::filesystem::path& dir) {
  int files = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    files += entry.is_regular_file() ? 1 : 0;
  }
  return files;
}

TEST(DependencySessionTest, WarmFdRunDecodesNothingAndWritesNoFile) {
  Catalogs catalogs = BuildCatalogs();
  auto work = TempDir::Make("spider-fd-warm");
  ASSERT_TRUE(work.ok());
  SessionOptions session_options;
  session_options.work_dir = (*work)->path().string();
  SpiderSession session(*catalogs.disk, session_options);
  auto extractor = session.extractor();
  ASSERT_TRUE(extractor.ok());
  RunOptions options;
  options.approach = "fd-levelwise";
  options.threads = 2;

  auto cold = session.Run(options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const int64_t decoded = (*extractor)->columns_decoded();
  EXPECT_GT(decoded, 0);
  // Under the sort budget every count comes from in-memory partitions.
  EXPECT_EQ(CountFiles((*work)->path()), 0);

  // The repeat answers every count from the session's memo.
  auto warm = session.Run(options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->dependency.fds, cold->dependency.fds);
  EXPECT_EQ(warm->dependency.tests, cold->dependency.tests);
  ExpectCountersEqual(warm->dependency.counters, cold->dependency.counters,
                      "warm fd");
  EXPECT_EQ((*extractor)->columns_decoded(), decoded);
  EXPECT_EQ((*extractor)->sets_extracted(), 0);
  EXPECT_EQ(CountFiles((*work)->path()), 0);
}

TEST(DependencySessionTest, KindMismatchFailsUpFrontWithValidNames) {
  auto catalog = datagen::MakePdbLike(CatalogOptions());
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);

  RunOptions options;
  options.approach = "spider-merge";
  options.kind = DependencyKind::kUcc;
  auto report = session.Run(options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());
  EXPECT_NE(report.status().message().find("ucc-levelwise"),
            std::string::npos)
      << report.status().ToString();

  options.approach = "ucc-levelwise";
  options.kind = DependencyKind::kInd;
  report = session.Run(options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

TEST(DependencySessionTest, ErrorThresholdValidationIsUpFront) {
  auto catalog = datagen::MakePdbLike(CatalogOptions());
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);

  // σ-partial coverage and the g3' threshold are different knobs: unary
  // IND verification rejects --error even for σ-capable approaches.
  RunOptions options;
  options.approach = "spider-merge";
  options.error_threshold = 0.1;
  EXPECT_TRUE(session.Run(options).status().IsInvalidArgument());

  // Expansions without approximate support reject it before the (long)
  // unary base run.
  options.approach = "clique-nary";
  EXPECT_TRUE(session.Run(options).status().IsInvalidArgument());

  // The dependency path rejects σ-partial coverage: that knob belongs to
  // IND verification.
  RunOptions sigma;
  sigma.approach = "ucc-levelwise";
  sigma.min_coverage = 0.9;
  EXPECT_TRUE(session.Run(sigma).status().IsInvalidArgument());

  // Out-of-range thresholds fail regardless of the approach.
  RunOptions range;
  range.approach = "afd-levelwise";
  range.error_threshold = 1.0;
  EXPECT_TRUE(session.Run(range).status().IsInvalidArgument());
}

TEST(DependencySessionTest, PartialNaryErrorThresholdRunsThroughSession) {
  // Satellite contract: --error applies to partial n-ary validation via
  // CompositeSetVerifier's g3' merge. dep ⊆ ref holds unary-wise on both
  // columns, and exactly 1 of 4 distinct composite tuples misses.
  Catalog catalog;
  auto dep = catalog.CreateTable("dep");
  ASSERT_TRUE(dep.ok());
  ASSERT_TRUE((*dep)->AddColumn("a", TypeId::kString).ok());
  ASSERT_TRUE((*dep)->AddColumn("b", TypeId::kString).ok());
  for (const auto& [a, b] : std::vector<std::pair<const char*, const char*>>{
           {"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}}) {
    ASSERT_TRUE(
        (*dep)->AppendRow({Value::String(a), Value::String(b)}).ok());
  }
  auto ref = catalog.CreateTable("ref");
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE((*ref)->AddColumn("a", TypeId::kString).ok());
  ASSERT_TRUE((*ref)->AddColumn("b", TypeId::kString).ok());
  for (const auto& [a, b] : std::vector<std::pair<const char*, const char*>>{
           {"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "9"}, {"e", "4"}}) {
    ASSERT_TRUE(
        (*ref)->AppendRow({Value::String(a), Value::String(b)}).ok());
  }

  RunOptions options;
  options.approach = "nary";
  options.error_threshold = 0.25;
  SpiderSession session(catalog);
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->nary_run.satisfied.size(), 1u);
  EXPECT_EQ(report->nary_run.satisfied[0].arity(), 2);

  // Exact mode over the same data: the composite candidate misses.
  RunOptions exact;
  exact.approach = "nary";
  SpiderSession exact_session(catalog);
  auto exact_report = exact_session.Run(exact);
  ASSERT_TRUE(exact_report.ok());
  EXPECT_TRUE(exact_report->nary_run.satisfied.empty());
}

TEST(DependencySessionTest, CancellationYieldsPartialDependencyReport) {
  auto catalog = datagen::MakePdbLike(CatalogOptions());
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);
  CancellationToken cancelled;
  cancelled.Cancel();
  RunOptions options;
  options.approach = "ucc-levelwise";
  options.cancel = &cancelled;
  auto report = session.Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->dependency.finished);
  EXPECT_TRUE(report->dependency.uccs.empty());
}

}  // namespace
}  // namespace spider
