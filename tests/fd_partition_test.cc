// Seeded property test for FD/AFD discovery's two counting paths: the
// in-memory table partitions and the sorted composite sets (forced by a
// sort budget too small for any table's partitions) must report the same
// minimal FDs with the same errors as a brute-force oracle that counts
// distinct tuples with std::set, on both storage backends and at 1 and 4
// threads. The random tables mix NULLs, duplicate rows, all-NULL and
// constant columns, functional columns, and empty and one-row tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/common/temp_dir.h"
#include "src/ind/session.h"
#include "src/storage/catalog_sink.h"
#include "src/storage/disk_store.h"

namespace spider {
namespace {

using Cell = std::optional<std::string>;  // nullopt = NULL

struct TableSpec {
  std::string name;
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;
};

// One random table: every column draws a kind — a small random domain
// with NULLs, all-NULL, constant, a function of an earlier column (so real
// FDs exist), or unique with NULLs — then a few rows are duplicated.
TableSpec RandomTable(const std::string& name, std::mt19937_64& rng) {
  auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  TableSpec table;
  table.name = name;
  const int columns = uniform(2, 4);
  const int rows = uniform(1, 20);
  table.rows.assign(static_cast<size_t>(rows),
                    std::vector<Cell>(static_cast<size_t>(columns)));
  for (int c = 0; c < columns; ++c) {
    table.columns.push_back("c" + std::to_string(c));
    const int kind = c == 0 ? uniform(0, 1) * 4 : uniform(0, 4);
    const int domain = uniform(1, 5);
    const int null_percent = uniform(0, 3) * 10;
    const int source = c == 0 ? 0 : uniform(0, c - 1);
    for (int r = 0; r < rows; ++r) {
      std::vector<Cell>& row = table.rows[static_cast<size_t>(r)];
      Cell& cell = row[static_cast<size_t>(c)];
      switch (kind) {
        case 0:  // random domain with NULLs
          if (uniform(0, 99) >= null_percent) {
            cell = "v" + std::to_string(uniform(0, domain - 1));
          }
          break;
        case 1:  // all NULL
          break;
        case 2:  // constant
          cell = "k";
          break;
        case 3:  // function of an earlier column
          if (const Cell& from = row[static_cast<size_t>(source)]) {
            cell = "f" + std::to_string(std::hash<std::string>{}(*from) %
                                        static_cast<size_t>(domain));
          }
          break;
        default:  // unique, with NULLs
          if (uniform(0, 99) >= null_percent) cell = "u" + std::to_string(r);
          break;
      }
    }
  }
  const int duplicates = uniform(0, 4);
  for (int d = 0; d < duplicates; ++d) {
    table.rows.push_back(table.rows[static_cast<size_t>(uniform(0, rows - 1))]);
  }
  return table;
}

std::vector<TableSpec> RandomSchema(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<TableSpec> tables;
  for (int t = 0; t < 4; ++t) {
    tables.push_back(RandomTable("t" + std::to_string(t), rng));
  }
  TableSpec empty{"empty", {"a", "b", "c"}, {}};
  tables.push_back(empty);
  TableSpec single{"single", {"a", "b", "c"}, {{"x", std::nullopt, "z"}}};
  tables.push_back(single);
  return tables;
}

Status WriteSchema(const std::vector<TableSpec>& tables, CatalogSink& sink) {
  for (const TableSpec& table : tables) {
    SPIDER_RETURN_NOT_OK(sink.BeginTable(table.name));
    for (const std::string& column : table.columns) {
      SPIDER_RETURN_NOT_OK(sink.AddColumn(column, TypeId::kString));
    }
    for (const std::vector<Cell>& row : table.rows) {
      std::vector<Value> values;
      for (const Cell& cell : row) {
        values.push_back(cell ? Value::String(*cell) : Value::Null());
      }
      SPIDER_RETURN_NOT_OK(sink.AppendRow(std::move(values)));
    }
    SPIDER_RETURN_NOT_OK(sink.FinishTable());
  }
  return Status::OK();
}

std::string Render(const std::string& table, const std::vector<std::string>& lhs,
                   const std::string& rhs, double error) {
  Fd fd;
  fd.table = table;
  fd.lhs = lhs;
  fd.rhs = rhs;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), " %.17g", error);
  return fd.ToString() + buffer;
}

std::vector<std::string> Render(const std::vector<Fd>& fds) {
  std::vector<std::string> out;
  for (const Fd& fd : fds) out.push_back(Render(fd.table, fd.lhs, fd.rhs, fd.error));
  return out;
}

// |π_columns| with every NULL-containing row dropped, by brute force.
int64_t BruteDistinct(const TableSpec& table, const std::vector<int>& columns) {
  std::set<std::vector<std::string>> tuples;
  for (const std::vector<Cell>& row : table.rows) {
    std::vector<std::string> tuple;
    for (int c : columns) {
      const Cell& cell = row[static_cast<size_t>(c)];
      if (!cell) break;
      tuple.push_back(*cell);
    }
    if (tuple.size() == columns.size()) tuples.insert(std::move(tuple));
  }
  return static_cast<int64_t>(tuples.size());
}

// Minimal FDs straight from the definition: X -> A is reported when its
// distinct-tuple error is within the threshold and no proper subset of X
// already is.
std::set<std::string> OracleFds(const std::vector<TableSpec>& tables,
                                int max_lhs, double threshold) {
  std::set<std::string> out;
  for (const TableSpec& table : tables) {
    const int n = static_cast<int>(table.columns.size());
    if (table.rows.empty() || n < 2) continue;
    for (int a = 0; a < n; ++a) {
      std::vector<std::vector<int>> satisfied;
      // Ascending subsets of the other columns, smallest first.
      std::vector<std::vector<int>> level = {{}};
      for (int size = 1; size <= max_lhs; ++size) {
        std::vector<std::vector<int>> next;
        for (const std::vector<int>& base : level) {
          for (int c = base.empty() ? 0 : base.back() + 1; c < n; ++c) {
            if (c == a) continue;
            std::vector<int> lhs = base;
            lhs.push_back(c);
            next.push_back(lhs);
          }
        }
        for (const std::vector<int>& lhs : next) {
          bool has_satisfied_subset = false;
          for (const std::vector<int>& s : satisfied) {
            has_satisfied_subset |=
                std::includes(lhs.begin(), lhs.end(), s.begin(), s.end());
          }
          if (has_satisfied_subset) continue;
          std::vector<int> with_a = lhs;
          with_a.insert(std::lower_bound(with_a.begin(), with_a.end(), a), a);
          const int64_t lhs_distinct = BruteDistinct(table, lhs);
          const int64_t pair_distinct = BruteDistinct(table, with_a);
          const int64_t violations =
              std::max<int64_t>(0, pair_distinct - lhs_distinct);
          const double error = pair_distinct > 0
                                   ? static_cast<double>(violations) /
                                         static_cast<double>(pair_distinct)
                                   : 0.0;
          if (error > threshold) continue;
          satisfied.push_back(lhs);
          std::vector<std::string> names;
          for (int c : lhs) names.push_back(table.columns[static_cast<size_t>(c)]);
          out.insert(Render(table.name, names,
                            table.columns[static_cast<size_t>(a)], error));
        }
        level = std::move(next);
      }
    }
  }
  return out;
}

struct Params {
  int max_lhs;
  double threshold;
};

// Small enough that no non-empty table's partitions fit, so every count
// comes from sorted sets.
constexpr int64_t kTinySortBudget = 16;

class FdPartitionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FdPartitionTest, PartitionsSortedSetsAndOracleAgree) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  const std::vector<TableSpec> tables = RandomSchema(seed);

  MemoryCatalogSink memory_sink;
  ASSERT_TRUE(WriteSchema(tables, memory_sink).ok());
  auto memory = memory_sink.Finish();
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  auto workspace = TempDir::Make("spider-fd-partition");
  ASSERT_TRUE(workspace.ok());
  auto writer = DiskCatalogWriter::Create((*workspace)->path() / "ws", "db");
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(WriteSchema(tables, **writer).ok());
  auto disk = (*writer)->Finish();
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  for (const Params& params : {Params{1, 0}, Params{2, 0}, Params{3, 0},
                               Params{2, 0.1}, Params{1, 0.34}}) {
    SCOPED_TRACE("max_lhs " + std::to_string(params.max_lhs) + " error " +
                 std::to_string(params.threshold));
    const std::set<std::string> oracle =
        OracleFds(tables, params.max_lhs, params.threshold);
    std::optional<std::vector<std::string>> first;
    std::optional<int64_t> first_tests;
    for (const Catalog* catalog : {memory->get(), disk->get()}) {
      for (int threads : {1, 4}) {
        for (bool tiny_budget : {false, true}) {
          SCOPED_TRACE(std::string(catalog->out_of_core() ? "disk" : "memory") +
                       " threads " + std::to_string(threads) +
                       (tiny_budget ? " sorted sets" : " partitions"));
          SessionOptions session_options;
          if (tiny_budget) session_options.sort_memory_budget_bytes = kTinySortBudget;
          SpiderSession session(*catalog, session_options);
          RunOptions options;
          options.approach =
              params.threshold > 0 ? "afd-levelwise" : "fd-levelwise";
          options.threads = threads;
          options.max_lhs_arity = params.max_lhs;
          options.error_threshold = params.threshold;
          auto report = session.Run(options);
          ASSERT_TRUE(report.ok()) << report.status().ToString();
          ASSERT_TRUE(report->dependency.finished);
          const std::vector<std::string> found = Render(report->dependency.fds);
          EXPECT_EQ(std::set<std::string>(found.begin(), found.end()), oracle);
          // Every path also agrees on the output order and the work done.
          if (!first) {
            first = found;
            first_tests = report->dependency.tests;
          }
          EXPECT_EQ(found, *first);
          EXPECT_EQ(report->dependency.tests, *first_tests);

          auto extractor = session.extractor();
          ASSERT_TRUE(extractor.ok());
          if (tiny_budget) {
            EXPECT_EQ((*extractor)->columns_decoded(), 0);
            EXPECT_GT((*extractor)->sets_extracted(), 0);
          } else {
            EXPECT_GT((*extractor)->columns_decoded(), 0);
            EXPECT_EQ((*extractor)->sets_extracted(), 0);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdPartitionTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace spider
