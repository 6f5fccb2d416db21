#include "src/ind/fd_levelwise.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/ind/nary_algorithm.h"  // RunNaryBatch
#include "src/ind/registry.h"

namespace spider {

namespace {

struct TableOutcome {
  std::vector<Fd> fds;
  RunCounters counters;
  bool finished = true;
};

// Upper bound on the id arrays one table's partitions can hold: one per
// column combination of size <= max_lhs, plus refinement scratch (sort
// order, bucket ends and two stamp arrays, at most a row each).
double PartitionBytesBound(int64_t rows, int columns, int max_lhs) {
  double arrays = 4;
  double combinations = 1;
  for (int k = 1; k <= std::min(max_lhs, columns); ++k) {
    combinations = combinations * (columns - k + 1) / k;
    arrays += combinations;
  }
  return arrays * static_cast<double>(rows) * sizeof(int32_t);
}

// One table's partitions for distinct-tuple counting: each column decodes
// once into dense value ids, and |π_{X∪{c}}| comes from refining X's ids
// with c's (TANE's partition product over unstripped id vectors). Ids are
// kept for column sets that can be an LHS (size <= max_lhs) because they
// are the prefixes of the next refinements; an LHS ∪ {A} count keeps
// nothing. Single-threaded: one instance per table search.
class TablePartitions {
 public:
  TablePartitions(const Catalog& catalog, const Table& table,
                  ValueSetExtractor& extractor)
      : catalog_(catalog), table_(table), extractor_(extractor) {}

  // |π_combo| for ascending column indices.
  Result<int64_t> Distinct(const std::vector<int>& combo) {
    SPIDER_ASSIGN_OR_RETURN(const ValueIds* ids, IdsOf(combo));
    return ids->distinct;
  }

  // |π_{combo ∪ {extra}}|, counted without keeping its ids.
  Result<int64_t> DistinctWith(const std::vector<int>& combo, int extra) {
    SPIDER_ASSIGN_OR_RETURN(const ValueIds* base, IdsOf(combo));
    SPIDER_ASSIGN_OR_RETURN(const ValueIds* column, IdsOf({extra}));
    return Refine(*base, *column, nullptr);
  }

 private:
  Result<const ValueIds*> IdsOf(const std::vector<int>& combo) {
    auto it = ids_.find(combo);
    if (it != ids_.end()) return &it->second;
    ValueIds ids;
    if (combo.size() == 1) {
      SPIDER_ASSIGN_OR_RETURN(
          ids, extractor_.DecodeValueIds(
                   catalog_, AttributeRef{table_.name(),
                                          table_.column(combo[0]).name()}));
    } else {
      const std::vector<int> prefix(combo.begin(), combo.end() - 1);
      SPIDER_ASSIGN_OR_RETURN(const ValueIds* base, IdsOf(prefix));
      SPIDER_ASSIGN_OR_RETURN(const ValueIds* column, IdsOf({combo.back()}));
      ids.distinct = Refine(*base, *column, &ids.ids);
    }
    return &ids_.emplace(combo, std::move(ids)).first->second;
  }

  // Distinct (base id, column id) pairs over rows where both are non-NULL:
  // a counting sort of the rows by base id, then one pass per base group
  // that stamps each column id with the group that saw it last. With
  // `out`, also writes each row's pair id (-1 for a dropped row).
  int32_t Refine(const ValueIds& base, const ValueIds& column,
                 std::vector<int32_t>* out) {
    const size_t rows = base.ids.size();
    bucket_ends_.assign(static_cast<size_t>(base.distinct) + 1, 0);
    for (int32_t id : base.ids) {
      if (id >= 0) ++bucket_ends_[static_cast<size_t>(id) + 1];
    }
    for (size_t g = 1; g < bucket_ends_.size(); ++g) {
      bucket_ends_[g] += bucket_ends_[g - 1];
    }
    // Placing rows advances each bucket's start to its end.
    order_.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      const int32_t id = base.ids[r];
      if (id < 0) continue;
      order_[static_cast<size_t>(bucket_ends_[static_cast<size_t>(id)]++)] =
          static_cast<int32_t>(r);
    }
    stamp_.assign(static_cast<size_t>(column.distinct), -1);
    pair_id_.resize(static_cast<size_t>(column.distinct));
    if (out != nullptr) out->assign(rows, -1);
    int32_t pairs = 0;
    int32_t begin = 0;
    for (int32_t g = 0; g < base.distinct; ++g) {
      const int32_t end = bucket_ends_[static_cast<size_t>(g)];
      for (int32_t i = begin; i < end; ++i) {
        const size_t row = static_cast<size_t>(order_[static_cast<size_t>(i)]);
        const int32_t value = column.ids[row];
        if (value < 0) continue;
        const size_t v = static_cast<size_t>(value);
        if (stamp_[v] != g) {
          stamp_[v] = g;
          pair_id_[v] = pairs++;
        }
        if (out != nullptr) (*out)[row] = pair_id_[v];
      }
      begin = end;
    }
    return pairs;
  }

  const Catalog& catalog_;
  const Table& table_;
  ValueSetExtractor& extractor_;
  std::map<std::vector<int>, ValueIds> ids_;
  // Refinement scratch, reused across calls.
  std::vector<int32_t> bucket_ends_;
  std::vector<int32_t> order_;
  std::vector<int32_t> stamp_;
  std::vector<int32_t> pair_id_;
};

// One table's levelwise search. Serial within the table; the caller
// parallelizes across tables.
Result<TableOutcome> FindFdsInTable(const Catalog& catalog,
                                    const Table& table,
                                    const FdLevelwiseOptions& options,
                                    RunContext& context) {
  TableOutcome outcome;
  if (table.row_count() == 0) return outcome;
  std::vector<int> eligible;
  for (int c = 0; c < table.column_count(); ++c) {
    if (IsIndEligibleType(table.column(c).type())) eligible.push_back(c);
  }
  if (eligible.size() < 2) return outcome;

  // Distinct-tuple counts of ascending column sets (distinct counts are
  // order-invariant), memoized in the extractor across runs. A miss counts
  // on the table's partitions, built on first use; a table whose
  // partitions could outgrow the sort budget counts sorted composite sets
  // instead, which stream in bounded memory.
  ValueSetExtractor& extractor = *options.extractor;
  const bool in_memory =
      table.row_count() <= std::numeric_limits<int32_t>::max() &&
      PartitionBytesBound(table.row_count(), static_cast<int>(eligible.size()),
                          options.max_lhs_arity) <=
          static_cast<double>(extractor.options().sort_memory_budget_bytes);
  std::unique_ptr<TablePartitions> partitions;
  // |π_lhs|, or |π_{lhs ∪ {extra}}| when extra >= 0.
  auto distinct_of = [&](const std::vector<int>& lhs,
                         int extra) -> Result<int64_t> {
    std::vector<int> combo = lhs;
    if (extra >= 0) {
      combo.insert(std::lower_bound(combo.begin(), combo.end(), extra), extra);
    }
    std::vector<AttributeRef> attributes;
    attributes.reserve(combo.size());
    for (int c : combo) {
      attributes.push_back(AttributeRef{table.name(), table.column(c).name()});
    }
    if (std::optional<int64_t> memo = extractor.FindDistinctCount(attributes)) {
      return *memo;
    }
    int64_t count = 0;
    if (in_memory) {
      if (partitions == nullptr) {
        partitions =
            std::make_unique<TablePartitions>(catalog, table, extractor);
      }
      SPIDER_ASSIGN_OR_RETURN(count, extra >= 0
                                         ? partitions->DistinctWith(lhs, extra)
                                         : partitions->Distinct(lhs));
    } else {
      SortedSetInfo info;
      if (attributes.size() == 1) {
        SPIDER_ASSIGN_OR_RETURN(info,
                                extractor.Extract(catalog, attributes[0]));
      } else {
        SPIDER_ASSIGN_OR_RETURN(
            info, extractor.ExtractComposite(catalog, attributes));
      }
      count = info.distinct_count;
    }
    extractor.RememberDistinctCount(std::move(attributes), count);
    return count;
  };

  for (int a : eligible) {
    // Level 1 candidates: every other eligible column as a singleton LHS.
    std::set<std::vector<int>> candidates;
    for (int c : eligible) {
      if (c != a) candidates.insert({c});
    }
    std::vector<std::vector<int>> satisfied_sets;
    for (int arity = 1;
         arity <= options.max_lhs_arity && !candidates.empty(); ++arity) {
      std::vector<std::vector<int>> unsatisfied;
      for (const std::vector<int>& lhs : candidates) {
        if (context.ShouldStop()) {
          outcome.finished = false;
          std::sort(outcome.fds.begin(), outcome.fds.end());
          return outcome;
        }
        ++outcome.counters.candidates_tested;
        SPIDER_ASSIGN_OR_RETURN(const int64_t lhs_distinct,
                                distinct_of(lhs, -1));
        SPIDER_ASSIGN_OR_RETURN(const int64_t pair_distinct,
                                distinct_of(lhs, a));
        // g3-style over distinct tuples; the clamp covers NULLs in A
        // (dropped rows can make |π_XA| < |π_X|) per MATCH SIMPLE.
        const int64_t violations =
            std::max<int64_t>(0, pair_distinct - lhs_distinct);
        const double error =
            pair_distinct > 0
                ? static_cast<double>(violations) /
                      static_cast<double>(pair_distinct)
                : 0.0;
        context.Step();
        if (error <= options.error_threshold) {
          satisfied_sets.push_back(lhs);
          Fd fd;
          fd.table = table.name();
          for (int c : lhs) fd.lhs.push_back(table.column(c).name());
          fd.rhs = table.column(a).name();
          fd.error = error;
          outcome.fds.push_back(std::move(fd));
        } else {
          unsatisfied.push_back(lhs);
        }
      }
      candidates.clear();
      if (arity == options.max_lhs_arity) break;
      // Next level: extend unsatisfied LHSs; a candidate containing a
      // satisfied subset can only yield a non-minimal FD, so it is pruned
      // (every minimal candidate survives — its max-column-removed prefix
      // is an unsatisfied base).
      for (const std::vector<int>& base : unsatisfied) {
        for (int c : eligible) {
          if (c <= base.back() || c == a) continue;
          std::vector<int> combo = base;
          combo.push_back(c);
          bool contains_satisfied = false;
          for (const std::vector<int>& satisfied : satisfied_sets) {
            if (std::includes(combo.begin(), combo.end(), satisfied.begin(),
                              satisfied.end())) {
              contains_satisfied = true;
              break;
            }
          }
          if (!contains_satisfied) candidates.insert(std::move(combo));
        }
      }
    }
  }
  std::sort(outcome.fds.begin(), outcome.fds.end());
  return outcome;
}

}  // namespace

FdLevelwiseAlgorithm::FdLevelwiseAlgorithm(FdLevelwiseOptions options,
                                           std::string name)
    : options_(options), name_(std::move(name)) {
  SPIDER_CHECK(options_.extractor != nullptr)
      << name_ << " requires a value-set extractor";
  SPIDER_CHECK_GE(options_.max_lhs_arity, 1);
  SPIDER_CHECK_GE(options_.error_threshold, 0);
  SPIDER_CHECK_LT(options_.error_threshold, 1.0);
}

Result<DependencyRunResult> FdLevelwiseAlgorithm::Run(const Catalog& catalog,
                                                      RunContext& context) {
  Stopwatch watch;
  watch.Start();
  context.Begin(/*total_work=*/0);  // candidate count unknown up front
  DependencyRunResult result;

  // Per-table searches are independent; batch results fold in table order,
  // so output and counters are identical at any thread count.
  auto outcomes = RunNaryBatch<TableOutcome>(
      options_.pool, static_cast<size_t>(catalog.table_count()),
      [&](size_t t) -> Result<TableOutcome> {
        return FindFdsInTable(catalog, catalog.table(static_cast<int>(t)),
                              options_, context);
      });
  for (Result<TableOutcome>& outcome : outcomes) {
    SPIDER_RETURN_NOT_OK(outcome.status());
    result.fds.insert(result.fds.end(),
                      std::make_move_iterator(outcome->fds.begin()),
                      std::make_move_iterator(outcome->fds.end()));
    result.counters.Merge(outcome->counters);
    result.finished = result.finished && outcome->finished;
  }
  std::sort(result.fds.begin(), result.fds.end());
  result.tests = result.counters.candidates_tested;
  result.seconds = watch.ElapsedSeconds();
  return result;
}

void RegisterFdLevelwiseAlgorithms(AlgorithmRegistry& registry) {
  AlgorithmCapabilities capabilities;
  capabilities.needs_extractor = true;
  capabilities.supports_time_budget = true;
  capabilities.parallel_safe = true;
  capabilities.supports_out_of_core = true;

  capabilities.kind = DependencyKind::kFd;
  capabilities.supports_partial = false;
  capabilities.summary =
      "levelwise minimal exact FDs via distinct-tuple counts from in-memory "
      "table partitions (sorted composite sets beyond the sort budget)";
  Status status = registry.RegisterDependency(
      "fd-levelwise", capabilities,
      [](const AlgorithmConfig& config)
          -> Result<std::unique_ptr<DependencyAlgorithm>> {
        FdLevelwiseOptions options;
        options.extractor = config.extractor;
        options.pool = config.pool;
        if (config.max_lhs_arity >= 1) {
          options.max_lhs_arity = config.max_lhs_arity;
        }
        return std::unique_ptr<DependencyAlgorithm>(
            std::make_unique<FdLevelwiseAlgorithm>(options, "fd-levelwise"));
      });
  SPIDER_CHECK(status.ok()) << status.ToString();

  capabilities.kind = DependencyKind::kAfd;
  capabilities.supports_partial = true;  // honors error_threshold
  capabilities.summary =
      "approximate FDs: g3-style distinct-tuple error up to the configured "
      "threshold";
  status = registry.RegisterDependency(
      "afd-levelwise", capabilities,
      [](const AlgorithmConfig& config)
          -> Result<std::unique_ptr<DependencyAlgorithm>> {
        FdLevelwiseOptions options;
        options.extractor = config.extractor;
        options.pool = config.pool;
        options.error_threshold = config.error_threshold;
        if (config.max_lhs_arity >= 1) {
          options.max_lhs_arity = config.max_lhs_arity;
        }
        return std::unique_ptr<DependencyAlgorithm>(
            std::make_unique<FdLevelwiseAlgorithm>(options, "afd-levelwise"));
      });
  SPIDER_CHECK(status.ok()) << status.ToString();
}

}  // namespace spider
