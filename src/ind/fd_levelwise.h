// Levelwise (approximate) functional dependency discovery by
// distinct-tuple counting ("fd-levelwise" / "afd-levelwise").
//
// An FD X -> A holds when no two rows agree on X but differ on A —
// equivalently, when the projection onto X∪{A} has exactly as many
// distinct tuples as the projection onto X. Counts come from per-table
// partitions (TANE, Huhtala et al. 1999): each eligible column decodes
// once into dense per-row value ids (ValueSetExtractor::DecodeValueIds),
// and |π_{X∪{c}}| is one refinement of X's id vector by c's — a counting
// sort by X's id, then a stamp array over c's ids. No strings, no files.
// A table whose partitions could outgrow the extractor's
// sort_memory_budget_bytes counts sorted-distinct composite sets through
// the ExternalSorter instead (ValueSetExtractor::ExtractComposite), so
// discovery still runs over out-of-core catalogs in bounded memory. Both
// sources give identical counts; every count is memoized in the
// extractor, so a repeated search in one session decodes nothing.
//
// The error measure mirrors the n-ary g3' machinery
// (CompositeSetVerifier), lifted to FDs over distinct tuples:
//
//   error(X -> A) = max(0, |π_XA| - |π_X|) / |π_XA|      (0 when empty)
//
// i.e. the fraction of distinct X∪{A} tuples in excess of what a function
// of X could produce. "fd-levelwise" keeps only error == 0; the AFD
// variant accepts error <= AlgorithmConfig::error_threshold. NULL
// handling follows the extractor's MATCH SIMPLE convention: rows with a
// NULL in the projected columns are dropped, so NULL-containing rows
// never count as violations (an all-NULL dependent column satisfies
// vacuously).
//
// The search is levelwise per dependent column A with TANE-style pruning:
// a satisfied LHS is minimal and is not extended, and no candidate may
// contain a satisfied subset.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/counters.h"
#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/extsort/value_set_extractor.h"
#include "src/ind/dependency.h"
#include "src/storage/catalog.h"

namespace spider {

class AlgorithmRegistry;

/// Options for FdLevelwiseAlgorithm.
struct FdLevelwiseOptions {
  /// Highest determinant (LHS) size considered.
  int max_lhs_arity = 2;
  /// Accept X -> A when error <= threshold; 0 = exact FDs only.
  double error_threshold = 0;
  /// Column decoder, count memo and sorted-set materializer for tables
  /// beyond the sort budget (required). Borrowed, thread-safe.
  ValueSetExtractor* extractor = nullptr;
  /// When set, per-table searches run concurrently on this pool; results
  /// and counters are identical to the serial run. Borrowed.
  ThreadPool* pool = nullptr;
};

/// \brief Levelwise minimal (approximate) FD discovery. Registered twice:
/// "fd-levelwise" (exact, kind kFd) and "afd-levelwise" (kind kAfd,
/// honoring the error threshold).
class FdLevelwiseAlgorithm : public DependencyAlgorithm {
 public:
  FdLevelwiseAlgorithm(FdLevelwiseOptions options, std::string name);

  using DependencyAlgorithm::Run;
  [[nodiscard]]
  Result<DependencyRunResult> Run(const Catalog& catalog,
                                  RunContext& context) override;

  std::string_view name() const override { return name_; }

 private:
  FdLevelwiseOptions options_;
  std::string name_;
};

/// Registers "fd-levelwise" and "afd-levelwise" (called by
/// AlgorithmRegistry::Global()).
void RegisterFdLevelwiseAlgorithms(AlgorithmRegistry& registry);

}  // namespace spider
