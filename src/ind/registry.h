// Name-based registry of dependency-discovery algorithms.
//
// Every approach is one entry: its display name ("brute-force",
// "sql-join", "ucc-levelwise", ...), a Capabilities descriptor and a
// factory. The factory's type is the approach's family — a unary IND
// verifier (IndAlgorithm), an n-ary IND expansion (NaryAlgorithm) or a
// UCC/FD/AFD discoverer (DependencyAlgorithm) — and the descriptor's
// `kind` and `nary` say the same to consumers. The SpiderSession, the CLI
// and the benchmarks resolve approaches by string, so adding an algorithm
// means one registration call instead of touching an enum, a name table
// and every switch over it.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/extsort/value_set_extractor.h"
#include "src/ind/algorithm.h"
#include "src/ind/dependency.h"
#include "src/ind/nary_algorithm.h"

namespace spider {

/// What an approach needs and what it can do. Consumers use this to
/// validate configurations up front (e.g. σ < 1 with an approach that has
/// no partial-coverage semantics) and to pick defaults.
struct AlgorithmCapabilities {
  /// The dependency class the approach discovers. IND approaches (unary
  /// verifiers and n-ary expansions) are kInd; UCC/FD/AFD discoverers
  /// register through RegisterDependency with their kind.
  DependencyKind kind = DependencyKind::kInd;
  /// Reads sorted value sets materialized by a ValueSetExtractor; creating
  /// the algorithm without one fails.
  bool needs_extractor = false;
  /// Understands approximate discovery: σ-partial coverage
  /// (AlgorithmConfig::min_coverage < 1) for IND verifiers, or a g3-style
  /// error threshold (AlgorithmConfig::error_threshold > 0) for the n-ary
  /// expansion and the AFD discoverer. Configs requesting either knob are
  /// rejected up front when this is false.
  bool supports_partial = false;
  /// Honors RunContext::time_budget_seconds mid-run (all built-ins do).
  bool supports_time_budget = true;
  /// Runs inside the database engine (the paper's SQL statements) rather
  /// than over externally sorted value sets.
  bool database_internal = false;
  /// Independent instances may run concurrently over disjoint candidate
  /// partitions of one catalog (the session's parallel dispatcher requires
  /// this). Opt-in: registrants assert it explicitly — all built-ins do,
  /// since they only read the catalog and share nothing but the
  /// thread-safe extractor — and the session falls back to serial
  /// execution for approaches that don't.
  bool parallel_safe = false;
  /// Reads catalog data exclusively through streaming ValueCursors (or the
  /// extractor's sorted-set files), so it can profile out-of-core
  /// (disk-backend) catalogs. Opt-in: approaches that random-access
  /// materialized columns must leave this false, and the session rejects
  /// them up front for disk-backed catalogs instead of aborting mid-run.
  bool supports_out_of_core = false;
  /// An n-ary expansion (NaryAlgorithm) rather than a unary verifier: it
  /// derives higher-arity INDs from a satisfied unary base. The session
  /// runs RunOptions::nary_base first and feeds its result in.
  bool nary = false;
  /// One-line description for usage strings and listings. Owned, so
  /// registrants may build it dynamically.
  std::string summary;
};

/// Unified construction-time knobs. Factories read only what applies to
/// their algorithm; the registry rejects combinations the capabilities
/// rule out.
struct AlgorithmConfig {
  /// Sorted-set materializer, required by external approaches. Not owned;
  /// must outlive the created algorithm.
  ValueSetExtractor* extractor = nullptr;
  /// Open-file budget for blockwise single-pass; 0 = unlimited.
  int max_open_files = 0;
  /// σ-partial coverage threshold in (0, 1]; 1 = exact INDs.
  double min_coverage = 1.0;
  /// Worker pool for n-ary expansions (per-level candidate batches /
  /// per-table-pair dispatch). Not owned; must outlive the algorithm.
  /// nullptr = serial (results are identical either way).
  ThreadPool* pool = nullptr;
  /// Maximum arity for n-ary expansions; values < 2 select each
  /// algorithm's default.
  int max_nary_arity = 0;
  /// g3-style error threshold in [0, 1): 0 = exact. An n-ary candidate or
  /// FD whose measured error is <= the threshold counts as satisfied.
  /// Values > 0 require supports_partial.
  double error_threshold = 0;
  /// Maximum determinant (LHS) arity for FD/AFD discovery; values < 1
  /// select each algorithm's default. Ignored by other kinds.
  int max_lhs_arity = 0;
  /// Honor set-file footer zonemaps in the merge loops
  /// (SortedSetReader::SkipToAtLeast). On by default; turning it off
  /// forces the pre-block linear scans — same satisfied sets, more
  /// tuples_read — which is what the skip-parity tests compare against.
  bool block_skip = true;
  /// Optional pool dedicated to background block prefetch on the merge
  /// path. Must NOT be the pool the algorithms run on: ThreadPool tasks
  /// must not block on other tasks' futures, and a reader waiting for its
  /// prefetch from inside a worker would do exactly that. Not owned;
  /// nullptr = synchronous reads.
  ThreadPool* io_pool = nullptr;
};

/// \brief String-keyed algorithm registry. Thread-compatible: all built-in
/// registrations happen inside Global()'s first use; later lookups are
/// read-only.
class AlgorithmRegistry {
 public:
  using Factory = std::function<Result<std::unique_ptr<IndAlgorithm>>(
      const AlgorithmConfig&)>;
  using NaryFactory = std::function<Result<std::unique_ptr<NaryAlgorithm>>(
      const AlgorithmConfig&)>;
  using DependencyFactory =
      std::function<Result<std::unique_ptr<DependencyAlgorithm>>(
          const AlgorithmConfig&)>;

  /// An approach's family: which factory type it registered, hence which
  /// Register*/Create* pair serves it.
  enum class Family { kUnary, kNary, kDependency };

  /// The process-wide registry, with all built-in approaches registered.
  static AlgorithmRegistry& Global();

  /// Registers a unary IND verifier (`kind` forced to kInd, `nary` to
  /// false). Fails with AlreadyExists on a duplicate name in any family.
  [[nodiscard]]
  Status Register(std::string name, AlgorithmCapabilities capabilities,
                  Factory factory);

  /// Registers an n-ary IND expansion (`kind` forced to kInd, `nary` to
  /// true). Fails with AlreadyExists on a duplicate name in any family.
  [[nodiscard]]
  Status RegisterNary(std::string name, AlgorithmCapabilities capabilities,
                      NaryFactory factory);

  /// Registers a non-IND dependency discoverer; `capabilities.kind` must
  /// be kUcc, kFd or kAfd. Fails with AlreadyExists on a duplicate name in
  /// any family.
  [[nodiscard]]
  Status RegisterDependency(std::string name,
                            AlgorithmCapabilities capabilities,
                            DependencyFactory factory);

  /// True for any registered name.
  bool Contains(std::string_view name) const;

  /// Capabilities for any registered name, or NotFound with the valid
  /// names per kind (and a nearest-match suggestion). `capabilities.kind`
  /// and `capabilities.nary` tell the families apart.
  [[nodiscard]]
  Result<AlgorithmCapabilities> GetCapabilities(std::string_view name) const;

  /// Builds a unary verifier after validating `config` against its
  /// capabilities (extractor present, σ and error threshold supported). A
  /// name from another family fails with InvalidArgument naming the right
  /// Create*.
  [[nodiscard]]
  Result<std::unique_ptr<IndAlgorithm>> Create(
      std::string_view name, const AlgorithmConfig& config = {}) const;

  /// Builds an n-ary expansion; validation as for Create.
  [[nodiscard]]
  Result<std::unique_ptr<NaryAlgorithm>> CreateNary(
      std::string_view name, const AlgorithmConfig& config = {}) const;

  /// Builds a UCC/FD/AFD discoverer; validation as for Create.
  [[nodiscard]]
  Result<std::unique_ptr<DependencyAlgorithm>> CreateDependency(
      std::string_view name, const AlgorithmConfig& config = {}) const;

  /// Every registered name, in registration order (deterministic).
  std::vector<std::string> Names() const;

  /// Every name registered in `family`, in registration order.
  std::vector<std::string> Names(Family family) const;

  /// Every name registered under `kind`, in registration order. Empty
  /// when nothing handles the kind.
  std::vector<std::string> NamesForKind(DependencyKind kind) const;

  /// The default approach for a kind: its first registered name, or
  /// NotFound when no approach handles the kind.
  [[nodiscard]]
  Result<std::string> DefaultNameForKind(DependencyKind kind) const;

 private:
  /// One registered approach; the factory's alternative is its family.
  struct Entry {
    std::string name;
    AlgorithmCapabilities capabilities;
    /// Alternatives in Family order.
    std::variant<Factory, NaryFactory, DependencyFactory> factory;

    Family family() const { return static_cast<Family>(factory.index()); }
  };

  const Entry* Find(std::string_view name) const;

  /// The one registration path behind Register*.
  [[nodiscard]]
  Status Add(Entry entry);

  /// The one creation path behind Create*: lookup, family check, config
  /// validation, factory call.
  template <typename FamilyFactory>
  typename FamilyFactory::result_type Build(
      std::string_view name, const AlgorithmConfig& config) const;

  /// NotFound carrying the valid names grouped by kind plus a
  /// nearest-match "did you mean" suggestion.
  [[nodiscard]]
  Status UnknownNameError(std::string_view name) const;

  /// Shared knob validation against an entry's capabilities.
  [[nodiscard]]
  static Status ValidateConfig(const Entry& entry,
                               const AlgorithmConfig& config);

  std::vector<Entry> entries_;
};

}  // namespace spider
