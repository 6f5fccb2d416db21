#include "src/ind/session.h"

#include <algorithm>
#include <future>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/ind/nary_algorithm.h"

namespace spider {

namespace {

// Union-find over attribute ids for the component partitioning.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    // Deterministic: the smaller root wins, independent of union order.
    if (a == b) return;
    if (a < b) {
      parent_[b] = a;
    } else {
      parent_[a] = b;
    }
  }

 private:
  std::vector<size_t> parent_;
};

// The profile is a cache: failing to persist it (read-only workspace, disk
// full) degrades the next session to recomputation, it does not invalidate
// this run's results. So the failure is logged and reported, not returned.
void SealProfile(const ValueSetExtractor& extractor, SessionReport* report) {
  const Status saved = extractor.SaveProfile();
  if (saved.ok()) return;
  SPIDER_LOG(Warn) << "profile seal failed: " << saved.ToString();
  report->profile_seal_error = saved.ToString();
}

}  // namespace

std::vector<std::vector<IndCandidate>> PartitionCandidatesByComponent(
    const std::vector<IndCandidate>& candidates) {
  std::map<AttributeRef, size_t> attr_ids;
  auto id_for = [&attr_ids](const AttributeRef& attr) {
    return attr_ids.emplace(attr, attr_ids.size()).first->second;
  };
  std::vector<std::pair<size_t, size_t>> edges;
  edges.reserve(candidates.size());
  for (const IndCandidate& candidate : candidates) {
    edges.emplace_back(id_for(candidate.dependent),
                       id_for(candidate.referenced));
  }

  UnionFind components(attr_ids.size());
  for (const auto& [dep, ref] : edges) components.Union(dep, ref);

  // Partitions in order of first appearance; candidates keep input order.
  std::vector<std::vector<IndCandidate>> partitions;
  std::map<size_t, size_t> root_to_partition;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const size_t root = components.Find(edges[i].first);
    auto [it, inserted] = root_to_partition.emplace(root, partitions.size());
    if (inserted) partitions.emplace_back();
    partitions[it->second].push_back(candidates[i]);
  }
  return partitions;
}

std::vector<std::vector<IndCandidate>> SplitPartitionsForParallelism(
    std::vector<std::vector<IndCandidate>> partitions, size_t target) {
  while (partitions.size() < target) {
    size_t largest = 0;
    for (size_t i = 1; i < partitions.size(); ++i) {
      if (partitions[i].size() > partitions[largest].size()) largest = i;
    }
    if (partitions[largest].size() < 2 * kMinSplitPartition) break;
    std::vector<IndCandidate>& whole = partitions[largest];
    const size_t half = whole.size() / 2;
    std::vector<IndCandidate> back(
        std::make_move_iterator(whole.begin() + static_cast<ptrdiff_t>(half)),
        std::make_move_iterator(whole.end()));
    whole.resize(half);
    // Inserting right after the front half keeps the concatenation of all
    // partitions equal to the input candidate order.
    partitions.insert(partitions.begin() + static_cast<ptrdiff_t>(largest) + 1,
                      std::move(back));
  }
  return partitions;
}

SpiderSession::SpiderSession(const Catalog& catalog, SessionOptions options)
    : catalog_(&catalog), options_(std::move(options)) {}

SpiderSession::SpiderSession(std::unique_ptr<Catalog> catalog,
                             SessionOptions options)
    : catalog_(catalog.get()),
      owned_catalog_(std::move(catalog)),
      options_(std::move(options)) {}

Result<ValueSetExtractor*> SpiderSession::extractor() {
  // Serialized: two concurrent Run() calls (the spiderd configuration) must
  // not both materialize a workspace and leak one of them.
  MutexLock lock(&mutex_);
  if (extractor_ == nullptr) {
    std::filesystem::path work_dir;
    if (options_.work_dir.empty()) {
      SPIDER_ASSIGN_OR_RETURN(temp_dir_, TempDir::Make("spider-session"));
      work_dir = temp_dir_->path();
    } else {
      work_dir = options_.work_dir;
    }
    ValueSetExtractorOptions extractor_options;
    extractor_options.sort_memory_budget_bytes =
        options_.sort_memory_budget_bytes;
    extractor_options.persist_profile = options_.persist_profile;
    extractor_ =
        std::make_unique<ValueSetExtractor>(work_dir, extractor_options);
  }
  return extractor_.get();
}

namespace {

// The run controls every step hands its algorithm: cancellation, progress
// and what is left of the budget after `elapsed_seconds`. A spent budget
// stays a tiny positive bound, so the algorithm stops at its first poll
// instead of running unbounded.
void SetRunControls(const RunOptions& options, double elapsed_seconds,
                    RunContext* context) {
  context->cancel = options.cancel;
  context->progress = options.progress;
  if (options.time_budget_seconds > 0) {
    context->time_budget_seconds =
        std::max(options.time_budget_seconds - elapsed_seconds, 1e-12);
  }
}

// Everything a run resolves before it starts working: the capabilities it
// was validated against, one AlgorithmConfig for every phase and the pools
// that config points at.
struct RunPlan {
  AlgorithmCapabilities capabilities;
  /// The unary verifier of an IND run: the approach itself, or the
  /// n-ary base an expansion runs on. Empty for the other kinds.
  std::string verifier;
  AlgorithmCapabilities verifier_capabilities;
  AlgorithmConfig config;
  /// Resolved worker count. The pool starts on first use (WorkerPool), so
  /// a run that dispatches nothing spawns no threads.
  int threads = 1;
  std::unique_ptr<ThreadPool> pool;
  /// Prefetch pool for the unary merges. Distinct from `pool`: readers
  /// block on their prefetch futures, which a shared pool's workers would
  /// end up servicing for each other.
  std::unique_ptr<ThreadPool> io_pool;
};

// The plan's worker pool, or nullptr when the run resolved one thread.
ThreadPool* WorkerPool(RunPlan* plan) {
  if (plan->pool == nullptr && plan->threads > 1) {
    plan->pool = std::make_unique<ThreadPool>(plan->threads);
  }
  return plan->pool.get();
}

Status OutOfCoreError(const std::string& approach) {
  return Status::InvalidArgument(
      "approach '" + approach +
      "' random-accesses materialized columns and cannot profile an "
      "out-of-core (disk-backend) catalog");
}

// Every up-front check of a run, in a fixed order: the approach name, the
// requested kind, out-of-core support, then the knobs of the approach's
// family (dependency discoverer, unary verifier, n-ary expansion and its
// base). The registry re-validates each config when the step creates its
// algorithm.
Result<RunPlan> ValidateRun(const Catalog& catalog, const RunOptions& options) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  RunPlan plan;
  SPIDER_ASSIGN_OR_RETURN(plan.capabilities,
                          registry.GetCapabilities(options.approach));
  const AlgorithmCapabilities& capabilities = plan.capabilities;
  if (options.kind.has_value() && *options.kind != capabilities.kind) {
    const std::vector<std::string> names = registry.NamesForKind(*options.kind);
    return Status::InvalidArgument(
        "approach '" + options.approach + "' discovers " +
        std::string(KindName(capabilities.kind)) + "s, not " +
        std::string(KindName(*options.kind)) +
        "s (approaches for that kind: " +
        (names.empty() ? std::string("none") : JoinStrings(names, ", ")) +
        ")");
  }
  if (catalog.out_of_core() && !capabilities.supports_out_of_core) {
    return OutOfCoreError(options.approach);
  }
  if (capabilities.kind != DependencyKind::kInd) {
    // σ-coverage is an IND notion; the approximate kinds use the error
    // threshold instead, so reject the knob instead of ignoring it.
    if (options.min_coverage != 1.0) {
      return Status::InvalidArgument(
          "min_coverage (σ) applies to IND verification; use "
          "error_threshold for approximate " +
          std::string(KindName(capabilities.kind)) + " discovery");
    }
    return plan;
  }
  plan.verifier = options.approach;
  plan.verifier_capabilities = capabilities;
  if (!capabilities.nary) {
    // Unary IND verification knows σ-partial coverage, not the g3' error
    // threshold (that knob drives the n-ary expansion and AFD discovery).
    if (options.error_threshold != 0) {
      return Status::InvalidArgument(
          "approach '" + options.approach +
          "' verifies unary INDs; use min_coverage (σ) for partial coverage "
          "instead of an error threshold");
    }
    return plan;
  }
  // An n-ary expansion: fail its own knobs before the (possibly long)
  // unary base run.
  if (options.error_threshold < 0 || options.error_threshold >= 1.0) {
    return Status::InvalidArgument("error_threshold must be in [0, 1)");
  }
  if (options.error_threshold > 0 && !capabilities.supports_partial) {
    return Status::InvalidArgument(
        options.approach + " does not support an error threshold (error > 0)");
  }
  // The expansions verify exact tuple containment only: a σ-partial unary
  // base would feed non-exact INDs into an exact expansion.
  if (options.min_coverage < 1.0) {
    return Status::InvalidArgument(
        options.approach + " does not support partial (sigma < 1) coverage");
  }
  plan.verifier = options.nary_base;
  SPIDER_ASSIGN_OR_RETURN(plan.verifier_capabilities,
                          registry.GetCapabilities(options.nary_base));
  const AlgorithmCapabilities& base = plan.verifier_capabilities;
  if (base.nary || base.kind != DependencyKind::kInd) {
    return Status::InvalidArgument(
        "nary_base must name a unary approach, got " +
        (base.nary ? std::string("n-ary expansion")
                   : std::string(KindName(base.kind)) + " discoverer") +
        " '" + options.nary_base + "'");
  }
  if (catalog.out_of_core() && !base.supports_out_of_core) {
    return OutOfCoreError(options.nary_base);
  }
  return plan;
}

// Dispatches candidate partitions onto `pool` and merges the results.
Result<IndRunResult> RunParallel(const Catalog& catalog,
                                 const RunOptions& options,
                                 const std::string& approach,
                                 const AlgorithmConfig& config,
                                 const std::vector<IndCandidate>& candidates,
                                 ThreadPool& pool, SessionReport* report) {
  const int threads = pool.size();
  std::vector<std::vector<IndCandidate>> partitions =
      PartitionCandidatesByComponent(candidates);
  // A collapsed candidate graph (few components) would idle most workers;
  // oversubscribing the pool slightly lets it balance uneven partitions.
  if (partitions.size() < static_cast<size_t>(threads)) {
    partitions = SplitPartitionsForParallelism(
        std::move(partitions), static_cast<size_t>(threads));
  }
  report->partitions = static_cast<int>(partitions.size());

  Stopwatch verify_watch;
  verify_watch.Start();

  // Concurrent partitions extract through the thread-safe cache; priming
  // it up front on the pool parallelizes the sort work itself instead of
  // serializing it behind whichever partition asks first. Extraction wants
  // every worker even when the candidate graph collapsed to few partitions.
  if (config.extractor != nullptr) {
    std::set<AttributeRef> seen;
    std::vector<AttributeRef> attributes;
    for (const IndCandidate& candidate : candidates) {
      if (seen.insert(candidate.dependent).second) {
        attributes.push_back(candidate.dependent);
      }
      if (seen.insert(candidate.referenced).second) {
        attributes.push_back(candidate.referenced);
      }
    }
    SPIDER_RETURN_NOT_OK(
        config.extractor->ExtractAll(catalog, attributes, &pool).status());
  }

  // Progress aggregation: per-partition contexts report partition-local
  // (done, total); deltas fold into shared counters and the user callback
  // sees run-wide, monotonically consistent numbers. One mutex guards both
  // the counters and the callback so no observer sees progress regress.
  struct ProgressAggregator {
    Mutex mutex;
    int64_t done SPIDER_GUARDED_BY(mutex) = 0;
    int64_t total SPIDER_GUARDED_BY(mutex) = 0;
  };
  auto aggregator = std::make_shared<ProgressAggregator>();

  // Seed the aggregate total with each partition's candidate count so the
  // first callbacks already see a run-wide denominator; when a partition
  // begins and reports its real total (some algorithms count blocks, not
  // candidates), the delta below corrects the seed.
  if (options.progress) {
    // No worker can race yet; locked anyway so the guarded-field invariant
    // holds unconditionally (uncontended locks are cheap).
    MutexLock lock(&aggregator->mutex);
    for (const std::vector<IndCandidate>& partition : partitions) {
      aggregator->total += static_cast<int64_t>(partition.size());
    }
  }

  std::vector<std::future<Result<IndRunResult>>> futures;
  futures.reserve(partitions.size());
  for (const std::vector<IndCandidate>& partition : partitions) {
    futures.push_back(pool.Submit([&catalog, &options, &approach, &config,
                                   &partition, &verify_watch,
                                   aggregator]() -> Result<IndRunResult> {
      SPIDER_ASSIGN_OR_RETURN(
          std::unique_ptr<IndAlgorithm> algorithm,
          AlgorithmRegistry::Global().Create(approach, config));
      // The budget is wall-clock over the whole verification phase; a
      // partition picked up late only gets what remains.
      RunContext context;
      SetRunControls(options, verify_watch.ElapsedSeconds(), &context);
      if (options.progress) {
        // last_done/last_total are per-lambda (per-partition) state, only
        // touched by the partition's own thread. last_total starts at the
        // candidate-count seed folded into the aggregate above.
        context.progress = [aggregator, &options, &verify_watch,
                            last_done = int64_t{0},
                            last_total = static_cast<int64_t>(partition.size())](
                               const RunProgress& partition_progress) mutable {
          MutexLock lock(&aggregator->mutex);
          aggregator->done += partition_progress.done - last_done;
          aggregator->total += partition_progress.total - last_total;
          last_done = partition_progress.done;
          last_total = partition_progress.total;
          options.progress(RunProgress{aggregator->done, aggregator->total,
                                       verify_watch.ElapsedSeconds()});
        };
      }
      return algorithm->Run(catalog, partition, context);
    }));
  }

  // Wait for every partition before touching any result: tasks capture
  // locals by reference.
  std::vector<Result<IndRunResult>> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());

  IndRunResult merged;
  std::vector<int64_t> partition_peaks;
  partition_peaks.reserve(results.size());
  for (Result<IndRunResult>& result : results) {
    SPIDER_RETURN_NOT_OK(result.status());
    IndRunResult& partial = *result;
    merged.satisfied.insert(merged.satisfied.end(),
                            std::make_move_iterator(partial.satisfied.begin()),
                            std::make_move_iterator(partial.satisfied.end()));
    partition_peaks.push_back(partial.counters.peak_open_files);
    merged.counters.Merge(partial.counters);
    merged.finished = merged.finished && partial.finished;
  }
  // Concurrent partitions hold their files simultaneously, but at most
  // `threads` of them at once — the high-water bound is the sum of the
  // largest min(threads, partitions) per-partition peaks, not the sum over
  // all partitions (ApplyConcurrentPeakBound) nor the max Merge() keeps.
  ApplyConcurrentPeakBound(&pool, std::move(partition_peaks),
                           merged.counters);
  merged.seconds = verify_watch.ElapsedSeconds();
  return merged;
}

// The unary IND step: candidate generation, verdict reuse against the
// persisted profile, verification of the rest with the plan's verifier
// (serially, or partitioned onto the pool) and recording of the fresh
// verdicts. Returns whether any verdict was recorded.
Result<bool> VerifyUnary(const Catalog& catalog, const RunOptions& options,
                         RunPlan* plan, SessionReport* report) {
  AlgorithmConfig config = plan->config;
  // The error threshold parameterizes an n-ary expansion's g3' validation;
  // the unary base stays exact.
  config.error_threshold = 0;
  if (!plan->verifier_capabilities.needs_extractor) config.extractor = nullptr;

  Stopwatch generation_watch;
  generation_watch.Start();
  CandidateGenerator generator(options.generator);
  SPIDER_ASSIGN_OR_RETURN(report->candidates, generator.Generate(catalog));
  report->generation_seconds = generation_watch.ElapsedSeconds();

  // Delta revalidation against the persisted profile: a verdict remembered
  // under the exact statistics both attributes still carry holds for any
  // exact (σ = 1) approach — verification order and algorithm choice never
  // change an IND's truth. Candidates whose data moved (fingerprint
  // mismatch) or that were never decided go to the algorithm as usual.
  ProfileStore* profile =
      config.extractor != nullptr ? config.extractor->profile() : nullptr;
  const bool delta_eligible =
      profile != nullptr && options.profile_cache && options.min_coverage >= 1.0;
  std::map<AttributeRef, uint64_t> attr_fps;
  auto fingerprint_of = [&](const AttributeRef& attr) -> const uint64_t* {
    const auto cached = attr_fps.find(attr);
    if (cached != attr_fps.end()) return &cached->second;
    const auto stats = report->candidates.stats.find(attr);
    if (stats == report->candidates.stats.end()) return nullptr;
    return &attr_fps
                .emplace(attr, ProfileStore::StatsFingerprint(stats->second))
                .first->second;
  };
  std::vector<IndCandidate> to_verify;
  std::vector<Ind> reused_inds;
  if (delta_eligible) {
    for (const IndCandidate& candidate : report->candidates.candidates) {
      const uint64_t* dep_fp = fingerprint_of(candidate.dependent);
      const uint64_t* ref_fp = fingerprint_of(candidate.referenced);
      std::optional<ProfileVerdict> verdict;
      if (dep_fp != nullptr && ref_fp != nullptr) {
        verdict =
            profile->FindVerdict(candidate.dependent, candidate.referenced);
      }
      if (verdict.has_value() && verdict->dependent_fingerprint == *dep_fp &&
          verdict->referenced_fingerprint == *ref_fp) {
        ++report->verdicts_reused;
        if (verdict->satisfied) {
          reused_inds.push_back(Ind{candidate.dependent, candidate.referenced});
        }
      } else {
        to_verify.push_back(candidate);
      }
    }
  } else {
    to_verify = report->candidates.candidates;
  }
  report->candidates_revalidated = static_cast<int64_t>(to_verify.size());

  const bool parallel = plan->threads > 1 &&
                        plan->verifier_capabilities.parallel_safe &&
                        to_verify.size() >= 2;
  report->threads_used = parallel ? plan->threads : 1;
  if (to_verify.empty()) {
    // Everything was answered from the profile (or there were no
    // candidates): report->run stays at its finished, zero-work default.
  } else if (!parallel) {
    SPIDER_ASSIGN_OR_RETURN(
        std::unique_ptr<IndAlgorithm> algorithm,
        AlgorithmRegistry::Global().Create(plan->verifier, config));
    RunContext context;
    SetRunControls(options, 0, &context);
    SPIDER_ASSIGN_OR_RETURN(report->run,
                            algorithm->Run(catalog, to_verify, context));
  } else {
    SPIDER_ASSIGN_OR_RETURN(
        report->run, RunParallel(catalog, options, plan->verifier, config,
                                 to_verify, *WorkerPool(plan), report));
  }

  bool verdicts_recorded = false;
  if (delta_eligible && report->run.finished && !to_verify.empty()) {
    // Only finished runs decide every submitted candidate; a budget- or
    // cancellation-truncated satisfied set must not be remembered as
    // "unsatisfied".
    const std::set<Ind> satisfied(report->run.satisfied.begin(),
                                  report->run.satisfied.end());
    for (const IndCandidate& candidate : to_verify) {
      const uint64_t* dep_fp = fingerprint_of(candidate.dependent);
      const uint64_t* ref_fp = fingerprint_of(candidate.referenced);
      if (dep_fp == nullptr || ref_fp == nullptr) continue;
      ProfileVerdict verdict;
      verdict.satisfied =
          satisfied.count(Ind{candidate.dependent, candidate.referenced}) > 0;
      verdict.dependent_fingerprint = *dep_fp;
      verdict.referenced_fingerprint = *ref_fp;
      profile->PutVerdict(candidate.dependent, candidate.referenced, verdict);
      verdicts_recorded = true;
    }
  }

  report->run.satisfied.insert(report->run.satisfied.end(),
                               std::make_move_iterator(reused_inds.begin()),
                               std::make_move_iterator(reused_inds.end()));
  // One canonical order regardless of approach, partitioning, thread count
  // or verdict reuse: every configuration returns byte-identical reports.
  report->run.satisfied = SortedInds(std::move(report->run.satisfied));
  return verdicts_recorded;
}

// The config an expansion or discoverer runs with: the plan's, plus its
// worker pool when the approach may use one.
AlgorithmConfig PooledConfig(RunPlan* plan) {
  AlgorithmConfig config = plan->config;
  if (plan->capabilities.parallel_safe) config.pool = WorkerPool(plan);
  return config;
}

// The n-ary step after the unary one: expands the satisfied unary INDs
// with the named expansion on what is left of the budget. Per-level
// candidate batches (levelwise) / independent table pairs (clique, zigzag)
// dispatch onto the plan's pool; results are identical at any count.
Status ExpandNary(const Catalog& catalog, const RunOptions& options,
                  RunPlan* plan, double elapsed_seconds,
                  SessionReport* report) {
  // A base run that already blew the budget (or was cancelled) leaves the
  // expansion untried: its input would be an incomplete unary set.
  if (!report->run.finished) {
    report->nary_run.finished = false;
    return Status::OK();
  }
  SPIDER_ASSIGN_OR_RETURN(
      std::unique_ptr<NaryAlgorithm> algorithm,
      AlgorithmRegistry::Global().CreateNary(options.approach,
                                             PooledConfig(plan)));
  RunContext context;
  SetRunControls(options, elapsed_seconds, &context);
  SPIDER_ASSIGN_OR_RETURN(
      report->nary_run,
      algorithm->Run(catalog, report->run.satisfied, context));
  return Status::OK();
}

// The UCC/FD/AFD step: no candidate generation — the discoverer enumerates
// its own lattice per table, on the plan's pool when it has one.
Status DiscoverDependencies(const Catalog& catalog, const RunOptions& options,
                            RunPlan* plan, SessionReport* report) {
  const AlgorithmConfig config = PooledConfig(plan);
  SPIDER_ASSIGN_OR_RETURN(
      std::unique_ptr<DependencyAlgorithm> algorithm,
      AlgorithmRegistry::Global().CreateDependency(options.approach, config));
  report->threads_used = config.pool != nullptr ? config.pool->size() : 1;
  RunContext context;
  SetRunControls(options, 0, &context);
  SPIDER_ASSIGN_OR_RETURN(report->dependency, algorithm->Run(catalog, context));
  return Status::OK();
}

// The extractor's set counters at a phase boundary.
struct SetMark {
  int64_t extracted = 0;
  int64_t reused = 0;
};

SetMark MarkSets(const ValueSetExtractor* extractor) {
  if (extractor == nullptr) return {};
  return {extractor->sets_extracted(), extractor->sets_reused()};
}

// Charges the sets extracted and reused since `mark` to one phase's
// counters and moves the mark to now.
void FoldSets(const ValueSetExtractor* extractor, SetMark* mark,
              RunCounters* counters) {
  const SetMark now = MarkSets(extractor);
  counters->sets_extracted += now.extracted - mark->extracted;
  counters->sets_reused += now.reused - mark->reused;
  *mark = now;
}

}  // namespace

Result<SessionReport> SpiderSession::Run(const RunOptions& options) {
  Stopwatch total_watch;
  total_watch.Start();

  // Validate: a bad name or knob fails before any work.
  SPIDER_ASSIGN_OR_RETURN(RunPlan plan, ValidateRun(*catalog_, options));

  // Plan: one config, extractor and thread count for every phase.
  // Factories read only the fields that apply to them.
  AlgorithmConfig& config = plan.config;
  config.max_open_files = options.max_open_files;
  config.min_coverage = options.min_coverage;
  config.max_nary_arity = options.nary_max_arity;
  config.error_threshold = options.error_threshold;
  config.max_lhs_arity = options.max_lhs_arity;
  config.block_skip = options.block_skip;
  if (plan.capabilities.needs_extractor ||
      plan.verifier_capabilities.needs_extractor) {
    SPIDER_ASSIGN_OR_RETURN(config.extractor, extractor());
  }
  plan.threads = ThreadPool::ResolveThreadCount(options.threads);
  if (options.io_threads > 0 && plan.verifier_capabilities.needs_extractor) {
    plan.io_pool = std::make_unique<ThreadPool>(options.io_threads);
    config.io_pool = plan.io_pool.get();
  }

  SessionReport report;
  report.approach = options.approach;
  report.kind = plan.capabilities.kind;
  report.nary = plan.capabilities.nary;
  if (report.nary) report.nary_base = options.nary_base;

  // Execute the kind's steps; each phase is charged the sets it extracted
  // and reused, also when it failed.
  ValueSetExtractor* const sets = config.extractor;
  SetMark mark = MarkSets(sets);
  bool verdicts_recorded = false;
  Status executed;
  if (report.kind != DependencyKind::kInd) {
    executed = DiscoverDependencies(*catalog_, options, &plan, &report);
    FoldSets(sets, &mark, &report.dependency.counters);
  } else {
    Result<bool> verified = VerifyUnary(*catalog_, options, &plan, &report);
    FoldSets(sets, &mark, &report.run.counters);
    executed = verified.status();
    if (executed.ok()) verdicts_recorded = *verified;
    if (executed.ok() && report.nary) {
      executed = ExpandNary(*catalog_, options, &plan,
                            total_watch.ElapsedSeconds(), &report);
      FoldSets(sets, &mark, &report.nary_run.counters);
    }
  }

  // Seal: commit fresh verdicts and set files once, whatever the kind, and
  // also after a failed step. What was recorded before the failure (the
  // verdicts of an expansion's unary base, every completely written set)
  // stays valid, and the next process need not redo it.
  RunCounters phases = report.run.counters;
  phases.Merge(report.nary_run.counters);
  phases.Merge(report.dependency.counters);
  report.profile_reused = report.verdicts_reused > 0 || phases.sets_reused > 0;
  if (sets != nullptr && sets->profile() != nullptr &&
      (verdicts_recorded || phases.sets_extracted > 0)) {
    SealProfile(*sets, &report);
  }
  SPIDER_RETURN_NOT_OK(executed);
  report.total_seconds = total_watch.ElapsedSeconds();
  return report;
}

std::string SessionReport::ToString() const {
  std::string out;
  out += "approach:        " + approach + "\n";
  out += "kind:            " + std::string(KindName(kind)) + "\n";
  if (kind != DependencyKind::kInd) {
    const bool fds = kind != DependencyKind::kUcc;
    const int64_t found = static_cast<int64_t>(
        fds ? dependency.fds.size() : dependency.uccs.size());
    out += std::string(fds ? "FDs found:       " : "UCCs found:      ") +
           FormatWithCommas(found) + "\n";
    out += "tests:           " + FormatWithCommas(dependency.tests) + "\n";
    out += "finished:        " +
           std::string(dependency.finished ? "yes" : "NO (budget)") + "\n";
    if (threads_used > 1) {
      out += "threads:         " + std::to_string(threads_used) + "\n";
    }
    out += "test time:       " + Stopwatch::FormatDuration(dependency.seconds) +
           "\n";
    out += "total time:      " + Stopwatch::FormatDuration(total_seconds) +
           "\n";
    out += "counters:        " + dependency.counters.ToString() + "\n";
    if (!profile_seal_error.empty()) {
      out += "profile seal:    FAILED (" + profile_seal_error + ")\n";
    }
    for (const Ucc& ucc : dependency.uccs) {
      out += "  " + ucc.ToString() + "\n";
    }
    for (const Fd& fd : dependency.fds) {
      out += "  " + fd.ToString();
      if (kind == DependencyKind::kAfd) {
        out += " [error " + std::to_string(fd.error) + "]";
      }
      out += "\n";
    }
    return out;
  }
  if (nary) out += "unary base:      " + nary_base + "\n";
  out += "raw pairs:       " + FormatWithCommas(candidates.raw_pair_count) + "\n";
  out += "pretest pruned:  " + FormatWithCommas(candidates.total_pruned()) + "\n";
  out += "candidates:      " +
         FormatWithCommas(static_cast<int64_t>(candidates.candidates.size())) +
         "\n";
  out += "satisfied INDs:  " +
         FormatWithCommas(static_cast<int64_t>(run.satisfied.size())) + "\n";
  out += "finished:        " + std::string(run.finished ? "yes" : "NO (budget)") +
         "\n";
  if (threads_used > 1) {
    out += "threads:         " + std::to_string(threads_used) + " (" +
           std::to_string(partitions) + " partitions)\n";
  }
  if (profile_reused) {
    out += "profile:         reused " + FormatWithCommas(verdicts_reused) +
           " verdicts, revalidated " + FormatWithCommas(candidates_revalidated) +
           " candidates\n";
  }
  out += "generation time: " + Stopwatch::FormatDuration(generation_seconds) + "\n";
  out += "test time:       " + Stopwatch::FormatDuration(run.seconds) + "\n";
  out += "total time:      " + Stopwatch::FormatDuration(total_seconds) + "\n";
  out += "counters:        " + run.counters.ToString() + "\n";
  if (!profile_seal_error.empty()) {
    out += "profile seal:    FAILED (" + profile_seal_error + ")\n";
  }
  if (nary) {
    out += "n-ary INDs (" +
           FormatWithCommas(static_cast<int64_t>(nary_run.satisfied.size())) +
           ", " + FormatWithCommas(nary_run.tests) + " tests" +
           (nary_run.finished ? "" : ", PARTIAL") + "):\n";
    for (const NaryInd& ind : nary_run.satisfied) {
      out += "  " + ind.ToString() + "\n";
    }
  }
  return out;
}

}  // namespace spider
