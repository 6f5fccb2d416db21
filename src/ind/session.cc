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

Result<IndRunResult> SpiderSession::RunParallel(
    const RunOptions& options, const AlgorithmConfig& config,
    const std::vector<IndCandidate>& candidates, int threads,
    SessionReport* report) {
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

  // The pool carries both parallel stages. Extraction wants every worker
  // even when the candidate graph collapsed to few partitions — the
  // per-attribute sorts dominate and parallelize regardless of how the
  // verification phase partitions.
  ThreadPool pool(threads);

  // Concurrent partitions extract through the thread-safe cache; priming
  // it up front on the pool parallelizes the sort work itself instead of
  // serializing it behind whichever partition asks first.
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
        config.extractor->ExtractAll(*catalog_, attributes, &pool).status());
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
    futures.push_back(pool.Submit([this, &options, &config, &partition,
                                   &verify_watch,
                                   aggregator]() -> Result<IndRunResult> {
      SPIDER_ASSIGN_OR_RETURN(
          std::unique_ptr<IndAlgorithm> algorithm,
          AlgorithmRegistry::Global().Create(options.approach, config));
      RunContext context;
      context.cancel = options.cancel;
      if (options.time_budget_seconds > 0) {
        // The budget is wall-clock over the whole verification phase; a
        // partition picked up late only gets what remains.
        const double remaining =
            options.time_budget_seconds - verify_watch.ElapsedSeconds();
        context.time_budget_seconds = std::max(remaining, 1e-12);
      }
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
      return algorithm->Run(*catalog_, partition, context);
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

Result<SessionReport> SpiderSession::Run(const RunOptions& options) {
  SessionReport report;
  report.approach = options.approach;
  Stopwatch total_watch;
  total_watch.Start();

  // Resolve the approach first so a bad name fails before any work. The
  // extractor is only materialized for approaches that need it.
  AlgorithmConfig config;
  config.max_open_files = options.max_open_files;
  config.min_coverage = options.min_coverage;
  config.block_skip = options.block_skip;
  SPIDER_ASSIGN_OR_RETURN(
      AlgorithmCapabilities capabilities,
      AlgorithmRegistry::Global().GetCapabilities(options.approach));
  if (options.kind.has_value() && *options.kind != capabilities.kind) {
    const std::vector<std::string> names =
        AlgorithmRegistry::Global().NamesForKind(*options.kind);
    return Status::InvalidArgument(
        "approach '" + options.approach + "' discovers " +
        std::string(KindName(capabilities.kind)) + "s, not " +
        std::string(KindName(*options.kind)) +
        "s (approaches for that kind: " +
        (names.empty() ? std::string("none") : JoinStrings(names, ", ")) +
        ")");
  }
  if (catalog_->out_of_core() && !capabilities.supports_out_of_core) {
    return Status::InvalidArgument(
        "approach '" + options.approach +
        "' random-accesses materialized columns and cannot profile an "
        "out-of-core (disk-backend) catalog");
  }
  if (capabilities.kind != DependencyKind::kInd) {
    return RunDependency(options, capabilities);
  }
  if (capabilities.nary) {
    // Fail a bad threshold before the (possibly long) unary base run.
    if (options.error_threshold < 0 || options.error_threshold >= 1.0) {
      return Status::InvalidArgument("error_threshold must be in [0, 1)");
    }
    if (options.error_threshold > 0 && !capabilities.supports_partial) {
      return Status::InvalidArgument(
          options.approach +
          " does not support an error threshold (error > 0)");
    }
    return RunNary(options);
  }
  // Unary IND verification knows σ-partial coverage, not the g3' error
  // threshold (that knob drives the n-ary expansion and AFD discovery).
  if (options.error_threshold != 0) {
    return Status::InvalidArgument(
        "approach '" + options.approach +
        "' verifies unary INDs; use min_coverage (σ) for partial coverage "
        "instead of an error threshold");
  }
  if (capabilities.needs_extractor) {
    SPIDER_ASSIGN_OR_RETURN(config.extractor, extractor());
  }
  // The prefetch pool is session-owned and distinct from the worker pool
  // RunParallel builds: readers block on their prefetch futures, which a
  // shared pool's workers would end up servicing for each other.
  std::unique_ptr<ThreadPool> io_pool;
  if (options.io_threads > 0 && capabilities.needs_extractor) {
    io_pool = std::make_unique<ThreadPool>(options.io_threads);
    config.io_pool = io_pool.get();
  }

  Stopwatch generation_watch;
  generation_watch.Start();
  CandidateGenerator generator(options.generator);
  SPIDER_ASSIGN_OR_RETURN(report.candidates, generator.Generate(*catalog_));
  report.generation_seconds = generation_watch.ElapsedSeconds();

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
    const auto stats = report.candidates.stats.find(attr);
    if (stats == report.candidates.stats.end()) return nullptr;
    return &attr_fps
                .emplace(attr, ProfileStore::StatsFingerprint(stats->second))
                .first->second;
  };
  std::vector<IndCandidate> to_verify;
  std::vector<Ind> reused_inds;
  if (delta_eligible) {
    for (const IndCandidate& candidate : report.candidates.candidates) {
      const uint64_t* dep_fp = fingerprint_of(candidate.dependent);
      const uint64_t* ref_fp = fingerprint_of(candidate.referenced);
      std::optional<ProfileVerdict> verdict;
      if (dep_fp != nullptr && ref_fp != nullptr) {
        verdict =
            profile->FindVerdict(candidate.dependent, candidate.referenced);
      }
      if (verdict.has_value() && verdict->dependent_fingerprint == *dep_fp &&
          verdict->referenced_fingerprint == *ref_fp) {
        ++report.verdicts_reused;
        if (verdict->satisfied) {
          reused_inds.push_back(Ind{candidate.dependent, candidate.referenced});
        }
      } else {
        to_verify.push_back(candidate);
      }
    }
  } else {
    to_verify = report.candidates.candidates;
  }
  report.candidates_revalidated = static_cast<int64_t>(to_verify.size());

  const int64_t sets_extracted_before =
      config.extractor != nullptr ? config.extractor->sets_extracted() : 0;
  const int64_t sets_reused_before =
      config.extractor != nullptr ? config.extractor->sets_reused() : 0;

  int threads = ThreadPool::ResolveThreadCount(options.threads);
  if (!capabilities.parallel_safe) threads = 1;
  if (to_verify.size() < 2) threads = 1;
  report.threads_used = threads;

  if (to_verify.empty()) {
    // Everything was answered from the profile (or there were no
    // candidates): report.run stays at its finished, zero-work default.
  } else if (threads <= 1) {
    SPIDER_ASSIGN_OR_RETURN(
        std::unique_ptr<IndAlgorithm> algorithm,
        AlgorithmRegistry::Global().Create(options.approach, config));
    RunContext context;
    context.time_budget_seconds = options.time_budget_seconds;
    context.cancel = options.cancel;
    context.progress = options.progress;
    SPIDER_ASSIGN_OR_RETURN(report.run,
                            algorithm->Run(*catalog_, to_verify, context));
  } else {
    SPIDER_ASSIGN_OR_RETURN(
        report.run,
        RunParallel(options, config, to_verify, threads, &report));
  }

  if (config.extractor != nullptr) {
    report.run.counters.sets_extracted +=
        config.extractor->sets_extracted() - sets_extracted_before;
    report.run.counters.sets_reused +=
        config.extractor->sets_reused() - sets_reused_before;
  }
  report.profile_reused = report.verdicts_reused > 0 ||
                          report.run.counters.sets_reused > 0;

  bool verdicts_recorded = false;
  if (delta_eligible && report.run.finished && !to_verify.empty()) {
    // Only finished runs decide every submitted candidate; a budget- or
    // cancellation-truncated satisfied set must not be remembered as
    // "unsatisfied".
    const std::set<Ind> satisfied(report.run.satisfied.begin(),
                                  report.run.satisfied.end());
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
  if (profile != nullptr &&
      (verdicts_recorded || report.run.counters.sets_extracted > 0)) {
    SealProfile(*config.extractor, &report);
  }

  report.run.satisfied.insert(report.run.satisfied.end(),
                              std::make_move_iterator(reused_inds.begin()),
                              std::make_move_iterator(reused_inds.end()));
  // One canonical order regardless of approach, partitioning, thread count
  // or verdict reuse: every configuration returns byte-identical reports.
  report.run.satisfied = SortedInds(std::move(report.run.satisfied));
  report.total_seconds = total_watch.ElapsedSeconds();
  return report;
}

Result<SessionReport> SpiderSession::RunNary(const RunOptions& options) {
  Stopwatch total_watch;
  total_watch.Start();

  // The expansions verify exact tuple containment only: a σ-partial unary
  // base would feed non-exact INDs into an exact expansion, so reject the
  // combination like the registry does for non-partial unary approaches.
  if (options.min_coverage < 1.0) {
    return Status::InvalidArgument(
        options.approach + " does not support partial (sigma < 1) coverage");
  }

  // Phase 1: the unary base profile. It inherits every run control —
  // threads, budget, cancellation, pretests — and its own capability
  // checks (so a non-streaming base is still rejected on disk catalogs).
  SPIDER_ASSIGN_OR_RETURN(
      AlgorithmCapabilities base_capabilities,
      AlgorithmRegistry::Global().GetCapabilities(options.nary_base));
  if (base_capabilities.nary) {
    return Status::InvalidArgument(
        "nary_base must name a unary approach, got n-ary expansion '" +
        options.nary_base + "'");
  }
  RunOptions base_options = options;
  base_options.approach = options.nary_base;
  base_options.kind.reset();  // the base is validated as unary below
  // The error threshold parameterizes the expansion's g3' validation; the
  // unary base stays exact.
  base_options.error_threshold = 0;
  SPIDER_ASSIGN_OR_RETURN(SessionReport report, Run(base_options));
  report.approach = options.approach;
  report.nary = true;
  report.nary_base = options.nary_base;

  // A base run that already blew the budget (or was cancelled) leaves the
  // expansion untried: its input would be an incomplete unary set.
  if (!report.run.finished) {
    report.nary_run.finished = false;
    report.total_seconds = total_watch.ElapsedSeconds();
    return report;
  }

  // Phase 2: the expansion, on the remaining budget. Per-level candidate
  // batches (levelwise) / independent table pairs (clique, zigzag)
  // dispatch onto a worker pool; results are identical at any count.
  AlgorithmConfig config;
  SPIDER_ASSIGN_OR_RETURN(config.extractor, extractor());
  const int64_t sets_extracted_before = config.extractor->sets_extracted();
  const int64_t sets_reused_before = config.extractor->sets_reused();
  config.max_nary_arity = options.nary_max_arity;
  config.error_threshold = options.error_threshold;
  config.block_skip = options.block_skip;
  const int threads = ThreadPool::ResolveThreadCount(options.threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    config.pool = pool.get();
  }
  SPIDER_ASSIGN_OR_RETURN(
      std::unique_ptr<NaryAlgorithm> algorithm,
      AlgorithmRegistry::Global().CreateNary(options.approach, config));
  RunContext context;
  context.cancel = options.cancel;
  context.progress = options.progress;
  if (options.time_budget_seconds > 0) {
    const double remaining =
        options.time_budget_seconds - total_watch.ElapsedSeconds();
    context.time_budget_seconds = std::max(remaining, 1e-12);
  }
  SPIDER_ASSIGN_OR_RETURN(
      report.nary_run,
      algorithm->Run(*catalog_, report.run.satisfied, context));
  report.nary_run.counters.sets_extracted +=
      config.extractor->sets_extracted() - sets_extracted_before;
  report.nary_run.counters.sets_reused +=
      config.extractor->sets_reused() - sets_reused_before;
  if (report.nary_run.counters.sets_reused > 0) report.profile_reused = true;
  if (config.extractor->profile() != nullptr &&
      report.nary_run.counters.sets_extracted > 0) {
    // Commit freshly recorded composite sets.
    SealProfile(*config.extractor, &report);
  }
  report.total_seconds = total_watch.ElapsedSeconds();
  return report;
}

Result<SessionReport> SpiderSession::RunDependency(
    const RunOptions& options, const AlgorithmCapabilities& capabilities) {
  SessionReport report;
  report.approach = options.approach;
  report.kind = capabilities.kind;
  Stopwatch total_watch;
  total_watch.Start();

  // σ-coverage is an IND notion; the approximate kinds use the error
  // threshold instead, so reject the knob instead of ignoring it.
  if (options.min_coverage != 1.0) {
    return Status::InvalidArgument(
        "min_coverage (σ) applies to IND verification; use error_threshold "
        "for approximate " +
        std::string(KindName(capabilities.kind)) + " discovery");
  }

  AlgorithmConfig config;
  config.error_threshold = options.error_threshold;
  config.max_lhs_arity = options.max_lhs_arity;
  config.max_nary_arity = options.nary_max_arity;
  config.block_skip = options.block_skip;
  if (capabilities.needs_extractor) {
    SPIDER_ASSIGN_OR_RETURN(config.extractor, extractor());
  }
  int threads = ThreadPool::ResolveThreadCount(options.threads);
  if (!capabilities.parallel_safe) threads = 1;
  report.threads_used = threads;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    config.pool = pool.get();
  }
  SPIDER_ASSIGN_OR_RETURN(
      std::unique_ptr<DependencyAlgorithm> algorithm,
      AlgorithmRegistry::Global().CreateDependency(options.approach, config));
  RunContext context;
  context.time_budget_seconds = options.time_budget_seconds;
  context.cancel = options.cancel;
  context.progress = options.progress;
  SPIDER_ASSIGN_OR_RETURN(report.dependency,
                          algorithm->Run(*catalog_, context));
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
