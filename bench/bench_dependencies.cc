// UCC / FD discovery benchmarks over the PdbLike ground-truth dependency
// tables: levelwise lattice cost per storage backend and thread count.
//
// Expected shape:
//   * work counters (candidates_tested, satisfied) are identical across
//     backends and thread counts — the determinism the dependency parity
//     test asserts, made visible to the regression gate;
//   * the disk backend stays within a small factor of memory: UCC tests
//     count sorted composite sets and FD tests count in-memory table
//     partitions either way, the backends differ only in how a column
//     is read (extraction or one decode per column);
//   * FD discovery tests more candidates than UCC at the same arity cap
//     (per-RHS lattices instead of one key lattice).

#include <memory>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/storage/catalog_sink.h"
#include "src/storage/disk_store.h"

namespace spider::bench {
namespace {

datagen::PdbLikeOptions DependencyOptions() {
  datagen::PdbLikeOptions options;
  options.entries = 120;
  options.category_tables = 4;
  options.dependency_tables = 4;
  return options;
}

const Catalog& MemoryCatalog() {
  static std::unique_ptr<Catalog> catalog = [] {
    auto built = datagen::MakePdbLike(DependencyOptions());
    SPIDER_CHECK(built.ok()) << built.status().ToString();
    return std::move(built).value();
  }();
  return *catalog;
}

const Catalog& DiskCatalog() {
  // The TempDir must outlive the catalog: leak both intentionally (static
  // storage) so the workspace survives until process exit.
  static auto* holder = [] {
    auto dir = TempDir::Make("bench-dependencies");
    SPIDER_CHECK(dir.ok());
    auto writer = DiskCatalogWriter::Create((*dir)->path() / "ws", "bench");
    SPIDER_CHECK(writer.ok()) << writer.status().ToString();
    auto status = datagen::WritePdbLike(DependencyOptions(), **writer);
    SPIDER_CHECK(status.ok()) << status.ToString();
    auto built = (*writer)->Finish();
    SPIDER_CHECK(built.ok()) << built.status().ToString();
    return new std::pair<std::unique_ptr<TempDir>,
                         std::unique_ptr<Catalog>>(std::move(*dir),
                                                   std::move(*built));
  }();
  return *holder->second;
}

// One full dependency session run per iteration. A fresh session per
// iteration re-extracts the sorted sets — extraction is part of the cost
// being compared across backends, exactly like the IND benches count
// "all costs, inclusively shipping the data outside the database".
void RunDependencySession(benchmark::State& state, const Catalog& catalog,
                          DependencyKind kind, int threads) {
  SessionReport last;
  for (auto _ : state) {
    SpiderSession session(catalog);
    RunOptions options;
    auto approach = AlgorithmRegistry::Global().DefaultNameForKind(kind);
    SPIDER_CHECK(approach.ok()) << approach.status().ToString();
    options.approach = *approach;
    options.kind = kind;
    options.threads = threads;
    auto report = session.Run(options);
    SPIDER_CHECK(report.ok()) << report.status().ToString();
    last = std::move(report).value();
  }
  const DependencyRunResult& result = last.dependency;
  state.counters["satisfied"] =
      static_cast<double>(result.uccs.size() + result.fds.size());
  state.counters["candidates_tested"] =
      static_cast<double>(result.counters.candidates_tested);
  state.counters["comparisons"] =
      static_cast<double>(result.counters.comparisons);
  state.counters["tuples_read"] =
      static_cast<double>(result.counters.tuples_read);
  state.counters["finished"] = result.finished ? 1 : 0;
}

void BM_UccMemory(benchmark::State& state) {
  RunDependencySession(state, MemoryCatalog(), DependencyKind::kUcc,
                       static_cast<int>(state.range(0)));
}
BENCHMARK(BM_UccMemory)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_UccDisk(benchmark::State& state) {
  RunDependencySession(state, DiskCatalog(), DependencyKind::kUcc,
                       static_cast<int>(state.range(0)));
}
BENCHMARK(BM_UccDisk)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FdMemory(benchmark::State& state) {
  RunDependencySession(state, MemoryCatalog(), DependencyKind::kFd,
                       static_cast<int>(state.range(0)));
}
BENCHMARK(BM_FdMemory)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FdDisk(benchmark::State& state) {
  RunDependencySession(state, DiskCatalog(), DependencyKind::kFd,
                       static_cast<int>(state.range(0)));
}
BENCHMARK(BM_FdDisk)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace spider::bench

BENCHMARK_MAIN();
