// e2e_trace — the benchmark's traced run.
//
//   e2e_trace --csv=DIR --workspace=DIR --scratch=DIR --threads=N
//             --trace-out=FILE --delta=DIR
//
// Repeats the steps `spider import` and `spider profile` take, calling
// each layer's public functions directly and recording one span per call
// (name, layer, start, duration) plus the counters the call returns. The
// spans are written as Chrome trace-event JSON (open in Perfetto); the
// per-layer metrics go to stdout as one JSON object. Nothing inside the
// program is instrumented: every span wraps a call made from this file.
//
// Order of the replay:
//   storage.import   DiskCatalogWriter::Create + ImportCsvDirectory
//   storage.open     OpenDiskCatalog
//   ind.candgen      CandidateGenerator::Generate
//   extsort.extract  ValueSetExtractor::ExtractAll (fresh scratch dir)
//   ind.verify       AlgorithmRegistry::Create("spider-merge")->Run
//   ind.session      SpiderSession::Run over the workspace (cold, persisted)
//   ind.report_json  SessionReportToJson of the cold report
//   extsort.profile_load / profile_save   ProfileStore::Load / Save
//   storage.append   OpenForAppend + ImportCsvDirectory of --delta, then
//                    SpiderSession::Run again (the revalidating profile)
//   ind.nary / ind.ucc   nary and ucc-levelwise Run on one scratch extractor
//   ind.fd           fd-levelwise Run on a fresh scratch extractor of its own

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/extsort/profile_store.h"
#include "src/extsort/value_set_extractor.h"
#include "src/ind/candidate_generator.h"
#include "src/ind/registry.h"
#include "src/ind/report_json.h"
#include "src/ind/session.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"

namespace fs = std::filesystem;

namespace spider {
namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string layer;
  double start_us = 0;
  double dur_us = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  // Runs `fn`, records a span around it and returns its duration (s).
  template <typename Fn>
  double Time(const std::string& name, const std::string& layer, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    spans_.push_back(Span{name, layer, Micros(start), Micros(end) - Micros(start)});
    return (Micros(end) - Micros(start)) / 1e6;
  }

  Status Write(const fs::path& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[128];
      std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                    s.dur_us);
      out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name << "\",\"cat\":\""
          << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf << "}";
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    out.close();
    if (!out) return Status::IOError("cannot write " + path.string());
    return Status::OK();
  }

 private:
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Bytes of the regular files directly in `dir` whose name passes `keep`.
template <typename Keep>
int64_t DirBytes(const fs::path& dir, Keep keep) {
  int64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && keep(entry.path().filename().string())) {
      total += static_cast<int64_t>(entry.file_size());
    }
  }
  return total;
}

bool EndsWith(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::cerr << "e2e_trace: " << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

template <typename T>
T Unwrap(const std::string& what, Result<T> result) {
  if (!result.ok()) Die(what, result.status());
  return std::move(*result);
}

void Check(const std::string& what, const Status& status) {
  if (!status.ok()) Die(what, status);
}

}  // namespace
}  // namespace spider

int main(int argc, char** argv) {
  using namespace spider;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    args[arg.substr(0, eq)] = eq == std::string::npos ? "" : arg.substr(eq + 1);
  }
  for (const char* required : {"--csv", "--workspace", "--scratch",
                               "--threads", "--trace-out", "--delta"}) {
    if (args.count(required) == 0) {
      std::cerr << "usage: e2e_trace --csv=DIR --workspace=DIR --scratch=DIR "
                   "--threads=N --trace-out=FILE --delta=DIR\n";
      return 2;
    }
  }
  const fs::path csv = args["--csv"];
  const fs::path workspace = args["--workspace"];
  const fs::path scratch = args["--scratch"];
  const int threads = std::atoi(args["--threads"].c_str());
  if (threads < 1) {
    std::cerr << "e2e_trace: --threads must be a positive integer\n";
    return 2;
  }
  fs::create_directories(scratch);

  Tracer tracer;
  std::map<std::string, double> m;
  const double csv_bytes = static_cast<double>(DirBytes(
      csv, [](const std::string& name) { return EndsWith(name, ".csv"); }));

  // ---- storage ------------------------------------------------------------
  m["storage.import_s"] = tracer.Time("ImportCsvDirectory", "storage", [&] {
    auto writer = Unwrap("create workspace",
                         DiskCatalogWriter::Create(workspace, "db"));
    Unwrap("import", ImportCsvDirectory(csv, CsvOptions{}, *writer));
  });
  m["storage.import_mb_per_s"] = csv_bytes / 1e6 / m["storage.import_s"];
  m["storage.bytes_per_input_byte"] =
      static_cast<double>(DirBytes(workspace, [](const std::string&) { return true; })) /
      csv_bytes;

  std::unique_ptr<Catalog> catalog;
  m["storage.open_s"] = tracer.Time("OpenDiskCatalog", "storage", [&] {
    catalog = Unwrap("open", OpenDiskCatalog(workspace));
  });

  // ---- direct layer calls on a scratch extractor ---------------------------
  CandidateSet candidates;
  m["ind.candgen_s"] = tracer.Time("CandidateGenerator::Generate", "ind", [&] {
    candidates = Unwrap("candgen", CandidateGenerator().Generate(*catalog));
  });
  m["ind.raw_pairs"] = static_cast<double>(candidates.raw_pair_count);
  m["ind.candidates"] = static_cast<double>(candidates.candidates.size());

  std::set<AttributeRef> attribute_set;
  for (const IndCandidate& c : candidates.candidates) {
    attribute_set.insert(c.dependent);
    attribute_set.insert(c.referenced);
  }
  const std::vector<AttributeRef> attributes(attribute_set.begin(),
                                             attribute_set.end());
  double values = 0;
  for (const AttributeRef& a : attributes) {
    values += static_cast<double>(candidates.stats.at(a).non_null_count);
  }
  const fs::path extract_dir = scratch / "extract";
  fs::create_directories(extract_dir);
  ThreadPool pool(threads);
  {
    ValueSetExtractor extractor(extract_dir);
    m["extsort.extract_s"] =
        tracer.Time("ValueSetExtractor::ExtractAll", "extsort", [&] {
          Unwrap("extract", extractor.ExtractAll(*catalog, attributes,
                                                 threads > 1 ? &pool : nullptr));
        });
    m["extsort.sets_extracted"] = static_cast<double>(attributes.size());
    m["extsort.values_per_s"] = values / m["extsort.extract_s"];
    m["extsort.set_bytes_per_input_byte"] =
        static_cast<double>(DirBytes(extract_dir, [](const std::string& name) {
          return EndsWith(name, ".set");
        })) / csv_bytes;

    AlgorithmConfig config;
    config.extractor = &extractor;
    IndRunResult verified;
    m["ind.verify_s"] = tracer.Time("spider-merge Run", "ind", [&] {
      auto algorithm = Unwrap(
          "create", AlgorithmRegistry::Global().Create("spider-merge", config));
      RunContext context;
      verified = Unwrap("verify", algorithm->Run(*catalog, candidates.candidates,
                                                 context));
    });
    m["ind.tuples_read"] = static_cast<double>(verified.counters.tuples_read);
    m["ind.blocks_skipped"] =
        static_cast<double>(verified.counters.blocks_skipped);
    m["ind.comparisons"] = static_cast<double>(verified.counters.comparisons);
    m["ind.satisfied_per_candidate"] =
        candidates.candidates.empty()
            ? 0
            : static_cast<double>(verified.satisfied.size()) /
                  static_cast<double>(candidates.candidates.size());
  }

  // ---- the session pipeline over the persisted workspace -------------------
  RunOptions run_options;
  run_options.approach = "spider-merge";
  run_options.threads = threads;
  SessionOptions session_options;
  session_options.work_dir = workspace.string();
  session_options.persist_profile = true;
  SessionReport cold;
  m["ind.session_s"] = tracer.Time("SpiderSession::Run cold", "ind", [&] {
    SpiderSession session(*catalog, session_options);
    cold = Unwrap("cold session", session.Run(run_options));
  });
  ReportJsonContext json_context;
  json_context.backend = "disk";
  json_context.tables = static_cast<int64_t>(catalog->table_count());
  json_context.attributes = static_cast<int64_t>(catalog->attribute_count());
  std::string json;
  m["ind.report_json_s"] = tracer.Time("SessionReportToJson", "ind", [&] {
    json = SessionReportToJson(cold, json_context);
  });

  const fs::path manifest = workspace / "spider_profile.manifest";
  m["extsort.profile_manifest_bytes"] =
      static_cast<double>(fs::file_size(manifest));
  {
    ProfileStore store(workspace);
    m["extsort.profile_load_s"] =
        tracer.Time("ProfileStore::Load", "extsort", [&] { store.Load(); });
    m["extsort.profile_save_s"] = tracer.Time(
        "ProfileStore::Save", "extsort", [&] { Check("save", store.Save()); });
  }
  // The session's own work beyond its layer calls: option validation,
  // partitioning, verdict bookkeeping and the profile seal's fingerprinting.
  // Candidate generation and the algorithm run (set extraction included)
  // come from the session's own report of this run; the profile save is
  // the Save of the same profile timed just above.
  m["ind.session_self_s"] = m["ind.session_s"] - cold.generation_seconds -
                            cold.run.seconds - m["extsort.profile_save_s"];

  // ---- append, then the revalidating profile -------------------------------
  m["storage.append_s"] = tracer.Time("append", "storage", [&] {
    auto writer = Unwrap("open for append",
                         DiskCatalogWriter::OpenForAppend(workspace));
    Unwrap("append", ImportCsvDirectory(args["--delta"], CsvOptions{}, *writer));
  });
  catalog = Unwrap("reopen", OpenDiskCatalog(workspace));
  SessionReport appended;
  tracer.Time("SpiderSession::Run after append", "ind", [&] {
    SpiderSession session(*catalog, session_options);
    appended = Unwrap("append session", session.Run(run_options));
  });
  m["ind.verdicts_reused"] = static_cast<double>(appended.verdicts_reused);
  m["ind.candidates_revalidated"] =
      static_cast<double>(appended.candidates_revalidated);

  // ---- n-ary expansion and the dependency kinds ----------------------------
  {
    const fs::path dep_dir = scratch / "dependencies";
    fs::create_directories(dep_dir);
    ValueSetExtractor extractor(dep_dir);
    AlgorithmConfig config;
    config.extractor = &extractor;
    config.pool = threads > 1 ? &pool : nullptr;
    std::vector<Ind> unary;
    {
      // The n-ary expansion needs the unary profile; run it on this
      // extractor (not timed as a layer of its own).
      auto algorithm = Unwrap(
          "create", AlgorithmRegistry::Global().Create("spider-merge", config));
      RunContext context;
      unary = Unwrap("unary",
                     algorithm->Run(*catalog,
                                    Unwrap("candgen",
                                           CandidateGenerator().Generate(*catalog))
                                        .candidates,
                                    context))
                  .satisfied;
    }
    NaryRunResult nary;
    m["ind.nary_s"] = tracer.Time("nary Run", "ind", [&] {
      auto algorithm =
          Unwrap("create nary", AlgorithmRegistry::Global().CreateNary("nary", config));
      RunContext context;
      nary = Unwrap("nary", algorithm->Run(*catalog, unary, context));
    });
    m["ind.nary_tests"] = static_cast<double>(nary.tests);
    m["ind.ucc_s"] = tracer.Time("ucc-levelwise Run", "ind", [&] {
      auto algorithm = Unwrap("create ucc", AlgorithmRegistry::Global().CreateDependency(
                                                "ucc-levelwise", config));
      RunContext context;
      Unwrap("ucc", algorithm->Run(*catalog, context));
    });
  }
  {
    // The FD run gets an extractor of its own: the UCC run builds the same
    // ascending attribute combinations, and a shared composite-set cache
    // would hand them to the FD run already sorted.
    const fs::path fd_dir = scratch / "fd";
    fs::create_directories(fd_dir);
    ValueSetExtractor extractor(fd_dir);
    AlgorithmConfig config;
    config.extractor = &extractor;
    config.pool = threads > 1 ? &pool : nullptr;
    m["ind.fd_s"] = tracer.Time("fd-levelwise Run", "ind", [&] {
      auto algorithm = Unwrap("create fd", AlgorithmRegistry::Global().CreateDependency(
                                               "fd-levelwise", config));
      RunContext context;
      Unwrap("fd", algorithm->Run(*catalog, context));
    });
    m["extsort.composite_bytes"] = static_cast<double>(DirBytes(
        fd_dir, [](const std::string& name) { return name.rfind("tuple-", 0) == 0; }));
  }

  Check("trace", tracer.Write(args["--trace-out"]));
  std::cout << "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    std::cout << (first ? "" : ",") << "\"" << name << "\":" << buf;
    first = false;
  }
  std::cout << "}\n";
  return 0;
}
