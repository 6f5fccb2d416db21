// e2e_gen — writes one workload's seeded PdbLike CSV dump.
//
//   e2e_gen --out=DIR --seed=N --shape=paper-wide|tall-narrow --entries=N
//           [--category-tables=N]
//
// paper-wide is PdbLikeOptions::PaperScale (167 tables, 2,626 attributes;
// --category-tables narrows it);
// tall-narrow is the default 27-table schema plus pdb_atom_site and two
// dependency tables (the UCC/FD discoverers' ground-truth tables). The dump
// goes through CsvCatalogSink, so the program under test reads exactly the
// files a user would hand it.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "src/datagen/pdb_like.h"
#include "src/storage/csv.h"

int main(int argc, char** argv) {
  std::string out;
  std::string shape;
  int64_t entries = 0;
  int category_tables = 0;
  uint64_t seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--out") {
      out = value;
    } else if (key == "--shape") {
      shape = value;
    } else if (key == "--entries") {
      entries = std::strtoll(value.c_str(), nullptr, 10);
    } else if (key == "--category-tables") {
      category_tables = std::atoi(value.c_str());
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (out.empty() || entries <= 0) {
    std::cerr << "usage: e2e_gen --out=DIR --seed=N "
                 "--shape=paper-wide|tall-narrow --entries=N\n";
    return 2;
  }
  spider::datagen::PdbLikeOptions options;
  if (shape == "paper-wide") {
    options = spider::datagen::PdbLikeOptions::PaperScale(entries);
    if (category_tables > 0) options.category_tables = category_tables;
  } else if (shape == "tall-narrow") {
    options.entries = entries;
    options.include_atom_site = true;
    options.dependency_tables = 2;
  } else {
    std::cerr << "unknown --shape " << shape << "\n";
    return 2;
  }
  options.seed = seed;
  std::error_code ec;
  std::filesystem::create_directories(out, ec);
  spider::CsvCatalogSink sink(out);
  spider::Status status = spider::datagen::WritePdbLike(options, sink);
  if (status.ok()) status = sink.Finish().status();
  if (!status.ok()) {
    std::cerr << "e2e_gen: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
