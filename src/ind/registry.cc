#include "src/ind/registry.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/ind/bell_brockhausen.h"
#include "src/ind/brute_force.h"
#include "src/ind/clique_nary.h"
#include "src/ind/de_marchi.h"
#include "src/ind/fd_levelwise.h"
#include "src/ind/nary.h"
#include "src/ind/single_pass.h"
#include "src/ind/spider_merge.h"
#include "src/ind/sql_algorithms.h"
#include "src/ind/ucc_levelwise.h"
#include "src/ind/zigzag.h"

namespace spider {

AlgorithmRegistry& AlgorithmRegistry::Global() {
  // Each algorithm's registration code lives next to its implementation;
  // calling the hooks here (instead of via static initializers) keeps the
  // order deterministic and survives static-library dead-stripping.
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();
    RegisterBruteForceAlgorithm(*r);
    RegisterSinglePassAlgorithm(*r);
    RegisterSqlAlgorithms(*r);
    RegisterSpiderMergeAlgorithm(*r);
    RegisterDeMarchiAlgorithm(*r);
    RegisterBellBrockhausenAlgorithm(*r);
    // N-ary expansions, runnable on top of any unary approach above.
    RegisterNaryAlgorithm(*r);
    RegisterCliqueNaryAlgorithm(*r);
    RegisterZigzagAlgorithm(*r);
    // Non-IND dependency kinds (UCC / FD / AFD); first registration per
    // kind is that kind's default approach.
    RegisterUccLevelwiseAlgorithm(*r);
    RegisterFdLevelwiseAlgorithms(*r);
    return r;
  }();
  return *registry;
}

Status AlgorithmRegistry::Register(std::string name,
                                   AlgorithmCapabilities capabilities,
                                   Factory factory) {
  return Add({std::move(name), std::move(capabilities), std::move(factory)});
}

Status AlgorithmRegistry::RegisterNary(std::string name,
                                       AlgorithmCapabilities capabilities,
                                       NaryFactory factory) {
  return Add({std::move(name), std::move(capabilities), std::move(factory)});
}

Status AlgorithmRegistry::RegisterDependency(std::string name,
                                             AlgorithmCapabilities capabilities,
                                             DependencyFactory factory) {
  return Add({std::move(name), std::move(capabilities), std::move(factory)});
}

Status AlgorithmRegistry::Add(Entry entry) {
  if (entry.name.empty()) {
    return Status::InvalidArgument("algorithm name must be non-empty");
  }
  const Family family = entry.family();
  if (family == Family::kDependency &&
      entry.capabilities.kind == DependencyKind::kInd) {
    return Status::InvalidArgument(
        "IND approaches register through Register/RegisterNary, not "
        "RegisterDependency: " +
        entry.name);
  }
  if (Contains(entry.name)) {
    return Status::AlreadyExists("algorithm already registered: " +
                                 entry.name);
  }
  SPIDER_CHECK(std::visit([](const auto& f) { return f != nullptr; },
                          entry.factory))
      << "null factory for " << entry.name;
  entry.capabilities.nary = family == Family::kNary;
  if (family != Family::kDependency) {
    entry.capabilities.kind = DependencyKind::kInd;
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

const AlgorithmRegistry::Entry* AlgorithmRegistry::Find(
    std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

bool AlgorithmRegistry::Contains(std::string_view name) const {
  return Find(name) != nullptr;
}

Status AlgorithmRegistry::UnknownNameError(std::string_view name) const {
  std::string message = "unknown approach '" + std::string(name) + "'";

  // Nearest registered name, when plausibly a typo (distance bounded by
  // roughly a third of the name so unrelated strings suggest nothing).
  std::string best;
  size_t best_distance = std::max<size_t>(2, name.size() / 3) + 1;
  for (const Entry& entry : entries_) {
    const size_t distance = EditDistance(name, entry.name);
    if (distance < best_distance) {
      best_distance = distance;
      best = entry.name;
    }
  }
  if (!best.empty()) {
    message += " — did you mean '" + best + "'?";
  } else {
    message += ".";
  }
  message += " Valid approaches:";
  for (DependencyKind kind : {DependencyKind::kInd, DependencyKind::kUcc,
                              DependencyKind::kFd, DependencyKind::kAfd}) {
    const std::vector<std::string> names = NamesForKind(kind);
    if (names.empty()) continue;
    message += " " + std::string(KindName(kind)) + ": " +
               JoinStrings(names, ", ") + ";";
  }
  if (message.back() == ';') message.pop_back();
  return Status::NotFound(message);
}

Status AlgorithmRegistry::ValidateConfig(const Entry& entry,
                                         const AlgorithmConfig& config) {
  const AlgorithmCapabilities& capabilities = entry.capabilities;
  if (capabilities.needs_extractor && config.extractor == nullptr) {
    return Status::InvalidArgument(entry.name +
                                   " requires a value-set extractor");
  }
  if (config.min_coverage <= 0 || config.min_coverage > 1.0) {
    return Status::InvalidArgument("min_coverage must be in (0, 1]");
  }
  if (config.min_coverage < 1.0 && !capabilities.supports_partial) {
    return Status::InvalidArgument(
        entry.name + " does not support partial (sigma < 1) coverage");
  }
  if (config.error_threshold < 0 || config.error_threshold >= 1.0) {
    return Status::InvalidArgument("error_threshold must be in [0, 1)");
  }
  if (config.error_threshold > 0 && !capabilities.supports_partial) {
    return Status::InvalidArgument(
        entry.name + " does not support an error threshold (error > 0)");
  }
  return Status::OK();
}

Result<AlgorithmCapabilities> AlgorithmRegistry::GetCapabilities(
    std::string_view name) const {
  if (const Entry* entry = Find(name)) return entry->capabilities;
  return UnknownNameError(name);
}

template <typename FamilyFactory>
typename FamilyFactory::result_type AlgorithmRegistry::Build(
    std::string_view name, const AlgorithmConfig& config) const {
  // Family descriptions and builders, indexed by Family.
  static constexpr const char* kFamilies[] = {
      "a unary IND verifier", "an n-ary IND expansion",
      "a UCC/FD/AFD discoverer"};
  static constexpr const char* kBuilders[] = {"Create", "CreateNary",
                                              "CreateDependency"};
  const Entry* entry = Find(name);
  if (entry == nullptr) return UnknownNameError(name);
  const FamilyFactory* factory = std::get_if<FamilyFactory>(&entry->factory);
  if (factory == nullptr) {
    const auto family = static_cast<size_t>(entry->family());
    return Status::InvalidArgument(
        entry->name + " is " + kFamilies[family] + " (build it with " +
        kBuilders[family] + ", or run it through SpiderSession)");
  }
  SPIDER_RETURN_NOT_OK(ValidateConfig(*entry, config));
  return (*factory)(config);
}

Result<std::unique_ptr<IndAlgorithm>> AlgorithmRegistry::Create(
    std::string_view name, const AlgorithmConfig& config) const {
  return Build<Factory>(name, config);
}

Result<std::unique_ptr<NaryAlgorithm>> AlgorithmRegistry::CreateNary(
    std::string_view name, const AlgorithmConfig& config) const {
  return Build<NaryFactory>(name, config);
}

Result<std::unique_ptr<DependencyAlgorithm>>
AlgorithmRegistry::CreateDependency(std::string_view name,
                                    const AlgorithmConfig& config) const {
  return Build<DependencyFactory>(name, config);
}

std::vector<std::string> AlgorithmRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.name);
  return names;
}

std::vector<std::string> AlgorithmRegistry::Names(Family family) const {
  std::vector<std::string> names;
  for (const Entry& entry : entries_) {
    if (entry.family() == family) names.push_back(entry.name);
  }
  return names;
}

std::vector<std::string> AlgorithmRegistry::NamesForKind(
    DependencyKind kind) const {
  std::vector<std::string> names;
  for (const Entry& entry : entries_) {
    if (entry.capabilities.kind == kind) names.push_back(entry.name);
  }
  return names;
}

Result<std::string> AlgorithmRegistry::DefaultNameForKind(
    DependencyKind kind) const {
  const std::vector<std::string> names = NamesForKind(kind);
  if (names.empty()) {
    return Status::NotFound("no approach registered for kind '" +
                            std::string(KindName(kind)) + "'");
  }
  return names.front();
}

}  // namespace spider
