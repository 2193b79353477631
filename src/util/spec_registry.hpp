#pragma once

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/spec_grammar.hpp"
#include "util/string_utils.hpp"

namespace reasched::util {

/// The freeze-at-first-lookup flag of one spec registry. Registration is
/// open until the first lookup in any of the registry's tables; after that
/// reads are lock-free (the sweep layer reads from worker threads), so a
/// late `add()` throws std::logic_error instead of racing the readers.
class SpecFreeze {
 public:
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }
  void freeze() const { frozen_.store(true, std::memory_order_release); }

 private:
  mutable std::atomic<bool> frozen_{false};
};

/// One name -> Info table of a spec registry (methods, scenarios,
/// transforms). `Info` carries `name`, `params` (the declared
/// SpecParamInfo keys) and the callback member `kCallback` that a
/// registration must set. Several tables of one registry share a
/// SpecFreeze, so a lookup in any of them freezes them all.
template <typename Info, auto kCallback>
class SpecTable {
 public:
  /// `owner` and `kind` word every error: ("MethodRegistry", "method").
  SpecTable(const SpecFreeze& freeze, std::string owner, std::string kind)
      : freeze_(&freeze), owner_(std::move(owner)), kind_(std::move(kind)) {}

  /// Register an entry; throws std::logic_error on an empty or duplicate
  /// name, a missing callback, or registration once the registry is frozen.
  void add(Info info) {
    const std::string name = info.name;
    if (freeze_->frozen()) {
      throw std::logic_error(owner_ + ": cannot add " + kind_ + " '" + name +
                             "' after the registry froze (first lookup already happened; "
                             "register at startup, before any spec is resolved)");
    }
    if (name.empty()) throw std::logic_error(owner_ + ": empty " + kind_ + " name");
    if (!(info.*kCallback)) {
      throw std::logic_error(owner_ + ": " + kind_ + " '" + name + "' has no callback");
    }
    if (!entries_.emplace(name, std::move(info)).second) {
      throw std::logic_error(owner_ + ": duplicate " + kind_ + " name '" + name + "'");
    }
  }

  const Info* find(const std::string& name) const {
    const auto it = entries().find(name);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// Lookup that throws SpecError listing the registered names on a miss.
  const Info& at(const std::string& name) const {
    const Info* info = find(name);
    if (info == nullptr) {
      throw SpecError("unknown " + kind_ + " '" + name + "'; registered " + kind_ +
                      "s: " + join(names(), ", "));
    }
    return *info;
  }

  /// `at(stage.name)`, after checking that every key of `stage` is one the
  /// entry declares (SpecError listing the accepted keys otherwise).
  const Info& resolve(const SpecStage& stage) const {
    const Info& info = at(stage.name);
    for (const auto& [key, value] : stage.params) {
      const bool declared =
          std::any_of(info.params.begin(), info.params.end(),
                      [&](const SpecParamInfo& p) { return p.key == key; });
      if (!declared) {
        std::vector<std::string> accepted;
        for (const auto& p : info.params) accepted.push_back(p.key);
        throw SpecError(kind_ + " '" + stage.name + "' does not accept parameter '" + key +
                        "'; accepted parameters: " +
                        (accepted.empty() ? "(none)" : join(accepted, ", ")));
      }
    }
    return info;
  }

  /// Registered names, sorted.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, info] : entries()) out.push_back(name);
    return out;  // std::map iteration: already sorted
  }

  /// Every entry in name order (the registry listings); freezes too.
  const std::map<std::string, Info>& entries() const {
    freeze_->freeze();
    return entries_;
  }

 private:
  const SpecFreeze* freeze_;
  std::string owner_;
  std::string kind_;
  std::map<std::string, Info> entries_;
};

/// Drop later duplicates (value equality), preserving first-seen order -
/// the sweep's axis semantics for methods and scenarios alike, shared with
/// CLI panel assembly.
template <typename T>
std::vector<T> dedup(const std::vector<T>& items) {
  std::vector<T> unique;
  std::set<T> seen;
  for (const auto& item : items) {
    if (seen.insert(item).second) unique.push_back(item);
  }
  return unique;
}

}  // namespace reasched::util
