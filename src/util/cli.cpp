#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace reasched::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string body = arg.substr(2);
      const auto eq = body.find('=');
      std::string name, value;
      if (eq != std::string::npos) {
        name = body.substr(0, eq);
        value = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        name = body;
        value = argv[++i];
      } else {
        name = body;
        value = "true";
      }
      named_[name] = value;  // single-value getters: last occurrence wins
      ordered_.emplace_back(std::move(name), std::move(value));
    } else {
      positional_.push_back(arg);
    }
  }
}

bool CliArgs::has(const std::string& name) const { return named_.count(name) != 0; }

std::vector<std::string> CliArgs::get_all(const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : ordered_) {
    if (key == name) out.push_back(value);
  }
  return out;
}

void CliArgs::reject_unlisted(const std::vector<std::string>& accepted) const {
  for (const auto& entry : ordered_) {
    if (std::find(accepted.begin(), accepted.end(), entry.first) == accepted.end()) {
      std::string listed;
      for (const auto& flag : accepted) listed += (listed.empty() ? "--" : ", --") + flag;
      throw std::invalid_argument("unknown flag --" + entry.first + " (accepted: " +
                                  (listed.empty() ? "none" : listed) + ")");
    }
  }
}

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const auto it = named_.find(name);
  return it == named_.end() ? fallback : it->second;
}

namespace {

/// `text` as an integer in [min_value, max_value], else std::invalid_argument
/// naming the flag and the text.
long long checked_int(const std::string& name, const std::string& text, long long min_value,
                      long long max_value) {
  const auto v = parse_int(text);
  if (!v) throw std::invalid_argument("--" + name + " expects an integer, got '" + text + "'");
  if (*v < min_value || *v > max_value) {
    throw std::invalid_argument(format("--%s must be in [%lld, %lld], got '%s'", name.c_str(),
                                       min_value, max_value, text.c_str()));
  }
  return *v;
}

}  // namespace

long long CliArgs::get_int(const std::string& name, long long fallback, long long min_value,
                          long long max_value) const {
  const auto it = named_.find(name);
  return it == named_.end() ? fallback : checked_int(name, it->second, min_value, max_value);
}

std::size_t CliArgs::get_size(const std::string& name, std::size_t fallback, std::size_t min_value,
                              std::size_t max_value) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  const auto lo = static_cast<long long>(min_value);
  const auto hi = static_cast<long long>(max_value);
  return static_cast<std::size_t>(checked_int(name, it->second, lo, hi));
}

std::vector<std::size_t> CliArgs::get_sizes(const std::string& name,
                                            const std::vector<std::size_t>& fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  std::vector<std::size_t> out;
  for (const auto& token : split(it->second, ',')) {
    out.push_back(static_cast<std::size_t>(checked_int(name, token, 1, kMaxCount)));
  }
  return out;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  const auto v = parse_double(it->second);
  if (!v || !std::isfinite(*v)) {
    throw std::invalid_argument("--" + name + " expects a finite number, got '" + it->second +
                                "'");
  }
  return *v;
}

int run_main(int argc, const char* const* argv, const std::vector<std::string>& flags,
             const std::function<int(const CliArgs&)>& run) {
  const std::string path = argc > 0 ? argv[0] : "";
  const std::string program = path.substr(path.find_last_of('/') + 1);
  try {
    const CliArgs args(argc, argv);
    args.reject_unlisted(flags);
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", program.c_str(), e.what());
    return 1;
  }
}

}  // namespace reasched::util
