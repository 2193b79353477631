#include "util/cli.hpp"

#include <cmath>
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

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const auto it = named_.find(name);
  return it == named_.end() ? fallback : it->second;
}

long long CliArgs::get_int(const std::string& name, long long fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  const auto v = parse_int(it->second);
  if (!v) throw std::invalid_argument("--" + name + " expects an integer, got '" + it->second + "'");
  return *v;
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

}  // namespace reasched::util
