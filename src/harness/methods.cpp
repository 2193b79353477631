#include "harness/methods.hpp"

namespace reasched::harness {

const std::vector<MethodSpec>& paper_methods() {
  static const std::vector<MethodSpec> v = {"fcfs", "sjf", "opt:portfolio", "agent:claude37",
                                            "agent:o4mini"};
  return v;
}

std::unique_ptr<sim::Scheduler> make_scheduler(const MethodSpec& spec, std::uint64_t seed) {
  return MethodRegistry::instance().build(spec, seed);
}

}  // namespace reasched::harness
