#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness/method_spec.hpp"
#include "sim/scheduler.hpp"

namespace reasched::harness {

/// The method layer's public surface: every function takes a `MethodSpec`,
/// and spec strings convert implicitly, so parameterized variants
/// (`opt:portfolio?budget=2000&window=sjf:64`) go everywhere a method goes.

/// The five methods of Figures 3/4/7/8, in presentation order, as their
/// canonical (parameter-free) specs.
const std::vector<MethodSpec>& paper_methods();

/// Instantiate a fresh scheduler for one run via the registry. `seed` feeds
/// every stochastic component (SA restarts, decision noise, latency
/// sampling). Throws util::SpecError for unknown names or bad parameters.
std::unique_ptr<sim::Scheduler> make_scheduler(const MethodSpec& spec, std::uint64_t seed);

}  // namespace reasched::harness
