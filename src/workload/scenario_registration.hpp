#pragma once

namespace reasched::workload {

class ScenarioRegistry;

/// Register the built-in scenario axis: the seven paper scenarios
/// (Section 3.1), the trace-backed bases (swf / trace / polaris) and the
/// composable transform operators (perturb, stretch, dag, crop, cluster).
/// Called once by ScenarioRegistry::instance().
void register_scenarios(ScenarioRegistry& registry);

}  // namespace reasched::workload
