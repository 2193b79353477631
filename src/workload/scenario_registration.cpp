#include "workload/scenario_registration.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "workload/arrival.hpp"
#include "workload/polaris.hpp"
#include "workload/scenario_spec.hpp"
#include "workload/swf.hpp"
#include "workload/trace.hpp"
#include "workload/users.hpp"

namespace reasched::workload {

namespace {

/// Parameters every generator-backed scenario accepts on its base stage.
std::vector<util::SpecParamInfo> generator_params() {
  return {{"walltime_noise", "range", "1:1",
           "Walltime estimates = runtime x U(MIN:MAX); 1:1 keeps the paper's exact "
           "estimates."},
          {"rate_scale", "double", "1",
           "Arrival-rate multiplier: submit times divide by this (2 = twice the load)."}};
}

// ---------------------------------------------------------------------------
// The seven paper scenarios (Section 3.1). Each is a per-job draw plus
// optional arrival and post-processing hooks; generate_paper_jobs() supplies
// ids, cluster clamping, walltime noise, users and arrivals.

sim::Job homog_short_job(sim::JobId id, util::Rng& rng) {
  sim::Job j;
  j.id = id;
  j.duration = rng.uniform_real(30.0, 120.0);
  j.walltime = j.duration;
  j.nodes = 2;
  j.memory_gb = 4.0;
  return j;
}

sim::Job hetero_mix_job(sim::JobId id, util::Rng& rng) {
  sim::Job j;
  j.id = id;
  // Paper Section 3.1: runtimes ~ Gamma(shape=1.5, scale=300) seconds.
  j.duration = std::max(10.0, rng.gamma(1.5, 300.0));
  j.walltime = j.duration;
  // Node demand mixes serial, small-parallel and wide jobs - power-of-two
  // biased, with enough wide jobs that head-of-line blocking fragments FCFS
  // (the contention that differentiates schedulers at scale, Section 3.6).
  static const int kNodeChoices[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  static const std::vector<double> kNodeWeights = {16, 15, 13, 12, 12, 11, 9, 7, 5};
  j.nodes = kNodeChoices[rng.weighted_index(kNodeWeights)];
  // Memory loosely correlated with nodes: between 1 and 8 GB per node.
  const double per_node_gb = rng.uniform_real(1.0, 8.0);
  j.memory_gb = std::min(2048.0, static_cast<double>(j.nodes) * per_node_gb);
  return j;
}

sim::Job long_job_job(sim::JobId id, util::Rng& rng) {
  sim::Job j;
  j.id = id;
  if (rng.bernoulli(0.2)) {
    // Extremely long, wide jobs (Section 3.1: 50,000 s on 128 nodes);
    // +-10% jitter so repetitions are not byte-identical.
    j.duration = 50000.0 * rng.uniform_real(0.9, 1.1);
    j.nodes = 128;
    j.memory_gb = 256.0;
  } else {
    j.duration = 500.0 * rng.uniform_real(0.8, 1.2);
    j.nodes = 2;
    j.memory_gb = 4.0;
  }
  j.walltime = j.duration;
  return j;
}

sim::Job high_parallel_job(sim::JobId id, util::Rng& rng) {
  sim::Job j;
  j.id = id;
  // Tightly-coupled simulations: 64-256 nodes, Gamma walltime (Section 3.1).
  static const int kNodeChoices[] = {64, 96, 128, 192, 256};
  static const std::vector<double> kNodeWeights = {30, 20, 25, 10, 15};
  j.nodes = kNodeChoices[rng.weighted_index(kNodeWeights)];
  j.duration = std::max(60.0, rng.gamma(2.0, 400.0));
  j.walltime = j.duration;
  // Wide jobs tend to be memory-hungry in aggregate but modest per node.
  j.memory_gb = std::min(2048.0, static_cast<double>(j.nodes) * rng.uniform_real(1.0, 4.0));
  return j;
}

sim::Job resource_sparse_job(sim::JobId id, util::Rng& rng) {
  sim::Job j;
  j.id = id;
  // Lightweight: 1 node, <8 GB, 30-300 s (Section 3.1).
  j.nodes = 1;
  j.memory_gb = rng.uniform_real(0.5, 8.0);
  j.duration = rng.uniform_real(30.0, 300.0);
  j.walltime = j.duration;
  return j;
}

sim::Job bursty_idle_job(sim::JobId id, util::Rng& rng) {
  sim::Job j;
  j.id = id;
  // Alternate between short interactive-style jobs and long-running jobs
  // with modest per-job demands (Section 3.1). Demands are sized so a burst
  // collectively oversubscribes the 256-node partition - the volatility
  // that differentiates schedulers in this scenario.
  if (rng.bernoulli(0.6)) {
    j.duration = rng.uniform_real(60.0, 240.0);
  } else {
    j.duration = rng.uniform_real(1800.0, 7200.0);
  }
  j.walltime = j.duration;
  j.nodes = static_cast<int>(rng.uniform_int(8, 48));
  j.memory_gb = rng.uniform_real(16.0, 128.0);
  return j;
}

void bursty_idle_arrivals(std::vector<sim::Job>& jobs, util::Rng& rng) {
  // Bursts of ~16 jobs arriving seconds apart (together demanding ~2x the
  // node capacity), separated by long idle gaps.
  assign_bursty_arrivals(jobs, /*burst_size=*/16, /*within_burst=*/5.0,
                         /*idle_gap=*/1800.0, rng);
}

sim::Job adversarial_job(sim::JobId id, util::Rng& rng) {
  // All jobs are small; adversarial_blocker() turns the first into the
  // blocker.
  sim::Job j;
  j.id = id;
  j.duration = 60.0 * rng.uniform_real(0.95, 1.05);
  j.walltime = j.duration;
  j.nodes = 1;
  j.memory_gb = rng.uniform_real(1.0, 4.0);
  return j;
}

void adversarial_blocker(std::vector<sim::Job>& jobs) {
  if (jobs.empty()) return;
  // One large blocking job submitted first (128 nodes, 100,000 s), then
  // many 1-node jobs right behind it (Section 3.1).
  auto first = std::min_element(jobs.begin(), jobs.end(),
                                [](const sim::Job& a, const sim::Job& b) {
                                  return sim::arrival_order(a, b);
                                });
  first->nodes = 128;
  first->memory_gb = 512.0;
  first->duration = 100000.0;
  first->walltime = first->duration;
}

struct PaperScenario {
  const char* name;
  /// Presentation label. It keys derive_seed for the scenario's own streams
  /// and for every cell_seed, so changing it changes every recorded result.
  const char* label;
  const char* doc;
  /// Mean of the Poisson submission process, seconds (1/lambda).
  double mean_interarrival_s;
  sim::Job (*make_job)(sim::JobId id, util::Rng& rng);
  /// Replaces the Poisson process when set.
  void (*assign_arrivals)(std::vector<sim::Job>& jobs, util::Rng& rng) = nullptr;
  /// Runs after arrivals are assigned, before the arrival sort.
  void (*post_process)(std::vector<sim::Job>& jobs) = nullptr;
};

/// Presentation order; paper_scenario_specs() lists the rows in this order.
const PaperScenario kPaperScenarios[] = {
    {"homog_short", "Homogeneous Short",
     "uniform 30-120s jobs with 2 nodes / 4 GB; lightweight CI/test workloads", 20.0,
     homog_short_job},
    {"hetero_mix", "Heterogeneous Mix",
     "Gamma(1.5, 300) runtimes with varied resources; realistic production mix", 35.0,
     hetero_mix_job},
    {"long_job", "Long-Job Dominant",
     "20% extremely long jobs (50,000s, 128 nodes) among short jobs (500s, 2 nodes); "
     "tests convoy-effect handling",
     90.0, long_job_job},
    {"high_parallel", "High Parallelism",
     "large parallel jobs (64-256 nodes, Gamma walltime); tightly-coupled simulations", 150.0,
     high_parallel_job},
    {"resource_sparse", "Resource Sparse",
     "lightweight jobs (1 node, <8 GB, 30-300s); sparse workload efficiency", 15.0,
     resource_sparse_job},
    {"bursty_idle", "Bursty + Idle",
     "alternating bursts of short and long jobs with modest demands; responsiveness "
     "under uneven durations",
     45.0, bursty_idle_job, bursty_idle_arrivals},
    {"adversarial", "Adversarial",
     "one blocking job (128 nodes, 100,000s) submitted first, then many small jobs "
     "(1 node, 60s); on the default 256-node cluster the blocker starts on an empty "
     "cluster and no job ever waits",
     5.0, adversarial_job, nullptr, adversarial_blocker},
};

/// Generate `n` jobs (ids 1..n, arrival-sorted) of one paper scenario.
/// Deterministic in (n, seed, options); every job fits options.cluster.
std::vector<sim::Job> generate_paper_jobs(const PaperScenario& scenario, std::size_t n,
                                          std::uint64_t seed, const GenerateOptions& options) {
  if (options.walltime_factor_min > options.walltime_factor_max ||
      options.walltime_factor_min < 1.0) {
    throw std::invalid_argument("GenerateOptions: walltime factors need 1 <= min <= max");
  }
  util::Rng rng(util::derive_seed(seed, scenario.label));
  // Walltime noise draws from its own derived stream so the base workload
  // (resources, durations, users, arrivals) is bit-identical across noise
  // settings - estimate-noise experiments stay paired.
  util::Rng noise_rng(util::derive_seed(seed, scenario.label, /*index=*/0x57a11));
  // Cluster caps hoisted out of the per-job loop: the fit guarantee (every
  // job schedulable in principle) clamps against these two constants, and
  // transform operators must preserve it - generate_scenario() re-asserts
  // the same bounds after every pipeline stage.
  const int max_nodes = options.cluster.total_nodes;
  const double max_memory_gb = options.cluster.total_memory_gb;
  const bool noisy_walltime = options.walltime_factor_max > 1.0;
  std::vector<sim::Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::Job job = scenario.make_job(static_cast<sim::JobId>(i + 1), rng);
    job.id = static_cast<sim::JobId>(i + 1);
    job.nodes = std::clamp(job.nodes, 1, max_nodes);
    job.memory_gb = std::clamp(job.memory_gb, 0.5, max_memory_gb);
    job.duration = std::max(1.0, job.duration);
    if (job.walltime <= 0.0) job.walltime = job.duration;
    if (noisy_walltime) {
      job.walltime = job.duration * noise_rng.uniform_real(options.walltime_factor_min,
                                                           options.walltime_factor_max);
    }
    jobs.push_back(job);
  }
  assign_users(jobs, rng);
  if (options.arrival_mode == ArrivalMode::kStatic) {
    assign_static_arrivals(jobs);
  } else if (scenario.assign_arrivals != nullptr) {
    scenario.assign_arrivals(jobs, rng);
  } else {
    assign_poisson_arrivals(jobs, scenario.mean_interarrival_s, rng);
  }
  if (scenario.post_process != nullptr) scenario.post_process(jobs);
  // total-order: arrival_order breaks submit-time ties by unique JobId.
  std::sort(jobs.begin(), jobs.end(), sim::arrival_order);
  return jobs;
}

/// The builder registered for each paper scenario. The two common
/// parameters compose on top without disturbing the base draws
/// (walltime_noise maps onto GenerateOptions' paired noise stream,
/// rate_scale rescales submit times after generation).
std::vector<sim::Job> generate_paper_scenario(const PaperScenario& scenario,
                                              const ScenarioStage& stage, std::size_t n,
                                              std::uint64_t seed,
                                              const GenerateOptions& options_in) {
  const StageParamReader params(stage);
  GenerateOptions options = options_in;
  const auto [noise_min, noise_max] =
      params.get_range("walltime_noise", options.walltime_factor_min,
                       options.walltime_factor_max, 1.0);
  options.walltime_factor_min = noise_min;
  options.walltime_factor_max = noise_max;
  auto jobs = generate_paper_jobs(scenario, n, seed, options);

  const double rate_scale = params.get_double("rate_scale", 1.0, 1e-6, 1e6);
  if (rate_scale != 1.0) {
    for (auto& job : jobs) job.submit_time /= rate_scale;
  }
  return jobs;
}

/// Truncate to the first `n` jobs in arrival order, drop dependency edges
/// that point outside the kept set, and renumber ids 1..m (trace bases and
/// the crop transform share these semantics).
void truncate_and_renumber(std::vector<sim::Job>& jobs, std::size_t n) {
  if (n > 0 && jobs.size() > n) jobs.resize(n);
  std::set<sim::JobId> kept;
  std::map<sim::JobId, sim::JobId> renumber;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    kept.insert(jobs[i].id);
    renumber[jobs[i].id] = static_cast<sim::JobId>(i + 1);
  }
  for (auto& job : jobs) {
    std::vector<sim::JobId> deps;
    for (const auto dep : job.dependencies) {
      if (kept.count(dep) != 0) deps.push_back(renumber.at(dep));
    }
    job.dependencies = std::move(deps);
    job.id = renumber.at(job.id);
  }
}

/// Clamp demands to the (effective) cluster so trace-backed bases satisfy
/// the same fit guarantee as the synthetic generators. Raise the capacity
/// with `|cluster?nodes=...&memory_gb=...` to replay a trace unclamped.
void clamp_to_cluster(std::vector<sim::Job>& jobs, const sim::ClusterSpec& cluster) {
  for (auto& job : jobs) {
    job.nodes = std::clamp(job.nodes, 1, cluster.total_nodes);
    job.memory_gb = std::min(job.memory_gb, cluster.total_memory_gb);
  }
}

void register_paper_scenarios(ScenarioRegistry& registry) {
  for (const PaperScenario& scenario : kPaperScenarios) {
    registry.add(
        {.name = scenario.name,
         .display_label = scenario.label,
         .doc = scenario.doc,
         .params = generator_params(),
         .generate = [&scenario](const ScenarioStage& stage, std::size_t n, std::uint64_t seed,
                                 const GenerateOptions& options) {
           return generate_paper_scenario(scenario, stage, n, seed, options);
         }});
  }
}

void register_trace_scenarios(ScenarioRegistry& registry) {
  registry.add(
      {.name = "swf",
       .display_label = "SWF trace",
       .doc = "Replay a Standard Workload Format file (Parallel Workloads Archive).",
       .params = {{"path", "string", "(required)", "SWF file to load."},
                  {"completed_only", "bool", "true",
                   "Keep only completed jobs (SWF status 1), like the paper's "
                   "preprocessing."},
                  {"max_jobs", "int", "0",
                   "Cap on accepted jobs; 0 defers to the grid's n_jobs axis."},
                  {"memory_gb_per_node", "double", "4",
                   "Memory per node when the trace reports none."},
                  {"horizon", "time", "0",
                   "Keep only jobs submitted before this offset (30d, 12h, 3600); 0 = all."}},
       .generate = [](const ScenarioStage& stage, std::size_t n, std::uint64_t /*seed*/,
                      const GenerateOptions& options) {
         const StageParamReader params(stage);
         SwfOptions swf_options;
         swf_options.completed_only = params.get_bool("completed_only", true);
         swf_options.default_memory_gb_per_node =
             params.get_double("memory_gb_per_node", 4.0, 0.0, 1e9);
         swf_options.max_nodes = options.cluster.total_nodes;
         auto jobs = load_swf(params.require_string("path"), swf_options);
         const double horizon = params.get_duration("horizon", 0.0);
         if (horizon > 0.0) {
           jobs.erase(std::remove_if(jobs.begin(), jobs.end(),
                                     [&](const sim::Job& j) { return j.submit_time >= horizon; }),
                      jobs.end());
         }
         const auto cap = static_cast<std::size_t>(params.get_int("max_jobs", 0, 0, 1 << 30));
         truncate_and_renumber(jobs, cap > 0 ? cap : n);
         clamp_to_cluster(jobs, options.cluster);
         return jobs;
       }});

  registry.add(
      {.name = "trace",
       .display_label = "CSV trace",
       .doc = "Replay a workload saved with workload::save_jobs (internal CSV format).",
       .params = {{"path", "string", "(required)", "Jobs CSV to load."},
                  {"max_jobs", "int", "0",
                   "Cap on replayed jobs; 0 defers to the grid's n_jobs axis."}},
       .generate = [](const ScenarioStage& stage, std::size_t n, std::uint64_t /*seed*/,
                      const GenerateOptions& options) {
         const StageParamReader params(stage);
         auto jobs = load_jobs(params.require_string("path"));
         // total-order: arrival_order breaks submit-time ties by unique JobId.
         std::sort(jobs.begin(), jobs.end(), sim::arrival_order);
         const auto cap = static_cast<std::size_t>(params.get_int("max_jobs", 0, 0, 1 << 30));
         truncate_and_renumber(jobs, cap > 0 ? cap : n);
         clamp_to_cluster(jobs, options.cluster);
         return jobs;
       }});

  registry.add(
      {.name = "polaris",
       .display_label = "Polaris",
       .doc = "Polaris-like raw trace substitute + the paper's Section 5 preprocessing.",
       .params = {{"interarrival", "double", "180",
                   "Busy-period mean interarrival of the raw submission process, seconds."}},
       .generate = [](const ScenarioStage& stage, std::size_t n, std::uint64_t seed,
                      const GenerateOptions& options) {
         const StageParamReader params(stage);
         PolarisTraceConfig config;
         config.mean_interarrival_s = params.get_double("interarrival", 180.0, 1e-3, 1e9);
         config.n_jobs = n + n / 2 + 20;  // post-filter count reaches n
         const auto raw = generate_polaris_raw_trace(config, seed);
         auto jobs = preprocess_polaris_trace(raw, n);
         clamp_to_cluster(jobs, options.cluster);
         return jobs;
       }});
}

void register_transforms(ScenarioRegistry& registry) {
  registry.add_transform(
      {.name = "perturb",
       .doc = "Re-draw walltime estimates: walltime = runtime x U(MIN:MAX).",
       .params = {{"walltime_noise", "range", "1:1",
                   "Estimate over-request factor range; 1:1 resets estimates to exact."}},
       .apply = [](std::vector<sim::Job>& jobs, const ScenarioStage& stage, util::Rng& rng,
                   GenerateOptions&) {
         const StageParamReader params(stage);
         const auto [lo, hi] = params.get_range("walltime_noise", 1.0, 1.0, 1.0);
         for (auto& job : jobs) {
           job.walltime = job.duration * (hi > lo ? rng.uniform_real(lo, hi) : lo);
         }
       }});

  registry.add_transform(
      {.name = "stretch",
       .doc = "Rescale offered load: submit times divide by `load`, then shift.",
       .params = {{"load", "double", "1",
                   "Load multiplier (>1 compresses arrivals, raising contention)."},
                  {"shift", "time", "0", "Constant added to every submit time (30m, 3600)."}},
       .apply = [](std::vector<sim::Job>& jobs, const ScenarioStage& stage, util::Rng&,
                   GenerateOptions&) {
         const StageParamReader params(stage);
         const double load = params.get_double("load", 1.0, 1e-6, 1e6);
         const double shift = params.get_duration("shift", 0.0);
         for (auto& job : jobs) job.submit_time = job.submit_time / load + shift;
       }});

  registry.add_transform(
      {.name = "dag",
       .doc = "Inject layered workflow dependencies over the arrival order.",
       .params = {{"depth", "int", "2", "Number of dependency layers (arrival-contiguous)."},
                  {"fanout", "int", "2", "Max dependencies drawn from the previous layer."},
                  {"prob", "double", "1",
                   "Probability a non-first-layer job gets dependencies at all."}},
       .apply = [](std::vector<sim::Job>& jobs, const ScenarioStage& stage, util::Rng& rng,
                   GenerateOptions&) {
         const StageParamReader params(stage);
         const auto depth = static_cast<std::size_t>(params.get_int("depth", 2, 2, 1 << 20));
         const auto fanout = static_cast<std::size_t>(params.get_int("fanout", 2, 1, 1 << 20));
         const double prob = params.get_double("prob", 1.0, 0.0, 1.0);
         const std::size_t n = jobs.size();
         const std::size_t layers = std::min(depth, n);
         if (layers < 2) return;
         // Layer l spans [l*n/layers, (l+1)*n/layers) of the arrival order,
         // so every dependency points at an earlier arrival.
         for (std::size_t l = 1; l < layers; ++l) {
           const std::size_t prev_begin = (l - 1) * n / layers;
           const std::size_t prev_end = l * n / layers;
           const std::size_t end = (l + 1) * n / layers;
           for (std::size_t i = l * n / layers; i < end; ++i) {
             if (prob < 1.0 && !rng.bernoulli(prob)) continue;
             std::set<sim::JobId> deps(jobs[i].dependencies.begin(),
                                       jobs[i].dependencies.end());
             for (std::size_t k = 0; k < fanout; ++k) {
               const auto pick = static_cast<std::size_t>(
                   rng.uniform_int(static_cast<std::int64_t>(prev_begin),
                                   static_cast<std::int64_t>(prev_end) - 1));
               deps.insert(jobs[pick].id);
             }
             jobs[i].dependencies.assign(deps.begin(), deps.end());
           }
         }
       }});

  registry.add_transform(
      {.name = "crop",
       .doc = "Keep the submit-time window [offset, offset+horizon), renumber ids.",
       .params = {{"horizon", "time", "0", "Window length (30d, 12h, 3600); 0 = unbounded."},
                  {"offset", "time", "0", "Window start; submit times shift down by this."}},
       .apply = [](std::vector<sim::Job>& jobs, const ScenarioStage& stage, util::Rng&,
                   GenerateOptions&) {
         const StageParamReader params(stage);
         const double horizon = params.get_duration("horizon", 0.0);
         const double offset = params.get_duration("offset", 0.0);
         jobs.erase(std::remove_if(jobs.begin(), jobs.end(),
                                   [&](const sim::Job& j) {
                                     return j.submit_time < offset ||
                                            (horizon > 0.0 &&
                                             j.submit_time >= offset + horizon);
                                   }),
                    jobs.end());
         for (auto& job : jobs) job.submit_time -= offset;
         truncate_and_renumber(jobs, 0);
       }});

  registry.add_transform(
      {.name = "cluster",
       .doc = "Override the cell's cluster capacity (applies to engine + generation).",
       .params = {{"nodes", "int", "0", "Total nodes; 0 keeps the configured value."},
                  {"memory_gb", "double", "0", "Total memory; 0 keeps the configured value."}},
       .apply = [](std::vector<sim::Job>& jobs, const ScenarioStage&, util::Rng&,
                   GenerateOptions& options) {
         // The capacity override itself is hoisted ahead of generation
         // (effective_cluster); at pipeline position the stage only
         // re-clamps, which keeps the fit guarantee even for hand-built
         // pipelines that shrink capacity mid-stream.
         clamp_to_cluster(jobs, options.cluster);
       }});
}

}  // namespace

const std::vector<ScenarioSpec>& paper_scenario_specs() {
  static const std::vector<ScenarioSpec> v = [] {
    std::vector<ScenarioSpec> specs;
    for (const PaperScenario& scenario : kPaperScenarios) specs.push_back(scenario.name);
    return specs;
  }();
  return v;
}

const std::vector<std::size_t>& paper_job_counts() {
  static const std::vector<std::size_t> v = {10, 20, 40, 60, 80, 100};
  return v;
}

void register_scenarios(ScenarioRegistry& registry) {
  register_paper_scenarios(registry);
  register_trace_scenarios(registry);
  register_transforms(registry);
}

}  // namespace reasched::workload
