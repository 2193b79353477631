// Ablation: solver portfolio for the OR-Tools substitute. This bench
// compares the portfolio's solvers (local search, simulated annealing and
// exact branch & bound where tractable) on identical instances and budgets,
// justifying the SA+LS portfolio the OptimizingScheduler ships with.
//
// Expected: SA beats local search by a few percent on the larger instances;
// B&B certifies the optimum on small instances and validates the gap.
//
// "cutoff%" attributes the incremental-evaluation speedup: the fraction of
// candidate evaluations the admissible bound aborted early (it changes no
// solver decision - tests/test_opt_incremental_golden.cpp proves
// bit-identity against the naive full-decode pipeline).

#include <cstdio>

#include "bench_common.hpp"
#include "opt/branch_and_bound.hpp"
#include "opt/list_scheduler.hpp"
#include "opt/local_search.hpp"
#include "opt/simulated_annealing.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

int main() {
  bench::print_header("Ablation - optimization solvers (Heterogeneous Mix, makespan)",
                      "identical instances, ~comparable evaluation budgets");

  util::TextTable table({"Jobs", "Solver", "Makespan", "vs best", "Evals", "Cutoff%"});
  util::CsvTable csv(
      {"n_jobs", "solver", "score", "ratio_vs_best", "evaluations", "cutoff_hit_rate"});

  for (const std::size_t n : {8u, 30u, 60u}) {
    opt::Problem p;
    p.total_nodes = 256;
    p.total_memory_gb = 2048;
    workload::GenerateOptions static_arrivals;
    static_arrivals.arrival_mode = workload::ArrivalMode::kStatic;
    p.jobs = workload::generate_scenario("hetero_mix", n, 1618, static_arrivals);
    const opt::ObjectiveWeights w;
    const auto seed_order = opt::order_by_arrival(p);
    const double seed_score = opt::evaluate(opt::decode_order(p, seed_order), w);

    struct Row {
      std::string name;
      double score;
      std::size_t evals;
      double cutoff_rate = 0.0;  ///< aborted fraction of evaluator calls
    };
    std::vector<Row> rows;
    rows.push_back({"arrival seed", seed_score, 1});

    const auto cutoff_rate = [](const opt::EvalStats& s) {
      return s.evaluations == 0
                 ? 0.0
                 : static_cast<double>(s.cutoff_hits) / static_cast<double>(s.evaluations);
    };
    {
      const auto r = opt::local_search(p, seed_order, w, 3000);
      rows.push_back({"local search", r.score, r.evaluations, cutoff_rate(r.eval)});
    }
    {
      util::Rng rng(1);
      opt::SaConfig config;
      config.iterations = 4000;
      const auto r = opt::simulated_annealing(p, seed_order, w, config, rng);
      rows.push_back({"simulated annealing", r.score, r.evaluations, cutoff_rate(r.eval)});
    }
    if (n <= 9) {
      const auto r = opt::branch_and_bound(p, w);
      rows.push_back({r.proven_optimal ? "branch&bound (optimal)" : "branch&bound (capped)",
                      r.score, r.explored,
                      r.explored == 0 ? 0.0
                                      : static_cast<double>(r.pruned) /
                                            static_cast<double>(r.explored)});
    }

    double best = rows.front().score;
    for (const auto& r : rows) best = std::min(best, r.score);
    for (const auto& r : rows) {
      table.add_row({std::to_string(n), r.name, util::TextTable::num(r.score, 1),
                     util::TextTable::ratio(r.score / best), std::to_string(r.evals),
                     util::format("%.1f%%", 100.0 * r.cutoff_rate)});
      csv.add_row({std::to_string(n), r.name, util::format("%.3f", r.score),
                   util::format("%.4f", r.score / best), std::to_string(r.evals),
                   util::format("%.4f", r.cutoff_rate)});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());
  csv.save(bench::results_path("ablation_solvers.csv"));
  std::printf("CSV written to %s\n", bench::results_path("ablation_solvers.csv").c_str());
  return 0;
}
