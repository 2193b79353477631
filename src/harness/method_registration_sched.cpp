#include "harness/method_registration.hpp"

#include "harness/method_spec.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "sched/sjf.hpp"

namespace reasched::sched {

void register_methods(harness::MethodRegistry& registry) {
  registry.add({.name = "fcfs",
                .display_label = "FCFS",
                .doc = "First-come-first-served baseline (paper Section 3.4).",
                .params = {},
                .build = [](const harness::MethodSpec&, std::uint64_t) {
                  return std::make_unique<FcfsScheduler>();
                }});
  registry.add({.name = "sjf",
                .display_label = "SJF",
                .doc = "Shortest-job-first by walltime estimate (paper Section 3.4).",
                .params = {},
                .build = [](const harness::MethodSpec&, std::uint64_t) {
                  return std::make_unique<SjfScheduler>();
                }});
  registry.add({.name = "easy",
                .display_label = "EASY-Backfill",
                .doc = "EASY backfilling extension: FCFS head reservation + shadow-safe "
                       "backfill.",
                .params = {},
                .build = [](const harness::MethodSpec&, std::uint64_t) {
                  return std::make_unique<EasyBackfillScheduler>();
                }});
}

}  // namespace reasched::sched
