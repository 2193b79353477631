#include "workload/swf.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace reasched::workload {

namespace {

struct SwfRecord {
  double submit = 0, run = 0, requested_time = 0;
  int allocated = -1, requested = -1;
  double requested_memory_kb = -1;
  int status = 1, user = -1, group = -1;
};

bool parse_swf_line(const std::string& line, SwfRecord& rec) {
  std::istringstream is(line);
  std::vector<double> f;
  double v;
  while (is >> v) f.push_back(v);
  if (f.empty()) return false;  // blank line
  if (f.size() < 13) {
    throw std::runtime_error("SWF: line has fewer than 13 fields: " + line);
  }
  rec.submit = f[1];
  rec.run = f[3];
  rec.allocated = static_cast<int>(f[4]);
  rec.requested = static_cast<int>(f[7]);
  rec.requested_time = f[8];
  rec.requested_memory_kb = f[9];
  rec.status = static_cast<int>(f[10]);
  rec.user = static_cast<int>(f[11]);
  rec.group = static_cast<int>(f[12]);
  return true;
}

}  // namespace

std::vector<sim::Job> parse_swf(std::string_view text, const SwfOptions& options) {
  std::vector<SwfRecord> records;
  for (const auto& raw_line : util::split_lines(text)) {
    const std::string line = util::trim(raw_line);
    if (line.empty() || line[0] == ';') continue;  // header/comment
    SwfRecord rec;
    if (!parse_swf_line(line, rec)) continue;
    if (options.completed_only && rec.status != 1) continue;
    if (rec.run <= 0) continue;  // zero-length or cancelled
    records.push_back(rec);
  }
  // Same-second submissions are ubiquitous in real traces and `submit` is the
  // only key, so a non-stable sort would give them implementation-defined
  // order - and therefore implementation-defined JobIds. stable_sort keeps
  // ties in file order, which the archive documents as submission order.
  std::stable_sort(records.begin(), records.end(),
                   [](const SwfRecord& a, const SwfRecord& b) { return a.submit < b.submit; });
  if (records.empty()) return {};

  const double t0 = records.front().submit;
  std::map<int, int> users, groups;
  std::vector<sim::Job> jobs;
  jobs.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& rec = records[i];
    sim::Job j;
    j.id = static_cast<sim::JobId>(i + 1);
    j.submit_time = rec.submit - t0;
    j.duration = rec.run;
    j.walltime = rec.requested_time > 0 ? std::max(rec.requested_time, rec.run) : rec.run;
    int nodes = rec.requested > 0 ? rec.requested : rec.allocated;
    if (nodes <= 0) nodes = 1;
    if (options.max_nodes > 0) nodes = std::min(nodes, options.max_nodes);
    j.nodes = nodes;
    if (rec.requested_memory_kb > 0) {
      // SWF memory is KB per processor.
      j.memory_gb = rec.requested_memory_kb * nodes / (1024.0 * 1024.0);
    } else {
      j.memory_gb = options.default_memory_gb_per_node * nodes;
    }
    j.memory_gb = std::max(0.5, j.memory_gb);
    j.user = users.emplace(rec.user, static_cast<int>(users.size()) + 1).first->second;
    j.group = groups.emplace(rec.group, static_cast<int>(groups.size()) + 1).first->second;
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::vector<sim::Job> load_swf(const std::string& path, const SwfOptions& options) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("load_swf: cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse_swf(ss.str(), options);
}

std::string jobs_to_swf(const std::vector<sim::Job>& jobs) {
  std::ostringstream os;
  os << "; SWF export from reasched (fields per the Parallel Workloads Archive)\n";
  for (const auto& j : jobs) {
    // 1 job, 2 submit, 3 wait(-1), 4 run, 5 alloc procs, 6 cpu(-1), 7 mem
    // used(-1), 8 req procs, 9 req time, 10 req mem [KB/proc], 11 status,
    // 12 user, 13 group, 14..18 -1.
    const double mem_kb_per_proc = j.memory_gb * 1024.0 * 1024.0 / std::max(1, j.nodes);
    os << util::format("%d %.0f -1 %.0f %d -1 -1 %d %.0f %.0f 1 %d %d -1 -1 -1 -1 -1\n",
                       j.id, j.submit_time, j.duration, j.nodes, j.nodes, j.walltime,
                       mem_kb_per_proc, j.user, j.group);
  }
  return os.str();
}

void save_swf(const std::vector<sim::Job>& jobs, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("save_swf: cannot open " + path);
  f << jobs_to_swf(jobs);
}

}  // namespace reasched::workload
