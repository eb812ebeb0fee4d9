#include "bench_util.hpp"

#include <cstdio>

#include "common/thread_pool.hpp"

namespace gred::bench {

topology::EdgeNetwork network(const eval::ScenarioOptions& scenario) {
  auto net = eval::build_network(scenario);
  if (!net.ok()) {
    std::fprintf(stderr, "topology generation failed: %s\n",
                 net.error().to_string().c_str());
    std::abort();
  }
  return std::move(net).value();
}

core::VirtualSpaceOptions gred_options(std::size_t cvt_iterations) {
  core::VirtualSpaceOptions opt;
  opt.cvt_iterations = cvt_iterations;
  opt.cvt_samples = 1000;  // the paper's sampling density
  return opt;
}

core::VirtualSpaceOptions nocvt_options() {
  core::VirtualSpaceOptions opt;
  opt.cvt_iterations = 0;
  return opt;
}

void parallel_trials(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  global_pool().parallel_for(0, count, 1,
                             [&](std::size_t lo, std::size_t hi) {
                               for (std::size_t i = lo; i < hi; ++i) fn(i);
                             });
}

void write_json(const std::string& path,
                const std::vector<std::pair<std::string, double>>& fields) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.6g%s\n", fields[i].first.c_str(),
                 fields[i].second, i + 1 < fields.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

std::string mean_ci_cell(const Summary& s, int precision) {
  return Table::fmt(s.mean, precision) + " +/- " +
         Table::fmt(s.ci90, precision);
}

void print_header(const std::string& fig, const std::string& what,
                  const std::string& paper_expectation) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", fig.c_str(), what.c_str());
  std::printf("Paper expectation: %s\n", paper_expectation.c_str());
  std::printf("==============================================================\n");
}

}  // namespace gred::bench
