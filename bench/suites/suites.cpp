#include "suites/suites.hpp"

namespace acolay::bench {

std::vector<harness::Suite> all_suites() {
  std::vector<harness::Suite> suites = figure_suites();
  for (auto& suite : ablation_suites()) suites.push_back(std::move(suite));
  for (auto& suite : param_suites()) suites.push_back(std::move(suite));
  suites.push_back(corpus_stats_suite());
  suites.push_back(micro_suite());
  suites.push_back(batch_throughput_suite());
  suites.push_back(serving_latency_suite());
  suites.push_back(relayer_latency_suite());
  suites.push_back(cyclic_admission_suite());
  suites.push_back(scaling_suite());
  return suites;
}

}  // namespace acolay::bench
