// The benchmark's own tests: the percentile rule, span self-time
// arithmetic, generator determinism per seed, the peak-RSS readers and the
// result line. Run with `ctest --test-dir <build>` (perfbench/README.md).
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::cerr << __FILE__ << ':' << __LINE__ << ": CHECK(" #cond     \
                << ") failed\n";                                       \
    }                                                                  \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  using perfbench::quantile;
  using perfbench::tail_percentile;
  CHECK(quantile({3.0, 1.0, 2.0}, 0.5) == 2.0);
  CHECK(quantile({}, 0.5) == 0.0);
  CHECK(quantile(one_to(10), 1.0) == 10.0);

  // 1000 samples: p99.9 leaves 1 beyond it, p99 exactly 10.
  const auto thousand = tail_percentile(one_to(1000));
  CHECK(thousand.supported);
  CHECK(thousand.percentile == 99.0);
  CHECK(thousand.value == 990.0);
  CHECK(thousand.beyond == 10);
  CHECK(thousand.samples == 1000);

  // 100 samples: p99 and p95 leave 1 and 5; p90 is the highest with 10.
  const auto hundred = tail_percentile(one_to(100));
  CHECK(hundred.percentile == 90.0);
  CHECK(hundred.value == 90.0);
  CHECK(hundred.beyond == 10);

  // 15 samples: even p50 leaves only 7 beyond it.
  const auto few = tail_percentile(one_to(15));
  CHECK(!few.supported);
  CHECK(few.percentile == 50.0);
  CHECK(few.beyond == 7);
}

void span_self_time() {
  using perfbench::Span;
  // root [0,10] with overlapping children [1,3] and [2,5], a child that
  // runs past the root [8,12], and a grandchild [1.5,2.5] under [1,3].
  const std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 1}, {"a", 1.0, 3.0, 0, 1},
      {"b", 2.0, 5.0, 0, 1},      {"c", 8.0, 12.0, 0, 1},
      {"d", 1.5, 2.5, 1, 1},      {"other", 0.0, 1.0, -1, 2},
  };
  const std::vector<double> self = perfbench::self_times(spans);
  CHECK(self[0] == 4.0);  // 10 - |[1,5] u [8,10]|
  CHECK(self[1] == 1.0);  // 2 - 1 (its grandchild counts only here)
  CHECK(self[2] == 3.0);
  CHECK(self[3] == 4.0);
  CHECK(self[4] == 1.0);
  CHECK(self[5] == 1.0);

  perfbench::SpanRecorder recorder;
  const auto root = recorder.add("x", -1, 0, 0.0, 2.0);
  recorder.add("y", root, 0, 0.5, 1.0);
  recorder.add("y", root, 0, 0.75, 1.5);
  CHECK(recorder.self_ms("x") == 1000.0);
  CHECK(recorder.self_ms("y") == 1250.0);
  CHECK(recorder.durations_ms("y").size() == 2);
}

void generators_are_deterministic() {
  const auto frames_a = perfbench::make_serve_frames(7, 400);
  const auto frames_b = perfbench::make_serve_frames(7, 400);
  const auto frames_c = perfbench::make_serve_frames(8, 400);
  bool same = frames_a.size() == frames_b.size();
  bool differs = false;
  std::size_t tiny = 0, cyclic = 0, repeats = 0;
  for (std::size_t i = 0; same && i < frames_a.size(); ++i) {
    same = frames_a[i].body == frames_b[i].body &&
           frames_a[i].source == frames_b[i].source;
    differs = differs || frames_a[i].body != frames_c[i].body;
    tiny += frames_a[i].tiny && frames_a[i].source == i;
    cyclic += frames_a[i].cyclic && frames_a[i].source == i;
    repeats += frames_a[i].source != i;
  }
  CHECK(same);
  CHECK(differs);
  CHECK(tiny == 100);                      // 25 %
  CHECK(cyclic == 20);                     // 5 %
  CHECK(repeats >= 60 && repeats <= 80);   // 20 %, minus the head
  CHECK(perfbench::frame_text(frames_a[3], 3).rfind("{\"id\":\"f3\",", 0) ==
        0);

  const auto graphs_a = perfbench::make_solve_graphs(7);
  const auto graphs_b = perfbench::make_solve_graphs(7);
  CHECK(graphs_a.size() == 30);
  for (std::size_t i = 0; i < graphs_a.size() && i < graphs_b.size(); ++i) {
    CHECK(graphs_a[i].label == graphs_b[i].label);
    CHECK(graphs_a[i].graph.edges() == graphs_b[i].graph.edges());
  }
  CHECK(graphs_a.back().graph.num_vertices() > 3000);

  const auto sessions_a = perfbench::make_edit_sessions(7, 20);
  const auto sessions_b = perfbench::make_edit_sessions(7, 20);
  const auto sessions_c = perfbench::make_edit_sessions(8, 20);
  CHECK(sessions_a.size() == 36);
  for (std::size_t i = 0; i < sessions_a.size(); ++i) {
    CHECK(sessions_a[i].base.edges() == sessions_b[i].base.edges());
    CHECK(sessions_a[i].script == sessions_b[i].script);
    CHECK(sessions_a[i].script.size() == 20);
    CHECK(sessions_a[i].base.edges() != sessions_c[i].base.edges());
  }
}

void rss_readers() {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  const double before = perfbench::peak_rss_mb_self();
  std::vector<char> block(64 * kMiB);
  std::memset(block.data(), 1, block.size());
  CHECK(perfbench::peak_rss_mb_self() >= before + 60.0);

  const pid_t child = ::fork();
  if (child == 0) {
    std::vector<char> child_block(96 * kMiB);
    std::memset(child_block.data(), 1, child_block.size());
    ::_exit(child_block[kMiB] == 1 ? 0 : 1);
  }
  struct rusage usage {};
  int status = 0;
  CHECK(child > 0 && ::wait4(child, &status, 0, &usage) == child);
  CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  CHECK(perfbench::peak_rss_mb(usage) >= 96.0);
}

void result_line() {
  perfbench::Result result;
  result.attempted = 3;
  result.add("latency_p50_ms", 1.25, "ms");
  CHECK(result.correct());
  CHECK(result.json() ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
        "{\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
  result.mismatch("expected by the selftest");
  CHECK(!result.correct());
  CHECK(result.failed == 1);

  perfbench::Result traced;
  traced.add("core.stretch.ms", 0.5, "ms");
  traced.add("not_a_layer", 1.0, "ms");
  perfbench::complete_layer_metrics(traced);
  CHECK(traced.metrics.size() == perfbench::layer_metrics().size());
  for (std::size_t i = 0; i < traced.metrics.size(); ++i) {
    CHECK(traced.metrics[i].name == perfbench::layer_metrics()[i].name);
  }
}

}  // namespace

int main() {
  percentile_rule();
  span_self_time();
  generators_are_deterministic();
  rss_readers();
  result_line();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench selftest: all checks passed\n";
  return 0;
}
