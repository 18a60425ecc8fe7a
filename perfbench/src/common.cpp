#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

namespace {

// Shortest round-trip form of a double, so every digit measured survives
// into the result line.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc{} ? std::string(buffer, end) : std::string("0");
}

constexpr LayerMetric kLayerMetrics[] = {
    {"server.protocol.parse_us", "us"},
    {"server.protocol.render_us", "us"},
    {"server.protocol.bytes_in", "B"},
    {"server.protocol.bytes_out", "B"},
    {"server.session.residual_ms_p50", "ms"},
    {"server.session.residual_ms_p99", "ms"},
    {"server.session.dedup_hit_ratio", "ratio"},
    {"core.request.validate_us", "us"},
    {"graph.csr.freeze_us", "us"},
    {"graph.csr.fingerprint_us", "us"},
    {"graph.cycle_removal.resolve_ms", "ms"},
    {"graph.cycle_removal.reversed_edges", "count"},
    {"core.colony.solve_ms", "ms"},
    {"baselines.longest_path.ms", "ms"},
    {"core.stretch.ms", "ms"},
    {"core.colony.init_objective_ms", "ms"},
    {"graph.csr.freeze_ms", "ms"},
    {"core.ant.walk_ms", "ms"},
    {"core.ant.walk_ms_p50", "ms"},
    {"core.ant.walks", "count"},
    {"core.ant.moves_per_visit", "ratio"},
    {"core.pheromone.reset_ms", "ms"},
    {"core.pheromone.update_ms", "ms"},
    {"core.pheromone.bytes", "B"},
    {"graph.delta.apply_ms", "ms"},
    {"graph.csr.refreeze_ms", "ms"},
    {"graph.csr.refreeze_widths_only", "count"},
    {"graph.csr.refreeze_patched", "count"},
    {"graph.csr.refreeze_full", "count"},
    {"core.incremental.update_ms_p50", "ms"},
    {"core.incremental.update_ms_p99", "ms"},
    {"core.incremental.tours_run_ratio", "ratio"},
    {"core.incremental.objective_ratio", "ratio"},
    {"tracing.overhead_ratio", "ratio"},
};

}  // namespace

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Result::mismatch(const std::string& why) {
  ++mismatches;
  ++failed;
  if (mismatches <= 10) std::cerr << "perfbench: MISMATCH: " << why << '\n';
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"' + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

Tail tail_percentile(const std::vector<double>& samples,
                     std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  Tail tail;
  tail.samples = samples.size();
  const auto n = static_cast<double>(samples.size());
  for (const double p : kLadder) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const std::size_t beyond = samples.size() - std::min(rank, samples.size());
    tail.percentile = p;
    tail.beyond = beyond;
    if (beyond >= min_beyond) {
      tail.supported = true;
      break;
    }
  }
  tail.value = quantile(samples, tail.percentile / 100.0);
  return tail;
}

std::string describe_latency(const std::string& label,
                             const std::vector<double>& samples_ms) {
  const Tail tail = tail_percentile(samples_ms);
  std::ostringstream os;
  os << label << ": latency p50 = " << quantile(samples_ms, 0.5)
     << " ms over " << samples_ms.size() << " samples; ";
  if (tail.supported) {
    os << "tail p" << tail.percentile << " = " << tail.value << " ms ("
       << tail.beyond << " samples beyond it)";
  } else {
    os << "too few samples for a tail percentile (" << tail.beyond
       << " beyond p50)";
  }
  return os.str();
}

std::vector<double> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    covered.clear();
    for (const std::size_t c : children[i]) {
      const double lo = std::max(spans[c].start, s.start);
      const double hi = std::min(spans[c].end, s.end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_length = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_length += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_length += run_hi - run_lo;
    self[i] = (s.end - s.start) - union_length;
  }
  return self;
}

std::int32_t SpanRecorder::open(const char* name, std::int32_t parent,
                                std::uint64_t request) {
  const double t = now();
  return add(name, parent, request, t, t);
}

std::int32_t SpanRecorder::add(const char* name, std::int32_t parent,
                               std::uint64_t request, double start,
                               double end) {
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

double SpanRecorder::self_ms(std::string_view name) const {
  const std::vector<double> self = self_times(spans_);
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) total += self[i];
  }
  return total * 1e3;
}

std::vector<double> SpanRecorder::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end - s.start) * 1e3);
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"start_s\":" << number(s.start) << ",\"end_s\":"
        << number(s.end) << ",\"self_s\":" << number(self[i]) << "}\n";
  }
  return static_cast<bool>(out);
}

double peak_rss_mb(const struct rusage& usage) {
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double peak_rss_mb_self() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return peak_rss_mb(usage);
}

std::span<const LayerMetric> layer_metrics() { return kLayerMetrics; }

void complete_layer_metrics(Result& result) {
  std::vector<Metric> ordered;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = std::find_if(
        result.metrics.begin(), result.metrics.end(),
        [&](const Metric& have) { return have.name == m.name; });
    ordered.push_back(it != result.metrics.end()
                          ? *it
                          : Metric{m.name, 0.0, m.unit});
  }
  result.metrics = std::move(ordered);
}

}  // namespace perfbench
