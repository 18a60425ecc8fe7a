// Shared pieces of the acolay performance benchmark (perfbench/README.md):
// the result line, the percentile rule, the span recorder, peak-RSS
// readers, and the three workload entry points.
//
// The benchmark measures the unmodified program from outside: every
// per-layer number comes from timing a call into that layer's public
// function (or, on serve_mix, from the daemon's own --timing field), never
// from instrumentation inside src/.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  ///< path of the acolay_serve binary (serve_mix)
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// One named measurement of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The outcome of one run: the JSON result line plus human-readable notes
/// (sample counts, tail percentiles) printed above it.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output mismatches found by the correctness checks; each one is also
  /// counted in `failed`.
  std::uint64_t mismatches = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit);
  /// Records a correctness mismatch (and prints why on stderr).
  void mismatch(const std::string& why);
  bool correct() const { return mismatches == 0 && failed == 0; }
  /// The single-line JSON object the benchmark prints last.
  std::string json() const;
};

// --- timing ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- percentiles ------------------------------------------------------------

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> samples, double q);

double mean(std::span<const double> samples);

/// The percentile rule: the highest of a fixed ladder of percentiles
/// (99.9, 99, 95, 90, 75, 50) that leaves at least `min_beyond` samples
/// strictly above its rank, with the count that lies beyond it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
  bool supported = false;  ///< false when even p50 leaves < min_beyond
};
Tail tail_percentile(const std::vector<double>& samples,
                     std::size_t min_beyond = 10);

/// "latency p50 = ... ms (n=...), tail p99 = ... ms (... beyond)".
std::string describe_latency(const std::string& label,
                             const std::vector<double>& samples_ms);

// --- tracing -----------------------------------------------------------------

/// One traced interval. `parent` indexes the recorder's span list (-1 for a
/// root); spans of one operation share `request`.
struct Span {
  const char* name = "";
  double start = 0.0;  ///< seconds since the recorder's epoch
  double end = 0.0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
std::vector<double> self_times(std::span<const Span> spans);

/// In-memory span store, written out once when the run ends.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

  double now() const { return seconds_since(epoch_); }

  /// Opens a span starting now; close() stamps its end.
  std::int32_t open(const char* name, std::int32_t parent,
                    std::uint64_t request);
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end = now();
  }
  /// Adds an already-measured interval.
  std::int32_t add(const char* name, std::int32_t parent,
                   std::uint64_t request, double start, double end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of self times (ms) of the spans named `name`.
  double self_ms(std::string_view name) const;
  /// Durations (ms) of the spans named `name`, in record order.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Writes one JSON object per span (with its self time) to `path`.
  /// Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// --- memory ------------------------------------------------------------------

/// Peak resident set of this process so far, in MB (getrusage ru_maxrss,
/// the kernel's VmHWM).
double peak_rss_mb_self();
/// Peak resident set recorded in a reaped child's rusage, in MB.
double peak_rss_mb(const struct rusage& usage);

// --- workloads -----------------------------------------------------------------

Result run_serve_mix(const Options& options);
Result run_solve_large(const Options& options);
Result run_relayer_edit(const Options& options);

/// Every per-layer metric name, with its unit, in report order. A traced
/// run reports all of them; a layer a workload never calls reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
std::span<const LayerMetric> layer_metrics();

/// Fills every per-layer metric not already in `result` with 0.
void complete_layer_metrics(Result& result);

}  // namespace perfbench
