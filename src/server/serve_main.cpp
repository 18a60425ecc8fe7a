// acolay_serve: the layering daemon. One event loop (server/listener.hpp)
// over one Server serves either transport:
//
//  * pipe (default): newline-delimited JSON request frames on stdin, one
//    response frame per request on stdout, in arrival order; exits 0
//    after end-of-input once every request is answered (1 if stdout fails).
//  * socket (--listen PORT / --unix PATH): many concurrent clients with
//    per-connection ordering; runs until SIGINT/SIGTERM, then prints the
//    stats line to stderr and exits 0.
//
// In both, SIGINT/SIGTERM stop reading and drain: every frame already
// read is answered under --drain-timeout before the exit.
//
// docs/SERVING.md documents the protocol and every flag below; the
// serving.cli_contract ctest case pins usage() against that document.
//
// lint:allow-file(banned-include) -- the daemon's entry point IS the
// stdio boundary; everything behind the Listener stays stream-agnostic.
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>

#include "server/listener.hpp"
#include "server/session.hpp"

namespace {

int usage(std::ostream& out, int exit_code) {
  out << "usage: acolay_serve [options]\n"
         "  --threads N       solver worker threads (0 = hardware, default)\n"
         "  --queue-depth N   pending requests before 'overloaded' "
         "(default 64)\n"
         "  --max-inflight N  concurrent colonies (0 = worker count)\n"
         "  --cache N         dedup result-cache capacity (default 64)\n"
         "  --max-incremental-sessions N\n"
         "                    live delta sessions kept, FIFO-evicted; 0\n"
         "                    disables delta frames (default 8)\n"
         "  --cycle-policy P  default handling of cyclic graphs for frames\n"
         "                    without a \"cycle_policy\" key: reject |\n"
         "                    greedy_reverse | aco_fas (default reject)\n"
         "  --timing          include wall-clock seconds in responses\n"
         "  --no-dedup        disable duplicate-request collapsing\n"
         "  --no-warm         disable warm pheromone reuse\n"
         "  --stats           print a JSON stats line (acolay.serve.stats/1)\n"
         "                    to stderr on exit\n"
         "  --listen PORT     accept TCP connections on 127.0.0.1:PORT\n"
         "                    (0 picks an ephemeral port) instead of the\n"
         "                    stdin/stdout pipe\n"
         "  --unix PATH       accept connections on a unix-domain socket\n"
         "                    at PATH instead of the stdin/stdout pipe\n"
         "  --drain-timeout S seconds granted to in-flight work after\n"
         "                    SIGINT/SIGTERM (default 5)\n"
         "  --stats-every S   print a stats line to stderr every S seconds\n"
         "                    (default: off)\n";
  return exit_code;
}

bool parse_size(std::string_view text, std::size_t& out) {
  if (text.empty()) return false;  // a missing value is not the number 0
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_seconds(std::string_view text, double& out) {
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size() &&
         std::isfinite(out) && out >= 0.0;
}

// The loop SIGINT/SIGTERM stop. A lock-free atomic pointer is
// async-signal-safe to read, and the handler may run on a solver worker.
std::atomic<acolay::server::Listener*> g_listener{nullptr};
static_assert(std::atomic<acolay::server::Listener*>::is_always_lock_free);

void on_signal(int) {
  if (auto* listener = g_listener.load()) listener->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  acolay::server::ServeOptions options;
  acolay::server::ListenerOptions listener_options;
  bool print_stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // One exit path per parse failure class, so every error names the
    // flag it belongs to: a flag at the end of argv is "missing value",
    // an unparseable operand is "bad value", a parseable-but-unusable one
    // is "out of range" — never the misleading "bad argument '--flag'".
    const auto missing_value = [&]() {
      std::cerr << "acolay_serve: missing value for '" << arg << "'\n";
      return usage(std::cerr, 2);
    };
    const auto bad_value = [&](std::string_view value) {
      std::cerr << "acolay_serve: bad value '" << value << "' for '" << arg
                << "' (expected a non-negative number)\n";
      return usage(std::cerr, 2);
    };
    const auto take_value = [&](std::string_view& value) {
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };

    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--timing") {
      options.include_timing = true;
    } else if (arg == "--no-dedup") {
      options.enable_dedup = false;
    } else if (arg == "--no-warm") {
      options.enable_warm = false;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--threads") {
      std::string_view value;
      std::size_t parsed = 0;
      if (!take_value(value)) return missing_value();
      if (!parse_size(value, parsed)) return bad_value(value);
      // BatchSolver takes its thread count as an int; an unchecked cast
      // would wrap values past INT_MAX into negative/garbage thread counts.
      if (parsed > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
        std::cerr << "acolay_serve: value '" << value << "' out of range for "
                  << "'--threads' (max " << std::numeric_limits<int>::max()
                  << ")\n";
        return usage(std::cerr, 2);
      }
      options.num_threads = static_cast<int>(parsed);
    } else if (arg == "--queue-depth") {
      std::string_view value;
      if (!take_value(value)) return missing_value();
      if (!parse_size(value, options.max_queue_depth)) return bad_value(value);
    } else if (arg == "--max-inflight") {
      std::string_view value;
      if (!take_value(value)) return missing_value();
      if (!parse_size(value, options.max_inflight)) return bad_value(value);
    } else if (arg == "--cache") {
      std::string_view value;
      if (!take_value(value)) return missing_value();
      if (!parse_size(value, options.result_cache_capacity)) {
        return bad_value(value);
      }
    } else if (arg == "--cycle-policy") {
      std::string_view value;
      if (!take_value(value)) return missing_value();
      if (value == "reject") {
        options.default_cycle_policy = acolay::core::CyclePolicy::kReject;
      } else if (value == "greedy_reverse") {
        options.default_cycle_policy =
            acolay::core::CyclePolicy::kGreedyReverse;
      } else if (value == "aco_fas") {
        options.default_cycle_policy = acolay::core::CyclePolicy::kAcoFas;
      } else {
        std::cerr << "acolay_serve: bad value '" << value << "' for '" << arg
                  << "' (expected reject, greedy_reverse or aco_fas)\n";
        return usage(std::cerr, 2);
      }
    } else if (arg == "--max-incremental-sessions") {
      std::string_view value;
      if (!take_value(value)) return missing_value();
      if (!parse_size(value, options.max_incremental_sessions)) {
        return bad_value(value);
      }
    } else if (arg == "--listen") {
      std::string_view value;
      std::size_t parsed = 0;
      if (!take_value(value)) return missing_value();
      if (!parse_size(value, parsed)) return bad_value(value);
      if (parsed > 65535) {
        std::cerr << "acolay_serve: value '" << value << "' out of range for "
                  << "'--listen' (a TCP port is 0..65535)\n";
        return usage(std::cerr, 2);
      }
      listener_options.tcp_port = static_cast<int>(parsed);
    } else if (arg == "--unix") {
      std::string_view value;
      if (!take_value(value)) return missing_value();
      if (value.empty()) return bad_value(value);
      listener_options.unix_path = std::string(value);
    } else if (arg == "--drain-timeout") {
      std::string_view value;
      if (!take_value(value)) return missing_value();
      if (!parse_seconds(value, listener_options.drain_timeout_seconds)) {
        return bad_value(value);
      }
    } else if (arg == "--stats-every") {
      std::string_view value;
      if (!take_value(value)) return missing_value();
      if (!parse_seconds(value, listener_options.stats_every_seconds)) {
        return bad_value(value);
      }
    } else {
      std::cerr << "acolay_serve: bad argument '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }
  if (listener_options.tcp_port >= 0 && !listener_options.unix_path.empty()) {
    std::cerr << "acolay_serve: --listen and --unix are mutually exclusive\n";
    return usage(std::cerr, 2);
  }

  acolay::server::Server server(std::move(options));
  acolay::server::Listener listener(server, listener_options);
  std::string error;
  if (!listener.start(error)) {
    std::cerr << "acolay_serve: " << error << '\n';
    return 1;
  }
  const bool socket_mode = !listener.endpoint().empty();
  // SIGINT/SIGTERM request the graceful drain; clients dying mid-write
  // must surface as write errors on their own connection, not kill the
  // daemon via SIGPIPE.
  g_listener.store(&listener);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  if (socket_mode) {
    // The readiness line clients and scripts wait for before connecting.
    std::cerr << "acolay_serve: listening on " << listener.endpoint() << '\n';
    std::cerr.flush();
  }
  listener.run(&std::cerr);
  g_listener.store(nullptr);  // a late signal must not reach a dead loop

  if (socket_mode) {
    // Socket shutdown always flushes the stats line: a drained daemon's
    // counters are the scrape of record.
    std::cerr << acolay::server::render_listener_stats_line(server.stats(),
                                                            listener.stats())
              << '\n';
  } else if (print_stats) {
    // Same schema-tagged object a "stats" request frame returns, so log
    // scrapers and wire clients parse one shape.
    std::cerr << acolay::server::render_stats_line(server.stats()) << '\n';
  }
  if (!socket_mode && listener.stats().dropped > 0) {
    // The pipe is dropped only when stdout fails: its responses are lost.
    std::cerr << "acolay_serve: writing responses to stdout failed\n";
    return 1;
  }
  return 0;
}
