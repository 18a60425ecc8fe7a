// Layering-as-a-service: the session loop behind acolay_serve.
//
// A Server consumes newline-delimited JSON request frames (protocol.hpp),
// runs them on an embedded core::BatchSolver, and produces response
// frames in ARRIVAL ORDER — ordered emission plus timing-free responses
// (ServeOptions::include_timing off) make a served transcript a pure
// function of the input stream, which is what the golden-transcript CI
// job diffs against.
//
// The session adds the serving semantics BatchSolver deliberately lacks:
//  * admission control — a bounded RequestQueue; frames past the cap are
//    answered `rejected: overloaded` instead of buffered without bound;
//  * deadlines — per-request relative deadlines against an injectable
//    monotonic clock, checked at dispatch: an expired request is shed
//    (`rejected: deadline_expired`) before its colony ever runs;
//  * priorities — the queue dispatches by (priority desc, arrival asc)
//    while at most max_inflight colonies occupy the solver;
//  * dedup — requests are keyed by the graph's canonical CSR fingerprint;
//    on fingerprint match plus exact params equality and an
//    adjacency-ORDER-sensitive graph comparison (order affects results,
//    so neither the order-invariant fingerprint nor the set-equality
//    Digraph::operator== is trusted alone) a request shares the in-flight
//    solve or is answered from the bounded result cache, marked
//    "deduped": true either way;
//  * warm pheromone reuse — opt-in per request ("warm": true): repeat
//    graphs adopt the previous run's final pheromone matrix (one slot per
//    fingerprint, one in-flight warm run per slot). Warm results depend
//    on the chain order, so they are excluded from dedup, from the result
//    cache, and from the bit-identity contract below;
//  * incremental re-layering — "delta" frames reference a prior warm
//    solve's fingerprint and re-solve the edited graph warm on a
//    core::IncrementalSolver session (docs/SERVING.md). A delta frame is
//    a SEQUENCING POINT: the server drains all earlier-arrived work
//    before applying it, so the response stream stays a pure function of
//    the input stream. Sessions are linear chains — each successful
//    update re-keys its session to the new fingerprint, which the ok
//    response reports; an unmatched base is rejected
//    `unknown_fingerprint`;
//  * stats — "stats" frames (also draining sequencing points) answer with
//    a schema-tagged counter snapshot, shared byte-for-byte with the
//    --stats shutdown line.
//
// Serving contract (pinned by tests/server_session_test.cpp): a cold
// (non-warm) served result is bit-identical to a direct
// BatchSolver::solve_all over the same (graph, params) at any thread
// count — the session never rewrites params, and dedup only ever shares
// results between requests that are exactly equal, which determinism
// already makes identical.
//
// Threading: the Server itself is single-threaded (one owner calls
// push_line/step/drain); all parallelism lives inside the embedded
// BatchSolver. The acolay_serve binary drives it from the event loop in
// listener.hpp, which set_on_job_done() wakes when a colony finishes.
//
// Memory: an answered frame's record is freed as it is emitted, so per-
// frame state is held only for unanswered frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch.hpp"
#include "core/incremental.hpp"
#include "core/pheromone.hpp"
#include "core/request.hpp"
#include "layering/layering.hpp"
#include "server/protocol.hpp"
#include "server/queue.hpp"
#include "support/timer.hpp"

namespace acolay::io {
class JsonWriter;
}  // namespace acolay::io

namespace acolay::server {

/// Monotonic time source (seconds, arbitrary epoch) for deadline checks —
/// injectable so tests drive expiry without sleeping.
using ClockFn = std::function<double()>;

/// Serving policy knobs.
struct ServeOptions {
  /// Frame/graph size bounds applied before a request is materialized.
  RequestLimits limits;
  /// Pending requests admitted before backpressure (`overloaded`).
  std::size_t max_queue_depth = 64;
  /// Colonies in flight at once; 0 = the solver's worker count.
  std::size_t max_inflight = 0;
  /// Completed (graph, params, outcome) records kept for dedup; FIFO
  /// eviction. 0 disables the completed-result side of dedup.
  std::size_t result_cache_capacity = 64;
  /// Master switch for dedup (in-flight sharing and the result cache).
  bool enable_dedup = true;
  /// Master switch for per-fingerprint warm pheromone slots.
  bool enable_warm = true;
  /// Live incremental ("delta") sessions kept at once; FIFO eviction.
  /// 0 disables delta frames entirely (rejected unknown_fingerprint).
  std::size_t max_incremental_sessions = 8;
  /// Attach wall-clock "seconds" to ok responses. Off by default: golden
  /// transcripts need byte-stable output.
  bool include_timing = false;
  /// Worker threads of the embedded BatchSolver; 0 = hardware concurrency.
  int num_threads = 0;
  /// Cycle policy for solve frames that carry no "cycle_policy" key
  /// (--cycle-policy). The default keeps cyclic graphs rejected with
  /// `cycle`, so existing transcripts are untouched. A frame's explicit
  /// key always wins; delta sessions inherit the policy of the warm solve
  /// that established their state.
  core::CyclePolicy default_cycle_policy = core::CyclePolicy::kReject;
  /// Deadline clock; null uses a steady-clock stopwatch started at
  /// construction.
  ClockFn clock;
};

/// Counters exposed for tests, the stats log line, and the bench suite.
struct ServeStats {
  std::uint64_t received = 0;   ///< frames pushed
  std::uint64_t admitted = 0;   ///< entered the queue
  std::uint64_t solved = 0;     ///< colonies actually run
  std::uint64_t dedup_shared = 0;    ///< joined an in-flight solve
  std::uint64_t dedup_cached = 0;    ///< answered from the result cache
  std::uint64_t warm_reused = 0;     ///< dispatched adopting a warm matrix
  std::uint64_t incremental_sessions = 0;  ///< delta sessions created
  std::uint64_t delta_updates = 0;   ///< successful incremental updates
  std::uint64_t rejected_invalid = 0;   ///< bad_request / bad_param / cycle
                                        ///< / unknown_fingerprint
  std::uint64_t rejected_overload = 0;  ///< backpressure
  std::uint64_t rejected_deadline = 0;  ///< shed at dispatch
};

/// Export hook for the stats schema: appends the kServeStatsSchema tag
/// and every ServeStats field as key/value pairs into an object `w` has
/// already opened. The "stats" wire frame, the --stats shutdown line, and
/// the socket listener's stderr line (which adds its connection counters
/// after these fields) all render through this one function, so the
/// scrapeable shapes can never drift apart. The in-flight dedup split
/// (shared vs cached) depends on completion timing, so the merged,
/// stream-deterministic `dedup_hits` is exported instead.
void append_stats_fields(io::JsonWriter& w, const ServeStats& stats);

/// Renders the "stats" response frame for `id` (one line, no trailing
/// newline; schema kServeStatsSchema). The in-flight dedup split
/// (shared vs cached) depends on completion timing, so the wire reports
/// the merged, stream-deterministic `dedup_hits` instead.
std::string render_stats_response(const std::string& id,
                                  const ServeStats& stats);

/// The --stats shutdown line: the same schema-tagged object without the
/// id/status envelope, so log scrapers and the wire share one schema.
std::string render_stats_line(const ServeStats& stats);

/// The request/response session (see file comment for the contract).
class Server {
 public:
  /// A server with its embedded BatchSolver spun up per `options`.
  explicit Server(ServeOptions options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Feeds one request frame (one line, without the newline): parses,
  /// admits or rejects, and dispatches/harvests opportunistically. Every
  /// pushed line eventually produces exactly one response, in push order.
  void push_line(std::string_view line);

  /// Harvests finished colonies, dispatches from the queue while in-flight
  /// slots are free, and emits ready responses — non-blocking.
  void step();

  /// Blocks until every pushed request has its response emitted.
  void drain();

  /// Installs the embedded solver's completion hook (an event loop's
  /// wake-up; core::BatchSolver::set_on_job_done). Before any push_line().
  void set_on_job_done(std::function<void()> hook);

  /// Moves out the responses that are ready, in arrival order (one line
  /// each, no trailing newline).
  std::vector<std::string> take_responses();

  /// Requests pushed but not yet answered.
  std::size_t outstanding() const;

  /// Counters so far.
  const ServeStats& stats() const { return stats_; }

  /// Resolved in-flight cap (options().max_inflight or the worker count).
  std::size_t max_inflight() const { return max_inflight_; }

  /// The policy this server runs.
  const ServeOptions& options() const { return options_; }

 private:
  /// Lifecycle of one pushed frame.
  enum class State {
    kQueued,    ///< admitted, waiting in the RequestQueue
    kInflight,  ///< its colony runs on the BatchSolver
    kFollower,  ///< deduped onto an in-flight leader's solve
    kHeld,      ///< a delta/stats frame mid-drain (blocks emission)
    kDone,      ///< outcome ready (response may not be emitted yet)
  };

  struct Entry {
    std::string id;
    graph::Digraph graph;
    core::AcoParams params;
    double deadline_abs = std::numeric_limits<double>::infinity();
    int priority = 0;
    bool warm = false;
    bool warm_attached = false;  ///< this entry holds its slot's busy flag
    /// Resolved cycle policy (frame key, else the server default). Part
    /// of the dedup identity: the same cyclic graph solves to different
    /// results under different policies.
    core::CyclePolicy cycle_policy = core::CyclePolicy::kReject;
    std::uint64_t fingerprint = 0;
    /// Attach "fingerprint" to the ok response (warm solves and delta
    /// updates — the delta-addressable states).
    bool report_fingerprint = false;
    State state = State::kDone;
    core::SolveOutcome outcome;
    bool deduped = false;
    core::BatchJobId job = 0;
    std::size_t leader = 0;  ///< leader's sequence number when kFollower
    std::string canned;  ///< pre-rendered response (stats frames)
  };

  /// One completed cold solve retained for dedup (FIFO-evicted).
  struct CacheSlot {
    std::uint64_t fingerprint = 0;
    graph::Digraph graph;
    core::AcoParams params;
    core::CyclePolicy cycle_policy = core::CyclePolicy::kReject;
    core::SolveOutcome outcome;
  };

  /// Per-fingerprint warm pheromone slot; busy while one warm colony for
  /// this fingerprint is in flight (its worker writes `tau` back). The
  /// graph/best/params snapshot (has_state) is what a later delta frame
  /// seeds its IncrementalSolver session from.
  struct WarmSlot {
    std::uint64_t fingerprint = 0;
    core::PheromoneMatrix tau;
    bool busy = false;
    bool has_state = false;      ///< snapshot below is populated
    graph::Digraph graph;        ///< graph of the last completed warm solve
    layering::Layering best;     ///< its best layering
    core::AcoParams params;      ///< its params (inherited by sessions)
    /// Its cycle policy (inherited by sessions, so a delta that introduces
    /// a cycle is handled the way the establishing solve was).
    core::CyclePolicy cycle_policy = core::CyclePolicy::kReject;
  };

  /// One live incremental chain, keyed by its CURRENT fingerprint (each
  /// successful update re-keys it).
  struct IncSession {
    std::uint64_t fingerprint = 0;
    std::unique_ptr<core::IncrementalSolver> solver;
  };

  void reject(Entry& entry, core::AdmissionError error, std::string message);
  /// Applies a parsed delta frame (caller has drained; runs inline).
  void handle_delta(Entry& entry, ParsedRequest& parsed);
  void harvest();
  void dispatch();
  void emit();
  /// Exact-match dedup probe (cache first, then in-flight leaders);
  /// resolves the entry when it hits. False → caller dispatches for real.
  bool try_dedup(std::size_t index);
  WarmSlot& warm_slot(std::uint64_t fingerprint);
  /// The record of the frame with sequence number `seq` (unanswered).
  Entry& entry_at(std::size_t seq) { return entries_[seq - next_emit_]; }

  ServeOptions options_;
  ClockFn clock_;
  support::Stopwatch stopwatch_;  ///< backs the default clock
  /// Unanswered frames in push order; emit() pops them as it answers.
  /// The queue, inflight_ and Entry::leader hold sequence numbers.
  std::deque<Entry> entries_;
  RequestQueue queue_;
  std::vector<std::size_t> inflight_;  ///< sequence numbers, dispatch order
  std::vector<CacheSlot> cache_;  ///< FIFO ring of completed solves
  /// Linear-scanned, small. A deque, NOT a vector: an in-flight warm job
  /// holds a pointer to its slot's matrix, which must survive new
  /// fingerprints appending slots.
  std::deque<WarmSlot> warm_;
  std::deque<IncSession> sessions_;  ///< live delta chains, FIFO-capped
  std::size_t next_emit_ = 0;  ///< sequence number of entries_.front()
  std::vector<std::string> responses_;
  std::size_t max_inflight_ = 1;
  ServeStats stats_;
  core::BatchSolver solver_;  ///< declared last: drained before the
                              ///< entries its jobs reference go away
};

}  // namespace acolay::server
