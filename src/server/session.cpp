#include "server/session.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "graph/csr.hpp"
#include "io/json.hpp"

namespace acolay::server {

namespace {

using core::AdmissionError;

/// Adjacency-ORDER-sensitive graph comparison for the dedup guard.
/// Digraph::operator== deliberately sorts adjacency (set equality), which
/// is too weak here: BFS orders and float accumulation depend on the
/// enumeration order, so two set-equal graphs with permuted adjacency can
/// produce different (both correct) results. Sharing between them would
/// break the served-equals-direct bit-identity contract. Labels are
/// ignored — they never influence a solve.
bool same_solve_input(const graph::Digraph& a, const graph::Digraph& b) {
  const std::size_t n = a.num_vertices();
  if (n != b.num_vertices() || a.num_edges() != b.num_edges()) return false;
  for (graph::VertexId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (a.width(v) != b.width(v)) return false;
    const auto& sa = a.successors(v);
    const auto& sb = b.successors(v);
    if (!std::equal(sa.begin(), sa.end(), sb.begin(), sb.end())) {
      return false;
    }
  }
  return true;
}

/// The schema-tagged stats object shared by the wire frame and the
/// --stats line (field rendering delegated to the public export hook).
void write_stats_object(io::JsonWriter& w, const ServeStats& stats) {
  w.begin_object();
  append_stats_fields(w, stats);
  w.end_object();
}

}  // namespace

void append_stats_fields(io::JsonWriter& w, const ServeStats& stats) {
  w.kv("schema", std::string(kServeStatsSchema));
  w.kv("received", stats.received);
  w.kv("admitted", stats.admitted);
  w.kv("solved", stats.solved);
  // The shared-vs-cached split depends on whether the duplicate's leader
  // had already completed at probe time — scheduling, not stream,
  // determined. Merged, the count is a pure function of the input.
  w.kv("dedup_hits", stats.dedup_shared + stats.dedup_cached);
  w.kv("warm_reused", stats.warm_reused);
  w.kv("incremental_sessions", stats.incremental_sessions);
  w.kv("delta_updates", stats.delta_updates);
  w.kv("rejected_invalid", stats.rejected_invalid);
  w.kv("rejected_overload", stats.rejected_overload);
  w.kv("rejected_deadline", stats.rejected_deadline);
}

std::string render_stats_response(const std::string& id,
                                  const ServeStats& stats) {
  io::JsonWriter w;
  w.begin_object();
  w.kv("schema", std::string(kServeSchema));
  w.kv("id", id);
  w.kv("status", "ok");
  w.key("stats");
  write_stats_object(w, stats);
  w.end_object();
  return w.str();
}

std::string render_stats_line(const ServeStats& stats) {
  io::JsonWriter w;
  write_stats_object(w, stats);
  return w.str();
}

Server::Server(ServeOptions options)
    : options_(options),
      clock_(options.clock ? std::move(options.clock)
                           : ClockFn([this] {
                               return stopwatch_.elapsed_seconds();
                             })),
      queue_(options.max_queue_depth),
      solver_(options.num_threads) {
  max_inflight_ = options_.max_inflight == 0 ? solver_.num_threads()
                                             : options_.max_inflight;
  if (max_inflight_ == 0) max_inflight_ = 1;
}

void Server::reject(Entry& entry, AdmissionError error, std::string message) {
  entry.outcome.error = error;
  entry.outcome.message = std::move(message);
  entry.state = State::kDone;
}

void Server::push_line(std::string_view line) {
  ++stats_.received;
  // Harvest/dispatch first so the overload check below sees the live
  // queue, not one stale by everything that finished since the last push.
  harvest();
  dispatch();

  const std::size_t index = next_emit_ + entries_.size();
  entries_.emplace_back();
  Entry& entry = entries_.back();

  ParsedRequest parsed;
  std::string message;
  const AdmissionError frame_error =
      parse_request_line(line, options_.limits, parsed, message);
  entry.id = parsed.id;  // best-effort echo even for malformed frames
  if (frame_error != AdmissionError::kNone) {
    ++stats_.rejected_invalid;
    reject(entry, frame_error, std::move(message));
    emit();
    return;
  }

  if (parsed.kind != RequestKind::kSolve) {
    // Delta and stats frames are sequencing points: everything that
    // arrived earlier completes (and is answered) first, so both the
    // snapshot a stats frame reports and the state a delta builds on are
    // pure functions of the input stream — the property the golden
    // transcript diffs. kHeld keeps this entry from emitting mid-drain.
    entry.state = State::kHeld;
    drain();
    if (parsed.kind == RequestKind::kStats) {
      entry.canned = render_stats_response(entry.id, stats_);
      entry.state = State::kDone;
    } else {
      handle_delta(entry, parsed);
    }
    emit();
    return;
  }

  // The shared admission gate (same code path as AntColony and direct
  // BatchSolver use): cycles and out-of-range params are rejected here,
  // before the request can occupy a queue slot.
  core::SolveRequest probe;
  probe.graph = &parsed.graph;
  probe.params = parsed.params;
  probe.cycle_policy =
      parsed.cycle_policy.value_or(options_.default_cycle_policy);
  const AdmissionError gate_error = core::validate_request(probe, &message);
  if (gate_error != AdmissionError::kNone) {
    ++stats_.rejected_invalid;
    reject(entry, gate_error, std::move(message));
    emit();
    return;
  }

  if (!queue_.push(index, parsed.priority)) {
    ++stats_.rejected_overload;
    reject(entry, AdmissionError::kOverloaded,
           "request queue is full (max_queue_depth = " +
               std::to_string(queue_.capacity()) + ")");
    emit();
    return;
  }

  entry.graph = std::move(parsed.graph);
  entry.params = parsed.params;
  entry.cycle_policy = probe.cycle_policy;
  entry.priority = parsed.priority;
  entry.warm = parsed.warm && options_.enable_warm;
  // Warm responses carry the fingerprint: it is the handle a later delta
  // frame references (delta sessions seed from warm slots).
  entry.report_fingerprint = entry.warm;
  if (parsed.deadline_seconds > 0.0) {
    entry.deadline_abs = clock_() + parsed.deadline_seconds;
  }
  entry.fingerprint = graph::CsrView(entry.graph).fingerprint();
  entry.state = State::kQueued;
  ++stats_.admitted;

  dispatch();
  emit();
}

void Server::handle_delta(Entry& entry, ParsedRequest& parsed) {
  // A live session chain first (keyed by its current fingerprint) …
  IncSession* session = nullptr;
  for (IncSession& s : sessions_) {
    if (s.fingerprint == parsed.base_fingerprint) {
      session = &s;
      break;
    }
  }
  // … otherwise seed a new session from the warm slot the referenced
  // solve wrote back. The slot keeps its own copy: the warm chain and the
  // delta chain evolve independently from the snapshot point.
  if (session == nullptr && options_.max_incremental_sessions > 0) {
    for (WarmSlot& slot : warm_) {
      if (slot.fingerprint != parsed.base_fingerprint || !slot.has_state) {
        continue;
      }
      if (sessions_.size() >= options_.max_incremental_sessions) {
        sessions_.pop_front();
      }
      core::AcoParams params = slot.params;
      // Updates run inline on the session thread; bit-identity across
      // thread counts makes the serial choice invisible in the results.
      params.num_threads = 1;
      // The session inherits the establishing solve's cycle policy, so a
      // cycle-introducing delta is handled the way that solve was (and a
      // cyclic warm graph re-derives the same Phase 0 reversal — same
      // graph, same policy, same seed).
      core::IncrementalOptions inc_options;
      inc_options.cycle_policy = slot.cycle_policy;
      sessions_.emplace_back();
      session = &sessions_.back();
      session->fingerprint = slot.fingerprint;
      session->solver = std::make_unique<core::IncrementalSolver>(
          slot.graph, params, inc_options);
      session->solver->adopt(slot.tau, slot.best);
      ++stats_.incremental_sessions;
      break;
    }
  }
  if (session == nullptr) {
    ++stats_.rejected_invalid;
    reject(entry, AdmissionError::kUnknownFingerprint,
           "no warm state for fingerprint " +
               fingerprint_hex(parsed.base_fingerprint) +
               " (solve it with \"warm\": true first)");
    return;
  }

  entry.outcome = session->solver->update(parsed.delta);
  entry.state = State::kDone;
  if (entry.outcome.ok()) {
    // Re-key the chain: the next delta references the NEW fingerprint,
    // which the ok response reports.
    session->fingerprint = session->solver->fingerprint();
    entry.fingerprint = session->fingerprint;
    entry.report_fingerprint = true;
    ++stats_.delta_updates;
  } else {
    ++stats_.rejected_invalid;
  }
}

Server::WarmSlot& Server::warm_slot(std::uint64_t fingerprint) {
  for (WarmSlot& slot : warm_) {
    if (slot.fingerprint == fingerprint) return slot;
  }
  warm_.emplace_back();
  warm_.back().fingerprint = fingerprint;
  return warm_.back();
}

bool Server::try_dedup(std::size_t index) {
  Entry& entry = entry_at(index);
  // Warm requests want a fresh evolution step, not somebody else's result,
  // so they neither join nor lead shared solves.
  if (!options_.enable_dedup || entry.warm) return false;
  for (const CacheSlot& slot : cache_) {
    if (slot.fingerprint == entry.fingerprint &&
        slot.params == entry.params &&
        slot.cycle_policy == entry.cycle_policy &&
        same_solve_input(slot.graph, entry.graph)) {
      entry.outcome = slot.outcome;
      entry.deduped = true;
      entry.state = State::kDone;
      ++stats_.dedup_cached;
      return true;
    }
  }
  for (const std::size_t leader : inflight_) {
    const Entry& lead = entry_at(leader);
    if (lead.warm || lead.fingerprint != entry.fingerprint) continue;
    if (lead.params == entry.params &&
        lead.cycle_policy == entry.cycle_policy &&
        same_solve_input(lead.graph, entry.graph)) {
      entry.leader = leader;
      entry.deduped = true;
      entry.state = State::kFollower;
      ++stats_.dedup_shared;
      return true;
    }
  }
  return false;
}

void Server::dispatch() {
  while (inflight_.size() < max_inflight_) {
    const auto popped = queue_.pop();
    if (!popped) break;
    const std::size_t index = *popped;
    Entry& entry = entry_at(index);

    // Deadline shedding happens here, at dispatch: a request that expired
    // while queued is answered without ever running its colony. Dispatched
    // colonies always run to completion (no mid-solve cancellation).
    if (clock_() > entry.deadline_abs) {
      ++stats_.rejected_deadline;
      reject(entry, AdmissionError::kDeadlineExpired,
             "deadline expired before dispatch");
      continue;
    }
    if (try_dedup(index)) continue;

    core::SolveRequest request;
    request.graph = &entry.graph;
    request.params = entry.params;
    request.cycle_policy = entry.cycle_policy;
    if (entry.warm) {
      // One in-flight warm run per fingerprint: the matrix is written back
      // by the worker, so a second concurrent warm run on the same slot
      // would race. Latecomers run cold (and do not write back).
      WarmSlot& slot = warm_slot(entry.fingerprint);
      if (!slot.busy) {
        slot.busy = true;
        entry.warm_attached = true;
        if (slot.tau.num_vertices() > 0) ++stats_.warm_reused;
        request.warm_tau = &slot.tau;
      }
    }
    entry.job = solver_.submit(request);
    entry.state = State::kInflight;
    inflight_.push_back(index);
  }
}

void Server::harvest() {
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    Entry& entry = entry_at(*it);
    if (!solver_.done(entry.job)) {
      ++it;
      continue;
    }
    entry.outcome = solver_.collect_outcome(entry.job);
    entry.state = State::kDone;
    ++stats_.solved;
    if (entry.warm_attached) {
      WarmSlot& slot = warm_slot(entry.fingerprint);
      slot.busy = false;
      if (entry.outcome.ok()) {
        // Snapshot what a delta session needs (the worker already wrote
        // the final matrix into slot.tau): the graph before emit() frees
        // it, the best layering, and the solve params the session
        // inherits.
        slot.graph = entry.graph;
        slot.best = entry.outcome.result.layering;
        slot.params = entry.params;
        slot.cycle_policy = entry.cycle_policy;
        slot.has_state = true;
      }
    }

    // Only cold successful solves enter the dedup cache: warm results
    // depend on the slot's history and must never be served to a request
    // that did not opt into that.
    if (options_.enable_dedup && !entry.warm && entry.outcome.ok() &&
        options_.result_cache_capacity > 0) {
      if (cache_.size() >= options_.result_cache_capacity) {
        cache_.erase(cache_.begin());
      }
      CacheSlot slot;
      slot.fingerprint = entry.fingerprint;
      slot.graph = entry.graph;
      slot.params = entry.params;
      slot.cycle_policy = entry.cycle_policy;
      slot.outcome = entry.outcome;
      cache_.push_back(std::move(slot));
    }

    // Followers joined this solve while it was in flight; hand each a copy.
    const std::size_t leader = *it;
    for (Entry& follower : entries_) {
      if (follower.state == State::kFollower && follower.leader == leader) {
        follower.outcome = entry.outcome;
        follower.state = State::kDone;
      }
    }
    it = inflight_.erase(it);
  }
}

void Server::emit() {
  while (!entries_.empty() && entries_.front().state == State::kDone) {
    Entry& entry = entries_.front();
    if (!entry.canned.empty()) {
      responses_.push_back(std::move(entry.canned));
    } else if (entry.outcome.ok()) {
      const double seconds =
          options_.include_timing ? entry.outcome.result.seconds : -1.0;
      responses_.push_back(render_result_response(
          entry.id, entry.outcome.result, entry.deduped, seconds,
          entry.report_fingerprint ? std::optional(entry.fingerprint)
                                   : std::nullopt,
          entry.outcome.reversed_edges));
    } else {
      responses_.push_back(render_error_response(entry.id, entry.outcome.error,
                                                 entry.outcome.message));
    }
    entries_.pop_front();
    ++next_emit_;
  }
}

void Server::step() {
  harvest();
  dispatch();
  emit();
}

void Server::drain() {
  for (;;) {
    step();
    if (inflight_.empty() && queue_.empty()) break;
    // Every dispatched colony runs to completion, so waiting on the solver
    // always unblocks the next harvest.
    if (!inflight_.empty()) solver_.wait_all();
  }
}

std::vector<std::string> Server::take_responses() {
  std::vector<std::string> out;
  out.swap(responses_);
  return out;
}

void Server::set_on_job_done(std::function<void()> hook) {
  solver_.set_on_job_done(std::move(hook));
}

std::size_t Server::outstanding() const { return entries_.size(); }

}  // namespace acolay::server
