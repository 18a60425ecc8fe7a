// BatchSolver: many independent layering requests, one colony each, solved
// concurrently — the scaling lever *across* graphs that complements PR 3's
// allocation-free single walk (parallelism inside a walk is off the table:
// the walk is sequential by construction).
//
// Design:
//  * admission (submit): core::admit validates the request, runs Phase 0
//    and freezes one graph::CsrView up front; the colony later runs
//    entirely against that snapshot.
//  * scheduling: every job is one whole-colony task on the shared
//    support::ThreadPool; the colony's ants run serially inside the task
//    (the pool forbids nested parallelism, and colony results are
//    thread-count invariant by design), so N jobs on K workers give
//    near-linear corpus throughput with zero cross-job synchronisation.
//  * determinism: a job's result depends only on its request (graph,
//    params, policy), never on scheduling, so a batch is bit-identical to
//    N sequential core::solve calls at any thread count and under any
//    submission-order permutation of the same jobs.
//  * workspace pooling: each pool worker owns one ColonyWorkspace, keyed
//    by support::ThreadPool::worker_index() and grown to the largest
//    admitted graph, so steady-state batch throughput is allocation-free
//    in the tour/walk inner loop. Workspaces carry no state across runs
//    beyond buffer capacity (pinned by tests/determinism_test.cpp), so
//    worker-keying cannot leak one graph's search into another's.
//
// One way in, one way out: submit() admits a request, done() tells
// whether its job finished, and collect_outcome() moves the outcome out
// and frees the job; solve_all() is the blocking whole-corpus wrapper
// over the same calls. The solver itself is externally synchronised:
// these are called from the owning thread; only result completion is
// shared with the workers.
//
// Admission failures are AdmissionError codes in the job's outcome, never
// exceptions — a rejected request produces a job that is born finished.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/colony.hpp"
#include "core/params.hpp"
#include "core/request.hpp"
#include "graph/digraph.hpp"
#include "support/thread_pool.hpp"

namespace acolay::core {

/// Handle for a submitted job: the 0-based submission index (it stays
/// done() after collect_outcome() frees the job's record).
using BatchJobId = std::size_t;

/// Concurrent many-graph colony solver: one whole-colony task per
/// submitted job on a shared thread pool, bit-identical to sequential
/// core::solve calls (see the file comment for the design).
class BatchSolver {
 public:
  /// Spins up a pool of `num_threads` workers; 0 = hardware concurrency.
  /// Results are bit-identical for any value (tests/determinism_test.cpp).
  explicit BatchSolver(int num_threads = 0);

  /// Drains the queue: blocks until every submitted job has finished.
  ~BatchSolver();

  BatchSolver(const BatchSolver&) = delete;
  BatchSolver& operator=(const BatchSolver&) = delete;

  /// Workers in the underlying pool (resolved hardware concurrency).
  std::size_t num_threads() const { return pool_.num_threads(); }

  /// Installs the completion hook, called once per job (rejections
  /// included) after done() turns true, outside the solver lock, on the
  /// thread that finished it: an event loop's wake-up. Must precede the
  /// first submit(), so no worker reads the hook while it is being set.
  void set_on_job_done(std::function<void()> hook);

  /// Admits one layering request through core::admit (validation,
  /// Phase 0, CSR freeze) and, if admitted, schedules its colony; jobs
  /// dispatch in submission order. A rejected request never throws: its
  /// job is born finished carrying the AdmissionError outcome. The caller
  /// keeps the request's graph (and warm_tau, if any) alive until the
  /// job's outcome has been collected (the solver stores the pointers, not
  /// a copy). Returns the job's id; its outcome and snapshot are held
  /// until collect_outcome().
  BatchJobId submit(const SolveRequest& request);

  /// Jobs submitted so far (finished or not, collected or not).
  std::size_t num_jobs() const;

  /// Whether job `id` has finished (successfully or with an error).
  bool done(BatchJobId id) const;

  /// Blocks until job `id` finishes, moves its outcome out and releases
  /// the job's frozen CSR snapshot and graph pointer: the caller may drop
  /// the graph afterwards, and once every earlier job is collected too the
  /// record itself is freed, so a solver fed an unbounded request stream
  /// holds only the jobs still uncollected. Failures (admission or solve)
  /// are codes in the outcome, never exceptions. A collected job stays
  /// done(); collecting it again throws support::CheckError, as does an
  /// unknown id.
  SolveOutcome collect_outcome(BatchJobId id);

  /// Blocks until every submitted job has finished. Job failures stay in
  /// their outcomes (collect_outcome()).
  void wait_all();

  /// Blocking convenience: submits every graph with `params` and returns
  /// the results in input order. Throws support::CheckError if any job was
  /// rejected or failed.
  std::vector<AcoResult> solve_all(std::span<const graph::Digraph> graphs,
                                   const AcoParams& params);

  /// Per-graph-params variant; `params.size()` must equal `graphs.size()`.
  std::vector<AcoResult> solve_all(std::span<const graph::Digraph> graphs,
                                   std::span<const AcoParams> params);

 private:
  struct Job {
    /// What the colony task runs on (the DAG and its CSR snapshot);
    /// released by collect.
    AdmittedRequest admitted;
    SolveOutcome outcome;  ///< result or structured failure
    bool collected = false;  ///< outcome moved out, snapshot released
    std::atomic<bool> finished{false};
  };

  void run_job(Job& job);
  const Job& job_at(BatchJobId id) const;
  Job& job_at(BatchJobId id);

  std::function<void()> on_job_done_;
  /// Job records from id first_job_ on; collect_outcome() pops collected
  /// jobs off the front. Deque for stable addresses (workers hold
  /// references across later submits). Mutated only by the owning thread.
  std::deque<Job> jobs_;
  BatchJobId first_job_ = 0;  ///< id of jobs_.front()
  /// One workspace per pool worker, indexed by ThreadPool::worker_index().
  std::vector<ColonyWorkspace> worker_ws_;
  /// High-water dimensions over all admitted graphs; workers read these to
  /// size their workspace to the largest admitted graph before each run.
  std::atomic<std::size_t> max_vertices_{0};
  std::atomic<std::size_t> max_ants_{0};
  /// Jobs submitted but not yet finished — keeps wait_all's wake-up
  /// predicate O(1) instead of rescanning every job record ever made.
  std::atomic<std::size_t> unfinished_{0};
  mutable std::mutex mutex_;
  std::condition_variable job_finished_;
  /// Declared last: destroyed (drained + joined) first, so no worker can
  /// outlive the job records or workspaces above.
  support::ThreadPool pool_;
};

}  // namespace acolay::core
