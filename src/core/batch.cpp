#include "core/batch.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace acolay::core {

BatchSolver::BatchSolver(BatchOptions options)
    : options_(options),
      pool_(options.num_threads <= 0
                ? 0
                : static_cast<std::size_t>(options.num_threads)) {
  worker_ws_.resize(pool_.num_threads());
}

BatchSolver::~BatchSolver() {
  // ThreadPool's destructor drains the remaining queue before joining, so
  // every admitted job still runs; nothing to do beyond member order
  // (pool_ is destroyed first).
}

void BatchSolver::set_on_job_done(std::function<void()> hook) {
  ACOLAY_CHECK_MSG(num_jobs() == 0,
                   "set_on_job_done must precede the first submit");
  on_job_done_ = std::move(hook);
}

BatchJobId BatchSolver::submit(const SolveRequest& request) {
  const BatchJobId id = num_jobs();
  SolveRequest effective = request;
  if (options_.derive_seeds) {
    effective.params.seed += static_cast<std::uint64_t>(id);
  }
  jobs_.emplace_back(effective);
  Job& job = jobs_.back();

  // Admission: the shared gate decides here, once. A rejected job is born
  // finished — no CSR snapshot, no pool task, no exception. The plain
  // store needs no lock: the job only becomes waitable once this call
  // returns its id to the (single) owning thread.
  job.outcome.error = validate_request(effective, &job.outcome.message);
  if (!job.outcome.ok()) {
    job.finished.store(true, std::memory_order_release);
    if (on_job_done_) on_job_done_();
    return id;
  }

  // Phase 0 (cycle policy): a cyclic graph admitted by the gate above is
  // reoriented once, here at admission, so the colony task only ever sees
  // a DAG. The job owns the reoriented graph (the caller's borrowed graph
  // stays untouched) and the reversal is already part of the outcome.
  if (effective.cycle_policy != CyclePolicy::kReject) {
    CycleResolution phase0;
    resolve_cycles(*effective.graph, effective.cycle_policy,
                   effective.params.seed, phase0);
    if (phase0.graph != effective.graph) {
      job.owned_dag = std::move(phase0.owned);
      job.request.graph = &job.owned_dag;
      job.outcome.reversed_edges = std::move(phase0.reversed_edges);
    }
  }

  // Freeze the CSR snapshot and publish the new high-water dimensions
  // before the job can run. Single writer (the owning thread), so a plain
  // load-compare-store suffices.
  const graph::Digraph& g = *job.request.graph;
  job.csr.rebuild(g);
  if (g.num_vertices() > max_vertices_.load(std::memory_order_relaxed)) {
    max_vertices_.store(g.num_vertices(), std::memory_order_relaxed);
  }
  const auto ants = static_cast<std::size_t>(effective.params.num_ants);
  if (ants > max_ants_.load(std::memory_order_relaxed)) {
    max_ants_.store(ants, std::memory_order_relaxed);
  }

  unfinished_.fetch_add(1, std::memory_order_relaxed);
  pool_.submit([this, &job] { run_job(job); });
  return id;
}

void BatchSolver::run_job(Job& job) {
  try {
    const std::size_t worker = support::ThreadPool::worker_index();
    ACOLAY_CHECK_MSG(worker < worker_ws_.size(),
                     "batch job running outside the solver's pool");
    ColonyWorkspace& ws = worker_ws_[worker];
    // Size the worker's pools to the largest admitted graph: the stretched
    // layer count never exceeds the vertex count, so (n, n) bounds both
    // axes. Monotonic, so steady state performs no allocation here.
    const std::size_t n = max_vertices_.load(std::memory_order_relaxed);
    ws.reserve(max_ants_.load(std::memory_order_relaxed), n, n);
    job.outcome.result =
        run_colony(*job.request.graph, job.csr, job.request.params, ws,
                   /*ant_pool=*/nullptr, job.request.warm_tau);
  } catch (const std::exception& e) {
    job.outcome.error = AdmissionError::kInternal;
    job.outcome.message = e.what();
  } catch (...) {
    job.outcome.error = AdmissionError::kInternal;
    job.outcome.message = "unknown solver failure";
  }
  {
    // The lock pairs with the condition-variable waits in await_job/wait_all:
    // without it a waiter could check `finished`, lose the race to this
    // store + notify, and then sleep forever.
    const std::lock_guard<std::mutex> lock(mutex_);
    job.finished.store(true, std::memory_order_release);
    unfinished_.fetch_sub(1, std::memory_order_relaxed);
  }
  job_finished_.notify_all();
  // The owner may collect and free `job` from here on: solver state only.
  if (on_job_done_) on_job_done_();
}

const BatchSolver::Job& BatchSolver::job_at(BatchJobId id) const {
  ACOLAY_CHECK_MSG(id >= first_job_,
                   "batch job " << id << " was already collected");
  ACOLAY_CHECK_MSG(id < num_jobs(), "unknown batch job id " << id);
  return jobs_[id - first_job_];
}

BatchSolver::Job& BatchSolver::job_at(BatchJobId id) {
  return const_cast<Job&>(std::as_const(*this).job_at(id));
}

void BatchSolver::await_job(Job& job, BatchJobId id) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_finished_.wait(lock, [&job] {
      return job.finished.load(std::memory_order_acquire);
    });
  }
  ACOLAY_CHECK_MSG(!job.collected,
                   "batch job " << id << " was already collected");
}

std::size_t BatchSolver::num_jobs() const {
  return first_job_ + jobs_.size();
}

bool BatchSolver::done(BatchJobId id) const {
  // Popped ids were collected, and only finished jobs can be.
  return id < first_job_ || job_at(id).finished.load(std::memory_order_acquire);
}

const SolveOutcome* BatchSolver::poll_outcome(BatchJobId id) const {
  const Job& job = job_at(id);
  if (!job.finished.load(std::memory_order_acquire)) return nullptr;
  ACOLAY_CHECK_MSG(!job.collected,
                   "batch job " << id << " was already collected");
  return &job.outcome;
}

const SolveOutcome& BatchSolver::wait_outcome(BatchJobId id) {
  Job& job = job_at(id);
  await_job(job, id);
  return job.outcome;
}

SolveOutcome BatchSolver::collect_outcome(BatchJobId id) {
  Job& job = job_at(id);
  await_job(job, id);
  job.collected = true;
  SolveOutcome outcome = std::move(job.outcome);
  // Shed everything sized by the graph — on failure too, so an errored
  // job on the serving path cannot pin its snapshot forever. The O(1)
  // record stays behind only while an earlier job is uncollected.
  job.outcome = SolveOutcome{};
  job.csr = graph::CsrView{};
  job.owned_dag = graph::Digraph{};
  job.request.graph = nullptr;
  job.request.warm_tau = nullptr;
  // Free the records themselves once everything before them is
  // collected too; ids stay submission indices via first_job_.
  while (!jobs_.empty() && jobs_.front().collected) {
    jobs_.pop_front();
    ++first_job_;
  }
  return outcome;
}

void BatchSolver::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  job_finished_.wait(lock, [this] {
    return unfinished_.load(std::memory_order_acquire) == 0;
  });
}

namespace {

/// solve_all's submit/harvest bodies, shared by both overloads (solve_all
/// keeps its documented throw-on-failure contract via the check below).
BatchJobId submit_structured(BatchSolver& solver, const graph::Digraph& g,
                             const AcoParams& params) {
  SolveRequest request;
  request.graph = &g;
  request.params = params;
  return solver.submit(request);
}

AcoResult collect_structured(BatchSolver& solver, BatchJobId id) {
  // collect_outcome(), not wait_outcome(): moves each result out and
  // sheds the job's CSR snapshot as soon as it is harvested, so the run
  // peaks at one copy of the result set instead of two.
  SolveOutcome outcome = solver.collect_outcome(id);
  ACOLAY_CHECK_MSG(outcome.ok(),
                   "batch job " << id << " was rejected ("
                                << admission_error_code(outcome.error)
                                << "): " << outcome.message);
  return std::move(outcome.result);
}

}  // namespace

std::vector<AcoResult> BatchSolver::solve_all(
    std::span<const graph::Digraph> graphs, const AcoParams& params) {
  std::vector<BatchJobId> ids;
  ids.reserve(graphs.size());
  for (const graph::Digraph& g : graphs) {
    ids.push_back(submit_structured(*this, g, params));
  }
  std::vector<AcoResult> results;
  results.reserve(ids.size());
  for (const BatchJobId id : ids) {
    results.push_back(collect_structured(*this, id));
  }
  return results;
}

std::vector<AcoResult> BatchSolver::solve_all(
    std::span<const graph::Digraph> graphs,
    std::span<const AcoParams> params) {
  ACOLAY_CHECK_MSG(params.size() == graphs.size(),
                   "solve_all needs one AcoParams per graph: "
                       << params.size() << " params for " << graphs.size()
                       << " graphs");
  std::vector<BatchJobId> ids;
  ids.reserve(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ids.push_back(submit_structured(*this, graphs[i], params[i]));
  }
  std::vector<AcoResult> results;
  results.reserve(ids.size());
  for (const BatchJobId id : ids) {
    results.push_back(collect_structured(*this, id));
  }
  return results;
}

}  // namespace acolay::core
