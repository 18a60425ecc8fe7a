#include "core/batch.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace acolay::core {

BatchSolver::BatchSolver(int num_threads)
    : pool_(num_threads <= 0 ? 0 : static_cast<std::size_t>(num_threads)) {
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
  Job& job = jobs_.emplace_back();

  // Admission decides here, once: validation, Phase 0 (a cyclic graph
  // admitted under its policy is reoriented into a DAG the job owns) and
  // the CSR freeze. A rejected job is born finished — no snapshot, no pool
  // task, no exception. The plain store needs no lock: the job only
  // becomes waitable once this call returns its id to the (single) owning
  // thread.
  job.outcome.error = admit(request, job.admitted, &job.outcome.message);
  if (!job.outcome.ok()) {
    job.finished.store(true, std::memory_order_release);
    if (on_job_done_) on_job_done_();
    return id;
  }
  // The outcome owns the reversal from here on; the colony task reads
  // only the DAG and its snapshot.
  job.outcome.reversed_edges = std::move(job.admitted.reversed_edges);

  // Publish the new high-water dimensions before the job can run. Single
  // writer (the owning thread), so a plain load-compare-store suffices.
  const std::size_t n = job.admitted.dag().num_vertices();
  if (n > max_vertices_.load(std::memory_order_relaxed)) {
    max_vertices_.store(n, std::memory_order_relaxed);
  }
  const auto ants = static_cast<std::size_t>(request.params.num_ants);
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
    const AdmittedRequest& admitted = job.admitted;
    job.outcome.result =
        run_colony(admitted.dag(), admitted.csr, admitted.request.params, ws,
                   /*ant_pool=*/nullptr, admitted.request.warm_tau);
  } catch (const std::exception& e) {
    job.outcome.error = AdmissionError::kInternal;
    job.outcome.message = e.what();
  } catch (...) {
    job.outcome.error = AdmissionError::kInternal;
    job.outcome.message = "unknown solver failure";
  }
  {
    // The lock pairs with the condition-variable waits in
    // collect_outcome/wait_all: without it a waiter could check
    // `finished`, lose the race to this store + notify, and then sleep
    // forever.
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

std::size_t BatchSolver::num_jobs() const {
  return first_job_ + jobs_.size();
}

bool BatchSolver::done(BatchJobId id) const {
  // Popped ids were collected, and only finished jobs can be.
  return id < first_job_ || job_at(id).finished.load(std::memory_order_acquire);
}

SolveOutcome BatchSolver::collect_outcome(BatchJobId id) {
  Job& job = job_at(id);
  ACOLAY_CHECK_MSG(!job.collected,
                   "batch job " << id << " was already collected");
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_finished_.wait(lock, [&job] {
      return job.finished.load(std::memory_order_acquire);
    });
  }
  job.collected = true;
  SolveOutcome outcome = std::move(job.outcome);
  // Shed everything sized by the graph — on failure too, so an errored
  // job on the serving path cannot pin its snapshot forever. The O(1)
  // record stays behind only while an earlier job is uncollected.
  job.outcome = SolveOutcome{};
  job.admitted = AdmittedRequest{};
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
