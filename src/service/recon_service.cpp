#include "service/recon_service.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "ifdk/framework.h"
#include "iterative/distributed.h"

namespace ifdk::service {

namespace detail {

/// One submitted job: the spec, its admission-time plan, and everything a
/// JobHandle can observe. Guarded by ServiceState::mu.
struct JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  DecompositionPlan plan;  ///< resolved at admission (resident_slabs = 2)
  JobState state = JobState::kQueued;
  std::string error;
  double submit_time = 0;    ///< seconds since service start
  double dispatch_time = 0;  ///< seconds since service start; 0 until then
  int dispatch_seq = -1;
  double predicted_completion_s = 0;
  perfmodel::GridShape grid{};
  StageTimer wall;  ///< batch-level stage breakdown once terminal
};

/// Shared control block: the queue, the counters, and the synchronization
/// primitives. JobHandles keep it alive past the ReconService's lifetime so
/// a handle can always be queried.
struct ServiceState {
  mutable std::mutex mu;
  std::condition_variable work_cv;  ///< wakes the dispatcher
  std::condition_variable done_cv;  ///< wakes waiters/drainers
  std::deque<std::shared_ptr<JobRecord>> queue;
  bool paused = false;
  bool stopping = false;
  bool dispatching = false;  ///< a batch is inside run_streaming
  std::uint64_t next_id = 1;
  int next_dispatch_seq = 0;
  std::size_t submitted = 0;
  std::size_t rejected = 0;
  std::size_t stored = 0;
  std::size_t failed = 0;
  std::size_t batches = 0;
  std::size_t resplits = 0;
  std::size_t admitted_output_bytes = 0;  ///< raw output bytes past admission
  std::size_t store_raw_bytes = 0;        ///< bytes handed the store path
  std::size_t store_stored_bytes = 0;     ///< bytes that hit the PFS
  bool have_last_grid = false;
  perfmodel::GridShape last_grid{};
  double queue_latency_sum = 0;
  std::size_t dispatched_jobs = 0;
  std::map<std::string, TenantStats> tenants;
  Timer clock;  ///< service wall clock (throughput denominators)
};

}  // namespace detail

namespace {

using detail::JobRecord;
using detail::ServiceState;

/// The streaming double buffer keeps two slab pairs resident (the plan
/// layer's resident_slabs argument); admission must be conservative against
/// the same budget the dispatched stream will actually allocate.
constexpr std::size_t kResidentSlabs = 2;

/// Scheduler order: priority band first (higher runs first — a deadline can
/// never promote a job across bands), earliest deadline within a band
/// (unset deadlines sort last), submit id as the stable tiebreak.
bool dispatches_before(const std::shared_ptr<JobRecord>& a,
                       const std::shared_ptr<JobRecord>& b) {
  if (a->spec.priority != b->spec.priority) {
    return a->spec.priority > b->spec.priority;
  }
  const bool a_has = a->spec.deadline_s.has_value();
  const bool b_has = b->spec.deadline_s.has_value();
  if (a_has != b_has) return a_has;
  if (a_has && *a->spec.deadline_s != *b->spec.deadline_s) {
    return *a->spec.deadline_s < *b->spec.deadline_s;
  }
  return a->id < b->id;
}

/// Re-sorts the queue into dispatch order and republishes every queued
/// job's predicted completion from the mixed-queue recurrence (FDK runs
/// stream together through simulate_stream; iterative jobs run serially
/// through simulate_iterative). Caller holds ServiceState::mu.
void reorder_and_predict_locked(ServiceState& st,
                                const cluster::SimConfig& sim) {
  std::stable_sort(st.queue.begin(), st.queue.end(), dispatches_before);
  std::vector<cluster::QueuedJob> jobs;
  jobs.reserve(st.queue.size());
  for (const auto& job : st.queue) {
    cluster::QueuedJob q;
    q.plan = job->plan;
    if (job->spec.workload == WorkloadKind::kIterative) {
      q.iterative = true;
      q.iterations = job->spec.iterative.iterations;
      q.subsets = job->spec.iterative.effective_subsets();
    }
    jobs.push_back(std::move(q));
  }
  const std::vector<double> done =
      cluster::predict_queue_completion(jobs, sim);
  for (std::size_t i = 0; i < st.queue.size(); ++i) {
    st.queue[i]->predicted_completion_s = done[i];
  }
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kAdmitted:
      return "admitted";
    case JobState::kRunning:
      return "running";
    case JobState::kStored:
      return "stored";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

// ---- JobHandle --------------------------------------------------------------

JobHandle::JobHandle(std::shared_ptr<detail::ServiceState> state,
                     std::shared_ptr<detail::JobRecord> job)
    : state_(std::move(state)), job_(std::move(job)) {}

std::uint64_t JobHandle::id() const {
  std::lock_guard lock(state_->mu);
  return job_->id;
}

JobState JobHandle::state() const {
  std::lock_guard lock(state_->mu);
  return job_->state;
}

std::string JobHandle::error() const {
  std::lock_guard lock(state_->mu);
  return job_->error;
}

double JobHandle::predicted_completion_s() const {
  std::lock_guard lock(state_->mu);
  return job_->predicted_completion_s;
}

double JobHandle::queue_latency_s() const {
  std::lock_guard lock(state_->mu);
  return job_->dispatch_seq >= 0 ? job_->dispatch_time - job_->submit_time
                                 : 0.0;
}

int JobHandle::dispatch_seq() const {
  std::lock_guard lock(state_->mu);
  return job_->dispatch_seq;
}

perfmodel::GridShape JobHandle::grid() const {
  std::lock_guard lock(state_->mu);
  return job_->grid;
}

StageTimer JobHandle::wall() const {
  std::lock_guard lock(state_->mu);
  return job_->wall;
}

JobState JobHandle::wait() const {
  std::unique_lock lock(state_->mu);
  state_->done_cv.wait(lock, [&] {
    return job_->state == JobState::kStored ||
           job_->state == JobState::kFailed;
  });
  return job_->state;
}

// ---- ReconService -----------------------------------------------------------

ReconService::ReconService(const geo::CbctGeometry& geometry,
                           pfs::ParallelFileSystem& fs, ServiceOptions options)
    : geometry_(geometry),
      fs_(fs),
      options_(std::move(options)),
      state_(std::make_shared<detail::ServiceState>()) {
  geometry_.validate();
  options_.ifdk.validate();
  IFDK_REQUIRE(options_.max_batch >= 1, "max_batch must be positive");
  state_->paused = options_.start_paused;
  std::thread([this] { dispatch_loop(); }).swap(dispatcher_);
}

ReconService::~ReconService() {
  {
    std::lock_guard lock(state_->mu);
    // Graceful shutdown: stop accepting, un-pause, and let the dispatcher
    // drain everything already admitted before the thread exits.
    state_->stopping = true;
    state_->paused = false;
  }
  state_->work_cv.notify_all();
  dispatcher_.join();
}

JobHandle ReconService::submit(JobSpec spec) {
  spec.validate();
  const geo::CbctGeometry& job_geometry =
      spec.geometry.has_value() ? *spec.geometry : geometry_;

  const bool is_iterative = spec.workload == WorkloadKind::kIterative;

  // Admission, phase 1: resolve the decomposition the dispatched workload
  // would execute. Shape inconsistencies (ranks/Np/Nz) are ConfigErrors —
  // the caller wrote a bad request, not one that merely does not fit. An
  // iterative job replicates the volume (no streaming slab double buffer),
  // so its plan keeps one resident slab pair.
  const DecompositionPlan plan = DecompositionPlan::make(
      job_geometry, options_.ifdk, /*volume_index=*/-1,
      is_iterative ? 1 : kResidentSlabs);

  // Admission, phase 2: can this plan ever run here? Device fit (§4.1.5,
  // against the workload's actual working set). Rejections are typed
  // AdmissionErrors naming the numbers and are counted, never queued.
  try {
    if (is_iterative) {
      plan.check_iter_device_fit(options_.ifdk.device,
                                 spec.iterative.effective_subsets());
    } else {
      plan.check_device_fit(options_.ifdk.device);
    }
  } catch (const DeviceOutOfMemory& e) {
    std::lock_guard lock(state_->mu);
    ++state_->rejected;
    throw AdmissionError(std::string("job rejected at admission: ") +
                         e.what());
  }

  auto job = std::make_shared<detail::JobRecord>();
  job->spec = std::move(spec);
  job->plan = plan;
  job->grid = plan.grid;
  {
    std::lock_guard lock(state_->mu);
    IFDK_REQUIRE(!state_->stopping,
                 "submit on a ReconService that is shutting down");
    job->id = state_->next_id++;
    job->submit_time = state_->clock.seconds();
    ++state_->submitted;
    TenantStats& tenant = state_->tenants[job->spec.tenant];
    ++tenant.submitted;
    // Admission byte accounting: the job's claim on the store is its raw
    // output volume, counted the moment it is accepted (what it WILL move;
    // the measured store counters report what dispatch actually moved).
    const std::size_t output_bytes = plan.volume_floats() * sizeof(float);
    tenant.admitted_output_bytes += output_bytes;
    state_->admitted_output_bytes += output_bytes;
    state_->queue.push_back(job);
    reorder_and_predict_locked(*state_, options_.sim);
  }
  state_->work_cv.notify_all();
  return JobHandle(state_, job);
}

void ReconService::pause() {
  std::lock_guard lock(state_->mu);
  state_->paused = true;
}

void ReconService::resume() {
  {
    std::lock_guard lock(state_->mu);
    state_->paused = false;
  }
  state_->work_cv.notify_all();
}

void ReconService::drain() {
  std::unique_lock lock(state_->mu);
  state_->paused = false;
  state_->work_cv.notify_all();
  state_->done_cv.wait(
      lock, [&] { return state_->queue.empty() && !state_->dispatching; });
}

ServiceStats ReconService::stats() const {
  std::lock_guard lock(state_->mu);
  ServiceState& st = *state_;
  ServiceStats out;
  out.submitted = st.submitted;
  out.rejected = st.rejected;
  out.stored = st.stored;
  out.failed = st.failed;
  out.queued = st.queue.size();
  out.batches = st.batches;
  out.resplits = st.resplits;
  const double elapsed = st.clock.seconds();
  out.jobs_per_second =
      elapsed > 0 ? static_cast<double>(st.stored) / elapsed : 0;
  out.mean_queue_latency_s =
      st.dispatched_jobs > 0
          ? st.queue_latency_sum / static_cast<double>(st.dispatched_jobs)
          : 0;
  out.admitted_output_bytes = st.admitted_output_bytes;
  out.store_raw_bytes = st.store_raw_bytes;
  out.store_stored_bytes = st.store_stored_bytes;
  out.tenants = st.tenants;
  for (auto& [tenant, ts] : out.tenants) {
    (void)tenant;
    ts.volumes_per_second =
        elapsed > 0 ? static_cast<double>(ts.stored) / elapsed : 0;
  }
  return out;
}

void ReconService::dispatch_loop() {
  ServiceState& st = *state_;
  std::unique_lock lock(st.mu);
  for (;;) {
    st.work_cv.wait(lock, [&] {
      return st.stopping || (!st.paused && !st.queue.empty());
    });
    if (st.queue.empty()) {
      if (st.stopping) return;
      continue;
    }

    // Select the batch: the longest contiguous same-grid, same-workload
    // prefix of the dispatch order, capped at max_batch. Contiguity in the
    // *sorted* queue is what keeps the priority promise — the scheduler
    // never skips a higher-priority job to pack a warmer batch behind it.
    // FDK batches stream as one run_streaming call; iterative batches
    // dispatch job by job (each run_iterative is its own world).
    reorder_and_predict_locked(st, options_.sim);
    std::vector<std::shared_ptr<JobRecord>> batch;
    batch.push_back(st.queue.front());
    while (batch.size() < options_.max_batch &&
           batch.size() < st.queue.size() &&
           st.queue[batch.size()]->plan.same_grid(batch.front()->plan) &&
           st.queue[batch.size()]->spec.workload ==
               batch.front()->spec.workload) {
      batch.push_back(st.queue[batch.size()]);
    }
    st.queue.erase(st.queue.begin(),
                   st.queue.begin() + static_cast<std::ptrdiff_t>(batch.size()));

    const double now = st.clock.seconds();
    std::vector<JobSpec> specs;
    specs.reserve(batch.size());
    for (const auto& job : batch) {
      job->state = JobState::kAdmitted;
      job->dispatch_seq = st.next_dispatch_seq++;
      job->dispatch_time = now;
      st.queue_latency_sum += now - job->submit_time;
      ++st.dispatched_jobs;
      specs.push_back(job->spec);
    }
    ++st.batches;
    if (st.have_last_grid &&
        (st.last_grid.rows != batch.front()->plan.grid.rows ||
         st.last_grid.columns != batch.front()->plan.grid.columns)) {
      ++st.resplits;
    }
    st.have_last_grid = true;
    st.last_grid = batch.front()->plan.grid;
    for (const auto& job : batch) job->state = JobState::kRunning;
    st.dispatching = true;

    // Execute outside the lock: submit/stats/handles stay responsive while
    // the workload runs. The batch jobs are out of the queue, so only this
    // thread touches them until the re-lock below.
    const bool iterative_batch =
        batch.front()->spec.workload == WorkloadKind::kIterative;
    lock.unlock();
    StreamingStats streamed;
    std::string batch_error;
    // Per-job outcome of an iterative batch (error "" = stored). Each job
    // runs its own rank world behind its own try — one diverging solve or
    // failed store never touches its batch-mates, the service's failure-
    // isolation promise in iterative form.
    std::vector<std::string> iter_errors(batch.size());
    std::vector<perfmodel::GridShape> iter_grids(batch.size());
    std::vector<StageTimer> iter_walls(batch.size());
    if (iterative_batch) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        try {
          const iterative::IterStats run =
              iterative::run_iterative(geometry_, fs_, options_.ifdk,
                                       specs[i]);
          iter_grids[i] = run.grid;
          iter_walls[i] = run.wall;
        } catch (const std::exception& e) {
          iter_errors[i] = e.what();
          iter_grids[i] = batch[i]->plan.grid;
        }
      }
    } else {
      try {
        streamed = run_streaming(geometry_, fs_, options_.ifdk, specs);
      } catch (const std::exception& e) {
        // A non-store failure (bad read, aborted world) takes down the whole
        // dispatch; the failure is isolated to THIS batch — the service
        // keeps running and later jobs still dispatch.
        batch_error = e.what();
      }
    }
    lock.lock();

    if (!iterative_batch && batch_error.empty()) {
      // Measured byte movement of the dispatched stream: what the store
      // path actually carried, summed across batches so stats() reports
      // ratio-of-sums.
      st.store_raw_bytes += streamed.store_raw_bytes;
      st.store_stored_bytes += streamed.store_stored_bytes;
    }

    for (std::size_t i = 0; i < batch.size(); ++i) {
      JobRecord& job = *batch[i];
      if (iterative_batch) {
        if (!iter_errors[i].empty()) {
          job.state = JobState::kFailed;
          job.error = iter_errors[i];
        } else {
          job.state = JobState::kStored;
        }
        job.grid = iter_grids[i];
        job.wall = iter_walls[i];
      } else if (!batch_error.empty()) {
        job.state = JobState::kFailed;
        job.error = batch_error;
      } else if (!streamed.volume_errors[i].empty()) {
        // The streaming core's per-volume isolation: only this job's store
        // failed; its batch-mates are intact.
        job.state = JobState::kFailed;
        job.error = streamed.volume_errors[i];
      } else {
        job.state = JobState::kStored;
      }
      if (!iterative_batch && batch_error.empty()) {
        job.grid = streamed.plans[i].grid;
        job.wall = streamed.wall;
      }
      TenantStats& tenant = st.tenants[job.spec.tenant];
      if (job.state == JobState::kStored) {
        ++st.stored;
        ++tenant.stored;
      } else {
        ++st.failed;
        ++tenant.failed;
      }
    }
    st.dispatching = false;
    st.done_cv.notify_all();
  }
}

}  // namespace ifdk::service
