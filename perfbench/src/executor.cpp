// `executor` workload: repeated batch Executor::run over one seeded batch
// of layered_random jobs with ~1 us spin closures, virtual clock, default
// backend, one worker thread per category.  Dispatch and the quantum
// barrier dominate here; exp / sim / svc are bypassed (sim::simulate runs
// once, untimed, as the output oracle).
//
// One op is one task.

#include <memory>

#include "common.hpp"
#include "core/krad.hpp"
#include "dag/builders.hpp"
#include "jobs/dag_job.hpp"
#include "runtime/executor.hpp"
#include "sim/engine.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kJobs = 8;
constexpr auto kSpin = std::chrono::nanoseconds(1000);

const krad::MachineConfig& machine() {
  static const krad::MachineConfig config{{16, 16}};
  return config;
}

/// Per-task record written by the task's own closure: a separate cache
/// line per task, so workers never share one.
struct alignas(64) TaskSlot {
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t runs = 0;
};

struct Batch {
  std::vector<krad::KDag> dags;
  std::vector<std::size_t> first_slot;  // per job, index of its vertex 0
  std::size_t tasks = 0;
};

Batch make_batch(std::uint64_t seed) {
  krad::Rng rng(seed);
  krad::LayeredParams params;
  params.layers = 40;
  params.min_width = 32;
  params.max_width = 96;
  params.num_categories = 2;
  Batch batch;
  for (std::size_t j = 0; j < kJobs; ++j) {
    batch.first_slot.push_back(batch.tasks);
    batch.dags.push_back(krad::layered_random(params, rng));
    batch.tasks += batch.dags.back().num_vertices();
  }
  return batch;
}

krad::Time release_of(std::size_t job) {
  return static_cast<krad::Time>(job);  // releases 0..7
}

krad::SimResult simulate_batch(const Batch& batch) {
  krad::JobSet set(2);
  for (std::size_t j = 0; j < batch.dags.size(); ++j)
    set.add(std::make_unique<krad::DagJob>(batch.dags[j]), release_of(j));
  krad::KRad scheduler;
  return krad::simulate(set, scheduler, machine());
}

}  // namespace

Result run_executor_workload(const Options& options,
                             krad::obs::TraceSession* trace) {
  const Batch batch = make_batch(options.seed);
  const krad::SimResult oracle = simulate_batch(batch);
  std::vector<TaskSlot> slots(batch.tasks);

  krad::ExecutorOptions executor_options;
  executor_options.clock = krad::ClockMode::kVirtual;
  executor_options.record_trace = false;
  executor_options.threads_per_category = 1;

  struct RunStats {
    Clock::time_point run_start;
    double setup_seconds = 0.0;
    double run_seconds = 0.0;
    bool ok = true;
    krad::RuntimeResult runtime;
  };

  std::uint64_t run_id = 0;
  std::int64_t allot_calls = 0;
  double allot_seconds = 0.0;
  const auto run_once = [&] {
    ++run_id;
    for (TaskSlot& slot : slots) slot = TaskSlot{};
    RunStats stats;
    const auto setup_start = Clock::now();
    krad::Executor executor(machine(), executor_options);
    for (std::size_t j = 0; j < batch.dags.size(); ++j) {
      auto job = std::make_unique<krad::RuntimeJob>(batch.dags[j]);
      TaskSlot* base = slots.data() + batch.first_slot[j];
      for (krad::VertexId v = 0; v < batch.dags[j].num_vertices(); ++v) {
        job->set_task(v, krad::CancellableTaskFn(
                             [slot = base + v](const krad::CancellationToken&) {
                               const auto start = Clock::now();
                               auto now = start;
                               while (now - start < kSpin) now = Clock::now();
                               slot->start = start;
                               slot->end = now;
                               ++slot->runs;
                             }));
      }
      executor.submit(std::move(job), release_of(j));
    }
    krad::KRad krad_scheduler;
    // The allot decorator is attached in traced mode only.
    TimedScheduler timed(krad_scheduler);
    const auto run_start = Clock::now();
    stats.runtime = trace != nullptr ? executor.run(timed)
                                     : executor.run(krad_scheduler);
    const auto run_end = Clock::now();
    allot_calls += timed.calls();
    allot_seconds += timed.total_seconds();
    stats.run_start = run_start;
    const auto id = static_cast<double>(run_id);
    add_span(trace, "runtime.setup", setup_start, run_start, {{"run", id}});
    add_span(trace, "runtime.run", run_start, run_end,
             {{"run", id},
              {"allot_calls", static_cast<double>(timed.calls())},
              {"allot_us", timed.total_seconds() * 1e6}});
    stats.setup_seconds = seconds_between(setup_start, run_start);
    stats.run_seconds = seconds_between(run_start, run_end);

    for (const TaskSlot& slot : slots)
      if (slot.runs != 1) stats.ok = false;
    const krad::RuntimeResult& r = stats.runtime;
    if (r.completion != oracle.completion ||
        r.busy_quanta != oracle.busy_steps)
      stats.ok = false;
    for (krad::JobOutcome outcome : r.outcome)
      if (outcome != krad::JobOutcome::kCompleted) stats.ok = false;
    return stats;
  };

  Result result;

  // Warm-up: whole runs on the executor thread and both workers.
  const auto warm_start = Clock::now();
  std::size_t warm_tasks = 0;
  do {
    if (!run_once().ok) result.fail("executor output differs during warm-up");
    warm_tasks += batch.tasks;
  } while (seconds_between(warm_start, Clock::now()) < kWarmupSeconds);
  result.warmup_ops_per_s = static_cast<double>(warm_tasks) /
                            seconds_between(warm_start, Clock::now());
  allot_calls = 0;
  allot_seconds = 0.0;

  // Timed window: whole runs; set-up (construction + submit) is part of
  // every run and is reported on its own as setup_s.
  std::vector<double> setup_seconds;
  // One slice per batch run; its latencies are the run's 8 job latencies
  // (run start -> the job's last task end).
  SlicedSamples slices;
  double run_seconds = 0.0;
  double barrier_seconds = 0.0;
  double task_seconds = 0.0;
  std::int64_t quanta = 0;
  krad::Time quanta_per_run = 0;
  const double cpu_start = process_cpu_seconds();
  const auto window_start = Clock::now();
  double elapsed = 0.0;
  do {
    const RunStats stats = run_once();
    setup_seconds.push_back(stats.setup_seconds);
    run_seconds += stats.run_seconds;
    for (std::size_t j = 0; j < batch.dags.size(); ++j) {
      Clock::time_point last = stats.run_start;
      const std::size_t end =
          j + 1 < batch.dags.size() ? batch.first_slot[j + 1] : batch.tasks;
      for (std::size_t s = batch.first_slot[j]; s < end; ++s)
        last = std::max(last, slots[s].end);
      slices.add(seconds_between(stats.run_start, last));
    }
    slices.close_slice(static_cast<double>(batch.tasks),
                       stats.setup_seconds + stats.run_seconds);
    for (const TaskSlot& slot : slots)
      task_seconds += seconds_between(slot.start, slot.end);
    for (const krad::QuantumStats& q : stats.runtime.quanta) {
      barrier_seconds += static_cast<double>(q.barrier_ns) * 1e-9;
      ++quanta;
    }
    quanta_per_run = stats.runtime.busy_quanta;  // == sim's when ok
    result.attempted += static_cast<std::int64_t>(batch.tasks);
    if (!stats.ok) {
      result.failed += static_cast<std::int64_t>(batch.tasks);
      result.fail("executor completions differ from sim::simulate");
    }
    elapsed = seconds_between(window_start, Clock::now());
  } while (elapsed < options.seconds);
  const double cpu = process_cpu_seconds() - cpu_start;
  result.end_to_end["peak_rss_mb"] = peak_rss_mb();

  const auto tasks = static_cast<double>(result.attempted);
  const unsigned workers =
      executor_options.threads_per_category *
      static_cast<unsigned>(machine().categories());
  result.end_to_end["ops_per_s"] = slices.median_rate();
  result.end_to_end["cpu_us_per_op"] = cpu * 1e6 / tasks;
  result.end_to_end["latency_p50_ms"] = slices.slice_median(0.50) * 1e3;
  result.end_to_end["latency_p99_ms"] = slices.slice_median(0.99) * 1e3;
  result.end_to_end["setup_s"] = quantile(setup_seconds, 0.5);

  result.per_layer["runtime.quanta_per_run"] =
      static_cast<double>(quanta_per_run);
  result.per_layer["runtime.barrier_us_per_quantum"] =
      barrier_seconds * 1e6 / static_cast<double>(quanta);
  result.per_layer["runtime.barrier_share"] = barrier_seconds / run_seconds;
  result.per_layer["runtime.task_busy_share"] =
      task_seconds / (static_cast<double>(workers) * run_seconds);
  result.per_layer["runtime.setup_us_per_run"] =
      quantile(setup_seconds, 0.5) * 1e6;
  if (trace != nullptr)
    result.per_layer["core.allot_us_per_quantum"] =
        allot_seconds * 1e6 / static_cast<double>(allot_calls);

  result.counts["runtime.quanta_per_run"] = static_cast<double>(quanta_per_run);
  result.counts["runtime.tasks_per_run"] = static_cast<double>(batch.tasks);
  std::int64_t completion_sum = 0;
  for (krad::Time t : oracle.completion) completion_sum += t;
  result.counts["sim.completion_sum"] = static_cast<double>(completion_sum);
  return result;
}

}  // namespace perfbench
