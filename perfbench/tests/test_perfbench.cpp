// Tests of the benchmark itself: its exact counts repeat for one seed and
// agree between traced and untraced runs, and the allot timing decorator
// leaves scheduling outputs unchanged.  Run with
// `python3 perfbench/run.py --test` from the repository root.

#include <gtest/gtest.h>

#include "common.hpp"
#include "exp/standard_run.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/random_jobs.hpp"

namespace {

perfbench::Options short_run(const std::string& workload) {
  perfbench::Options options;
  options.workload = workload;
  options.seed = 7;
  options.seconds = 0.3;
  return options;
}

perfbench::Result run(const std::string& workload, bool trace) {
  krad::obs::TraceSession session;
  perfbench::Result result = perfbench::run_workload(
      short_run(workload), trace ? &session : nullptr);
  EXPECT_TRUE(result.correct) << workload << ": "
                              << (result.errors.empty() ? ""
                                                        : result.errors[0]);
  EXPECT_GT(result.attempted, 0);
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(trace, session.size() > 0) << workload;
  return result;
}

class ExactCounts : public ::testing::TestWithParam<const char*> {};

TEST_P(ExactCounts, RepeatForOneSeedAndMatchTracedRun) {
  const std::string workload = GetParam();
  const perfbench::Result first = run(workload, false);
  const perfbench::Result second = run(workload, false);
  const perfbench::Result traced = run(workload, true);
  ASSERT_FALSE(first.counts.empty());
  EXPECT_EQ(first.counts, second.counts);
  EXPECT_EQ(first.counts, traced.counts);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ExactCounts,
                         ::testing::Values("campaign", "executor", "serve"));

TEST(ExactCounts, KnownValues) {
  // One journal submit record and one terminal record per job.
  EXPECT_EQ(run("serve", false).counts.at("svc.journal_records_per_job"), 2.0);
  // The executor's quanta equal the simulator's busy steps (checked inside
  // the workload); here: the count is a positive whole number.
  const double quanta =
      run("executor", false).counts.at("runtime.quanta_per_run");
  EXPECT_GT(quanta, 0.0);
  EXPECT_EQ(quanta, static_cast<double>(static_cast<long long>(quanta)));
}

TEST(TimedScheduler, LeavesSimulatorOutputsUnchanged) {
  for (const char* name : {"krad", "kequi", "kdeq"}) {
    for (krad::Category k : {krad::Category{2}, krad::Category{3}}) {
      krad::RandomDagJobParams params;
      params.num_categories = k;
      params.min_size = 16;
      params.max_size = 128;
      const krad::MachineConfig machine{std::vector<int>(k, 4)};

      krad::Rng plain_rng(11);
      krad::JobSet plain_set = krad::make_dag_job_set(params, 16, plain_rng);
      const auto plain_scheduler = krad::exp::make_scheduler(name);
      const krad::SimResult plain =
          krad::simulate(plain_set, *plain_scheduler, machine);

      krad::Rng timed_rng(11);
      krad::JobSet timed_set = krad::make_dag_job_set(params, 16, timed_rng);
      const auto inner = krad::exp::make_scheduler(name);
      perfbench::TimedScheduler timed(*inner);
      const krad::SimResult decorated =
          krad::simulate(timed_set, timed, machine);

      EXPECT_GT(timed.calls(), 0) << name;
      EXPECT_EQ(timed.name(), plain_scheduler->name());
      EXPECT_EQ(decorated.makespan, plain.makespan) << name << " k=" << k;
      EXPECT_EQ(decorated.completion, plain.completion) << name;
      EXPECT_EQ(decorated.busy_steps, plain.busy_steps) << name;
      EXPECT_EQ(decorated.allotted, plain.allotted) << name;
      EXPECT_EQ(decorated.executed_work, plain.executed_work) << name;
    }
  }
}

TEST(Statistics, QuantileInterpolates) {
  EXPECT_EQ(perfbench::quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile({1.0, 2.0}, 0.25), 1.25);
}

TEST(Statistics, SliceMediansIgnoreADisturbedMinorityOfSlices) {
  // Fewer than kMinCalmSlices slices: every slice counts, whatever the
  // host's steal during the test.
  perfbench::SlicedSamples slices;
  for (const double base : {1.0, 50.0, 2.0}) {  // the middle slice disturbed
    slices.add(base);
    slices.add(base + 1.0);
    slices.close_slice(2.0, base);  // 2 ops in `base` seconds
  }
  slices.add(3.0);  // a trailing partial slice joins the last one
  slices.finish(1.0, 1.0);
  EXPECT_DOUBLE_EQ(slices.slice_median(1.0), 3.0);  // slice maxima 2, 51, 3
  EXPECT_DOUBLE_EQ(slices.window_quantile(1.0), 51.0);
  EXPECT_DOUBLE_EQ(slices.window_quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(slices.median_rate(), 1.0);  // rates 2, 0.04, 3/3
}

}  // namespace
