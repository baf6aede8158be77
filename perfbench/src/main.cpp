// krad_perfbench — one workload run of the repository benchmark.
//
//   krad_perfbench --workload campaign|executor|serve --seed N --seconds S
//                  --trace 0|1 [--scratch DIR] [--trace-out FILE]
//
// Prints diagnostic lines starting with '#' (host, warm-up throughput,
// exact counts, and in a traced run its own end-to-end numbers), then as
// the last line one JSON object {"correct","attempted","failed","metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  Exits 1 when an output check failed, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"

namespace {

using Metric = std::pair<const char*, const char*>;  // name, unit

const std::vector<Metric> kEndToEnd = {
    {"ops_per_s", "1/s"},     {"cpu_us_per_op", "us"},
    {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"ok_share", "share"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// A layer a workload bypasses reports 0 for its metrics.
const std::vector<Metric> kPerLayer = {
    {"exp.shard_busy_share", "share"},
    {"exp.run_us_p50", "us"},
    {"exp.setup_us_per_run", "us"},
    {"sim.simulate_us_per_run", "us"},
    {"sim.busy_steps_per_run", "count"},
    {"runtime.quanta_per_run", "count"},
    {"runtime.barrier_us_per_quantum", "us"},
    {"runtime.barrier_share", "share"},
    {"runtime.task_busy_share", "share"},
    {"runtime.setup_us_per_run", "us"},
    {"core.allot_us_per_quantum", "us"},
    {"svc.ack_us_p50", "us"},
    {"svc.ack_us_p99", "us"},
    {"svc.response_quanta_p50", "quanta"},
    {"svc.response_quanta_p99", "quanta"},
    {"svc.wall_us_per_quantum", "us"},
    {"svc.journal_records_per_job", "count"},
    {"svc.journal_fsyncs_per_job", "count"},
    {"svc.rejected_share", "share"},
};

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_object(const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "" : ",") << '"' << name << "\":" << number(value);
    first = false;
  }
  out << '}';
  return out.str();
}

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "krad_perfbench: " << message << "\n"
            << "usage: krad_perfbench --workload campaign|executor|serve "
               "--seed N --seconds S --trace 0|1 [--scratch DIR] "
               "[--trace-out FILE]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--scratch") {
        options.scratch_dir = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (options.workload != "campaign" && options.workload != "executor" &&
      options.workload != "serve")
    usage("unknown workload " + options.workload);
  if (!(options.seconds > 0.0)) usage("--seconds must be > 0");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  std::cout << "# host {\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"compiler\":\"" << PERFBENCH_COMPILER
            << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"workload\":\"" << options.workload
            << "\",\"seed\":" << options.seed
            << ",\"trace\":" << (options.trace ? 1 : 0) << "}\n";

  krad::obs::TraceSession session;
  krad::obs::TraceSession* trace = options.trace ? &session : nullptr;
  perfbench::Result result;
  const perfbench::CpuTicks ticks_before = perfbench::host_cpu_ticks();
  try {
    result = perfbench::run_workload(options, trace);
  } catch (const std::exception& e) {
    std::cerr << "krad_perfbench: " << options.workload
              << " failed: " << e.what() << "\n";
    return 1;
  }
  const perfbench::CpuTicks ticks_after = perfbench::host_cpu_ticks();
  result.end_to_end["ok_share"] =
      static_cast<double>(result.attempted - result.failed) /
      static_cast<double>(std::max<std::int64_t>(1, result.attempted));
  if (result.attempted < 1) result.fail("no op was attempted");

  std::cout << "# warmup {\"ops_per_s\":" << number(result.warmup_ops_per_s)
            << "}\n";
  // Share of the host's CPU time taken by the hypervisor during the run: a
  // disturbed run shows here, not in the program's own numbers.
  std::cout << "# steal {\"share\":"
            << number(perfbench::steal_share(ticks_before, ticks_after))
            << "}\n";
  std::cout << "# counts " << json_object(result.counts) << "\n";
  if (options.trace) {
    std::cout << "# traced_end_to_end " << json_object(result.end_to_end)
              << "\n";
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      session.write_json(out);
      if (!out) result.fail("cannot write the trace to " + options.trace_out);
      std::cout << "# trace {\"file\":\"" << options.trace_out
                << "\",\"spans\":" << session.size() << "}\n";
    }
  }

  const std::vector<Metric>& table = options.trace ? kPerLayer : kEndToEnd;
  const auto& values = options.trace ? result.per_layer : result.end_to_end;
  std::ostringstream metrics;
  bool first = true;
  for (const auto& [name, unit] : table) {
    const auto it = values.find(name);
    double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      result.fail(std::string("metric ") + name + " is not finite");
      value = 0.0;
    }
    metrics << (first ? "" : ",") << '"' << name << "\":{\"value\":"
            << number(value) << ",\"unit\":\"" << unit << "\"}";
    first = false;
  }
  for (const std::string& error : result.errors)
    std::cerr << "krad_perfbench: check failed: " << error << "\n";
  std::cout << "{\"correct\":" << (result.correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{"
            << metrics.str() << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
