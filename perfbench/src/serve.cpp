// `serve` workload: an in-process svc::Service behind a svc::Server on
// loopback TCP, driven by one closed-loop client on one connection with 8
// submits in flight (krad_loadgen's defaults).  Wall clock at the default
// 1 ms quantum, machine {2,2}, K-RAD under fair share, tenants gold:3:64 /
// bronze:1:64, write-ahead journal on disk at the default fsync batch.
// Exercises the runtime in live mode plus svc parse, admission, journal and
// fair share.
//
// One op is one submitted job.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "common.hpp"
#include "jobs/job.hpp"
#include "obs/metrics.hpp"
#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kInFlight = 8;
/// More jobs than one run submits, so a window never repeats the pool.
constexpr std::size_t kPoolSize = 16384;
constexpr auto kDrainTimeout = std::chrono::seconds(20);
/// The service's default quantum.  Pacing sleeps out the rest of each
/// quantum, so a wake-up delayed by a busy host is absorbed as long as the
/// quantum's work still fits (see README "Statistics").
constexpr auto kQuantum = std::chrono::milliseconds(1);
/// Busy-spin length of each task: a quarter of the quantum.  The CPU a job
/// needs besides its tasks grows by about half when other guests keep the
/// host busy; with tasks doing real work for a quarter of each quantum,
/// that swing is a smaller share of cpu_us_per_op (see README
/// "Statistics").
constexpr std::uint64_t kTaskUs = 250;
/// Set-ups timed on each side of the window; the median is reported.
constexpr int kSetupReps = 100;
/// Completed jobs in the journal each set-up recovers.
constexpr std::size_t kRecoveredJobs = 1000;

/// Pre-rendered submit lines, generated from the seed.
struct Pool {
  std::vector<std::string> lines;
  std::vector<std::string> tenants;
  std::vector<std::int64_t> spans;  // chain length = span of the job
};

Pool make_pool(std::uint64_t seed) {
  krad::Rng rng(seed);
  Pool pool;
  std::int64_t bronze_slot = 0;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    // Traffic in proportion to the tenants' weights (3:1).  The two
    // tenants' latencies form two modes; with this mix the median lies
    // inside gold's mode instead of in the gap between the modes, where it
    // would jump with the mix of one window.  One job in every block of
    // four, at a random place in it, is bronze: the tail that bronze sets
    // follows bronze's load, which then does not vary with the seed.
    if (i % 4 == 0) bronze_slot = rng.uniform_int(0, 3);
    const char* tenant =
        static_cast<std::int64_t>(i % 4) == bronze_slot ? "bronze" : "gold";
    const std::int64_t chain = rng.uniform_int(2, 6);
    std::string vertices;
    std::string edges;
    for (std::int64_t v = 0; v < chain; ++v) {
      if (v > 0) vertices += ',';
      vertices += std::to_string(v % 2);
      if (v + 1 == chain) continue;
      if (v > 0) edges += ',';
      edges += '[';
      edges += std::to_string(v) + "," + std::to_string(v + 1);
      edges += ']';
    }
    pool.lines.push_back(std::string(R"({"op":"submit","tenant":")") + tenant +
                         R"(","job":{"categories":2,"vertices":[)" + vertices +
                         R"(],"edges":[)" + edges + R"(]},"task_us":)" +
                         std::to_string(kTaskUs) + "}\n");
    pool.tenants.push_back(tenant);
    pool.spans.push_back(chain);
  }
  return pool;
}

/// The integer following `key` in a reply line; -1 when absent.
std::int64_t int_field(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return -1;
  std::int64_t value = 0;
  bool any = false;
  for (std::size_t i = at + std::strlen(key); i < line.size(); ++i) {
    if (line[i] < '0' || line[i] > '9') break;
    value = value * 10 + (line[i] - '0');
    any = true;
  }
  return any ? value : -1;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One Service + Server + client connection.  Member order is destruction
/// order in reverse: the connection closes first, the registry goes last.
struct Instance {
  krad::obs::MetricsRegistry metrics;
  std::unique_ptr<krad::svc::Service> service;
  std::unique_ptr<krad::svc::Server> server;
  int fd = -1;
  std::string journal;

  ~Instance() { stop(); }

  void stop() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    if (server) server->stop();
    if (service) {
      service->drain();
      service->join();
    }
  }

  /// Sum of a counter over its tenant-labelled series (or the unlabelled
  /// one).
  std::int64_t counter(const char* name, bool per_tenant) {
    if (!per_tenant) return metrics.counter(name).value();
    std::int64_t sum = 0;
    for (const char* tenant : {"gold", "bronze"})
      sum += metrics.counter(name, {{"tenant", tenant}}).value();
    return sum;
  }
};

/// Write the journal of a service that has completed the first
/// kRecoveredJobs jobs of the pool: a submit and a terminal record each,
/// as the service itself journals them.
void write_recovery_journal(const Pool& pool, const std::string& path) {
  std::filesystem::remove(path);
  krad::svc::Journal journal(krad::svc::JournalConfig{path});
  journal.open([](std::string_view) {});
  for (std::size_t i = 0; i < kRecoveredJobs; ++i) {
    const std::uint64_t ticket = i + 1;
    krad::svc::JournalSubmit submit;
    submit.ticket = ticket;
    submit.tenant = pool.tenants[i];
    submit.name = "job-" + std::to_string(ticket);
    submit.task_us = kTaskUs;
    submit.dag = krad::KDag(2);
    for (std::int64_t v = 0; v < pool.spans[i]; ++v) {
      submit.dag.add_vertex(static_cast<krad::Category>(v % 2));
      if (v > 0)
        submit.dag.add_edge(static_cast<krad::VertexId>(v - 1),
                            static_cast<krad::VertexId>(v));
    }
    submit.dag.seal();
    krad::svc::JournalTerminal terminal;
    terminal.ticket = ticket;
    terminal.tenant = submit.tenant;
    terminal.name = submit.name;
    terminal.state = krad::svc::TicketState::kDone;
    terminal.outcome = krad::to_string(krad::JobOutcome::kCompleted);
    terminal.response_quanta = pool.spans[i];
    journal.append(krad::svc::encode_record(submit));
    journal.append(krad::svc::encode_record(terminal));
  }
  journal.sync();
}

/// Construct the service (journal open + recover), start the server and
/// connect the client: the serve workload's set-up.  `journal` is
/// recovered as it is found: a missing file starts an empty log.
std::unique_ptr<Instance> start_instance(const std::string& journal) {
  auto instance = std::make_unique<Instance>();
  instance->journal = journal;
  krad::svc::ServiceConfig config;
  config.machine = krad::MachineConfig{{2, 2}};
  config.tenants = {{"gold", 3.0, 64}, {"bronze", 1.0, 64}};
  config.scheduler = "krad";
  config.clock = krad::ClockMode::kWall;
  config.quantum_length = kQuantum;
  config.journal_path = journal;
  config.metrics = &instance->metrics;
  instance->service = std::make_unique<krad::svc::Service>(config);
  instance->server = std::make_unique<krad::svc::Server>(
      *instance->service, krad::svc::ServerConfig{}, &instance->metrics);
  instance->server->start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  instance->fd = fd;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Bounded blocking reads, so a missing reply ends in the drain timeout.
  const timeval timeout{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(instance->server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0)
    throw std::runtime_error("serve: connect() failed");
  return instance;
}

struct DriveStats {
  std::int64_t submitted = 0;
  std::int64_t acked = 0;
  std::int64_t rejected = 0;
  std::int64_t completed_ok = 0;
  std::int64_t bad = 0;  // wrong outcome, response < span, unknown ticket
  double seconds = 0.0;  // start -> last completion
  double cpu_seconds = 0.0;
  std::vector<double> latency;  // submit write -> complete read, seconds
  // Per-layer samples, kept in traced runs only.
  std::vector<double> ack;  // submit write -> ack read, seconds
  std::vector<double> response_quanta;
  double sum_after_ack = 0.0;  // Σ (complete - ack), seconds
  double sum_quanta = 0.0;
  std::vector<std::string> errors;

  void error(std::string message) {
    if (errors.size() < 20) errors.push_back(std::move(message));
  }
};

/// Closed loop: keep kInFlight submits outstanding until `duration` has
/// passed, then stop submitting and wait for every outstanding reply.
DriveStats drive(Instance& instance, const Pool& pool, std::size_t& cursor,
                 double duration, krad::obs::TraceSession* trace) {
  struct Pending {
    Clock::time_point sent;
    Clock::time_point acked;
    std::int64_t span = 0;
  };
  struct Unacked {
    Clock::time_point sent;
    std::int64_t span = 0;
  };
  DriveStats stats;
  std::deque<Unacked> unacked;
  std::unordered_map<std::int64_t, Pending> pending;
  std::string rx;
  char chunk[8192];

  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration));
  auto last_done = start;
  bool submitting = true;

  const bool keep_samples = trace != nullptr;

  const auto outstanding = [&] { return unacked.size() + pending.size(); };
  for (;;) {
    const auto now = Clock::now();
    if (submitting && now >= stop_at) submitting = false;
    while (submitting && outstanding() < kInFlight) {
      const std::size_t i = cursor++ % pool.lines.size();
      const auto sent = Clock::now();
      if (!send_all(instance.fd, pool.lines[i])) {
        stats.error("serve: send failed");
        submitting = false;
        break;
      }
      unacked.push_back({sent, pool.spans[i]});
      ++stats.submitted;
    }
    if (outstanding() == 0) break;
    if (now > stop_at + kDrainTimeout) {
      stats.error("serve: replies missing after the drain timeout");
      break;
    }

    const ssize_t n = ::recv(instance.fd, chunk, sizeof(chunk), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) {
      stats.error("serve: connection closed by the server");
      break;
    }
    rx.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t nl; (nl = rx.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      const std::string line = rx.substr(begin, nl - begin);
      const auto at = Clock::now();
      if (line.find(R"("event":"complete")") != std::string::npos) {
        const std::int64_t ticket = int_field(line, R"("ticket":)");
        const auto it = pending.find(ticket);
        if (it == pending.end()) {
          ++stats.bad;
          stats.error(
              "serve: complete event for an unknown or finished ticket");
          continue;
        }
        const std::int64_t quanta = int_field(line, R"("response_quanta":)");
        const bool ok =
            line.find(R"("outcome":"completed")") != std::string::npos &&
            quanta >= it->second.span;
        if (ok) {
          ++stats.completed_ok;
        } else {
          ++stats.bad;
          stats.error("serve: bad complete event: " + line);
        }
        stats.latency.push_back(seconds_between(it->second.sent, at));
        if (keep_samples)
          stats.response_quanta.push_back(static_cast<double>(quanta));
        stats.sum_after_ack += seconds_between(it->second.acked, at);
        stats.sum_quanta += static_cast<double>(quanta);
        add_span(trace, "svc.complete", it->second.acked, at,
                 {{"ticket", static_cast<double>(ticket)}});
        pending.erase(it);
        last_done = at;
      } else if (line.find(R"("ok":true)") != std::string::npos &&
                 line.find(R"("op":"submit")") != std::string::npos) {
        // Acks arrive in request order on one connection.
        const std::int64_t ticket = int_field(line, R"("ticket":)");
        if (unacked.empty() || ticket < 0 || pending.count(ticket) != 0) {
          ++stats.bad;
          stats.error("serve: unexpected ack: " + line);
          continue;
        }
        const Unacked sent = unacked.front();
        unacked.pop_front();
        pending[ticket] = {sent.sent, at, sent.span};
        if (keep_samples) stats.ack.push_back(seconds_between(sent.sent, at));
        add_span(trace, "svc.ack", sent.sent, at,
                 {{"ticket", static_cast<double>(ticket)}});
        ++stats.acked;
      } else if (line.find(R"("ok":false)") != std::string::npos) {
        if (!unacked.empty()) unacked.pop_front();
        ++stats.rejected;
        last_done = at;
      } else {
        ++stats.bad;
        stats.error("serve: unexpected line: " + line);
      }
    }
    rx.erase(0, begin);
  }
  stats.seconds = seconds_between(start, last_done);
  stats.cpu_seconds = process_cpu_seconds() - cpu_start;
  return stats;
}

}  // namespace

Result run_serve_workload(const Options& options,
                          krad::obs::TraceSession* trace) {
  const Pool pool = make_pool(options.seed);
  std::filesystem::create_directories(options.scratch_dir);
  const std::string journal_base = options.scratch_dir + "/serve-" +
                                   std::to_string(::getpid()) + "-";
  std::size_t cursor = 0;
  Result result;

  const auto check = [&](const DriveStats& stats) {
    for (const std::string& error : stats.errors) result.fail(error);
  };

  // Warm-up: a throwaway instance serving the closed loop, so every thread
  // kind (executor, workers, acceptor, session reader/writer) has run.
  {
    std::filesystem::remove(journal_base + "warm.wal");
    auto warm = start_instance(journal_base + "warm.wal");
    const DriveStats stats =
        drive(*warm, pool, cursor, kWarmupSeconds, trace);
    check(stats);
    result.warmup_ops_per_s =
        static_cast<double>(stats.completed_ok) / std::max(stats.seconds, 1e-9);
    warm->stop();
    std::filesystem::remove(warm->journal);
  }

  // Set-up: service construction (journal open + recovery of
  // kRecoveredJobs completed jobs), server start and client connect, timed
  // kSetupReps times before the window (the last instance serves it) and
  // kSetupReps times after it, so that the median spans the run rather than
  // one moment of it.  Each set-up recovers its own copy of one journal.
  const std::string recovery_journal = journal_base + "recovery.wal";
  write_recovery_journal(pool, recovery_journal);
  std::vector<double> setup_seconds;
  int setups = 0;
  const auto timed_setup = [&] {
    const std::string journal =
        journal_base + std::to_string(setups++) + ".wal";
    std::filesystem::copy_file(
        recovery_journal, journal,
        std::filesystem::copy_options::overwrite_existing);
    const auto start = Clock::now();
    auto fresh = start_instance(journal);
    setup_seconds.push_back(seconds_between(start, Clock::now()));
    if (fresh->service->health().completed != kRecoveredJobs)
      result.fail("serve: set-up did not recover the journal's jobs");
    return fresh;
  };
  const auto discard = [](std::unique_ptr<Instance>& old) {
    old->stop();
    std::filesystem::remove(old->journal);
    old.reset();
  };
  std::unique_ptr<Instance> instance = timed_setup();
  for (int i = 1; i < kSetupReps; ++i) {
    discard(instance);
    instance = timed_setup();
  }

  // A short untimed settle on the fresh instance, then the timed window.
  check(drive(*instance, pool, cursor, 0.25, trace));
  const DriveStats stats =
      drive(*instance, pool, cursor, options.seconds, trace);
  check(stats);
  // Before teardown: stopping the service copies its per-quantum stats,
  // and whether those copies land on fresh pages varies from run to run.
  result.end_to_end["peak_rss_mb"] = peak_rss_mb();
  instance->stop();
  const std::int64_t accepted =
      instance->counter("krad_svc_accepted_total", true);
  const std::int64_t records =
      instance->counter("krad_svc_journal_records", false);
  const std::int64_t fsyncs =
      instance->counter("krad_svc_journal_fsyncs", false);
  discard(instance);
  for (int i = 0; i < kSetupReps; ++i) {
    instance = timed_setup();
    discard(instance);
  }
  std::filesystem::remove(recovery_journal);

  result.attempted = stats.submitted;
  result.failed = stats.submitted - stats.completed_ok;
  if (stats.acked != stats.completed_ok + stats.bad)
    result.fail("serve: acked tickets without exactly one complete event");
  if (stats.rejected > 0) result.fail("serve: submits were refused");

  const auto done = static_cast<double>(stats.completed_ok + stats.bad);
  result.end_to_end["ops_per_s"] = done / stats.seconds;
  result.end_to_end["cpu_us_per_op"] = stats.cpu_seconds * 1e6 / done;
  result.end_to_end["latency_p50_ms"] = quantile(stats.latency, 0.50) * 1e3;
  result.end_to_end["latency_p99_ms"] = quantile(stats.latency, 0.99) * 1e3;
  result.end_to_end["setup_s"] = quantile(setup_seconds, 0.5);

  result.per_layer["svc.ack_us_p50"] = quantile(stats.ack, 0.50) * 1e6;
  result.per_layer["svc.ack_us_p99"] = quantile(stats.ack, 0.99) * 1e6;
  result.per_layer["svc.response_quanta_p50"] =
      quantile(stats.response_quanta, 0.50);
  result.per_layer["svc.response_quanta_p99"] =
      quantile(stats.response_quanta, 0.99);
  result.per_layer["svc.wall_us_per_quantum"] =
      stats.sum_after_ack * 1e6 / stats.sum_quanta;
  const auto per_job = [&](std::int64_t count) {
    return accepted > 0 ? static_cast<double>(count) /
                              static_cast<double>(accepted)
                        : 0.0;
  };
  result.per_layer["svc.journal_records_per_job"] = per_job(records);
  result.per_layer["svc.journal_fsyncs_per_job"] = per_job(fsyncs);
  result.per_layer["svc.rejected_share"] =
      static_cast<double>(stats.rejected) /
      static_cast<double>(std::max<std::int64_t>(1, stats.submitted));

  result.counts["svc.journal_records_per_job"] = per_job(records);
  return result;
}

}  // namespace perfbench
