// The end-to-end MDQL serving benchmark (perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir>
//
// Starts serve::TcpServer in-process on loopback over the workload's MO,
// drives it as a closed loop from this one thread, verifies every reply
// against an interpreter replica, and prints one JSON result line last.
// With --trace 1 it then replays the same operation stream in-process
// through each layer's public functions and reports per-layer metrics.

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "serve/tcp_server.h"
#include "serving.h"
#include "stats.h"
#include "stress/oracle.h"
#include "trace.h"
#include "traced_replay.h"
#include "wire_client.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mddc::Result;
using mddc::Status;
using mddc::StrCat;
using Clock = std::chrono::steady_clock;

/// Set-ups per run, setup_s is their median: at least kMinSetupReps,
/// more while their total is under kMinSetupSeconds, so a cheap set-up is
/// measured often enough to be steady.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 15;
constexpr double kMinSetupSeconds = 2.0;

/// Interpreter replicas that verify a run's replies in parallel.
constexpr std::size_t kVerifyShards = 3;

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed =
          static_cast<std::uint32_t>(std::strtoul(value.c_str(), &end, 10));
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds =
          static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || options->seconds < 1) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// One served set-up: store, server, TCP front-end and the client's
/// connections. Members are declared in construction order, so the
/// connections close first and the store goes last.
struct Served {
  mddc::serve::MoStore store;
  mddc::serve::MdqlServer server{&store};
  mddc::serve::TcpServer tcp{&server};
  std::vector<std::unique_ptr<WireClient>> clients;
  std::uint64_t base_epoch = 0;
  std::vector<std::string> warmup_replies;
};

/// Generate, publish, register warm specs, start the server, connect, and
/// run the warm-up reads on every connection.
Result<std::unique_ptr<Served>> SetUp(const Workload& workload) {
  auto served = std::make_unique<Served>();
  MDDC_RETURN_NOT_OK(PublishWorkload(workload, served->store));
  served->base_epoch = served->store.epoch();
  MDDC_RETURN_NOT_OK(served->tcp.Start(0));
  for (std::size_t c = 0; c < workload.connections; ++c) {
    auto client = std::make_unique<WireClient>();
    MDDC_RETURN_NOT_OK(client->Connect(served->tcp.port()));
    served->clients.push_back(std::move(client));
  }
  for (std::size_t c = 0; c < workload.connections; ++c) {
    for (const std::string& statement : workload.warmup[c]) {
      MDDC_ASSIGN_OR_RETURN(WireReply reply,
                            served->clients[c]->Roundtrip(statement));
      served->warmup_replies.push_back(reply.status + "\n" + reply.payload);
    }
  }
  return served;
}

Result<Counters> SessionCounters(Served& served) {
  Counters total;
  for (auto& client : served.clients) {
    MDDC_ASSIGN_OR_RETURN(WireReply reply, client->Roundtrip(".stats"));
    if (!reply.ok()) return Status::InvariantViolation(reply.status);
    AddCounters(total, ParseSessionStats(reply.payload));
  }
  return total;
}

/// The TCP run's record of one op.
struct Executed {
  double ms = 0.0;
  bool ok = false;
  /// A read that was its connection's first after an epoch move.
  bool fresh = false;
  std::uint64_t epoch = 0;
  std::string payload;
};

/// Sends ops in order on their connections and records each reply. The
/// one client thread makes every epoch exact: the base epoch plus the
/// INSERTs acknowledged so far.
class ClientLoop {
 public:
  ClientLoop(Served& served, std::size_t connections)
      : served_(served), stale_(connections, false) {}

  Status Run(const Op& op) {
    const auto start = Clock::now();
    MDDC_ASSIGN_OR_RETURN(WireReply reply,
                          served_.clients[op.conn]->Roundtrip(op.statement));
    Executed record;
    record.ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                    .count();
    record.ok = reply.ok();
    if (!record.ok) {
      std::fprintf(stderr, "ERR reply to [%s]: %s\n", op.statement.c_str(),
                   reply.status.c_str());
    }
    if (op.write) {
      if (record.ok) {
        ++writes_;
        stale_.assign(stale_.size(), true);
      }
    } else {
      record.fresh = stale_[op.conn];
      stale_[op.conn] = false;
    }
    record.epoch = served_.base_epoch + writes_;
    record.payload = std::move(reply.payload);
    ops.push_back(op);
    executed.push_back(std::move(record));
    return Status::OK();
  }

  std::uint64_t writes() const { return writes_; }

  std::vector<Op> ops;
  std::vector<Executed> executed;

 private:
  Served& served_;
  std::vector<bool> stale_;
  std::uint64_t writes_ = 0;
};

/// What the interpreter-replica check found.
struct Verification {
  std::size_t attempted = 0;
  std::size_t errors = 0;        ///< ERR replies
  /// Replies differing from another reply to the same (epoch, statement).
  std::size_t inconsistent = 0;
  /// Oracle mismatches: distinct reads and write acknowledgments.
  std::size_t mismatches = 0;
  bool oracle_ok = true;

  std::size_t failed() const { return errors + inconsistent + mismatches; }
};

/// Checks every reply: identical (epoch, statement) pairs must agree byte
/// for byte, and one of each, plus every write acknowledgment, must match
/// an interpreter replica (mdql::Session, compiler off) that replays the
/// writes in epoch order (stress::VerifySequentialReplay).
Verification Verify(const Workload& workload, const Served& served,
                    const ClientLoop& loop) {
  Verification v;
  v.attempted = loop.executed.size() + served.warmup_replies.size();
  for (const std::string& reply : served.warmup_replies) {
    if (reply.rfind("OK", 0) != 0) ++v.errors;
  }
  mddc::stress::StressReport report;
  std::map<std::pair<std::uint64_t, std::string>, const std::string*> seen;
  for (std::size_t i = 0; i < loop.executed.size(); ++i) {
    const Op& op = loop.ops[i];
    const Executed& e = loop.executed[i];
    if (!e.ok) {
      ++v.errors;
      continue;
    }
    mddc::stress::StatementRecord record{e.epoch, op.statement, e.payload};
    if (op.write) {
      report.write_records.push_back(std::move(record));
      continue;
    }
    auto [it, inserted] =
        seen.emplace(std::make_pair(e.epoch, op.statement), &e.payload);
    if (inserted) {
      report.read_records.push_back(std::move(record));
    } else if (*it->second != e.payload) {
      ++v.inconsistent;
    }
  }
  // The distinct reads, in epoch order, are cut into shards replayed in
  // parallel, each on its own replica. A shard replays the writes up to
  // its last read (the last shard all of them), so a wrong write
  // acknowledgment is counted once per shard that replays it.
  std::stable_sort(report.read_records.begin(), report.read_records.end(),
                   [](const auto& a, const auto& b) {
                     return a.epoch < b.epoch;
                   });
  const std::size_t reads = report.read_records.size();
  const std::size_t shards =
      std::max<std::size_t>(1, std::min(kVerifyShards, reads));
  std::vector<mddc::stress::StressReport> shard_reports(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    mddc::stress::StressReport& shard = shard_reports[s];
    const std::size_t begin = reads * s / shards;
    const std::size_t end = reads * (s + 1) / shards;
    shard.read_records.assign(report.read_records.begin() + begin,
                              report.read_records.begin() + end);
    for (const auto& write : report.write_records) {
      if (s + 1 == shards || write.epoch <= shard.read_records.back().epoch) {
        shard.write_records.push_back(write);
      }
    }
  }
  std::vector<Result<mddc::stress::OracleReport>> oracles(
      shards, Status::InvariantViolation("not run"));
  {
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < shards; ++s) {
      threads.emplace_back([&, s] {
        auto replica = workload.generate();
        oracles[s] = replica.ok()
                         ? mddc::stress::VerifySequentialReplay(
                               std::move(*replica), workload.mo_name,
                               served.base_epoch, shard_reports[s])
                         : Result<mddc::stress::OracleReport>(replica.status());
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  std::size_t reads_checked = 0;
  for (const auto& oracle : oracles) {
    if (!oracle.ok()) {
      std::fprintf(stderr, "oracle: %s\n", oracle.status().ToString().c_str());
      v.oracle_ok = false;
      continue;
    }
    reads_checked += oracle->reads_checked;
    if (oracle->mismatches > 0 && v.mismatches == 0) {
      std::fprintf(stderr, "first mismatch: %s\n",
                   oracle->first_mismatch.c_str());
    }
    v.mismatches += oracle->mismatches;
  }
  std::printf("verified: %zu replies (%zu distinct reads and %zu writes "
              "replayed on %zu interpreter replicas)\n",
              v.attempted, reads_checked, report.write_records.size(), shards);
  return v;
}

void PrintMetricLine(const Metric& metric, std::size_t samples) {
  std::printf("  %-22s %14.6f %-6s (n=%zu)\n", metric.name.c_str(),
              metric.value, metric.unit.c_str(), samples);
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += StrCat(i == 0 ? "" : ", ", "\"", metrics[i].name,
                   "\": {\"value\": ", value, ", \"unit\": \"",
                   metrics[i].unit, "\"}");
  }
  return json + "}";
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <read-steady|ingest-fanout|"
                 "clinical-mix> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n");
    return 2;
  }
  // glibc raises its mmap and trim thresholds as the process frees large
  // blocks, so whether a read's scratch comes back from the kernel as
  // fresh pages (~10^4 faults per read at 10^5 facts) or from retained
  // heap (~10^3) would depend on allocation history, and read latency
  // would flip between two modes from run to run. Pinning both at
  // glibc's initial 128 KiB makes every run pay the fresh-page cost.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  auto made = MakeWorkload(options.workload, options.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& workload = *made;
  std::printf("perfbench %s seed=%u seconds=%d trace=%d\n",
              workload.name.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0);

  // The served set-up runs first in the process. Set-ups torn down
  // before it would leave the connection threads' malloc arenas
  // fragmented, which makes the page faults per read, and so the read
  // latency, differ from run to run. The other set-ups of setup_s's
  // median run after the measurement.
  std::vector<double> setup_s;
  auto timed_setup = [&]() -> Result<std::unique_ptr<Served>> {
    const auto start = Clock::now();
    MDDC_ASSIGN_OR_RETURN(std::unique_ptr<Served> set_up, SetUp(workload));
    setup_s.push_back(SecondsSince(start));
    return set_up;
  };
  auto first_setup = timed_setup();
  if (!first_setup.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 first_setup.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Served> served = std::move(*first_setup);

  auto counters_before = SessionCounters(*served);
  const mddc::serve::MoStore::Stats store_before = served->store.CollectStats();

  // Timed phase: a closed loop from this thread.
  ClientLoop loop(*served, workload.connections);
  const double cpu_start = CpuSeconds();
  const long faults_start = MinorFaults();
  const auto timed_start = Clock::now();
  auto run_group = [&loop](const std::vector<Op>& group) {
    for (const Op& op : group) {
      if (Status status = loop.Run(op); !status.ok()) {
        std::fprintf(stderr, "wire failure: %s\n", status.ToString().c_str());
        return false;
      }
    }
    return true;
  };
  while (SecondsSince(timed_start) < options.seconds) {
    if (!run_group(workload.next_group())) return 1;
  }
  const double timed_s = SecondsSince(timed_start);
  const double timed_cpu_s = CpuSeconds() - cpu_start;
  const long timed_faults = MinorFaults() - faults_start;
  const std::size_t timed_ops = loop.ops.size();
  const std::uint64_t timed_writes = loop.writes();
  auto counters_after = SessionCounters(*served);
  const mddc::serve::MoStore::Stats store_after = served->store.CollectStats();

  // Epoch-move rounds: writes and first-reads-after-an-epoch-move.
  const auto tail_start = Clock::now();
  for (std::size_t round = 0; round < workload.tail_rounds; ++round) {
    if (!run_group(workload.next_tail_round())) return 1;
  }
  const double tail_s = SecondsSince(tail_start);
  const double peak_rss_mb = PeakRssMb();
  if (!counters_before.ok() || !counters_after.ok()) {
    std::fprintf(stderr, ".stats failed\n");
    return 1;
  }
  auto epoch_reply = served->clients[0]->Roundtrip(".epoch");
  const std::string expected_epoch =
      StrCat("OK ", served->base_epoch + loop.writes());
  const bool epoch_exact =
      epoch_reply.ok() && epoch_reply->status == expected_epoch;
  if (!epoch_exact) {
    std::fprintf(stderr, "store epoch is not the expected %s\n",
                 expected_epoch.c_str());
  }

  // Inputs: the seed and a digest of the operation stream.
  const std::size_t prefix = std::min<std::size_t>(200, loop.ops.size());
  std::printf("inputs: seed=%u digest(first %zu ops)=%016llx "
              "digest(all %zu ops)=%016llx\n",
              options.seed, prefix,
              static_cast<unsigned long long>(DigestOps(loop.ops, prefix)),
              loop.ops.size(),
              static_cast<unsigned long long>(
                  DigestOps(loop.ops, loop.ops.size())));

  // End-to-end metrics.
  std::vector<double> reads, fresh, writes;
  for (std::size_t i = 0; i < loop.ops.size(); ++i) {
    const Executed& e = loop.executed[i];
    if (loop.ops[i].write) {
      writes.push_back(e.ms);
    } else {
      if (i < timed_ops) reads.push_back(e.ms);
      if (e.fresh) fresh.push_back(e.ms);
    }
  }
  const LatencySummary read = Summarize(reads);
  const auto verify_start = Clock::now();
  Verification verification = Verify(workload, *served, loop);
  const double verify_s = SecondsSince(verify_start);

  // The rest of setup_s's set-ups; their warm-up replies must equal the
  // served set-up's.
  const std::vector<std::string> warmup_replies = served->warmup_replies;
  served.reset();
  double setup_total_s = setup_s.front();
  while (setup_s.size() < kMaxSetupReps &&
         (setup_s.size() < kMinSetupReps || setup_total_s < kMinSetupSeconds)) {
    auto extra = timed_setup();
    if (!extra.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   extra.status().ToString().c_str());
      return 1;
    }
    setup_total_s += setup_s.back();
    verification.attempted += warmup_replies.size();
    for (std::size_t i = 0; i < warmup_replies.size(); ++i) {
      if ((*extra)->warmup_replies[i] != warmup_replies[i]) {
        ++verification.inconsistent;
      }
    }
  }
  std::printf("phases: set-up %.2f s x %zu, timed %.2f s, epoch-move rounds "
              "%.2f s, verification %.2f s\n",
              Median(setup_s), setup_s.size(), timed_s, tail_s, verify_s);
  const double failed_ratio =
      Ratio(static_cast<double>(verification.failed()),
            static_cast<double>(verification.attempted));

  // Every end-to-end metric with the number of samples behind it.
  const std::vector<std::pair<Metric, std::size_t>> end_to_end = {
      {{"setup_s", Median(setup_s), "s"}, setup_s.size()},
      {{"read_p50_ms", read.p50, "ms"}, read.count},
      {{"read_p90_ms", read.p90, "ms"}, read.count},
      {{"fresh_read_p50_ms", Median(fresh), "ms"}, fresh.size()},
      {{"write_p50_ms", Median(writes), "ms"}, writes.size()},
      {{"ops_per_s", static_cast<double>(timed_ops) / timed_s, "1/s"},
       timed_ops},
      {{"cpu_ms_per_op", timed_cpu_s * 1e3 / static_cast<double>(timed_ops),
        "ms"},
       timed_ops},
      {{"peak_rss_mb", peak_rss_mb, "MB"}, 1},
  };
  std::printf("end-to-end (untraced, closed loop, 1 client thread, %zu "
              "connection(s)):\n",
              workload.connections);
  for (const auto& [metric, samples] : end_to_end) {
    PrintMetricLine(metric, samples);
  }
  std::printf("  (%zu reads above read_p90_ms)\n", read.beyond_p90);
  PrintMetricLine({"failed_ratio", failed_ratio, "ratio"},
                  verification.attempted);
  PrintMetricLine({"minor_faults_per_op",
                   static_cast<double>(timed_faults) /
                       static_cast<double>(timed_ops),
                   "count"},
                  timed_ops);

  // Coverage: does each workload exercise what it claims to?
  const Counters timed = Delta(*counters_after, *counters_before);
  const double appends = static_cast<double>(store_after.append_batches -
                                             store_before.append_batches);
  const double fallbacks = static_cast<double>(store_after.append_fallbacks -
                                               store_before.append_fallbacks);
  Coverage coverage;
  coverage.reads = timed.at("reads");
  coverage.writes = static_cast<double>(timed_writes);
  coverage.view_rebuilds = timed.at("view_rebuilds");
  coverage.dense_kernel_ratio =
      Ratio(timed.at("dense_groupby_runs"),
            timed.at("dense_groupby_runs") + timed.at("flat_hash_runs"));
  coverage.index_hit_ratio =
      Ratio(timed.at("index_hits"),
            timed.at("index_hits") + timed.at("index_fallbacks"));
  coverage.index_fallbacks = timed.at("index_fallbacks");
  coverage.flat_hash_runs = timed.at("flat_hash_runs");
  coverage.fastpath_ratio = Ratio(appends, appends + fallbacks);
  std::printf("coverage (timed phase, after warm-up):\n");
  std::printf("  reads=%.0f writes=%.0f view_rebuilds=%.0f\n", coverage.reads,
              coverage.writes, coverage.view_rebuilds);
  std::printf("  dense_kernel_ratio=%.4f index_hit_ratio=%.4f "
              "index_fallbacks=%.0f flat_hash_runs=%.0f\n",
              coverage.dense_kernel_ratio, coverage.index_hit_ratio,
              coverage.index_fallbacks, coverage.flat_hash_runs);
  std::printf("  plan_cache_hit_ratio=%.4f fused_ratio=%.4f "
              "append_fastpath_ratio=%.4f (%.0f fast, %.0f fallback)\n",
              Ratio(timed.at("plan_cache_hits"), timed.at("reads")),
              Ratio(timed.at("fused_pipelines"),
                    timed.at("fused_pipelines") + timed.at("plan_fallbacks")),
              coverage.fastpath_ratio, appends, fallbacks);
  std::printf("  claim: %s: %s\n", workload.claim.c_str(),
              workload.claim_holds(coverage) ? "holds" : "DOES NOT HOLD");

  const bool correct = verification.failed() == 0 && verification.oracle_ok &&
                       epoch_exact;
  std::vector<Metric> metrics;
  if (!options.trace) {
    for (const auto& [metric, samples] : end_to_end) metrics.push_back(metric);
  }

  std::size_t attempted = verification.attempted;
  std::size_t failed = verification.failed();
  bool replay_ok = true;
  if (options.trace) {
    std::vector<double> tcp_ms;
    for (const Executed& e : loop.executed) tcp_ms.push_back(e.ms);
    std::vector<std::string> payloads;
    for (const Executed& e : loop.executed) payloads.push_back(e.payload);
    Tracer tracer;
    // A thread of its own, like a connection thread: it allocates from a
    // malloc arena other than the main thread's, so the replay's page
    // faults per read match the TCP run's and serve.wire_ms measures the
    // wire, not the allocator.
    mddc::Result<ReplayOutcome> replay = Status::InvariantViolation("not run");
    std::thread replay_thread([&] {
      replay = RunTracedReplay(workload, loop.ops, tcp_ms, payloads, tracer);
    });
    replay_thread.join();
    if (!replay.ok()) {
      std::fprintf(stderr, "traced replay failed: %s\n",
                   replay.status().ToString().c_str());
      return 1;
    }
    attempted += replay->attempted;
    failed += replay->failed;
    replay_ok = replay->failed == 0;
    metrics = std::move(replay->metrics);
    const std::string path = StrCat(options.out_dir, "/trace-", workload.name,
                                    "-seed", options.seed, ".json");
    if (tracer.WriteJson(path)) {
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct && replay_ok ? "true" : "false", attempted, failed,
              JsonMetrics(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
