#include "traced_replay.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "algebra/operators.h"
#include "algebra/timeslice.h"
#include "common/date.h"
#include "core/fact.h"
#include "engine/executor.h"
#include "mdql/bind.h"
#include "mdql/mdql.h"
#include "mdql/parser.h"
#include "mdql/physical.h"
#include "mdql/plan.h"
#include "mdql/rewrite.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "serving.h"
#include "stats.h"

namespace perfbench {
namespace {

using mddc::Result;
using mddc::Status;

/// Direct layer probes (MdObject copy, AggregateStream) repeat this often.
constexpr int kProbeReps = 5;
/// mdql::Session's plan cache is wholesale-cleared at this size.
constexpr std::size_t kPlanCacheCapacity = 256;

double NsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// What the TCP front-end sends for a result: the table, newline-ended.
std::string WirePayload(const mddc::mdql::QueryResult& result) {
  std::string text = result.ToString();
  if (!text.empty() && text.back() != '\n') text += '\n';
  return text;
}

/// Stack B's per-connection state: ServerSession's view, rebuilt on an
/// epoch move, and mdql::Session's plan cache of fused decisions.
struct View {
  bool built = false;
  std::uint64_t epoch = 0;
  std::unique_ptr<mddc::MdObject> mo;
  std::map<std::string, bool> plan_cache;
};

/// Stack B: the calls ServerSession::Execute makes, each in a span.
class DecomposedSession {
 public:
  DecomposedSession(mddc::serve::MoStore& store, std::string mo_name)
      : store_(store), mo_name_(std::move(mo_name)) {}

  /// Runs one statement as op `op`; `fused` is the fuse decision stack A's
  /// compiler took for it. Returns the wire payload.
  Result<std::string> Execute(const std::string& text, bool fused,
                              std::uint64_t op, Tracer& tracer) {
    ScopedSpan root(tracer, "serve.op", op);
    mddc::mdql::Statement statement;
    {
      ScopedSpan span(tracer, "mdql.parse", op, root.index());
      MDDC_ASSIGN_OR_RETURN(statement, mddc::mdql::Parse(text));
    }
    mddc::mdql::QueryResult result;
    if (statement.insert.has_value()) {
      MDDC_ASSIGN_OR_RETURN(result,
                            Append(statement, op, root.index(), tracer));
    } else {
      MDDC_ASSIGN_OR_RETURN(result,
                            Read(statement, fused, op, root.index(), tracer));
    }
    ScopedSpan span(tracer, "mdql.render", op, root.index());
    return WirePayload(result);
  }

 private:
  Result<mddc::mdql::QueryResult> Read(const mddc::mdql::Statement& statement,
                                       bool fused, std::uint64_t op,
                                       std::int64_t parent, Tracer& tracer) {
    std::shared_ptr<const mddc::serve::MoSnapshot> snapshot;
    {
      ScopedSpan span(tracer, "serve.pin", op, parent);
      snapshot = store_.Pin();
    }
    if (!view_.built || view_.epoch != snapshot->epoch()) {
      const mddc::serve::PublishedMo* entry = snapshot->Find(mo_name_);
      if (entry == nullptr) return Status::NotFound(mo_name_);
      ScopedSpan span(tracer, "core.view_copy", op, parent);
      view_.mo = std::make_unique<mddc::MdObject>(entry->mo().WithRegistry(
          mddc::FactRegistry::ForkOf(entry->mo().registry())));
      view_.epoch = snapshot->epoch();
      view_.built = true;
      view_.plan_cache.clear();
    }
    const mddc::mdql::SelectStatement& select = *statement.select;
    mddc::ExecContext exec(1, /*min_facts=*/4096);
    if (view_.plan_cache.count(statement.text) == 0) {
      ScopedSpan span(tracer, "mdql.compile", op, parent);
      mddc::mdql::PlanRef plan =
          mddc::mdql::LowerSelect(select.mo_name, view_.mo.get(), select);
      mddc::mdql::Rewrite(std::move(plan), options_.rewrites, &exec);
      if (view_.plan_cache.size() >= kPlanCacheCapacity) {
        view_.plan_cache.clear();
      }
      view_.plan_cache[statement.text] = fused;
    }
    ScopedSpan span(tracer, "mdql.execute", op, parent);
    auto result = mddc::mdql::ExecuteCompiledSelect(*view_.mo, select,
                                                    options_, &exec, &fused);
    exec.ResetQueryArenas();
    return result;
  }

  Result<mddc::mdql::QueryResult> Append(const mddc::mdql::Statement& statement,
                                         std::uint64_t op, std::int64_t parent,
                                         Tracer& tracer) {
    mddc::mdql::QueryResult ack;
    mddc::ExecStats append_stats;
    std::int64_t entered = 0;
    std::int64_t left = 0;
    const std::int64_t start = Tracer::NowNs();
    Status status = store_.AppendBatch(
        mo_name_,
        [&](mddc::MdObject& draft) -> Status {
          entered = Tracer::NowNs();
          auto applied = mddc::mdql::ApplyInsert(draft, *statement.insert);
          left = Tracer::NowNs();
          if (!applied.ok()) return applied.status();
          ack = std::move(*applied);
          return Status::OK();
        },
        nullptr, &append_stats);
    const std::int64_t end = Tracer::NowNs();
    MDDC_RETURN_NOT_OK(status);
    const std::int64_t append =
        tracer.Add("serve.append", start, end, parent, op);
    tracer.Add("serve.append_clone", start, entered, append, op);
    tracer.Add("mdql.apply_insert", entered, left, append, op);
    tracer.Add("serve.append_seal", left, end, append, op);
    return ack;
  }

  mddc::serve::MoStore& store_;
  std::string mo_name_;
  mddc::mdql::CompileOptions options_;
  View view_;
};

/// Median duration of the spans named `name`, in ms (0 when none ran).
double MedianMs(const Tracer& tracer, const std::string& name) {
  return Median(tracer.DurationsMs(name));
}

/// The main statement's StreamSpec, bound against `mo`.
Result<mddc::StreamSpec> MainStreamSpec(const mddc::MdObject& mo,
                                        const std::string& text) {
  MDDC_ASSIGN_OR_RETURN(mddc::mdql::Statement statement,
                        mddc::mdql::Parse(text));
  mddc::StreamSpec spec;
  spec.grouping.resize(mo.dimension_count());
  for (std::size_t d = 0; d < mo.dimension_count(); ++d) {
    spec.grouping[d] = mo.dimension(d).type().top();
  }
  for (const mddc::mdql::GroupRef& group : statement.select->group_by) {
    MDDC_ASSIGN_OR_RETURN(mddc::mdql::ResolvedLevel level,
                          mddc::mdql::Resolve(mo, group.level));
    spec.grouping[level.dim] = level.category;
  }
  for (const mddc::mdql::AggRef& agg : statement.select->aggregates) {
    MDDC_ASSIGN_OR_RETURN(mddc::AggFunction function,
                          mddc::mdql::BuildAggFunction(mo, agg));
    spec.functions.push_back(std::move(function));
  }
  return spec;
}

/// The distinct ASOF chronons of the stream's SELECTs.
std::set<mddc::Chronon> AsOfChronons(const std::vector<Op>& ops) {
  std::set<mddc::Chronon> chronons;
  std::set<std::string> seen;
  for (const Op& op : ops) {
    if (op.write) continue;
    auto statement = mddc::mdql::Parse(op.statement);
    if (!statement.ok() || !statement->select.has_value() ||
        !statement->select->as_of.has_value()) {
      continue;
    }
    const std::string& text = *statement->select->as_of;
    if (!seen.insert(text).second) continue;
    if (text == "NOW") {
      chronons.insert(mddc::kNowChronon);
    } else if (auto day = mddc::ParseDate(text); day.ok()) {
      chronons.insert(*day);
    }
  }
  return chronons;
}

}  // namespace

Result<ReplayOutcome> RunTracedReplay(
    const Workload& workload, const std::vector<Op>& ops,
    const std::vector<double>& tcp_ms,
    const std::vector<std::string>& tcp_payloads, Tracer& tracer) {
  mddc::serve::MoStore store_a;
  mddc::serve::MdqlServer server_a(&store_a);
  mddc::serve::MoStore store_b;
  MDDC_RETURN_NOT_OK(PublishWorkload(workload, store_a));
  MDDC_RETURN_NOT_OK(PublishWorkload(workload, store_b));
  std::vector<mddc::serve::ServerSession> sessions_a;
  std::vector<DecomposedSession> sessions_b;
  for (std::size_t c = 0; c < workload.connections; ++c) {
    sessions_a.push_back(server_a.Connect());
    sessions_b.emplace_back(store_b, workload.mo_name);
  }

  // Fuse decisions by statement text, learned from stack A: a decision
  // depends on the statement and the MO's schema, which appends keep.
  std::map<std::string, bool> decisions;
  auto execute_a = [&decisions](mddc::serve::ServerSession& session,
                                const std::string& statement) {
    const std::size_t fused_before = session.stats().exec.fused_pipelines;
    auto result = session.Execute(statement);
    decisions.emplace(statement,
                      session.stats().exec.fused_pipelines > fused_before);
    return result;
  };

  // The warm-up, untraced, so both stacks start where the TCP run's
  // timed phase started.
  Tracer untraced;
  for (std::size_t c = 0; c < workload.connections; ++c) {
    for (const std::string& statement : workload.warmup[c]) {
      MDDC_RETURN_NOT_OK(execute_a(sessions_a[c], statement).status());
      MDDC_RETURN_NOT_OK(
          sessions_b[c]
              .Execute(statement, decisions[statement], 0, untraced)
              .status());
    }
  }
  Counters a_before;
  for (const auto& session : sessions_a) {
    AddCounters(a_before, ParseSessionStats(session.StatsJson()));
  }
  const mddc::serve::MoStore::Stats store_before = store_a.CollectStats();

  ReplayOutcome outcome;
  std::vector<double> wire_ms;
  std::vector<double> unattributed_ms;
  std::vector<double> a_read_ms, b_read_ms, a_write_ms, b_write_ms;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const Op& op = ops[k];
    Result<mddc::mdql::QueryResult> a_result =
        Status::InvariantViolation("not run");
    double a_ms = 0.0;
    auto run_a = [&] {
      const auto start = std::chrono::steady_clock::now();
      a_result = execute_a(sessions_a[op.conn], op.statement);
      a_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
    };
    // Alternate which stack runs an op first, so neither always finds
    // the caches warmed by the other; B can go first once A has shown it
    // the statement's decision.
    const bool b_first = k % 2 == 1 && decisions.count(op.statement) != 0;
    if (!b_first) run_a();
    const std::size_t first_span = tracer.spans().size();
    auto b_result = sessions_b[op.conn].Execute(
        op.statement, decisions[op.statement], k, tracer);
    if (b_first) run_a();

    ++outcome.attempted;
    const std::string a_payload = a_result.ok() ? WirePayload(*a_result) : "";
    const std::string b_payload = b_result.ok() ? *b_result : "";
    if (a_payload != tcp_payloads[k] || b_payload != tcp_payloads[k]) {
      ++outcome.failed;
      std::fprintf(stderr, "replay of op %zu [%s] differs from its TCP reply\n",
                   k, op.statement.c_str());
    }
    if (tracer.spans().size() == first_span) continue;  // B failed early

    // Stage sum: the root's direct children except the render, which the
    // TCP front-end (not ServerSession::Execute) performs.
    const Span& root = tracer.spans()[first_span];
    std::int64_t stages = 0;
    for (std::size_t s = first_span + 1; s < tracer.spans().size(); ++s) {
      const Span& span = tracer.spans()[s];
      if (span.parent == static_cast<std::int64_t>(first_span) &&
          span.name != "mdql.render") {
        stages += span.end_ns - span.start_ns;
      }
    }
    unattributed_ms.push_back(a_ms - NsToMs(stages));
    wire_ms.push_back(tcp_ms[k] - a_ms);
    const double b_ms = NsToMs(root.end_ns - root.start_ns);
    if (op.write) {
      a_write_ms.push_back(a_ms);
      b_write_ms.push_back(b_ms);
    } else {
      a_read_ms.push_back(a_ms);
      b_read_ms.push_back(b_ms);
    }
  }

  Counters a_counters;
  for (const auto& session : sessions_a) {
    AddCounters(a_counters, ParseSessionStats(session.StatsJson()));
  }
  const Counters c = Delta(a_counters, a_before);
  const mddc::serve::MoStore::Stats store_after = store_a.CollectStats();
  const double appends = static_cast<double>(store_after.append_batches -
                                             store_before.append_batches);
  const double fallbacks = static_cast<double>(store_after.append_fallbacks -
                                               store_before.append_fallbacks);

  // Layers no statement isolates, timed directly on the final epoch. The
  // steady read is the main statement repeated on an unchanged epoch
  // (the first repetition may rebuild the view and is dropped).
  std::vector<double> steady_main_ms;
  for (int rep = 0; rep <= kProbeReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    MDDC_RETURN_NOT_OK(sessions_a[0].Execute(workload.main_statement).status());
    if (rep > 0) {
      steady_main_ms.push_back(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
    }
  }
  const std::uint64_t probe_op = ops.size();
  std::shared_ptr<const mddc::serve::MoSnapshot> snapshot = store_b.Pin();
  const mddc::serve::PublishedMo* entry = snapshot->Find(workload.mo_name);
  if (entry == nullptr) return Status::NotFound(workload.mo_name);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    ScopedSpan span(tracer, "core.mo_copy", probe_op);
    mddc::MdObject copy = entry->mo();
  }
  const mddc::MdObject view = entry->mo().WithRegistry(
      mddc::FactRegistry::ForkOf(entry->mo().registry()));
  MDDC_ASSIGN_OR_RETURN(mddc::StreamSpec spec,
                        MainStreamSpec(view, workload.main_statement));
  for (int rep = 0; rep < kProbeReps; ++rep) {
    mddc::ExecContext exec(1, /*min_facts=*/4096);
    ScopedSpan span(tracer, "algebra.stream", probe_op);
    MDDC_RETURN_NOT_OK(mddc::AggregateStream(view, spec, &exec).status());
  }
  const std::set<mddc::Chronon> chronons = AsOfChronons(ops);
  for (mddc::Chronon at : chronons) {
    mddc::ExecContext exec(1, /*min_facts=*/4096);
    ScopedSpan span(tracer, "algebra.timeslice", probe_op);
    MDDC_RETURN_NOT_OK(mddc::ValidTimeslice(view, at, &exec).status());
  }

  const double reads = c.at("reads");
  const double writes = c.at("writes");
  const double stream_ms = MedianMs(tracer, "algebra.stream");
  const double stream_ns_per_fact =
      Ratio(stream_ms * 1e6, static_cast<double>(view.fact_count()));
  auto metric = [&](const char* name, double value, const char* unit) {
    outcome.metrics.push_back(Metric{name, value, unit});
  };
  metric("serve.wire_ms", Median(wire_ms), "ms");
  metric("serve.pin_us", MedianMs(tracer, "serve.pin") * 1e3, "us");
  metric("serve.append_clone_ms", MedianMs(tracer, "serve.append_clone"), "ms");
  metric("serve.append_apply_ms", MedianMs(tracer, "mdql.apply_insert"), "ms");
  metric("serve.append_seal_ms", MedianMs(tracer, "serve.append_seal"), "ms");
  metric("serve.append_fastpath_ratio", Ratio(appends, appends + fallbacks),
         "ratio");
  double unattributed_sum = 0.0;
  for (double ms : unattributed_ms) unattributed_sum += ms;
  metric("serve.unattributed_ms",
         Ratio(unattributed_sum, static_cast<double>(unattributed_ms.size())),
         "ms");
  metric("core.view_copy_ms", MedianMs(tracer, "core.view_copy"), "ms");
  metric("core.mo_copy_ms", MedianMs(tracer, "core.mo_copy"), "ms");
  metric("mdql.parse_us", MedianMs(tracer, "mdql.parse") * 1e3, "us");
  metric("mdql.compile_us", MedianMs(tracer, "mdql.compile") * 1e3, "us");
  metric("mdql.execute_ms", MedianMs(tracer, "mdql.execute"), "ms");
  metric("mdql.render_us", MedianMs(tracer, "mdql.render") * 1e3, "us");
  metric("mdql.plan_cache_hit_ratio", Ratio(c.at("plan_cache_hits"), reads),
         "ratio");
  metric("mdql.fused_ratio",
         Ratio(c.at("fused_pipelines"),
               c.at("fused_pipelines") + c.at("plan_fallbacks")),
         "ratio");
  metric("algebra.stream_ns_per_fact", stream_ns_per_fact, "ns");
  metric("algebra.timeslice_ms", MedianMs(tracer, "algebra.timeslice"), "ms");
  metric("engine.arena_bytes_per_read", Ratio(c.at("arena_bytes"), reads),
         "bytes");
  metric("engine.index_hit_ratio",
         Ratio(c.at("index_hits"),
               c.at("index_hits") + c.at("index_fallbacks")),
         "ratio");
  metric("engine.dense_kernel_ratio",
         Ratio(c.at("dense_groupby_runs"),
               c.at("dense_groupby_runs") + c.at("flat_hash_runs")),
         "ratio");
  metric("engine.preagg_folds_per_write", Ratio(c.at("preagg_folds"), writes),
         "count");
  metric("engine.rollup_patches_per_write",
         Ratio(c.at("rollup_patches"), writes), "count");
  metric("core.csr_tail_extends_per_write",
         Ratio(c.at("csr_tail_extends"), writes), "count");

  // Self time per layer over the replayed ops and the probes.
  std::printf("traced replay: %zu ops, %zu spans\n", ops.size(),
              tracer.spans().size());
  std::printf("self time per layer (stack B, decomposed):\n");
  std::int64_t total_self = 0;
  const auto by_layer = SelfTimeByLayer(tracer.spans());
  for (const auto& [layer, ns] : by_layer) total_self += ns;
  for (const auto& [layer, ns] : by_layer) {
    std::printf("  %-8s %12.3f ms  %5.1f%%\n", layer.c_str(), NsToMs(ns),
                100.0 * Ratio(static_cast<double>(ns),
                              static_cast<double>(total_self)));
  }

  // Tracing overhead: the traced decomposed stack against the untraced
  // ServerSession::Execute of the same ops.
  auto overhead = [](const char* what, const std::vector<double>& untraced,
                     const std::vector<double>& traced) {
    const double u = Median(untraced);
    const double t = Median(traced);
    std::printf("  %-12s untraced %10.4f ms  traced %10.4f ms  %+9.4f ms "
                "(%+.2f%%, n=%zu)\n",
                what, u, t, t - u, 100.0 * Ratio(t - u, u), untraced.size());
  };
  std::printf("tracing overhead (in-process p50, traced minus untraced):\n");
  overhead("read", a_read_ms, b_read_ms);
  overhead("write", a_write_ms, b_write_ms);

  // The ROADMAP Open-items baseline table, at this workload's sizes.
  std::printf("baseline table (%s, %zu facts at the last epoch):\n",
              workload.name.c_str(), view.fact_count());
  std::printf("| stage | measured |\n|---|---|\n");
  std::printf("| steady read, total (%s) | %.3f ms (n=%zu) |\n",
              workload.main_statement.c_str(), Median(steady_main_ms),
              steady_main_ms.size());
  std::printf("| `AggregateStream` inside it | %.3f ms (%.1f ns/fact) |\n",
              stream_ms, stream_ns_per_fact);
  std::printf("| member-set dedup + labels + render | %.3f ms |\n",
              MedianMs(tracer, "mdql.render"));
  std::printf("| arena scratch per read (`arena_bytes`) | %.2f MB |\n",
              Ratio(c.at("arena_bytes"), reads) / 1e6);
  std::printf(
      "| session view copy on epoch move (`WithRegistry`) | %.3f ms |\n",
              MedianMs(tracer, "core.view_copy"));
  std::printf("| plain `MdObject` copy | %.3f ms |\n",
              MedianMs(tracer, "core.mo_copy"));
  std::printf("| 3-fact `AppendBatch` publish (%.0f fallbacks) | %.3f ms |\n",
              fallbacks, MedianMs(tracer, "serve.append"));
  return outcome;
}

}  // namespace perfbench
