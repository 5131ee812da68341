#include "serving.h"

#include <cstdlib>
#include <utility>

#include "common/strings.h"
#include "mdql/bind.h"
#include "mdql/parser.h"

namespace perfbench {
namespace {

double JsonNumber(const std::string& json, const char* key) {
  const std::string needle = mddc::StrCat("\"", key, "\": ");
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

constexpr const char* kCounterKeys[] = {
    "reads",          "writes",          "view_rebuilds",
    "plan_cache_hits", "fused_pipelines", "plan_fallbacks",
    "index_hits",     "index_fallbacks", "dense_groupby_runs",
    "flat_hash_runs", "arena_bytes",     "rollup_patches",
    "csr_tail_extends", "preagg_folds",  "preagg_fold_invalidations"};

}  // namespace

mddc::Status PublishWorkload(const Workload& workload,
                             mddc::serve::MoStore& store) {
  MDDC_ASSIGN_OR_RETURN(mddc::MdObject mo, workload.generate());
  struct Spec {
    mddc::AggFunction function;
    std::vector<mddc::CategoryTypeIndex> grouping;
  };
  std::vector<Spec> specs;
  for (const std::string& text : workload.warm_statements) {
    MDDC_ASSIGN_OR_RETURN(mddc::mdql::Statement statement,
                          mddc::mdql::Parse(text));
    if (!statement.select.has_value()) {
      return mddc::Status::InvalidArgument(
          mddc::StrCat("warm statement is not a SELECT: ", text));
    }
    std::vector<mddc::CategoryTypeIndex> grouping(mo.dimension_count());
    for (std::size_t d = 0; d < mo.dimension_count(); ++d) {
      grouping[d] = mo.dimension(d).type().top();
    }
    for (const mddc::mdql::GroupRef& group : statement.select->group_by) {
      MDDC_ASSIGN_OR_RETURN(mddc::mdql::ResolvedLevel level,
                            mddc::mdql::Resolve(mo, group.level));
      grouping[level.dim] = level.category;
    }
    for (const mddc::mdql::AggRef& agg : statement.select->aggregates) {
      MDDC_ASSIGN_OR_RETURN(mddc::AggFunction function,
                            mddc::mdql::BuildAggFunction(mo, agg));
      specs.push_back(Spec{std::move(function), grouping});
    }
  }
  MDDC_RETURN_NOT_OK(store.Publish(workload.mo_name, std::move(mo)));
  for (Spec& spec : specs) {
    MDDC_RETURN_NOT_OK(store.WarmAggregate(workload.mo_name, spec.function,
                                           std::move(spec.grouping)));
  }
  return mddc::Status::OK();
}

void AddCounters(Counters& into, const Counters& other) {
  for (const auto& [key, value] : other) into[key] += value;
}

Counters Delta(const Counters& now, const Counters& base) {
  Counters delta = now;
  for (const auto& [key, value] : base) delta[key] -= value;
  return delta;
}

Counters ParseSessionStats(const std::string& json) {
  Counters counters;
  for (const char* key : kCounterKeys) counters[key] = JsonNumber(json, key);
  return counters;
}

}  // namespace perfbench
