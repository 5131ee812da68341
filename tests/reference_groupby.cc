#include "reference_groupby.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "common/strings.h"
#include "core/properties.h"

namespace mddc {
namespace reference {
namespace {

/// The aggregation type of the result dimension's bottom category per the
/// Section 4.1 rule.
AggregationType ResultBottomAggType(const MdObject& mo,
                                    const AggregateSpec& spec,
                                    const SummarizabilityReport& report) {
  if (!report.summarizable) return AggregationType::kConstant;
  AggregationType agg_type = AggregationType::kSum;
  for (std::size_t dim : spec.function.args()) {
    const DimensionType& type = mo.dimension(dim).type();
    agg_type = MinAggregationType(agg_type, type.AggType(type.bottom()));
  }
  return agg_type;
}

/// One grouping-category value characterizing a fact, with the
/// characterization's lifespan and probability.
struct Coordinate {
  ValueId value;
  Lifespan life;
  double prob;
};

using CoordLists = std::vector<std::vector<Coordinate>>;

/// The fact's coordinates in every grouping category by the memoized
/// characterization traversal, or nullopt when some dimension has none.
std::optional<CoordLists> GroupingCoordinates(const MdObject& mo,
                                              const AggregateSpec& spec,
                                              FactId fact) {
  const std::size_t n = mo.dimension_count();
  CoordLists per_dim(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Dimension& dimension = mo.dimension(i);
    if (spec.grouping[i] == dimension.type().top()) {
      per_dim[i].push_back(
          Coordinate{dimension.top_value(), Lifespan::AlwaysSpan(), 1.0});
      continue;
    }
    for (const MdObject::Characterization& c :
         mo.CharacterizedBy(fact, i, spec.prob_at)) {
      auto value_category = dimension.CategoryOf(c.value);
      if (value_category.ok() && *value_category == spec.grouping[i]) {
        per_dim[i].push_back(Coordinate{c.value, c.life, c.prob});
      }
    }
    if (per_dim[i].empty()) return std::nullopt;
  }
  return per_dim;
}

/// One group under construction: time per dimension is the intersection
/// over members of their characterization spans; probabilities multiply
/// over members.
struct GroupAccum {
  std::vector<FactId> members;
  std::vector<Lifespan> life_per_dim;
  std::vector<double> prob_per_dim;
  std::vector<double> member_probs;
};

using GroupKey = std::vector<ValueId>;
using GroupMap = std::map<GroupKey, GroupAccum>;

/// Folds one fact's coordinate cross product into `groups`, facts
/// ascending.
void AccumulateFact(std::size_t n, FactId fact, const CoordLists& per_dim,
                    GroupMap& groups) {
  std::vector<std::size_t> cursor(n, 0);
  while (true) {
    GroupKey key(n);
    for (std::size_t i = 0; i < n; ++i) {
      key[i] = per_dim[i][cursor[i]].value;
    }
    auto [it, inserted] = groups.try_emplace(std::move(key));
    GroupAccum& group = it->second;
    if (inserted) {
      group.life_per_dim.assign(n, Lifespan::AlwaysSpan());
      group.prob_per_dim.assign(n, 1.0);
    }
    group.members.push_back(fact);
    double member_prob = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Coordinate& c = per_dim[i][cursor[i]];
      group.life_per_dim[i] = group.life_per_dim[i].Intersect(c.life);
      group.prob_per_dim[i] *= c.prob;
      member_prob *= c.prob;
    }
    group.member_probs.push_back(member_prob);
    std::size_t i = 0;
    while (i < n && ++cursor[i] == per_dim[i].size()) {
      cursor[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
}

struct GroupEval {
  double value = 0.0;
  Lifespan result_life;
};

/// g(group) over the sorted member list, the expected count, and the
/// Section 4.2 result lifespan.
Result<GroupEval> EvaluateGroup(const MdObject& mo, const AggregateSpec& spec,
                                GroupAccum& group) {
  GroupEval eval;
  double expected = 0.0;
  for (double p : group.member_probs) expected += p;
  std::sort(group.members.begin(), group.members.end());
  if (spec.expected_counts &&
      spec.function.kind() == AggregateFunctionKind::kSetCount) {
    eval.value = expected;
  } else {
    MDDC_ASSIGN_OR_RETURN(
        eval.value, spec.function.Evaluate(mo, group.members, spec.prob_at));
  }
  const std::size_t n = mo.dimension_count();
  Lifespan result_life = Lifespan::AlwaysSpan();
  for (std::size_t dim : spec.function.args()) {
    if (dim >= n) continue;
    const FactDimRelation& relation = mo.relation(dim);
    for (FactId member : group.members) {
      TemporalElement member_valid;
      TemporalElement member_transaction;
      for (std::size_t e : relation.EntryIndexesForFact(member)) {
        const FactDimRelation::Entry& entry = relation.entries()[e];
        member_valid = member_valid.Union(entry.life.valid);
        member_transaction =
            member_transaction.Union(entry.life.transaction);
      }
      result_life =
          result_life.Intersect(Lifespan{member_valid, member_transaction});
    }
  }
  eval.result_life = result_life;
  return eval;
}

/// The result dimension under the Section 4.1 typing rule.
Result<Dimension> ResultDimension(const AggregateSpec& spec,
                                  AggregationType bottom_agg,
                                  CategoryTypeIndex* bottom) {
  if (spec.result.is_auto()) {
    DimensionTypeBuilder builder(spec.result.auto_name());
    builder.AddCategory("Value", bottom_agg);
    MDDC_ASSIGN_OR_RETURN(auto type, builder.Build());
    *bottom = type->bottom();
    return Dimension(type);
  }
  const Dimension& prototype = spec.result.prototype();
  auto type = prototype.type_ptr();
  auto adjusted = type->WithAggType(type->bottom(), bottom_agg);
  for (CategoryTypeIndex c = 0; c < adjusted->category_count(); ++c) {
    if (c == adjusted->bottom()) continue;
    adjusted = adjusted->WithAggType(
        c, MinAggregationType(adjusted->AggType(c), bottom_agg));
  }
  Dimension rebuilt(adjusted);
  for (ValueId value : prototype.AllValues()) {
    if (value == prototype.top_value()) continue;
    auto category = prototype.CategoryOf(value);
    auto membership = prototype.MembershipOf(value);
    MDDC_RETURN_NOT_OK(rebuilt.AddValue(*category, value, *membership));
  }
  for (const Dimension::Edge& edge : prototype.edges()) {
    MDDC_RETURN_NOT_OK(
        rebuilt.AddOrder(edge.child, edge.parent, edge.life, edge.prob));
  }
  for (const auto& [category, rep_name, rep] :
       prototype.AllRepresentations()) {
    Representation& target = rebuilt.RepresentationFor(category, rep_name);
    for (ValueId value : prototype.ValuesIn(category)) {
      for (const auto& [text, life] : rep->GetAll(value)) {
        MDDC_RETURN_NOT_OK(target.Set(value, text, life));
      }
    }
  }
  *bottom = adjusted->bottom();
  return rebuilt;
}

/// Merges two partial results of a distributive function.
double Merge(AggregateFunctionKind kind, double a, double b) {
  switch (kind) {
    case AggregateFunctionKind::kMin:
      return std::min(a, b);
    case AggregateFunctionKind::kMax:
      return std::max(a, b);
    default:
      return a + b;
  }
}

}  // namespace

Result<MdObject> AggregateFormation(const MdObject& mo,
                                    const AggregateSpec& spec) {
  const std::size_t n = mo.dimension_count();
  if (spec.grouping.size() != n) {
    return Status::InvalidArgument(
        StrCat("aggregate formation got ", spec.grouping.size(),
               " grouping categories for a ", n, "-dimensional MO"));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (spec.grouping[i] >= mo.dimension(i).type().category_count()) {
      return Status::InvalidArgument(
          StrCat("grouping category ", spec.grouping[i],
                 " out of range for dimension '", mo.dimension(i).name(),
                 "'"));
    }
  }
  if (spec.enforce_aggregation_types) {
    MDDC_RETURN_NOT_OK(spec.function.CheckApplicable(mo));
  }
  const SummarizabilityReport summarizability =
      CheckSummarizability(mo, spec.function.kind(), spec.grouping);

  GroupMap groups;
  for (FactId fact : mo.facts()) {
    std::optional<CoordLists> coords = GroupingCoordinates(mo, spec, fact);
    if (coords.has_value()) AccumulateFact(n, fact, *coords, groups);
  }

  std::vector<GroupEval> evals;
  for (auto& [key, group] : groups) {
    MDDC_ASSIGN_OR_RETURN(GroupEval eval, EvaluateGroup(mo, spec, group));
    evals.push_back(eval);
  }
  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < n; ++i) {
    MDDC_ASSIGN_OR_RETURN(Dimension restricted,
                          mo.dimension(i).RestrictAbove(spec.grouping[i]));
    dimensions.push_back(std::move(restricted));
  }
  CategoryTypeIndex result_bottom = 0;
  MDDC_ASSIGN_OR_RETURN(
      Dimension result_dimension,
      ResultDimension(spec, ResultBottomAggType(mo, spec, summarizability),
                      &result_bottom));
  dimensions.push_back(std::move(result_dimension));
  MdObject result(StrCat("Set-of-", mo.schema().fact_type()),
                  std::move(dimensions), mo.registry(), mo.temporal_type());

  FactRegistry& registry = *mo.registry();
  Dimension& out_result_dim = result.dimension_mutable(n);
  std::map<std::uint64_t, ValueId> auto_values;
  std::size_t g = 0;
  for (const auto& [key, group] : groups) {
    const GroupEval& eval = evals[g++];
    FactId group_fact = registry.Set(group.members);
    MDDC_RETURN_NOT_OK(result.AddFact(group_fact));
    for (std::size_t i = 0; i < n; ++i) {
      Lifespan life = group.life_per_dim[i];
      if (life.Empty()) life = Lifespan::AlwaysSpan();
      MDDC_RETURN_NOT_OK(result.relation_mutable(i).Add(
          group_fact, key[i], life, group.prob_per_dim[i]));
    }
    ValueId result_value;
    if (spec.result.is_auto()) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(eval.value);
      auto it = auto_values.find(bits);
      if (it == auto_values.end()) {
        MDDC_ASSIGN_OR_RETURN(result_value,
                              out_result_dim.AddValueAuto(result_bottom));
        MDDC_RETURN_NOT_OK(
            out_result_dim.RepresentationFor(result_bottom, "Value")
                .Set(result_value, FormatDouble(eval.value)));
        auto_values.emplace(bits, result_value);
      } else {
        result_value = it->second;
      }
    } else {
      MDDC_ASSIGN_OR_RETURN(result_value, spec.result.Map(eval.value));
      if (!out_result_dim.HasValue(result_value)) {
        return Status::InvalidArgument(
            StrCat("result mapper returned value ", result_value,
                   " not present in the result dimension prototype"));
      }
    }
    Lifespan result_life = eval.result_life;
    if (result_life.Empty()) result_life = Lifespan::AlwaysSpan();
    MDDC_RETURN_NOT_OK(result.relation_mutable(n).Add(
        group_fact, result_value, result_life));
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<MdObject> RollUpCached(const MdObject& base, const MdObject& cached,
                              const AggFunction& function,
                              const std::vector<CategoryTypeIndex>& grouping) {
  const std::size_t n = grouping.size();
  std::vector<CategoryTypeIndex> cached_categories(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& name =
        base.dimension(i).type().category(grouping[i]).name;
    MDDC_ASSIGN_OR_RETURN(cached_categories[i],
                          cached.dimension(i).type().Find(name));
  }

  struct Merged {
    std::vector<FactId> members;
    double value = 0.0;
    bool first = true;
  };
  std::map<std::vector<ValueId>, Merged> merged;
  const std::size_t result_dim = cached.dimension_count() - 1;
  for (FactId group : cached.facts()) {
    std::vector<ValueId> key(n);
    for (std::size_t i = 0; i < n; ++i) {
      const FactDimRelation& relation = cached.relation(i);
      const std::vector<std::size_t>& pairs =
          relation.EntryIndexesForFact(group);
      if (pairs.empty()) {
        return Status::InvariantViolation("cached group missing a value");
      }
      const ValueId fine = relation.entries()[pairs.front()].value;
      const Dimension& dimension = cached.dimension(i);
      if (cached_categories[i] == dimension.type().top()) {
        key[i] = dimension.top_value();
        continue;
      }
      auto fine_category = dimension.CategoryOf(fine);
      if (fine_category.ok() && *fine_category == cached_categories[i]) {
        key[i] = fine;
        continue;
      }
      auto coarser = dimension.AncestorsIn(fine, cached_categories[i]);
      if (coarser.size() != 1) {
        return Status::InvariantViolation(
            StrCat("non-strict step above cached grouping in dimension '",
                   dimension.name(), "'; partial results cannot be merged"));
      }
      key[i] = coarser.front().value;
    }
    const FactDimRelation& result_relation = cached.relation(result_dim);
    const std::vector<std::size_t>& result_pairs =
        result_relation.EntryIndexesForFact(group);
    if (result_pairs.empty()) {
      return Status::InvariantViolation("cached group missing its result");
    }
    MDDC_ASSIGN_OR_RETURN(
        double partial,
        cached.dimension(result_dim)
            .NumericValueOf(
                result_relation.entries()[result_pairs.front()].value));
    MDDC_ASSIGN_OR_RETURN(FactTerm term, cached.registry()->Get(group));
    Merged& slot = merged[key];
    slot.members.insert(slot.members.end(), term.members.begin(),
                        term.members.end());
    slot.value =
        slot.first ? partial : Merge(function.kind(), slot.value, partial);
    slot.first = false;
  }

  std::vector<Dimension> dimensions;
  for (std::size_t i = 0; i < n; ++i) {
    MDDC_ASSIGN_OR_RETURN(
        Dimension restricted,
        cached.dimension(i).RestrictAbove(cached_categories[i]));
    dimensions.push_back(std::move(restricted));
  }
  const DimensionType& cached_result_type =
      cached.dimension(result_dim).type();
  DimensionTypeBuilder builder("Result");
  builder.AddCategory("Value",
                      cached_result_type.AggType(cached_result_type.bottom()));
  MDDC_ASSIGN_OR_RETURN(auto result_type, builder.Build());
  dimensions.emplace_back(result_type);

  MdObject result(cached.schema().fact_type(), std::move(dimensions),
                  cached.registry(), cached.temporal_type());
  Dimension& out_result = result.dimension_mutable(n);
  const CategoryTypeIndex bottom = result_type->bottom();
  Representation& rep = out_result.RepresentationFor(bottom, "Value");
  std::map<std::uint64_t, ValueId> value_ids;
  for (const auto& [key, slot] : merged) {
    FactId fact = cached.registry()->Set(slot.members);
    MDDC_RETURN_NOT_OK(result.AddFact(fact));
    for (std::size_t i = 0; i < n; ++i) {
      MDDC_RETURN_NOT_OK(result.relation_mutable(i).Add(fact, key[i]));
    }
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(slot.value);
    auto it = value_ids.find(bits);
    ValueId value;
    if (it == value_ids.end()) {
      MDDC_ASSIGN_OR_RETURN(value, out_result.AddValueAuto(bottom));
      MDDC_RETURN_NOT_OK(rep.Set(value, FormatDouble(slot.value)));
      value_ids.emplace(bits, value);
    } else {
      value = it->second;
    }
    MDDC_RETURN_NOT_OK(result.relation_mutable(n).Add(fact, value));
  }
  MDDC_RETURN_NOT_OK(result.Validate());
  return result;
}

Result<relational::Relation> RelationalAggregate(
    const relational::Relation& r, const std::vector<std::string>& group_by,
    const std::vector<relational::AggregateTerm>& terms) {
  using relational::AggregateTerm;
  using relational::Tuple;
  using relational::Value;
  std::vector<std::size_t> group_indexes;
  for (const std::string& name : group_by) {
    MDDC_ASSIGN_OR_RETURN(std::size_t index, r.AttributeIndex(name));
    group_indexes.push_back(index);
  }
  std::vector<std::size_t> term_indexes;
  for (const AggregateTerm& term : terms) {
    if (term.func == AggregateTerm::Func::kCountStar) {
      term_indexes.push_back(0);
      continue;
    }
    MDDC_ASSIGN_OR_RETURN(std::size_t index,
                          r.AttributeIndex(term.attribute));
    term_indexes.push_back(index);
  }

  std::map<std::vector<Value>, std::vector<const Tuple*>> groups;
  for (const Tuple& tuple : r.tuples()) {
    std::vector<Value> key;
    for (std::size_t index : group_indexes) key.push_back(tuple[index]);
    groups[std::move(key)].push_back(&tuple);
  }

  std::vector<std::string> attributes = group_by;
  for (const AggregateTerm& term : terms) {
    attributes.push_back(term.result_name);
  }
  relational::Relation result(std::move(attributes));
  for (const auto& [key, members] : groups) {
    Tuple out = key;
    for (std::size_t t = 0; t < terms.size(); ++t) {
      const AggregateTerm& term = terms[t];
      const std::size_t index = term_indexes[t];
      switch (term.func) {
        case AggregateTerm::Func::kCountStar:
          out.push_back(Value(static_cast<std::int64_t>(members.size())));
          break;
        case AggregateTerm::Func::kCount: {
          std::int64_t count = 0;
          for (const Tuple* tuple : members) {
            if (!(*tuple)[index].is_null()) ++count;
          }
          out.push_back(Value(count));
          break;
        }
        case AggregateTerm::Func::kCountDistinct: {
          std::set<Value> distinct;
          for (const Tuple* tuple : members) {
            if (!(*tuple)[index].is_null()) distinct.insert((*tuple)[index]);
          }
          out.push_back(Value(static_cast<std::int64_t>(distinct.size())));
          break;
        }
        case AggregateTerm::Func::kSum:
        case AggregateTerm::Func::kAvg: {
          double sum = 0.0;
          std::int64_t count = 0;
          for (const Tuple* tuple : members) {
            if ((*tuple)[index].is_null()) continue;
            MDDC_ASSIGN_OR_RETURN(double value, (*tuple)[index].AsDouble());
            sum += value;
            ++count;
          }
          if (term.func == AggregateTerm::Func::kSum) {
            out.push_back(Value(sum));
          } else {
            out.push_back(count == 0 ? Value::Null() : Value(sum / count));
          }
          break;
        }
        case AggregateTerm::Func::kMin:
        case AggregateTerm::Func::kMax: {
          bool first = true;
          Value best;
          for (const Tuple* tuple : members) {
            const Value& value = (*tuple)[index];
            if (value.is_null()) continue;
            if (first || (term.func == AggregateTerm::Func::kMin
                              ? value < best
                              : best < value)) {
              best = value;
              first = false;
            }
          }
          out.push_back(first ? Value::Null() : best);
          break;
        }
      }
    }
    MDDC_RETURN_NOT_OK(result.Insert(std::move(out)));
  }
  return result;
}

}  // namespace reference
}  // namespace mddc
