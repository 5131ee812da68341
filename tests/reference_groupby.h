#ifndef MDDC_TESTS_REFERENCE_GROUPBY_H_
#define MDDC_TESTS_REFERENCE_GROUPBY_H_

#include <string>
#include <vector>

#include "algebra/operators.h"
#include "common/result.h"
#include "core/md_object.h"
#include "relational/algebra.h"
#include "relational/relation.h"

// The ordered-map group-by engines, kept outside the library as the
// differential oracle (docs/groupby_kernel.md). Each groups through a
// std::map keyed by the full grouping key, so iteration order IS the
// canonical lexicographic key order, and resolves every coordinate by
// the memoized characterization traversal — no rollup snapshots, no
// arenas, no parallelism, no counters. The library's one group-by kernel
// must reproduce these results byte for byte at any engine and thread
// count.

namespace mddc {
namespace reference {

/// alpha[D_{n+1}, g, C_1..C_n](M) on the ordered-map engine: the same
/// validation, Section 4.1 typing and Section 4.2 lifespans as
/// mddc::AggregateFormation, with g evaluated per group through
/// AggFunction::Evaluate over the sorted member list. spec.capture is
/// ignored.
Result<MdObject> AggregateFormation(const MdObject& mo,
                                    const AggregateSpec& spec);

/// The PreAggregateCache roll-up of `cached` — a materialized aggregate
/// of `function` over `base` — to the coarser `grouping` (one base-type
/// category per base dimension), merging the cached groups' partial
/// results in an ordered map. The result dimension's aggregation type is
/// the cached result dimension's.
Result<MdObject> RollUpCached(const MdObject& base, const MdObject& cached,
                              const AggFunction& function,
                              const std::vector<CategoryTypeIndex>& grouping);

/// gamma[group_by; terms](r) on an ordered map keyed by the grouping
/// values, aggregating each group's members in relation order.
Result<relational::Relation> RelationalAggregate(
    const relational::Relation& r, const std::vector<std::string>& group_by,
    const std::vector<relational::AggregateTerm>& terms);

}  // namespace reference
}  // namespace mddc

#endif  // MDDC_TESTS_REFERENCE_GROUPBY_H_
