#include "engine/groupby_kernel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "algebra/operators.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "engine/rollup_index.h"
#include "fixtures.h"
#include "io/serialize.h"
#include "reference_groupby.h"
#include "relational/algebra.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

// Coverage for the group-by kernel (docs/groupby_kernel.md): differential
// proof against the ordered-map reference engine (tests/reference_groupby.h)
// over schemas forcing each rung of the fallback ladder, exact behaviour
// at the slot-threshold boundary, 50x byte-identity at 1/2/8 threads
// through the dense and flat-hash engines, the NaN-payload
// result-interning regression, the relational flat-hash engine against
// its reference, and a formation-vs-reference differential over
// probabilistic, temporal and non-strict data, every function, and the
// error paths.

namespace mddc {
namespace {

using testing_fixtures::During;

RetailMo BuildRetail(std::uint32_t seed = 7, std::size_t purchases = 300) {
  RetailWorkloadParams params;
  params.seed = seed;
  params.num_purchases = purchases;
  auto workload =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  return std::move(workload).ValueOrDie();
}

ClinicalMo BuildClinical(std::uint32_t seed = 42,
                         std::size_t patients = 150) {
  ClinicalWorkloadParams params;
  params.seed = seed;
  params.num_patients = patients;
  auto workload =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  return std::move(workload).ValueOrDie();
}

std::vector<CategoryTypeIndex> GroupingAt(const MdObject& mo,
                                          std::size_t dim,
                                          CategoryTypeIndex category) {
  std::vector<CategoryTypeIndex> grouping;
  for (std::size_t i = 0; i < mo.dimension_count(); ++i) {
    grouping.push_back(i == dim ? category : mo.dimension(i).type().top());
  }
  return grouping;
}

AggregateSpec SpecFor(const AggFunction& function,
                      std::vector<CategoryTypeIndex> grouping) {
  return AggregateSpec{function, std::move(grouping),
                       ResultDimensionSpec::Auto(), kNowChronon,
                       /*enforce_aggregation_types=*/true};
}

std::string BaselineBytes(const MdObject& mo, const AggregateSpec& spec) {
  auto baseline = reference::AggregateFormation(mo, spec);
  EXPECT_TRUE(baseline.ok()) << baseline.status();
  auto bytes = io::WriteMo(*baseline);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

// ---- Engine-selection ladder, differential against the reference ----------

TEST(GroupByKernelTest, StrictSchemaRunsDenseAndMatchesBaseline) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  ExecContext ctx(2, /*min_facts=*/1);
  auto result = AggregateFormation(retail.mo, spec, &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  // Strict, non-temporal product hierarchy: every grouping dimension is
  // flat-table covered (or at top) and the slot space is tiny.
  EXPECT_EQ(ctx.stats.dense_groupby_runs, 1u);
  EXPECT_EQ(ctx.stats.flat_hash_runs, 0u);
  EXPECT_EQ(ctx.stats.dense_slot_fallbacks, 0u);
  auto bytes = io::WriteMo(*result);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, baseline);
}

TEST(GroupByKernelTest, NonStrictSchemaUsesFlatHashAndMatchesBaseline) {
  ClinicalMo clinical = BuildClinical();
  AggregateSpec spec = SpecFor(
      AggFunction::SetCount(),
      GroupingAt(clinical.mo, clinical.diagnosis_dim, clinical.family));
  const std::string baseline = BaselineBytes(clinical.mo, spec);

  ExecContext ctx(2, /*min_facts=*/1);
  auto result = AggregateFormation(clinical.mo, spec, &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  // The non-strict, temporal diagnosis hierarchy fails the flat-table
  // gate, so the dense engine cannot compose slots.
  EXPECT_GT(ctx.stats.index_fallbacks, 0u);
  EXPECT_EQ(ctx.stats.dense_groupby_runs, 0u);
  EXPECT_EQ(ctx.stats.flat_hash_runs, 1u);
  EXPECT_EQ(ctx.stats.dense_slot_fallbacks, 0u);
  auto bytes = io::WriteMo(*result);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, baseline);
}

TEST(GroupByKernelTest, TemporalEdgeForcesFlatHashAndMatchesBaseline) {
  // One temporal containment edge in an otherwise strict hierarchy fails
  // the snapshot's flat-table gate — a different fallback cause than
  // non-strictness, same flat-hash rung.
  RetailMo retail = BuildRetail();
  Dimension& products = retail.mo.dimension_mutable(retail.product_dim);
  const ValueId category_value = products.ValuesIn(retail.category).front();
  ASSERT_TRUE(products.AddValue(retail.product, ValueId(999983)).ok());
  ASSERT_TRUE(products
                  .AddOrder(ValueId(999983), category_value,
                            During("[01/01/80-NOW]"))
                  .ok());
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  ExecContext ctx(2, /*min_facts=*/1);
  auto result = AggregateFormation(retail.mo, spec, &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(ctx.stats.index_fallbacks, 0u);
  EXPECT_EQ(ctx.stats.dense_groupby_runs, 0u);
  EXPECT_EQ(ctx.stats.flat_hash_runs, 1u);
  auto bytes = io::WriteMo(*result);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, baseline);
}

// ---- Slot-threshold boundary ----------------------------------------------

TEST(GroupByKernelTest, ThresholdBoundaryExactFitStaysDense) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);
  // Only the product dimension contributes digits (the rest group at
  // top), so the slot space is exactly the category's cardinality.
  const std::uint64_t slots = retail.mo.dimension(retail.product_dim)
                                  .ValuesIn(retail.category)
                                  .size();
  ASSERT_GT(slots, 1u);

  ExecContext exact(2, /*min_facts=*/1);
  exact.max_dense_groupby_slots = slots;
  auto at_limit = AggregateFormation(retail.mo, spec, &exact);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  EXPECT_EQ(exact.stats.dense_groupby_runs, 1u);
  EXPECT_EQ(exact.stats.dense_slot_fallbacks, 0u);
  auto exact_bytes = io::WriteMo(*at_limit);
  ASSERT_TRUE(exact_bytes.ok());
  EXPECT_EQ(*exact_bytes, baseline);

  ExecContext over(2, /*min_facts=*/1);
  over.max_dense_groupby_slots = slots - 1;
  auto one_over = AggregateFormation(retail.mo, spec, &over);
  ASSERT_TRUE(one_over.ok()) << one_over.status();
  EXPECT_EQ(over.stats.dense_groupby_runs, 0u);
  EXPECT_EQ(over.stats.dense_slot_fallbacks, 1u);
  EXPECT_EQ(over.stats.flat_hash_runs, 1u);
  auto over_bytes = io::WriteMo(*one_over);
  ASSERT_TRUE(over_bytes.ok());
  EXPECT_EQ(*over_bytes, baseline);
}

// ---- Repeated-run byte-identity across thread counts ----------------------

TEST(GroupByKernelTest, FiftyDenseRunsAreByteIdenticalAcrossThreads) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.price_dim),
              GroupingAt(retail.mo, retail.store_dim, retail.city));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  for (std::size_t threads : {1u, 2u, 8u}) {
    for (int run = 0; run < 50; ++run) {
      ExecContext ctx(threads, /*min_facts=*/1);
      auto result = AggregateFormation(retail.mo, spec, &ctx);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_EQ(ctx.stats.dense_groupby_runs, 1u);
      auto bytes = io::WriteMo(*result);
      ASSERT_TRUE(bytes.ok());
      ASSERT_EQ(*bytes, baseline)
          << "dense kernel diverged at threads=" << threads
          << " run=" << run;
    }
  }
}

TEST(GroupByKernelTest, FiftyFlatHashRunsAreByteIdenticalAcrossThreads) {
  RetailMo retail = BuildRetail();
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(retail.amount_dim),
              GroupingAt(retail.mo, retail.product_dim, retail.category));
  const std::string baseline = BaselineBytes(retail.mo, spec);

  for (std::size_t threads : {1u, 2u, 8u}) {
    for (int run = 0; run < 50; ++run) {
      ExecContext ctx(threads, /*min_facts=*/1);
      ctx.max_dense_groupby_slots = 0;  // force the flat-hash engine
      auto result = AggregateFormation(retail.mo, spec, &ctx);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_EQ(ctx.stats.flat_hash_runs, 1u);
      ASSERT_EQ(ctx.stats.dense_slot_fallbacks, 1u);
      auto bytes = io::WriteMo(*result);
      ASSERT_TRUE(bytes.ok());
      ASSERT_EQ(*bytes, baseline)
          << "flat-hash kernel diverged at threads=" << threads
          << " run=" << run;
    }
  }
}

// ---- Result-value interning regression ------------------------------------

/// Two distinct doubles whose FormatDouble texts collide (NaNs with
/// different payloads both print "nan") must still intern to two distinct
/// result values: interning is keyed by bit pattern, the text is
/// display-only.
TEST(GroupByKernelTest, DistinctResultsWithIdenticalFormattingDoNotCollide) {
  const double nan_a = std::strtod("nan(0x1)", nullptr);
  const double nan_b = std::strtod("nan(0x2)", nullptr);
  if (std::bit_cast<std::uint64_t>(nan_a) ==
      std::bit_cast<std::uint64_t>(nan_b)) {
    GTEST_SKIP() << "platform strtod does not preserve NaN payloads";
  }

  // One grouping dimension with two bottom values, one measure dimension
  // whose per-group sums are the two payload-distinct NaNs.
  DimensionTypeBuilder group_builder("Group");
  group_builder.AddCategory("Key", AggregationType::kConstant);
  Dimension group_dim(std::move(group_builder.Build()).ValueOrDie());
  CategoryTypeIndex key = group_dim.type().bottom();
  ASSERT_TRUE(group_dim.AddValue(key, ValueId(1)).ok());
  ASSERT_TRUE(group_dim.AddValue(key, ValueId(2)).ok());

  DimensionTypeBuilder measure_builder("Measure");
  measure_builder.AddCategory("Reading", AggregationType::kSum);
  Dimension measure_dim(std::move(measure_builder.Build()).ValueOrDie());
  CategoryTypeIndex reading = measure_dim.type().bottom();
  Representation& rep = measure_dim.RepresentationFor(reading, "Value");
  ASSERT_TRUE(measure_dim.AddValue(reading, ValueId(10)).ok());
  ASSERT_TRUE(measure_dim.AddValue(reading, ValueId(11)).ok());
  ASSERT_TRUE(rep.Set(ValueId(10), "nan(0x1)").ok());
  ASSERT_TRUE(rep.Set(ValueId(11), "nan(0x2)").ok());

  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Sample", {group_dim, measure_dim}, registry);
  FactId f1 = registry->Atom(1);
  FactId f2 = registry->Atom(2);
  ASSERT_TRUE(mo.AddFact(f1).ok());
  ASSERT_TRUE(mo.AddFact(f2).ok());
  ASSERT_TRUE(mo.Relate(0, f1, ValueId(1)).ok());
  ASSERT_TRUE(mo.Relate(0, f2, ValueId(2)).ok());
  ASSERT_TRUE(mo.Relate(1, f1, ValueId(10)).ok());
  ASSERT_TRUE(mo.Relate(1, f2, ValueId(11)).ok());

  AggregateSpec spec = SpecFor(AggFunction::Sum(1),
                               {key, mo.dimension(1).type().top()});
  auto check = [&](ExecContext* exec, const char* engine) {
    auto result = AggregateFormation(mo, spec, exec);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::size_t result_dim = result->dimension_count() - 1;
    const CategoryTypeIndex bottom =
        result->dimension(result_dim).type().bottom();
    // Two groups, two distinct NaN sums: two result values, not one.
    EXPECT_EQ(result->fact_count(), 2u);
    EXPECT_EQ(result->dimension(result_dim).ValuesIn(bottom).size(), 2u)
        << engine;
  };
  check(nullptr, "context-free kernel");
  ExecContext ctx(1, /*min_facts=*/1);
  check(&ctx, "kernel on a context");
  auto reference = reference::AggregateFormation(mo, spec);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::size_t result_dim = reference->dimension_count() - 1;
  EXPECT_EQ(reference->dimension(result_dim)
                .ValuesIn(reference->dimension(result_dim).type().bottom())
                .size(),
            2u);
}

// ---- Relational flat-hash engine ------------------------------------------

TEST(GroupByKernelTest, RelationalFlatHashMatchesBaselineAndCounts) {
  using relational::AggregateTerm;
  relational::Relation r({"k", "v"});
  for (std::int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(r.Insert({relational::Value(i % 13),
                          relational::Value(static_cast<double>(i) * 0.5)})
                    .ok());
  }
  const std::vector<AggregateTerm> terms = {
      {AggregateTerm::Func::kCountStar, "", "n"},
      {AggregateTerm::Func::kSum, "v", "v_sum"},
  };
  auto reference = reference::RelationalAggregate(r, {"k"}, terms);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // Context-free and sequential-context runs both take the flat-hash
  // engine; only the context counts it.
  auto context_free = relational::Aggregate(r, {"k"}, terms);
  ASSERT_TRUE(context_free.ok()) << context_free.status();
  EXPECT_TRUE(*context_free == *reference);
  ExecContext ctx;
  ASSERT_FALSE(ctx.WantsParallel(r.tuples().size()));
  auto flat = relational::Aggregate(r, {"k"}, terms, &ctx);
  ASSERT_TRUE(flat.ok()) << flat.status();
  EXPECT_EQ(ctx.stats.flat_hash_runs, 1u);
  EXPECT_EQ(ctx.stats.parallel_runs, 0u);
  EXPECT_TRUE(*flat == *reference);
}

// ---- Shared building blocks -----------------------------------------------

TEST(GroupByKernelTest, FlatHashGroupIndexSurvivesRehashing) {
  // Intern far more keys than the initial capacity so several rehashes
  // run, then verify every key still finds its original ordinal.
  FlatHashGroupIndex index;
  std::vector<ValueId> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    keys.push_back(ValueId(i * 7 + 1));
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    const std::uint32_t ordinal = index.FindOrInsert(
        HashValueIds(&keys[i], 1), i,
        [&](std::uint32_t existing) { return keys[existing] == keys[i]; },
        &inserted);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(ordinal, i);
  }
  EXPECT_EQ(index.size(), keys.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    const std::uint32_t ordinal = index.FindOrInsert(
        HashValueIds(&keys[i], 1), 0xdeadbeefu,
        [&](std::uint32_t existing) { return keys[existing] == keys[i]; },
        &inserted);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(ordinal, i);
  }
}

// ---- Formation vs the reference engine -------------------------------------

/// Runs AggregateFormation context-free and on contexts with 1, 2 and 8
/// threads (parallel from one fact, slot threshold `max_slots`) and
/// expects every run to reproduce the reference engine exactly: the same
/// serialized bytes, or the same error. Returns the 1-thread run's
/// counters so callers can pin which engine ran.
ExecStats ExpectFormationMatchesReference(
    const MdObject& mo, const AggregateSpec& spec,
    std::uint64_t max_slots = ExecContext().max_dense_groupby_slots) {
  auto reference = reference::AggregateFormation(mo, spec);
  std::string reference_bytes;
  if (reference.ok()) {
    reference_bytes = std::move(io::WriteMo(*reference)).ValueOrDie();
  }
  auto expect_same = [&](const Result<MdObject>& result,
                         const std::string& where) {
    ASSERT_EQ(result.ok(), reference.ok())
        << where << ": " << result.status() << " vs reference "
        << reference.status();
    if (!reference.ok()) {
      EXPECT_EQ(result.status().ToString(), reference.status().ToString())
          << where;
      return;
    }
    EXPECT_EQ(std::move(io::WriteMo(*result)).ValueOrDie(), reference_bytes)
        << where;
  };
  expect_same(AggregateFormation(mo, spec), "context-free");
  ExecStats first;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ExecContext ctx(threads, /*min_facts=*/1);
    ctx.max_dense_groupby_slots = max_slots;
    expect_same(AggregateFormation(mo, spec, &ctx),
                StrCat("threads=", threads));
    if (threads == 1u) first = ctx.stats;
  }
  return first;
}

/// A valid-time MO of uncertain, temporal data: an Item < Family grouping
/// dimension whose item -> family edges carry probabilities (plus, with
/// `temporal_edges`, valid-time edge lifespans that fail the flat-table
/// gate, and with `non_strict`, second families at probability 0.5), and
/// a numeric Amount measure. Facts attach to one or two items and one or
/// two amounts, at probabilities below 1 and bounded lifespans.
struct UncertainMo {
  MdObject mo;
  CategoryTypeIndex item = 0;
  CategoryTypeIndex family = 0;
  std::size_t families = 0;
};

UncertainMo BuildUncertainMo(std::uint32_t seed, std::size_t num_facts,
                             bool temporal_edges, bool non_strict) {
  constexpr std::size_t kItems = 24;
  constexpr std::size_t kFamilies = 5;
  constexpr std::size_t kAmounts = 30;
  DimensionTypeBuilder group_builder("Product");
  group_builder.AddCategory("Item", AggregationType::kConstant)
      .AddCategory("Family", AggregationType::kConstant)
      .AddOrder("Item", "Family");
  auto group_type = std::move(group_builder.Build()).ValueOrDie();
  Dimension products(group_type);
  const CategoryTypeIndex item = *group_type->Find("Item");
  const CategoryTypeIndex family = *group_type->Find("Family");
  const double edge_probs[] = {1.0, 0.9, 0.75};
  for (std::size_t f = 0; f < kFamilies; ++f) {
    EXPECT_TRUE(products.AddValue(family, ValueId(100 + f)).ok());
  }
  for (std::size_t i = 0; i < kItems; ++i) {
    const ValueId id(1 + i);
    EXPECT_TRUE(products.AddValue(item, id).ok());
    const Lifespan life = temporal_edges && i % 3 == 0
                              ? During("[01/01/80-NOW]")
                              : Lifespan::AlwaysSpan();
    EXPECT_TRUE(products
                    .AddOrder(id, ValueId(100 + i % kFamilies), life,
                              edge_probs[i % 3])
                    .ok());
    if (non_strict && i % 4 == 0) {
      EXPECT_TRUE(products
                      .AddOrder(id, ValueId(100 + (i + 1) % kFamilies),
                                Lifespan::AlwaysSpan(), 0.5)
                      .ok());
    }
  }

  DimensionTypeBuilder measure_builder("Amount");
  measure_builder.AddCategory("Value", AggregationType::kSum);
  auto measure_type = std::move(measure_builder.Build()).ValueOrDie();
  Dimension amounts(measure_type);
  const CategoryTypeIndex reading = measure_type->bottom();
  Representation& rep = amounts.RepresentationFor(reading, "Value");
  for (std::size_t a = 0; a < kAmounts; ++a) {
    const ValueId id(1000 + a);
    EXPECT_TRUE(amounts.AddValue(reading, id).ok());
    EXPECT_TRUE(
        rep.Set(id, FormatDouble(0.1 * static_cast<double>(a * a) - 7.5))
            .ok());
  }

  auto registry = std::make_shared<FactRegistry>();
  MdObject mo("Purchase", {std::move(products), std::move(amounts)},
              registry, TemporalType::kValidTime);
  std::mt19937 rng(seed);
  const double fact_probs[] = {1.0, 0.8, 0.6, 0.35};
  const char* periods[] = {"[01/01/70-NOW]", "[01/01/75-31/12/90]",
                           "[01/06/82-NOW]"};
  auto life_of = [&](std::uint32_t pick) {
    return pick % 4 == 0 ? Lifespan::AlwaysSpan() : During(periods[pick % 3]);
  };
  for (std::size_t n = 0; n < num_facts; ++n) {
    const FactId fact = registry->Atom(n);
    EXPECT_TRUE(mo.AddFact(fact).ok());
    const std::size_t links = rng() % 5 == 0 ? 2 : 1;
    const std::size_t first_item = rng() % kItems;
    const std::size_t first_amount = rng() % kAmounts;
    for (std::size_t l = 0; l < links; ++l) {
      const Status item_status =
          mo.Relate(0, fact, ValueId(1 + (first_item + 7 * l) % kItems),
                    life_of(rng()), fact_probs[rng() % 4]);
      EXPECT_TRUE(item_status.ok()) << item_status;
      const Status amount_status = mo.Relate(
          1, fact, ValueId(1000 + (first_amount + 11 * l) % kAmounts),
          life_of(rng()));
      EXPECT_TRUE(amount_status.ok()) << amount_status;
    }
  }
  return UncertainMo{std::move(mo), item, family, kFamilies};
}

std::vector<AggFunction> EveryFunction(std::size_t measure) {
  return {AggFunction::Sum(measure),   AggFunction::Avg(measure),
          AggFunction::Min(measure),   AggFunction::Max(measure),
          AggFunction::Count(measure), AggFunction::SetCount()};
}

TEST(FormationReferenceTest, DenseSlotsOverProbabilisticTemporalData) {
  UncertainMo u = BuildUncertainMo(11, 400, /*temporal_edges=*/false,
                                   /*non_strict=*/false);
  for (const AggFunction& fn : EveryFunction(1)) {
    for (bool expected : {false, true}) {
      AggregateSpec spec = SpecFor(fn, GroupingAt(u.mo, 0, u.family));
      spec.expected_counts = expected;
      SCOPED_TRACE(StrCat(fn.name(), expected ? " expected" : ""));
      const ExecStats stats = ExpectFormationMatchesReference(u.mo, spec);
      EXPECT_EQ(stats.dense_groupby_runs, 1u);
      EXPECT_EQ(stats.index_hits, 1u);
    }
  }
}

TEST(FormationReferenceTest, DenseSlotBoundaryOnBothSides) {
  UncertainMo u = BuildUncertainMo(12, 300, false, false);
  AggregateSpec spec =
      SpecFor(AggFunction::Sum(1), GroupingAt(u.mo, 0, u.family));
  ExecStats at_limit = ExpectFormationMatchesReference(u.mo, spec, u.families);
  EXPECT_EQ(at_limit.dense_groupby_runs, 1u);
  EXPECT_EQ(at_limit.dense_slot_fallbacks, 0u);
  ExecStats one_over =
      ExpectFormationMatchesReference(u.mo, spec, u.families - 1);
  EXPECT_EQ(one_over.dense_groupby_runs, 0u);
  EXPECT_EQ(one_over.dense_slot_fallbacks, 1u);
  EXPECT_EQ(one_over.flat_hash_runs, 1u);
}

TEST(FormationReferenceTest, FlatHashOverEveryFunction) {
  UncertainMo u = BuildUncertainMo(13, 400, false, false);
  for (const AggFunction& fn : EveryFunction(1)) {
    SCOPED_TRACE(fn.name());
    // Item-level grouping on both dimensions: a two-axis key.
    AggregateSpec spec =
        SpecFor(fn, {u.item, u.mo.dimension(1).type().bottom()});
    const ExecStats stats =
        ExpectFormationMatchesReference(u.mo, spec, /*max_slots=*/0);
    EXPECT_EQ(stats.flat_hash_runs, 1u);
  }
}

TEST(FormationReferenceTest, TemporalNonStrictEdgesTakeTheMemoizedPath) {
  UncertainMo u = BuildUncertainMo(14, 400, /*temporal_edges=*/true,
                                   /*non_strict=*/true);
  for (const AggFunction& fn : EveryFunction(1)) {
    for (bool expected : {false, true}) {
      AggregateSpec spec = SpecFor(fn, GroupingAt(u.mo, 0, u.family));
      spec.expected_counts = expected;
      SCOPED_TRACE(StrCat(fn.name(), expected ? " expected" : ""));
      const ExecStats stats = ExpectFormationMatchesReference(u.mo, spec);
      EXPECT_EQ(stats.index_fallbacks, 1u);
      EXPECT_EQ(stats.flat_hash_runs, 1u);
    }
  }
}

TEST(FormationReferenceTest, ClinicalNonStrictMemoizedCoordinates) {
  ClinicalMo clinical = BuildClinical(5, 120);
  std::vector<CategoryTypeIndex> two_axes =
      GroupingAt(clinical.mo, clinical.diagnosis_dim, clinical.family);
  two_axes[clinical.residence_dim] = clinical.county;
  for (const auto& grouping :
       {GroupingAt(clinical.mo, clinical.diagnosis_dim, clinical.family),
        GroupingAt(clinical.mo, clinical.diagnosis_dim, clinical.group),
        two_axes}) {
    for (bool expected : {false, true}) {
      AggregateSpec spec = SpecFor(AggFunction::SetCount(), grouping);
      spec.expected_counts = expected;
      ExpectFormationMatchesReference(clinical.mo, spec);
    }
  }
}

TEST(FormationReferenceTest, ErrorsMatchTheReference) {
  UncertainMo u = BuildUncertainMo(15, 200, false, false);
  const std::vector<CategoryTypeIndex> grouping =
      GroupingAt(u.mo, 0, u.family);
  // A bad argument dimension, past the aggregation-type gate.
  AggregateSpec bad_dim = SpecFor(AggFunction::Sum(7), grouping);
  bad_dim.enforce_aggregation_types = false;
  // NumericValueOf failure: product values have no numeric text.
  AggregateSpec not_numeric = SpecFor(AggFunction::Max(0), grouping);
  not_numeric.enforce_aggregation_types = false;
  // CheckApplicable: SUM over a constant-typed dimension.
  AggregateSpec illegal = SpecFor(AggFunction::Sum(0), grouping);
  for (const AggregateSpec* spec : {&bad_dim, &not_numeric, &illegal}) {
    ASSERT_FALSE(reference::AggregateFormation(u.mo, *spec).ok());
    ExpectFormationMatchesReference(u.mo, *spec);
    ExpectFormationMatchesReference(u.mo, *spec, /*max_slots=*/0);
  }
}

}  // namespace
}  // namespace mddc
