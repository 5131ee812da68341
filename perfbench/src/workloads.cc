#include "workloads.h"

#include <memory>
#include <random>
#include <utility>

#include "common/date.h"
#include "common/strings.h"
#include "core/fact.h"
#include "stress/mix.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

namespace perfbench {
namespace {

using mddc::Result;
using mddc::StrCat;

constexpr std::size_t kRetailPurchases = 100000;
constexpr std::size_t kClinicalPatients = 20000;
/// Families per group and diagnoses per family. The generator draws each
/// fan-out from [min, max]; pinning it inside the paper's 5-20 keeps the
/// hierarchy's size, and so the cost of a statement, the same for every
/// seed, so runs with different seeds compare.
constexpr std::size_t kClinicalFanout = 12;
constexpr std::size_t kFactsPerInsert = 3;
/// Epoch-move rounds after the timed phase. A clinical round is cheap and
/// its first read noisy, so that workload takes more of them.
constexpr std::size_t kRetailTailRounds = 24;
constexpr std::size_t kClinicalTailRounds = 64;

/// INSERT keys sit far above both generators' key spaces; the seed picks
/// the block, a per-run counter the key within it.
std::uint64_t InsertKeyBase(std::uint32_t seed) {
  return 100000000ull + (seed % 1000) * 100000ull;
}

std::mt19937 StatementRng(std::uint32_t seed, std::uint32_t salt) {
  std::seed_seq seq{seed, salt};
  return std::mt19937(seq);
}

std::size_t Pick(std::mt19937& rng, std::size_t bound) {
  return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng);
}

mddc::RetailWorkloadParams RetailParams(std::uint32_t seed) {
  mddc::RetailWorkloadParams params;
  params.seed = seed;
  params.num_purchases = kRetailPurchases;
  return params;
}

mddc::ClinicalWorkloadParams ClinicalParams(std::uint32_t seed) {
  mddc::ClinicalWorkloadParams params;
  params.seed = seed;
  params.num_patients = kClinicalPatients;
  params.min_fanout = kClinicalFanout;
  params.max_fanout = kClinicalFanout;
  return params;
}

Result<mddc::MdObject> GenerateRetail(std::uint32_t seed) {
  MDDC_ASSIGN_OR_RETURN(
      mddc::RetailMo retail,
      mddc::GenerateRetailWorkload(RetailParams(seed),
                                   std::make_shared<mddc::FactRegistry>()));
  return std::move(retail.mo);
}

/// Bulk 3-fact INSERTs into the retail MO over existing leaf values.
class RetailInserts {
 public:
  static Result<RetailInserts> Make(const mddc::MdObject& mo,
                                    std::uint32_t seed) {
    RetailInserts inserts(seed);
    const mddc::Dimension& price = mo.dimension(4);
    MDDC_ASSIGN_OR_RETURN(
        const mddc::Representation* rep,
        price.FindRepresentation(price.type().bottom(), "Value"));
    for (mddc::ValueId id : price.ValuesIn(price.type().bottom())) {
      MDDC_ASSIGN_OR_RETURN(std::string text, rep->Get(id));
      inserts.prices_.push_back(std::move(text));
    }
    MDDC_ASSIGN_OR_RETURN(inserts.first_day_, mddc::ParseDate("01/01/98"));
    if (inserts.prices_.empty()) {
      return mddc::Status::InvariantViolation("retail MO has no prices");
    }
    return inserts;
  }

  std::string Next() {
    std::string statement = "INSERT INTO sales";
    for (std::size_t f = 0; f < kFactsPerInsert; ++f) {
      const mddc::RetailWorkloadParams defaults;
      statement += StrCat(
          f == 0 ? " " : ", ", "FACT ", key_base_ + counter_++,
          " (Product.Product = 'Product-", Pick(rng_, defaults.num_products),
          "', Store.Store = 'Store-", Pick(rng_, defaults.num_stores),
          "', Date.Day = '",
          mddc::FormatDate(first_day_ + static_cast<std::int64_t>(
                                            Pick(rng_, defaults.num_days))),
          "', Amount.Amount = '",
          1 + Pick(rng_, static_cast<std::size_t>(defaults.max_amount)),
          "', Price.Price = '", prices_[Pick(rng_, prices_.size())], "')");
    }
    return statement;
  }

 private:
  explicit RetailInserts(std::uint32_t seed)
      : rng_(StatementRng(seed, 1)), key_base_(InsertKeyBase(seed)) {}

  std::mt19937 rng_;
  std::uint64_t key_base_;
  std::uint64_t counter_ = 0;
  std::vector<std::string> prices_;
  std::int64_t first_day_ = 0;
};

/// Bulk 3-fact INSERTs of new patients, in the stress generator's shape.
class ClinicalInserts {
 public:
  ClinicalInserts(const mddc::stress::WorkloadProfile& profile,
                  std::uint32_t seed)
      : profile_(profile),
        rng_(StatementRng(seed, 2)),
        key_base_(InsertKeyBase(seed)) {}

  std::string Next() {
    std::string statement = "INSERT INTO " + profile_.mo_name;
    for (std::size_t f = 0; f < kFactsPerInsert; ++f) {
      statement += StrCat(
          f == 0 ? " " : ", ", "FACT ", key_base_ + counter_++,
          " (Diagnosis.\"Low-level Diagnosis\" = 'L", Pick(rng_, profile_.lows),
          "'", f == 1 ? " PROB 0.8" : "", ", Residence.Area = 'A",
          Pick(rng_, profile_.areas), "')");
    }
    return statement;
  }

 private:
  mddc::stress::WorkloadProfile profile_;
  std::mt19937 rng_;
  std::uint64_t key_base_;
  std::uint64_t counter_ = 0;
};

/// A 3-fact INSERT on connection 0, then reads[c] on each connection c
/// whose entry is not empty.
std::vector<Op> EpochMoveRound(std::string insert,
                               const std::vector<std::string>& reads) {
  std::vector<Op> round{Op{0, std::move(insert), true}};
  for (std::size_t conn = 0; conn < reads.size(); ++conn) {
    if (!reads[conn].empty()) round.push_back(Op{conn, reads[conn], false});
  }
  return round;
}

Result<Workload> ReadSteady(std::uint32_t seed) {
  Workload w;
  w.name = "read-steady";
  w.mo_name = "sales";
  // Roll-up/drill-down over Product and Store, one two-dimension
  // grouping, one multi-function SELECT: all fused, all dense.
  const std::vector<std::string> set = {
      "SELECT SUM(Amount) FROM sales BY Product.Department",
      "SELECT SUM(Amount) FROM sales BY Product.Category",
      "SELECT SUM(Amount) FROM sales BY Product.Product",
      "SELECT SUM(Amount) FROM sales BY Store.Region",
      "SELECT SUM(Amount) FROM sales BY Store.City",
      "SELECT COUNT FROM sales BY Product.Category, Store.Region",
      "SELECT SUM(Amount), AVG(Price) FROM sales BY Product.Category",
  };
  w.warmup = {set};
  w.main_statement = set[1];
  w.claim = "dense kernel and index hits at ratio 1, no view rebuilds";
  w.claim_holds = [](const Coverage& c) {
    return c.dense_kernel_ratio == 1 && c.index_hit_ratio == 1 &&
           c.view_rebuilds == 0;
  };
  w.tail_rounds = kRetailTailRounds;
  w.generate = [seed] { return GenerateRetail(seed); };
  MDDC_ASSIGN_OR_RETURN(mddc::MdObject mo, w.generate());
  MDDC_ASSIGN_OR_RETURN(RetailInserts inserts, RetailInserts::Make(mo, seed));
  auto next = std::make_shared<std::size_t>(seed % set.size());
  w.next_group = [set, next] {
    return std::vector<Op>{Op{0, set[(*next)++ % set.size()], false}};
  };
  auto writer = std::make_shared<RetailInserts>(std::move(inserts));
  const std::vector<std::string> reads = {w.main_statement};
  w.next_tail_round = [writer, reads] {
    return EpochMoveRound(writer->Next(), reads);
  };
  return w;
}

Result<Workload> IngestFanout(std::uint32_t seed) {
  Workload w;
  w.name = "ingest-fanout";
  w.mo_name = "sales";
  w.connections = 4;
  // Connection 0 writes; connections 1-3 each read one warm grouping.
  const std::vector<std::string> reads = {
      "",
      "SELECT SUM(Amount) FROM sales BY Product.Category",
      "SELECT SUM(Amount) FROM sales BY Store.Region",
      "SELECT COUNT FROM sales BY Product.Department",
  };
  w.warmup = {{reads[1]}, {reads[1]}, {reads[2]}, {reads[3]}};
  w.warm_statements = {reads[1], reads[2], reads[3]};
  w.main_statement = reads[1];
  w.tail_rounds = 0;
  w.claim = "append fast path at ratio 1, view rebuilds = 3 readers x writes";
  w.claim_holds = [](const Coverage& c) {
    return c.fastpath_ratio == 1 && c.view_rebuilds == 3 * c.writes;
  };
  w.generate = [seed] { return GenerateRetail(seed); };
  MDDC_ASSIGN_OR_RETURN(mddc::MdObject mo, w.generate());
  MDDC_ASSIGN_OR_RETURN(RetailInserts inserts, RetailInserts::Make(mo, seed));
  auto writer = std::make_shared<RetailInserts>(std::move(inserts));
  w.next_group = [writer, reads] {
    return EpochMoveRound(writer->Next(), reads);
  };
  w.next_tail_round = w.next_group;
  return w;
}

Result<Workload> ClinicalMix(std::uint32_t seed) {
  Workload w;
  w.name = "clinical-mix";
  w.mo_name = "patients";
  const std::string overview =
      "SELECT COUNT FROM patients BY Diagnosis.\"Diagnosis Group\"";
  w.warmup = {{overview, "SELECT COUNT FROM patients BY Residence.Region"}};
  w.main_statement = overview;
  w.tail_rounds = kClinicalTailRounds;
  w.claim = "index fallbacks and flat-hash runs above zero";
  w.claim_holds = [](const Coverage& c) {
    return c.index_fallbacks > 0 && c.flat_hash_runs > 0;
  };
  const mddc::ClinicalWorkloadParams params = ClinicalParams(seed);
  w.generate = [params]() -> Result<mddc::MdObject> {
    MDDC_ASSIGN_OR_RETURN(
        mddc::ClinicalMo clinical,
        mddc::GenerateClinicalWorkload(params,
                                       std::make_shared<mddc::FactRegistry>()));
    return std::move(clinical.mo);
  };
  MDDC_ASSIGN_OR_RETURN(
      mddc::ClinicalMo clinical,
      mddc::GenerateClinicalWorkload(params,
                                     std::make_shared<mddc::FactRegistry>()));
  const mddc::stress::WorkloadProfile profile =
      mddc::stress::WorkloadProfile::For(params, clinical, w.mo_name);
  // The read classes of the stress mix at its default weights, 4/2/1/1,
  // in a fixed cycle rather than drawn, so every run sends the classes in
  // the same proportions and only the values picked depend on the seed.
  // No writes in the timed phase.
  using mddc::stress::QueryClass;
  const std::vector<QueryClass> cycle = {
      QueryClass::kRollupDrilldown, QueryClass::kTemporalSlice,
      QueryClass::kRollupDrilldown, QueryClass::kProbabilistic,
      QueryClass::kRollupDrilldown, QueryClass::kStarJoin,
      QueryClass::kRollupDrilldown, QueryClass::kTemporalSlice};
  auto generator =
      std::make_shared<mddc::stress::StatementGenerator>(profile, seed, 0);
  auto next = std::make_shared<std::size_t>(0);
  w.next_group = [generator, cycle, next] {
    std::vector<Op> group;
    for (std::string& statement :
         generator->Generate(cycle[(*next)++ % cycle.size()])) {
      group.push_back(Op{0, std::move(statement), false});
    }
    return group;
  };
  auto writer = std::make_shared<ClinicalInserts>(profile, seed);
  const std::vector<std::string> reads = {overview};
  w.next_tail_round = [writer, reads] {
    return EpochMoveRound(writer->Next(), reads);
  };
  return w;
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, std::uint32_t seed) {
  if (name == "read-steady") return ReadSteady(seed);
  if (name == "ingest-fanout") return IngestFanout(seed);
  if (name == "clinical-mix") return ClinicalMix(seed);
  return mddc::Status::InvalidArgument(StrCat("unknown workload '", name, "'"));
}

std::uint64_t DigestOps(const std::vector<Op>& ops, std::size_t count) {
  std::uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 1099511628211ull;
  };
  for (std::size_t i = 0; i < count && i < ops.size(); ++i) {
    mix(static_cast<unsigned char>(ops[i].conn));
    mix(ops[i].write ? 'W' : 'R');
    for (char ch : ops[i].statement) mix(static_cast<unsigned char>(ch));
    mix('\n');
  }
  return hash;
}

}  // namespace perfbench
