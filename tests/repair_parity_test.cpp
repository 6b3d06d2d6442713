// Repair parity: FNV-1a digests and cardinalities recorded from the repair
// engine that preceded the single component-session core (one pin row per
// operator pin, presolve, decomposition of the reduced model, a global ×100
// re-translate big-M retry). The digests cover every no-pin repair path —
// RepairEngine::ComputeRepair, ComputeRepairBatch, DartPipeline::Submit and
// SubmitBatch — on 40 cash budgets each at 2, 12 and 50 years with 3
// injected errors: any change to a repair's cells, old or new values, or
// display order changes a digest. Pinned paths keep their optimum, not
// their argmin (tied optima may break differently): the per-step
// cardinalities of growing pin sequences and the final validated databases
// of full supervised sessions are pinned too.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "../bench/bench_util.h"
#include "constraints/eval.h"
#include "constraints/ground.h"
#include "core/pipeline.h"
#include "ocr/cash_budget.h"
#include "repair/batch.h"
#include "repair/engine.h"
#include "repair/incremental.h"
#include "validation/operator.h"
#include "validation/session.h"

namespace dart::repair {
namespace {

constexpr int kSeeds = 40;
constexpr size_t kErrors = 3;
constexpr size_t kBatchSize = 8;

std::string SerializeValue(const rel::Value& v) {
  char buf[64];
  if (v.is_null()) return "n:";
  if (v.is_int()) return "i:" + std::to_string(v.AsInt());
  if (v.is_real()) {
    std::snprintf(buf, sizeof(buf), "r:%.17g", v.AsReal());
    return buf;
  }
  return "s:" + v.AsString();
}

std::string Fnv1a(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a 64-bit.
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

std::string Digest(const RepairOutcome& outcome) {
  std::string out = outcome.already_consistent ? "consistent\n" : "";
  for (const AtomicUpdate& update : outcome.repair.updates()) {
    out += update.cell.ToString() + "|" + SerializeValue(update.old_value) +
           "|" + SerializeValue(update.new_value) + "\n";
  }
  return Fnv1a(out);
}

std::string Digest(const rel::Database& db) {
  std::string out;
  for (const rel::Relation& relation : db.relations()) {
    out += relation.name() + "\n";
    for (const rel::Tuple& tuple : relation.rows()) {
      for (const rel::Value& value : tuple) out += SerializeValue(value) + ",";
      out += "\n";
    }
  }
  return Fnv1a(out);
}

std::vector<bench::Scenario> Scenarios(int years) {
  std::vector<bench::Scenario> scenarios;
  for (int seed = 0; seed < kSeeds; ++seed) {
    scenarios.push_back(bench::MakeBudgetScenario(seed, years, kErrors));
  }
  return scenarios;
}

std::vector<std::string> EngineDigests(int years) {
  RepairEngineOptions options;
  options.milp.search.num_threads = 1;
  const RepairEngine engine(options);
  std::vector<std::string> digests;
  for (const bench::Scenario& scenario : Scenarios(years)) {
    auto ground =
        cons::GroundConstraintProgram(scenario.acquired, scenario.constraints);
    DART_CHECK_MSG(ground.ok(), ground.status().ToString());
    auto outcome = engine.ComputeRepair(scenario.acquired,
                                        scenario.constraints, {}, nullptr,
                                        &*ground);
    digests.push_back(outcome.ok() ? Digest(*outcome)
                                   : outcome.status().ToString());
  }
  return digests;
}

std::vector<std::string> BatchDigests(int years) {
  RepairEngineOptions options;
  options.milp.search.num_threads = 2;
  const std::vector<bench::Scenario> scenarios = Scenarios(years);
  std::vector<cons::GroundProgram> grounds;
  for (const bench::Scenario& scenario : scenarios) {
    auto ground =
        cons::GroundConstraintProgram(scenario.acquired, scenario.constraints);
    DART_CHECK_MSG(ground.ok(), ground.status().ToString());
    grounds.push_back(std::move(ground).value());
  }
  std::vector<std::string> digests;
  for (size_t begin = 0; begin < scenarios.size(); begin += kBatchSize) {
    std::vector<BatchRepairRequest> requests;
    for (size_t i = begin; i < begin + kBatchSize; ++i) {
      requests.push_back({&scenarios[i].acquired, &grounds[i], {}});
    }
    for (const Result<RepairOutcome>& outcome :
         ComputeRepairBatch(requests, scenarios[0].constraints, options)) {
      digests.push_back(outcome.ok() ? Digest(*outcome)
                                     : outcome.status().ToString());
    }
  }
  return digests;
}

core::DartPipeline MakePipeline() {
  Rng rng(0);
  ocr::CashBudgetOptions options;
  options.num_years = 1;
  const rel::Database reference =
      ocr::CashBudgetFixture::Random(options, &rng).value();
  core::AcquisitionMetadata metadata;
  metadata.catalog = ocr::CashBudgetFixture::BuildCatalog(reference).value();
  metadata.patterns = ocr::CashBudgetFixture::BuildPatterns();
  metadata.mappings = {ocr::CashBudgetFixture::BuildMapping(reference).value()};
  metadata.constraint_program = ocr::CashBudgetFixture::ConstraintProgram();
  core::PipelineOptions pipeline_options;
  pipeline_options.engine.milp.search.num_threads = 2;
  auto pipeline =
      core::DartPipeline::Create(std::move(metadata), pipeline_options);
  DART_CHECK_MSG(pipeline.ok(), pipeline.status().ToString());
  return std::move(pipeline).value();
}

std::vector<std::string> Htmls(int years) {
  std::vector<std::string> htmls;
  for (const bench::Scenario& scenario : Scenarios(years)) {
    htmls.push_back(ocr::CashBudgetFixture::RenderHtml(scenario.acquired));
  }
  return htmls;
}

std::vector<std::string> SubmitDigests(int years) {
  const core::DartPipeline pipeline = MakePipeline();
  std::vector<std::string> digests;
  for (const std::string& html : Htmls(years)) {
    auto outcome = pipeline.Submit(core::ProcessRequest::FromHtml(html));
    digests.push_back(outcome.ok() ? Digest(outcome->repair)
                                   : outcome.status().ToString());
  }
  return digests;
}

std::vector<std::string> SubmitBatchDigests(int years) {
  const core::DartPipeline pipeline = MakePipeline();
  const std::vector<std::string> htmls = Htmls(years);
  std::vector<std::string> digests;
  for (size_t begin = 0; begin < htmls.size(); begin += kBatchSize) {
    const std::vector<std::string> slice(htmls.begin() + begin,
                                         htmls.begin() + begin + kBatchSize);
    core::BatchOutcome batch =
        pipeline.SubmitBatch(core::BatchRequest::FromHtmls(slice));
    for (const core::BatchSlot& slot : batch.documents) {
      digests.push_back(slot.result.ok() ? Digest(slot.result->repair)
                                         : slot.result.status().ToString());
    }
  }
  return digests;
}

// Cardinalities of a growing pin sequence on a two-document instance: step k
// pins the first k injected errors to their true values, exactly what
// operator rejections produce. `fresh` computes each step with a one-shot
// RepairEngine call; otherwise one persistent session re-solves only the
// components each new pin dirties.
std::vector<size_t> PinSequenceCardinalities(uint64_t seed, bool fresh) {
  const bench::Scenario scenario = bench::MakeMultiDocScenario(
      seed, /*docs=*/2, /*years=*/2, /*errors_per_doc=*/2);
  RepairEngineOptions options;
  // Odd seeds solve dirty components concurrently, exercising the
  // BatchModel::root_basis plumbing across threads.
  options.milp.search.num_threads = seed % 2 == 0 ? 1 : 2;
  IncrementalRepairSession session(scenario.acquired, scenario.constraints,
                                   options);
  const RepairEngine engine(options);
  std::vector<FixedValue> pins;
  std::vector<size_t> cardinalities;
  for (size_t step = 0; step <= scenario.errors.size(); ++step) {
    if (step > 0) {
      const ocr::InjectedError& error = scenario.errors[step - 1];
      pins.push_back(FixedValue{error.cell, error.true_value.AsReal()});
    }
    auto outcome =
        fresh ? engine.ComputeRepair(scenario.acquired, scenario.constraints,
                                     pins)
              : session.ComputeRepair(pins);
    if (!outcome.ok()) {
      ADD_FAILURE() << "seed=" << seed << " step=" << step << ": "
                    << outcome.status().ToString();
      return cardinalities;
    }
    // Every repair must actually repair (the core verifies internally; check
    // through the public surface too).
    auto repaired = outcome->repair.Applied(scenario.acquired);
    cons::ConsistencyChecker checker(&scenario.constraints);
    EXPECT_TRUE(repaired.ok() && *checker.IsConsistent(*repaired))
        << "seed=" << seed << " step=" << step;
    cardinalities.push_back(outcome->repair.cardinality());
  }
  return cardinalities;
}

// Final validated database of a supervised session with a batch size of 1
// (every iteration re-solves) and three errors per document.
std::string SessionDigest(uint64_t seed) {
  const bench::Scenario scenario = bench::MakeMultiDocScenario(
      seed, /*docs=*/2, /*years=*/1, /*errors_per_doc=*/3);
  validation::SimulatedOperator op(&scenario.truth);
  validation::SessionOptions options;
  options.examine_batch = 1;
  auto result = validation::RunValidationSession(
      scenario.acquired, scenario.constraints, op, options);
  if (!result.ok()) return result.status().ToString();
  if (!result->converged) return "not converged";
  cons::ConsistencyChecker checker(&scenario.constraints);
  EXPECT_TRUE(*checker.IsConsistent(result->repaired)) << "seed=" << seed;
  return Digest(result->repaired);
}

// No-pin repair digests per seed (0..39), recorded from the preceding
// engine. Submit and SubmitBatch acquire the rendered acquired database, and
// the acquisition of an exactly rendered document carries no confidence
// weights, so all four paths share one table per size.
const char* const kNoPin2[] = {
    "60d09c74411895fa", "df154a5bb7157b60", "11b10759d2c667cb", "cb84831c6f59c757",
    "a5e0afc4fb05c894", "4a5781455732ce7b", "f5c41d1e0962a1bb", "4c3a463fcb081349",
    "a60b6ef879068647", "c1f31d1a1f581f7f", "a65bd0e417ff1842", "1c37d81c5daf4297",
    "3067f1ce0a19fbb3", "3c3a921cf5e98f00", "704ae83a846daa9f", "d21a24adec4868b0",
    "7d3ffdf0cd34874b", "d228c39d6886c0ef", "28e10fbdd6fd93fb", "5a97e1f0f76e7a64",
    "1b75fe4acd137eaa", "e5bc5571dc6e6104", "80e9930c3ab8c821", "17b62b4d3010f6be",
    "f6e32a12a122c1db", "fa8e8247fc7baf17", "1a0afe6c6feabc0d", "737baca0876c7d77",
    "714ac904c63e2e31", "fd9392be22568a80", "28b3833dda05e854", "3275e64baeebb1f9",
    "a86529b06be58a80", "eb72576508306ab8", "9dee3560d56dc6b2", "30eeeb5c65a007fb",
    "a6531b6ce3d86563", "43c5587337f47d43", "a551df5aa5eebc6c", "c07d764ca434d221",
};
const char* const kNoPin12[] = {
    "cb8d8ccfc09c6613", "898f6f792789c54e", "ec8993bb0d0d1c5e", "e97df7b889eab0a3",
    "cfbc5a9db6c38029", "36603ab8223c6f73", "3ff3ffdaa5e39085", "21c5195bef52759b",
    "662da1f8a3583360", "66df416b3810f86f", "0f88544b1b05d408", "f8a63447b23f9713",
    "b4f49b24adc6d213", "14350500e31563d4", "31622cfe8ad3bb58", "44a708dc3d035f48",
    "df65a38b74808527", "999ff2cfad051901", "b99572b1f44f3922", "9904c0cb79bd4173",
    "54bc520c8f5d8d7f", "95ebb5f60c15af11", "63af91d627e1f844", "d9e4ef80c6f788a0",
    "0739b7ab7c2c0393", "f68f7edde35e4318", "5f46a59c4b44e8ec", "4bf182b343032eaf",
    "75206c2d927c4bc8", "319f2cf48eca1c6f", "6f43015ba8384ac3", "30b8702b189c3819",
    "4126c45692c68301", "cd86ce580dc597d2", "7967989d276b2c95", "5a83713208bcf9ea",
    "e1db4dae8271753a", "4de9de5cebc99a11", "9b29f191eeead0fd", "cd7c2dcef49f3eac",
};
const char* const kNoPin50[] = {
    "0ce33bc2f0212da2", "a3619180d58b2532", "53fe321a31e2b15f", "e2e48e8604e234de",
    "ca85e628e6675b01", "e4b9c1a703a42dc1", "71266feea2c7aca6", "4b7205923ef1353f",
    "7580f2f101ef074d", "cf4d3ca0b8c2b1da", "ae07fb751ddb4e6c", "67e2e79b38c15e21",
    "ff2c7e4714b22872", "00a489a2011805fe", "60e33ac6fd583a1f", "73bc0a52b6b2b26c",
    "0abc688a4ad9632d", "bbd850d0b51c8416", "056e08c97d88f052", "d4fff2aa18f9061c",
    "203de1648d49d7e6", "3bffa0fca809a5c3", "7a4ff3505638e8ef", "fcc77b20c6ee730e",
    "d1c6cbf3ee749e1b", "dfe3abbc208a1a2c", "1c7db2af316862a0", "0dac6f4bbfd09fbb",
    "f9d1f21d44a6765a", "9458b089a7ccc783", "0217dbe15f2e3aee", "9cecacf9f34bfb6a",
    "842667bbe0436872", "95d7ebf835ccb5e4", "e7ffc0c047a30fe6", "c41e6540899ad066",
    "f67c7307046c7f75", "b4656473f1866bc7", "61eec271fe713551", "55cacdbc50489cc0",
};

std::vector<std::string> Golden(int years) {
  const char* const* table = years == 2    ? kNoPin2
                             : years == 12 ? kNoPin12
                                           : kNoPin50;
  return std::vector<std::string>(table, table + kSeeds);
}

constexpr int kYears[] = {2, 12, 50};

TEST(RepairParityTest, EngineNoPinRepairsMatchGoldens) {
  for (int years : kYears) {
    EXPECT_EQ(EngineDigests(years), Golden(years)) << "years=" << years;
  }
}

TEST(RepairParityTest, BatchNoPinRepairsMatchGoldens) {
  for (int years : kYears) {
    EXPECT_EQ(BatchDigests(years), Golden(years)) << "years=" << years;
  }
}

TEST(RepairParityTest, SubmitNoPinRepairsMatchGoldens) {
  for (int years : kYears) {
    EXPECT_EQ(SubmitDigests(years), Golden(years)) << "years=" << years;
  }
}

TEST(RepairParityTest, SubmitBatchNoPinRepairsMatchGoldens) {
  for (int years : kYears) {
    EXPECT_EQ(SubmitBatchDigests(years), Golden(years)) << "years=" << years;
  }
}

// Branch-and-bound effort over the same corpus. Repair solves branch on the
// most fractional variable with no node limit, so a change that makes the
// search blow up shows here before it shows as a slow or hung repair. Each
// component is one serial search, so the count is deterministic; the total
// was recorded as kRecordedNodes (EXPERIMENTS.md, "Repair branching
// effort"), and 2x leaves room for a legitimate change of search order.
TEST(RepairParityTest, CorpusNodeCountStaysWithinTwiceRecorded) {
  constexpr int64_t kRecordedNodes = 1448;
  RepairEngineOptions options;
  options.milp.search.num_threads = 1;
  int64_t nodes = 0;
  for (int years : kYears) {
    for (const bench::Scenario& scenario : Scenarios(years)) {
      nodes += bench::CollectRepairCounters(scenario, options).nodes;
    }
  }
  EXPECT_LE(nodes, 2 * kRecordedNodes) << "milp.nodes over the corpus";
}

// Per-step cardinalities of PinSequenceCardinalities, seeds 0..29, recorded
// from the preceding engine (pin rows + presolve). The unweighted optimum is
// unique even when the argmin is not, so every step must match.
constexpr size_t kPinCardinalities[30][5] = {
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {3, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {3, 3, 3, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {3, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
    {4, 4, 4, 4, 4},
};

TEST(IncrementalParityTest, MatchesEngineOverPinSequencesAcrossSeeds) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const std::vector<size_t> golden(std::begin(kPinCardinalities[seed]),
                                     std::end(kPinCardinalities[seed]));
    // One persistent session (component reuse across steps) and one fresh
    // computation per step must both reach the recorded optimum.
    EXPECT_EQ(PinSequenceCardinalities(seed, /*fresh=*/false), golden)
        << "seed=" << seed;
    EXPECT_EQ(PinSequenceCardinalities(seed, /*fresh=*/true), golden)
        << "seed=" << seed;
  }
}

// Final validated databases of SessionDigest, seeds 100..114, recorded from
// the preceding from-scratch engine loop. Trajectories may differ (tied
// optima steer the operator to different cells first) but every loop must
// land on the same validated database.
const char* const kSessionDatabases[] = {
    "38a1b6e6341e0333", "9f8b1c798d2f1a2b", "b4833b603064c910", "7e1431f20313df04",
    "8f623c28109b7e99", "81b07d8e524f2c7f", "fbbfca1b136188fe", "10272b75b87bc05d",
    "c4e559d12ba44a68", "3ab51591b8461ce2", "cc179fade75488c9", "827246fd3f036d18",
    "16fe7e407d59fa11", "e946a7329dd2ba43", "806e47bc886e7b5e",
};

TEST(IncrementalParityTest, ValidationSessionsMatchOracleAcrossSeeds) {
  for (uint64_t seed = 100; seed < 115; ++seed) {
    EXPECT_EQ(SessionDigest(seed), kSessionDatabases[seed - 100])
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace dart::repair
