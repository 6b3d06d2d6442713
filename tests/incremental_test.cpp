// Tests for the session-scoped incremental repair state
// (repair/incremental.h): 30-seed parity of IncrementalRepairSession against
// the from-scratch RepairEngine oracle over growing pin sequences, full
// validation-session parity (rejection-heavy operators, multi-document
// corpora, batch-limited examination), dirty/clean component accounting,
// per-component big-M retries triggered by a pin on an already-initialized
// session, pin removal, and the repair.incremental.* observability contract.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/bench_util.h"
#include "constraints/eval.h"
#include "constraints/parser.h"
#include "repair/engine.h"
#include "repair/incremental.h"
#include "validation/operator.h"
#include "validation/session.h"

namespace dart::repair {
namespace {

// The incremental session must be indistinguishable from the from-scratch
// engine on every iteration of a validation loop. This drives both through
// the same growing pin sequence — iteration k pins the first k injected
// errors to their true source values, exactly what operator rejections
// produce — and asserts the optimum (repair cardinality = the unweighted
// MILP objective, which is unique even when the argmin is not) matches step
// for step. verify_result stays on, so every incremental repair is also
// consistency-checked and pin-checked internally before it is compared.
TEST(IncrementalParityTest, MatchesEngineOverPinSequencesAcrossSeeds) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const bench::Scenario scenario = bench::MakeMultiDocScenario(
        seed, /*docs=*/2, /*years=*/2, /*errors_per_doc=*/2);
    RepairEngineOptions options;
    // Odd seeds solve dirty components concurrently underneath the
    // incremental session, exercising the BatchModel::root_basis plumbing
    // across threads.
    options.milp.search.num_threads = seed % 2 == 0 ? 1 : 2;
    RepairEngine engine(options);
    IncrementalRepairSession session(scenario.acquired, scenario.constraints,
                                     options);

    std::vector<FixedValue> pins;
    for (size_t step = 0; step <= scenario.errors.size(); ++step) {
      if (step > 0) {
        const ocr::InjectedError& error = scenario.errors[step - 1];
        pins.push_back(FixedValue{error.cell, error.true_value.AsReal()});
      }
      auto oracle =
          engine.ComputeRepair(scenario.acquired, scenario.constraints, pins);
      auto incremental = session.ComputeRepair(pins);
      ASSERT_TRUE(oracle.ok())
          << "seed=" << seed << " step=" << step << ": "
          << oracle.status().ToString();
      ASSERT_TRUE(incremental.ok())
          << "seed=" << seed << " step=" << step << ": "
          << incremental.status().ToString();
      EXPECT_EQ(oracle->already_consistent, incremental->already_consistent)
          << "seed=" << seed << " step=" << step;
      EXPECT_EQ(oracle->repair.cardinality(), incremental->repair.cardinality())
          << "seed=" << seed << " step=" << step;
      // Both repairs must actually repair: identical consistency verdicts on
      // the patched databases (both engines verified internally already, but
      // check through the public surface too).
      auto oracle_db = oracle->repair.Applied(scenario.acquired);
      auto incremental_db = incremental->repair.Applied(scenario.acquired);
      ASSERT_TRUE(oracle_db.ok() && incremental_db.ok());
      cons::ConsistencyChecker checker(&scenario.constraints);
      EXPECT_EQ(*checker.IsConsistent(*oracle_db),
                *checker.IsConsistent(*incremental_db))
          << "seed=" << seed << " step=" << step;
    }
    // With every injected error pinned to its true value the repair must
    // restore consistency.
    auto final_outcome = session.ComputeRepair(pins);
    ASSERT_TRUE(final_outcome.ok());
    auto repaired = final_outcome->repair.Applied(scenario.acquired);
    ASSERT_TRUE(repaired.ok());
    cons::ConsistencyChecker checker(&scenario.constraints);
    EXPECT_TRUE(*checker.IsConsistent(*repaired)) << "seed=" << seed;
  }
}

// Full-loop parity: the supervised session run with the incremental state
// must land on the same final database as the from-scratch oracle loop.
// A batch size of 1 maximizes iteration
// count (every iteration re-solves), and three errors per document keep the
// operator busy rejecting compensating fixes. Note equality to *truth* is not
// guaranteed by either mode — a seed whose injected errors cancel inside
// every constraint yields an already-consistent (but wrong) database that the
// loop rightly never touches — so the invariant is mode parity plus
// consistency, not truth recovery.
TEST(IncrementalParityTest, ValidationSessionsMatchOracleAcrossSeeds) {
  for (uint64_t seed = 100; seed < 115; ++seed) {
    const bench::Scenario scenario = bench::MakeMultiDocScenario(
        seed, /*docs=*/2, /*years=*/1, /*errors_per_doc=*/3);
    validation::SimulatedOperator op(&scenario.truth);
    validation::SessionResult results[2];
    for (bool incremental : {false, true}) {
      validation::SessionOptions options;
      options.use_incremental = incremental;
      options.examine_batch = 1;
      auto result = validation::RunValidationSession(
          scenario.acquired, scenario.constraints, op, options);
      ASSERT_TRUE(result.ok()) << "seed=" << seed
                               << " incremental=" << incremental << ": "
                               << result.status().ToString();
      EXPECT_TRUE(result->converged);
      cons::ConsistencyChecker checker(&scenario.constraints);
      EXPECT_TRUE(*checker.IsConsistent(result->repaired))
          << "seed=" << seed << " incremental=" << incremental;
      results[incremental ? 1 : 0] = std::move(*result);
    }
    // Trajectories may differ (tied optima: a cached component optimum and a
    // fresh solve can pick different card-minimal repairs, steering the
    // operator to different cells first) but both loops must land on the
    // same validated database.
    EXPECT_EQ(*results[0].repaired.CountDifferences(results[1].repaired), 0u)
        << "seed=" << seed;
  }
}

// A pin touches exactly one component: everything else must be served from
// the cache, and the repair.incremental.* counters must say so.
TEST(IncrementalRepairSessionTest, PinDirtiesOnlyItsComponentAndCountsIt) {
  const bench::Scenario scenario = bench::MakeMultiDocScenario(
      /*seed=*/7, /*docs=*/3, /*years=*/2, /*errors_per_doc=*/1);
  obs::RunContext run;
  RepairEngineOptions options;
  options.run = &run;
  IncrementalRepairSession session(scenario.acquired, scenario.constraints,
                                   options);

  auto first = session.ComputeRepair();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(session.initialized());
  // Documents never share a ground row, so there are at least three
  // components; the first call solves all of them.
  EXPECT_GE(session.num_components(), 3);
  EXPECT_EQ(session.last_dirty_components(), session.num_components());
  EXPECT_EQ(session.last_clean_reused(), 0);

  // Re-pinning nothing: the whole decomposition is clean, the translation is
  // skipped, and the cached stitch returns the identical repair.
  auto second = session.ComputeRepair();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->repair.cardinality(), first->repair.cardinality());
  EXPECT_EQ(session.last_dirty_components(), 0);
  EXPECT_EQ(session.last_clean_reused(), session.num_components());

  // One pin in one document: exactly one dirty component.
  std::vector<FixedValue> pins{FixedValue{
      scenario.errors[0].cell, scenario.errors[0].true_value.AsReal()}};
  auto third = session.ComputeRepair(pins);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(session.last_dirty_components(), 1);
  EXPECT_EQ(session.last_clean_reused(), session.num_components() - 1);

  // Removing the pin dirties the same single component again and returns to
  // the unpinned optimum.
  auto fourth = session.ComputeRepair();
  ASSERT_TRUE(fourth.ok()) << fourth.status().ToString();
  EXPECT_EQ(session.last_dirty_components(), 1);
  EXPECT_EQ(fourth->repair.cardinality(), first->repair.cardinality());

  const obs::MetricsSnapshot snap = run.metrics().Snapshot();
  EXPECT_EQ(snap.Counter("repair.incremental.translate_skipped"), 3);
  EXPECT_EQ(snap.Counter("repair.incremental.dirty_components"),
            static_cast<int64_t>(session.num_components()) + 2);
  // Calls 2..4 reused n, n-1 and n-1 clean components respectively.
  EXPECT_EQ(snap.Counter("repair.incremental.clean_reused"),
            3 * static_cast<int64_t>(session.num_components()) - 2);
}

// The adaptive big-M machinery must work per component on an
// already-initialized session: a pin that pushes a component's required
// values outside its current (already once-grown) z box makes that component
// infeasible, the session must enlarge only that component's M and re-solve,
// and the result must match a from-scratch engine handed the same pins.
TEST(IncrementalRepairSessionTest, BigMRetryInsideDirtyComponent) {
  rel::Database db;
  {
    auto schema = rel::RelationSchema::Create(
        "Ledger", {{"Year", rel::Domain::kInt, false},
                   {"Balance", rel::Domain::kInt, true}});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(db.AddRelation(*schema).ok());
    rel::Relation* ledger = db.FindRelation("Ledger");
    for (int64_t year : {1, 2}) {
      ASSERT_TRUE(
          ledger->Insert({rel::Value(year), rel::Value(int64_t{1})}).ok());
      ASSERT_TRUE(
          ledger->Insert({rel::Value(year), rel::Value(int64_t{2})}).ok());
    }
  }
  const char* program = R"(
agg bal(x) := sum(Balance) from Ledger where Year = x;
constraint target: Ledger(y, _) => bal(y) = 1000;
)";
  cons::ConstraintSet constraints;
  Status parsed =
      cons::ParseConstraintProgram(db.Schema(), program, &constraints);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();

  // fixed_value = 50 sticks (the translator only floors it at 1 + max |v| =
  // 3 without pins), so the unpinned first call must grow M ×100 per year
  // component before z_a + z_b = 1000 becomes representable.
  RepairEngineOptions options;
  options.translator.big_m.fixed_value = 50;
  IncrementalRepairSession session(db, constraints, options);
  auto first = session.ComputeRepair();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GE(first->stats.bigm_retries, 1);
  EXPECT_EQ(first->repair.cardinality(), 2u);
  EXPECT_EQ(session.num_components(), 2);

  // Pinning year 1's first cell to -4500 forces its partner to 5500 — past
  // the once-grown z box of 5000 — so the dirty component must come back
  // infeasible and trigger another ×100 growth, while year 2 stays cached.
  std::vector<FixedValue> pins{
      FixedValue{rel::CellRef{"Ledger", 0, 1}, -4500.0}};
  auto second = session.ComputeRepair(pins);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GE(second->stats.bigm_retries, 1);
  EXPECT_EQ(session.last_dirty_components(), 1);
  EXPECT_EQ(session.last_clean_reused(), 1);

  RepairEngine engine(options);
  auto oracle = engine.ComputeRepair(db, constraints, pins);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(second->repair.cardinality(), oracle->repair.cardinality());
}

// Contradictory pins on one cell are infeasible (the translator would emit
// two irreconcilable pin rows), and pins on unknown cells are rejected with
// the translator's wording.
TEST(IncrementalRepairSessionTest, RejectsBadPinSets) {
  const bench::Scenario scenario =
      bench::MakeBudgetScenario(/*seed=*/3, /*years=*/1, /*num_errors=*/1);
  IncrementalRepairSession session(scenario.acquired, scenario.constraints);
  const rel::CellRef cell = scenario.errors[0].cell;

  auto contradictory = session.ComputeRepair(
      {FixedValue{cell, 10.0}, FixedValue{cell, 20.0}});
  ASSERT_FALSE(contradictory.ok());
  EXPECT_EQ(contradictory.status().code(), StatusCode::kInfeasible);

  auto unknown = session.ComputeRepair(
      {FixedValue{rel::CellRef{"NoSuchRelation", 0, 0}, 1.0}});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  // The session survives a failed call: a valid pin set still solves.
  auto ok = session.ComputeRepair(
      {FixedValue{cell, scenario.errors[0].true_value.AsReal()}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

// Incremental is the default session mode, and the exhaustive baseline
// falls back to the from-scratch path (it exists to cross-check the
// branch-and-bound solver, so it must keep solving whole instances).
TEST(IncrementalRepairSessionTest, SessionDefaultsToIncremental) {
  validation::SessionOptions options;
  EXPECT_TRUE(options.use_incremental);
}

}  // namespace
}  // namespace dart::repair
