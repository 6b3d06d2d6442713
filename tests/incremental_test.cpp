// Tests for the session-scoped repair core (repair/incremental.h):
// dirty/clean component accounting, per-component big-M retries triggered by
// a pin on an already-initialized session, pin removal, bad and non-finite
// pins, and the repair.incremental.* observability contract. The parity of
// pinned sessions against recorded optima lives in repair_parity_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
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
// and the result must match a one-shot ComputeRepair handed the same pins.
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

// The exhaustive binary-enumeration solver stays the reference for the
// branch-and-bound search on pinned instances too: both solvers run as
// persistent sessions through one operator loop (examine one update per
// iteration, pin it to the accepted or actual source value) and must agree
// on the card-minimal cardinality at every step. One-year budgets with one
// receipt and one disbursement detail keep every component at a handful of
// binaries.
TEST(IncrementalRepairSessionTest, ExhaustiveAgreesOnEveryPinnedStep) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    const bench::Scenario scenario = bench::MakeBudgetScenario(
        seed, /*years=*/1, /*num_errors=*/2, /*receipt_details=*/1,
        /*disbursement_details=*/1);
    RepairEngineOptions exhaustive_options;
    exhaustive_options.use_exhaustive_solver = true;
    IncrementalRepairSession search(scenario.acquired, scenario.constraints);
    IncrementalRepairSession exhaustive(scenario.acquired,
                                        scenario.constraints,
                                        exhaustive_options);
    const validation::SimulatedOperator op(&scenario.truth);
    std::vector<FixedValue> pins;
    for (int step = 0; step < 20; ++step) {
      auto searched = search.ComputeRepair(pins);
      auto enumerated = exhaustive.ComputeRepair(pins);
      ASSERT_TRUE(searched.ok()) << searched.status().ToString();
      ASSERT_TRUE(enumerated.ok()) << enumerated.status().ToString();
      EXPECT_EQ(searched->repair.cardinality(),
                enumerated->repair.cardinality())
          << "seed=" << seed << " step=" << step;
      // Examine the first update not pinned yet; stop once none is left.
      const AtomicUpdate* next = nullptr;
      for (const AtomicUpdate& update : searched->repair.updates()) {
        const bool pinned =
            std::any_of(pins.begin(), pins.end(), [&](const FixedValue& pin) {
              return pin.cell == update.cell;
            });
        if (!pinned) {
          next = &update;
          break;
        }
      }
      if (next == nullptr) break;
      auto verdict = op.Examine(*next);
      ASSERT_TRUE(verdict.ok());
      pins.push_back(FixedValue{
          next->cell, verdict->accepted ? next->new_value.AsReal()
                                        : verdict->actual_value});
    }
  }
}

// A NaN or infinite pin is an InvalidArgument, never a crash, on the
// one-shot engine, the session, and the pipeline's standalone Repair(); the
// session survives it.
TEST(IncrementalRepairSessionTest, NonFinitePinsAreInvalidArguments) {
  const bench::Scenario scenario =
      bench::MakeBudgetScenario(/*seed=*/3, /*years=*/1, /*num_errors=*/1);
  const rel::CellRef cell = scenario.errors[0].cell;
  IncrementalRepairSession session(scenario.acquired, scenario.constraints);
  const RepairEngine engine;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    const std::vector<FixedValue> pins{FixedValue{cell, bad}};
    auto from_session = session.ComputeRepair(pins);
    ASSERT_FALSE(from_session.ok()) << bad;
    EXPECT_EQ(from_session.status().code(), StatusCode::kInvalidArgument);
    auto from_engine =
        engine.ComputeRepair(scenario.acquired, scenario.constraints, pins);
    ASSERT_FALSE(from_engine.ok()) << bad;
    EXPECT_EQ(from_engine.status().code(), StatusCode::kInvalidArgument);
  }
  auto ok = session.ComputeRepair(
      {FixedValue{cell, scenario.errors[0].true_value.AsReal()}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace dart::repair
