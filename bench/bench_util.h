#pragma once

#include <string>

#include "constraints/ast.h"
#include "constraints/parser.h"
#include "obs/context.h"
#include "obs/report.h"
#include "ocr/cash_budget.h"
#include "ocr/noise.h"
#include "relational/database.h"
#include "repair/engine.h"
#include "util/random.h"
#include "util/status.h"

/// \file bench_util.h
/// Shared fixture plumbing for the benchmark harness (see EXPERIMENTS.md for
/// the experiment ↔ binary index), plus the observability trace emission
/// every benchmark binary performs after its timed runs
/// (OBS_<bench>.trace.json, validated by scripts/trace_report.py from
/// scripts/reproduce.sh).

namespace dart::bench {

/// A noisy acquisition scenario with ground truth.
struct Scenario {
  rel::Database truth;
  rel::Database acquired;
  cons::ConstraintSet constraints;
  std::vector<ocr::InjectedError> errors;
};

/// Builds a cash-budget scenario: `years` years, paper-shaped sections,
/// `num_errors` digit-confusion errors injected into measure cells.
inline Scenario MakeBudgetScenario(uint64_t seed, int years, size_t num_errors,
                                   int receipt_details = 2,
                                   int disbursement_details = 3) {
  Rng rng(seed);
  ocr::CashBudgetOptions options;
  options.num_years = years;
  options.receipt_details = receipt_details;
  options.disbursement_details = disbursement_details;
  auto truth = ocr::CashBudgetFixture::Random(options, &rng);
  DART_CHECK_MSG(truth.ok(), truth.status().ToString());
  Scenario scenario{std::move(truth).value(), {}, {}, {}};
  scenario.acquired = scenario.truth.Clone();
  auto injected =
      ocr::InjectMeasureErrors(&scenario.acquired, num_errors, &rng);
  DART_CHECK_MSG(injected.ok(), injected.status().ToString());
  scenario.errors = std::move(injected).value();
  Status parsed = cons::ParseConstraintProgram(
      scenario.acquired.Schema(), ocr::CashBudgetFixture::ConstraintProgram(),
      &scenario.constraints);
  DART_CHECK_MSG(parsed.ok(), parsed.ToString());
  return scenario;
}

inline std::string ReplaceAll(std::string s, const std::string& from,
                              const std::string& to) {
  size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

/// Copies `source` into `out` under the relation name `name`.
inline void AppendRelationRenamed(const rel::Relation& source,
                                  const std::string& name,
                                  rel::Database* out) {
  auto schema = rel::RelationSchema::Create(
      name, source.schema().attributes());
  DART_CHECK_MSG(schema.ok(), schema.status().ToString());
  Status added = out->AddRelation(std::move(schema).value());
  DART_CHECK_MSG(added.ok(), added.ToString());
  rel::Relation* copy = out->FindRelation(name);
  for (const rel::Tuple& tuple : source.rows()) {
    auto inserted = copy->Insert(tuple);
    DART_CHECK_MSG(inserted.ok(), inserted.status().ToString());
  }
}

/// The cash-budget constraint program with every relation, aggregation
/// function and constraint name suffixed — so several documents' programs
/// can coexist in one ConstraintSet without colliding.
inline std::string SuffixedBudgetProgram(const std::string& suffix) {
  std::string program = ocr::CashBudgetFixture::ConstraintProgram();
  program = ReplaceAll(std::move(program), "CashBudget", "CashBudget" + suffix);
  program = ReplaceAll(std::move(program), "chi1", "chi1" + suffix);
  program = ReplaceAll(std::move(program), "chi2", "chi2" + suffix);
  program = ReplaceAll(std::move(program), " c1:", " c1" + suffix + ":");
  program = ReplaceAll(std::move(program), " c2:", " c2" + suffix + ":");
  program = ReplaceAll(std::move(program), " c3:", " c3" + suffix + ":");
  return program;
}

/// Merges `docs` independently generated cash budgets into one database
/// (relations CashBudget_1 … CashBudget_<docs>) with per-document copies of
/// the constraint program. Documents never share a ground constraint, so
/// the repair MILP of the merged instance has at least `docs` connected
/// components — the E16 fixture.
inline Scenario MakeMultiDocScenario(uint64_t seed, int docs, int years,
                                     size_t errors_per_doc) {
  Scenario scenario;
  std::string program;
  for (int d = 1; d <= docs; ++d) {
    Rng rng(seed + static_cast<uint64_t>(d) * 7919);
    ocr::CashBudgetOptions options;
    options.num_years = years;
    auto truth = ocr::CashBudgetFixture::Random(options, &rng);
    DART_CHECK_MSG(truth.ok(), truth.status().ToString());
    rel::Database acquired = truth.value().Clone();
    auto injected =
        ocr::InjectMeasureErrors(&acquired, errors_per_doc, &rng);
    DART_CHECK_MSG(injected.ok(), injected.status().ToString());

    const std::string name = "CashBudget_" + std::to_string(d);
    AppendRelationRenamed(*truth.value().FindRelation("CashBudget"), name,
                          &scenario.truth);
    AppendRelationRenamed(*acquired.FindRelation("CashBudget"), name,
                          &scenario.acquired);
    for (ocr::InjectedError error : std::move(injected).value()) {
      error.cell.relation = name;
      scenario.errors.push_back(std::move(error));
    }
    program += SuffixedBudgetProgram("_" + std::to_string(d));
  }
  Status parsed = cons::ParseConstraintProgram(scenario.acquired.Schema(),
                                               program,
                                               &scenario.constraints);
  DART_CHECK_MSG(parsed.ok(), parsed.ToString());
  return scenario;
}

/// Search counters of one instrumented computation, read back from the obs
/// registry (the retired RepairStats / MilpResult counter fields' bench-side
/// replacement).
struct SolveCounters {
  int64_t nodes = 0;
  int64_t lp_iterations = 0;
  int64_t lp_warm_solves = 0;
  // Sparse-LP-kernel internals (all zero under the dense oracle kernel).
  int64_t lp_refactorizations = 0;
  int64_t lp_eta_updates = 0;
  int64_t lp_ftran = 0;
  int64_t lp_btran = 0;
};

/// Reads the milp.* counter delta of `run` since `base`.
inline SolveCounters CountersSince(const obs::RunContext& run,
                                   const obs::MetricsSnapshot& base) {
  const obs::MetricsSnapshot delta = run.metrics().Snapshot().DeltaSince(base);
  SolveCounters counters;
  counters.nodes = delta.Counter("milp.nodes");
  counters.lp_iterations = delta.Counter("milp.lp_iterations");
  counters.lp_warm_solves = delta.Counter("milp.lp_warm_solves");
  counters.lp_refactorizations = delta.Counter("milp.lp.refactorizations");
  counters.lp_eta_updates = delta.Counter("milp.lp.eta_updates");
  counters.lp_ftran = delta.Counter("milp.lp.ftran");
  counters.lp_btran = delta.Counter("milp.lp.btran");
  return counters;
}

/// Runs one instrumented ComputeRepair over `scenario` and returns its
/// registry counters. Benches call this once, outside their timed loops, so
/// the timed runs stay uninstrumented (the <2% overhead gate).
inline SolveCounters CollectRepairCounters(
    const Scenario& scenario, repair::RepairEngineOptions options = {},
    const std::vector<repair::FixedValue>& pins = {}) {
  obs::RunContext run;
  options.run = &run;
  const obs::MetricsSnapshot base = run.metrics().Snapshot();
  repair::RepairEngine engine(options);
  auto outcome =
      engine.ComputeRepair(scenario.acquired, scenario.constraints, pins);
  DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
  return CountersSince(run, base);
}

/// Like CollectRepairCounters but for a single direct MILP solve.
inline SolveCounters CollectMilpCounters(const milp::Model& model,
                                         milp::MilpOptions options = {}) {
  obs::RunContext run;
  options.run = &run;
  const obs::MetricsSnapshot base = run.metrics().Snapshot();
  const milp::MilpResult solved = milp::SolveMilp(model, options);
  DART_CHECK_MSG(solved.status != milp::MilpResult::SolveStatus::kUnbounded,
                 "bench MILP solve reported unbounded");
  return CountersSince(run, base);
}

/// Writes `run`'s JSON run report to OBS_<bench_name>.trace.json in the
/// working directory. Aborts on I/O failure so scripts/reproduce.sh can
/// never silently lose a trace.
inline void WriteBenchTrace(const obs::RunContext& run,
                            const std::string& bench_name) {
  const Status written =
      obs::WriteRunReport(run, "OBS_" + bench_name + ".trace.json");
  DART_CHECK_MSG(written.ok(), written.ToString());
}

/// Runs one instrumented ComputeRepair over `scenario` and writes the
/// resulting trace. Called from each solver bench's main() *after* the timed
/// google-benchmark runs, so the trace reflects the bench's workload without
/// the timed loops paying for instrumentation.
inline void EmitRepairTrace(const Scenario& scenario,
                            const std::string& bench_name,
                            repair::RepairEngineOptions options = {},
                            const std::vector<repair::FixedValue>& pins = {}) {
  obs::RunContext run;
  options.run = &run;
  repair::RepairEngine engine(options);
  auto outcome =
      engine.ComputeRepair(scenario.acquired, scenario.constraints, pins);
  DART_CHECK_MSG(outcome.ok(), outcome.status().ToString());
  WriteBenchTrace(run, bench_name);
}

}  // namespace dart::bench
