#include "milp/branch_and_bound.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>

#include "util/task_pool.h"

namespace dart::milp {

const char* MilpStatusName(MilpResult::SolveStatus status) {
  switch (status) {
    case MilpResult::SolveStatus::kOptimal: return "optimal";
    case MilpResult::SolveStatus::kInfeasible: return "infeasible";
    case MilpResult::SolveStatus::kNodeLimit: return "node-limit";
    case MilpResult::SolveStatus::kUnbounded: return "unbounded";
    case MilpResult::SolveStatus::kLpRelaxationInfeasible:
      return "lp-relaxation-infeasible";
  }
  return "unknown";
}

bool IsInfeasibleStatus(MilpResult::SolveStatus status) {
  return status == MilpResult::SolveStatus::kInfeasible ||
         status == MilpResult::SolveStatus::kLpRelaxationInfeasible;
}

namespace {

/// One search's locally tracked counters, published into the registry by
/// PublishMilpCounters once the search retires (MilpResult does not carry
/// them: the registry is the stats surface).
struct SearchCounters {
  int64_t nodes = 0;
  int64_t lp_iterations = 0;
  int64_t lp_warm_solves = 0;
  // Sparse-LP-kernel internals, summed over the search's LP solves (all
  // zero when the dense oracle kernel ran); published as milp.lp.*.
  int64_t lp_refactorizations = 0;
  int64_t lp_eta_updates = 0;
  int64_t lp_ftran = 0;
  int64_t lp_btran = 0;
  /// Peak eta-file fill-in (nonzeros) over the search's LP solves.
  int64_t lp_basis_fill_nnz = 0;
};

/// Publishes one search's counters into the run's registry (no-op when run
/// is null): milp.solves / milp.nodes / milp.lp_iterations /
/// milp.lp_warm_solves, the LP-kernel internals milp.lp.refactorizations /
/// .eta_updates / .ftran / .btran plus the milp.lp.basis_fill_nnz gauge.
void PublishMilpCounters(obs::RunContext* run,
                         const SearchCounters& counters) {
  if (run == nullptr) return;
  obs::Count(run, "milp.solves");
  obs::Count(run, "milp.nodes", counters.nodes);
  obs::Count(run, "milp.lp_iterations", counters.lp_iterations);
  obs::Count(run, "milp.lp_warm_solves", counters.lp_warm_solves);
  obs::Count(run, "milp.lp.refactorizations", counters.lp_refactorizations);
  obs::Count(run, "milp.lp.eta_updates", counters.lp_eta_updates);
  obs::Count(run, "milp.lp.ftran", counters.lp_ftran);
  obs::Count(run, "milp.lp.btran", counters.lp_btran);
  if (counters.lp_basis_fill_nnz > 0) {
    obs::SetGauge(run, "milp.lp.basis_fill_nnz",
                  static_cast<double>(counters.lp_basis_fill_nnz));
  }
}

/// Picks the branching variable among fractional integer variables; -1 if
/// the point is integral.
int PickBranchVariable(const Model& model, const std::vector<double>& point,
                       double int_tol, BranchRule rule) {
  int chosen = -1;
  double best_score = -1;
  bool chosen_binary = false;
  for (int i = 0; i < model.num_variables(); ++i) {
    const VarType type = model.variable(i).type;
    if (type == VarType::kContinuous) continue;
    const double value = point[i];
    const double fraction = value - std::floor(value);
    const double dist = std::min(fraction, 1.0 - fraction);
    if (dist <= int_tol) continue;
    if (rule == BranchRule::kFirstFractional) return i;
    const bool binary = type == VarType::kBinary;
    if (rule == BranchRule::kBinaryFirst && binary != chosen_binary &&
        chosen >= 0) {
      if (!binary) continue;  // a fractional binary outranks any integer
      best_score = -1;
    }
    if (dist > best_score) {
      best_score = dist;
      chosen = i;
      chosen_binary = binary;
    }
  }
  return chosen;
}

/// A node bound can be pruned against the incumbent; with an integral
/// objective we can round bounds up (minimize-space).
bool BoundPrunable(double bound_key, double incumbent_key,
                   bool objective_is_integral) {
  double effective = bound_key;
  if (objective_is_integral) {
    effective = std::ceil(bound_key - 1e-6);
  }
  return effective >= incumbent_key - 1e-9;
}

struct Node {
  std::vector<double> lower;
  std::vector<double> upper;
  /// Parent LP bound in minimize-space; used as the best-first priority.
  double parent_bound = -std::numeric_limits<double>::infinity();
  int depth = 0;
  /// Parent node's optimal basis (shared by both siblings); the node's LP
  /// warm-starts from it with dual pivots. Null at the root / when disabled.
  std::shared_ptr<const LpBasis> warm;
};

struct NodeCompare {
  bool operator()(const Node& a, const Node& b) const {
    return a.parent_bound > b.parent_bound;  // min-heap on bound
  }
};

/// The branch-and-bound search itself. Fills `counters` instead of
/// publishing them, so a batch can publish in input order after its join.
MilpResult SolveMilpSerial(const Model& model, const MilpOptions& options,
                           SearchCounters* counters_out) {
  const auto t_begin = std::chrono::steady_clock::now();
  obs::Span search_span(options.run, "milp.search");
  MilpResult result;
  SearchCounters& counters = *counters_out;
  auto finish = [&]() -> MilpResult& {
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_begin)
            .count();
    return result;
  };

  const int n = model.num_variables();
  const double sense_factor =
      model.objective_sense() == ObjectiveSense::kMinimize ? 1.0 : -1.0;
  const double kInf = std::numeric_limits<double>::infinity();

  // Incumbent bookkeeping in minimize-space (key = sense_factor * objective).
  double incumbent_key = kInf;

  // Returns true iff the snapped candidate is feasible (whether or not it
  // improves the incumbent). `snapped` scratch is reused across calls.
  std::vector<double> snapped;
  auto try_incumbent = [&](const std::vector<double>& candidate) {
    // Snap integer variables and verify feasibility exactly.
    snapped = candidate;
    for (int i = 0; i < n; ++i) {
      if (model.variable(i).type != VarType::kContinuous) {
        snapped[i] = std::round(snapped[i]);
      }
    }
    if (!IsFeasiblePoint(model, snapped, 1e-6)) return false;
    const double objective =
        model.objective_constant() + EvalTerms(model.objective_terms(), snapped);
    const double key = sense_factor * objective;
    if (key < incumbent_key - 1e-9) {
      incumbent_key = key;
      result.objective = objective;
      result.point = snapped;
      result.has_incumbent = true;
    }
    return true;
  };

  // Warm start: seed the incumbent before any node is explored, so the
  // very first bound comparisons can already prune.
  if (options.initial_point.size() == static_cast<size_t>(n)) {
    try_incumbent(options.initial_point);
  }

  // The standard form is extracted once; every node solve only patches
  // bounds and reuses the scratch tableau (see simplex.h).
  StandardForm form(model);
  LpScratch scratch;
  LpResult lp;
  LpBasis node_basis;  // reused buffer; moved into a shared snapshot on branch

  Node root;
  root.lower = form.var_lower;
  root.upper = form.var_upper;
  // A caller-provided root basis (a previous solve's optimum) warm-starts
  // the root exactly like a parent basis warm-starts a child. Shape-check it
  // here rather than trusting the caller: a stale snapshot from a different
  // model must not reach the kernel.
  if (options.search.use_warm_start && options.search.root_basis != nullptr &&
      options.search.root_basis->basis.size() ==
          static_cast<size_t>(form.m_model) &&
      options.search.root_basis->status.size() ==
          static_cast<size_t>(n + form.m_model)) {
    root.warm = options.search.root_basis;
  }

  // Best-first: a binary heap over a plain vector (same algorithm as
  // std::priority_queue, but pop can move the node out instead of copying).
  std::vector<Node> best_first;
  std::deque<Node> depth_first;
  const NodeCompare compare;
  auto push = [&](Node node) {
    if (options.search.node_order == NodeOrder::kBestFirst) {
      best_first.push_back(std::move(node));
      std::push_heap(best_first.begin(), best_first.end(), compare);
    } else {
      depth_first.push_back(std::move(node));
    }
  };
  auto empty = [&] {
    return options.search.node_order == NodeOrder::kBestFirst
               ? best_first.empty()
               : depth_first.empty();
  };
  auto pop = [&] {
    Node node;
    if (options.search.node_order == NodeOrder::kBestFirst) {
      std::pop_heap(best_first.begin(), best_first.end(), compare);
      node = std::move(best_first.back());
      best_first.pop_back();
    } else {
      node = std::move(depth_first.back());
      depth_first.pop_back();
    }
    return node;
  };

  push(std::move(root));
  double best_open_bound = -kInf;  // tightest bound among unexplored nodes
  bool hit_node_limit = false;
  bool any_feasible_lp = false;

  auto prunable = [&](double bound_key) {
    return BoundPrunable(bound_key, incumbent_key,
                         options.objective_is_integral);
  };

  while (!empty()) {
    if (options.search.max_nodes > 0 &&
        counters.nodes >= options.search.max_nodes) {
      hit_node_limit = true;
      break;
    }
    Node node = pop();
    if (prunable(node.parent_bound)) continue;

    ++counters.nodes;
    if (options.search.use_warm_start) {
      SolveLpWarm(form, options.lp, node.lower, node.upper, node.warm.get(),
                  &scratch, &lp, &node_basis);
    } else {
      SolveLpCached(form, options.lp, node.lower, node.upper, &scratch, &lp);
    }
    counters.lp_iterations += lp.iterations;
    if (lp.warm_started) ++counters.lp_warm_solves;
    counters.lp_refactorizations += lp.refactorizations;
    counters.lp_eta_updates += lp.eta_updates;
    counters.lp_ftran += lp.ftran;
    counters.lp_btran += lp.btran;
    counters.lp_basis_fill_nnz =
        std::max<int64_t>(counters.lp_basis_fill_nnz, lp.basis_fill_nnz);
    if (lp.status == LpResult::SolveStatus::kInfeasible) continue;
    if (lp.status == LpResult::SolveStatus::kUnbounded) {
      result.status = MilpResult::SolveStatus::kUnbounded;
      return finish();
    }
    if (lp.status == LpResult::SolveStatus::kIterationLimit) {
      // Treat as unexplorable; conservatively keep going. This cannot cut off
      // the optimum silently because we report node-limit status below only
      // when max_nodes is hit; an iteration-limited LP is recorded as a
      // node-limit style early stop.
      hit_node_limit = true;
      continue;
    }
    any_feasible_lp = true;
    if (node.depth == 0 && options.search.use_warm_start) {
      // Copy (not move): node_basis is moved into the branch snapshot below,
      // and the root's optimum is what the next re-solve warm-starts from.
      result.root_basis = std::make_shared<const LpBasis>(node_basis);
    }
    const double bound_key = sense_factor * lp.objective;
    if (prunable(bound_key)) continue;

    int branch_var = PickBranchVariable(model, lp.point, options.int_tol,
                                        options.search.branch_rule);
    if (branch_var < 0) {
      if (try_incumbent(lp.point)) continue;  // LP optimum is integral
      // Near-integral but unsnappable: big-M rows make a δ of ~|y|/M pass
      // the integrality tolerance while rounding it to 0 is infeasible.
      // Branch on the least-integral variable anyway (tolerance 0); only a
      // genuinely all-integral infeasible point may be abandoned.
      branch_var = PickBranchVariable(model, lp.point, 0.0,
                                      options.search.branch_rule);
      if (branch_var < 0) continue;
    } else if (options.search.rounding_heuristic) {
      try_incumbent(lp.point);
    }

    const double value = lp.point[branch_var];
    // Both children warm-start from this node's optimal basis (one shared
    // snapshot; node_basis is a moved-from husk afterwards and is refilled by
    // the next optimal solve).
    std::shared_ptr<const LpBasis> snapshot;
    if (options.search.use_warm_start) {
      snapshot = std::make_shared<const LpBasis>(std::move(node_basis));
    }
    // Down child: x <= floor(value). Copies the parent's bounds; the up
    // child below then steals them, so each expansion copies the two bound
    // vectors once instead of twice.
    {
      Node child;
      child.lower = node.lower;
      child.upper = node.upper;
      child.upper[branch_var] = std::floor(value);
      child.parent_bound = bound_key;
      child.depth = node.depth + 1;
      child.warm = snapshot;
      if (child.lower[branch_var] <= child.upper[branch_var] + 1e-9) {
        push(std::move(child));
      }
    }
    // Up child: x >= ceil(value).
    {
      Node child;
      child.lower = std::move(node.lower);
      child.upper = std::move(node.upper);
      child.lower[branch_var] = std::ceil(value);
      child.parent_bound = bound_key;
      child.depth = node.depth + 1;
      child.warm = std::move(snapshot);
      if (child.lower[branch_var] <= child.upper[branch_var] + 1e-9) {
        push(std::move(child));
      }
    }
  }

  // Best bound among open nodes (for gap reporting on early stop).
  best_open_bound = incumbent_key;
  if (hit_node_limit) {
    double open = kInf;
    for (const Node& node : best_first) {
      open = std::min(open, node.parent_bound);
    }
    for (const Node& node : depth_first) {
      open = std::min(open, node.parent_bound);
    }
    best_open_bound = std::min(incumbent_key, open);
  }
  result.best_bound = sense_factor * best_open_bound;

  if (hit_node_limit) {
    result.status = MilpResult::SolveStatus::kNodeLimit;
  } else if (result.has_incumbent) {
    result.status = MilpResult::SolveStatus::kOptimal;
    result.best_bound = result.objective;
  } else {
    // No integral point anywhere. Distinguish "integer infeasible" (some LP
    // relaxation was feasible) from "even the continuous relaxation is
    // infeasible" (no node had a feasible LP).
    result.status = any_feasible_lp
                        ? MilpResult::SolveStatus::kInfeasible
                        : MilpResult::SolveStatus::kLpRelaxationInfeasible;
  }
  return finish();
}

}  // namespace

MilpResult SolveMilp(const Model& model, const MilpOptions& options) {
  SearchCounters counters;
  MilpResult result = SolveMilpSerial(model, options, &counters);
  PublishMilpCounters(options.run, counters);
  return result;
}

std::vector<MilpResult> SolveMilpBatch(const std::vector<BatchModel>& models,
                                       const MilpOptions& options) {
  std::vector<MilpResult> results(models.size());
  std::vector<SearchCounters> counters(models.size());
  std::vector<size_t> order(models.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return models[a].model->num_variables() > models[b].model->num_variables();
  });
  const int64_t parent_span = obs::CurrentSpanId(options.run);
  util::ParallelFor(options.search.num_threads, order, [&](size_t k) {
    MilpOptions one = options;
    one.initial_point = models[k].initial_point;
    one.search.root_basis = models[k].root_basis;
    obs::Span instance_span(options.run, "milp.instance", parent_span);
    results[k] = SolveMilpSerial(*models[k].model, one, &counters[k]);
  });
  for (const SearchCounters& c : counters) {
    PublishMilpCounters(options.run, c);
  }
  return results;
}

}  // namespace dart::milp
