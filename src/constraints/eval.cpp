#include "constraints/eval.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <unordered_set>

namespace dart::cons {

std::string BindingToString(const Binding& binding) {
  std::string out = "{";
  bool first = true;
  for (const auto& [var, value] : binding) {
    if (!first) out += ", ";
    first = false;
    out += var + "=" + value.ToString();
  }
  return out + "}";
}

bool SatisfiesCompare(double lhs, CompareOp op, double rhs, double tolerance) {
  switch (op) {
    case CompareOp::kEq: return std::fabs(lhs - rhs) <= tolerance;
    case CompareOp::kNe: return std::fabs(lhs - rhs) > tolerance;
    case CompareOp::kLt: return lhs < rhs - tolerance;
    case CompareOp::kLe: return lhs <= rhs + tolerance;
    case CompareOp::kGt: return lhs > rhs + tolerance;
    case CompareOp::kGe: return lhs >= rhs - tolerance;
  }
  return false;
}

namespace {

/// A NaN equals nothing under `EvalCompare`, so it must never become (or
/// look up) an index key.
bool Unkeyable(const rel::Value& v) {
  return v.is_real() && std::isnan(v.AsReal());
}

/// A hash that agrees with `rel::Value`'s `==`: numerics hash by their
/// double value, so 2 and 2.0 (and 0.0 and -0.0) hash alike.
size_t HashValue(const rel::Value& v) {
  if (v.is_numeric()) return std::hash<double>{}(v.AsReal() + 0.0);
  if (v.is_string()) return std::hash<std::string>{}(v.AsString());
  return 0;
}

size_t CombineHash(size_t hash, const rel::Value& v) {
  return hash * 1099511628211ull ^ HashValue(v);
}

}  // namespace

size_t TupleIndex::KeyHash::operator()(
    const std::vector<rel::Value>& key) const {
  size_t hash = 0;
  for (const rel::Value& v : key) hash = CombineHash(hash, v);
  return hash;
}

TupleIndex::TupleIndex(const rel::Relation& relation,
                       const std::vector<size_t>& attributes) {
  std::vector<rel::Value> key(attributes.size());
  for (size_t row = 0; row < relation.size(); ++row) {
    const rel::Tuple& tuple = relation.row(row);
    for (size_t k = 0; k < attributes.size(); ++k) {
      key[k] = tuple[attributes[k]];
    }
    if (std::ranges::none_of(key, Unkeyable)) groups_[key].push_back(row);
  }
}

std::span<const size_t> TupleIndex::Lookup(
    const std::vector<rel::Value>& key) const {
  auto it = groups_.find(key);
  if (it == groups_.end()) return {};
  return it->second;
}

Result<const TupleIndex*> TupleIndexCache::Get(
    const std::string& relation, const std::vector<size_t>& attributes) {
  auto it = indexes_.find({relation, attributes});
  if (it != indexes_.end()) return &it->second;
  const rel::Relation* rel = db_.FindRelation(relation);
  if (rel == nullptr) {
    return Status::NotFound("relation '" + relation +
                            "' missing from database instance");
  }
  return &indexes_
              .try_emplace({relation, attributes}, *rel, attributes)
              .first->second;
}

namespace {

/// One argument position of a premise atom, compiled against the variables
/// of the premise (numbered in first-occurrence order): check a constant,
/// bind a variable's first occurrence, or check a variable bound before.
struct ArgStep {
  enum class Kind { kConstant, kBind, kCheck };
  Kind kind = Kind::kConstant;
  size_t slot = 0;
  const rel::Value* constant = nullptr;
};

/// One premise atom joined through an index on its `key_positions`: the
/// constant arguments and the variables bound by earlier atoms.
struct AtomJoin {
  const rel::Relation* relation = nullptr;
  const TupleIndex* index = nullptr;
  std::vector<ArgStep> steps;  ///< one per argument position.
  std::vector<size_t> key_positions;
};

/// Hashes and compares projections by value through the pointers, which
/// point into the relations for as long as the enumeration runs. The hash
/// agrees with `rel::Value`'s `==`: numerics hash by their double value, so
/// 2 and 2.0 (and 0.0 and -0.0) land together.
struct ProjectionHash {
  size_t operator()(const std::vector<const rel::Value*>& projection) const {
    size_t hash = 0;
    for (const rel::Value* v : projection) hash = CombineHash(hash, *v);
    return hash;
  }
};
struct ProjectionEq {
  bool operator()(const std::vector<const rel::Value*>& a,
                  const std::vector<const rel::Value*>& b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const rel::Value* x, const rel::Value* y) {
                        return *x == *y;
                      });
  }
};

struct Enumeration {
  std::vector<AtomJoin> joins;
  std::vector<std::string> project_vars;
  /// Slot of each projected variable; -1 when φ does not bind it (a
  /// validation bug) — projected as null so it still dedups
  /// deterministically.
  std::vector<int> project_slots;
  std::vector<const rel::Value*> slots;  ///< current substitution θ.
  std::unordered_set<std::vector<const rel::Value*>, ProjectionHash,
                     ProjectionEq>
      seen;
  std::vector<const rel::Value*> projection;  ///< scratch for the leaf.
  std::vector<Binding> out;

  void Run(size_t atom_index) {
    static const rel::Value kNull;
    if (atom_index == joins.size()) {
      projection.clear();
      for (int slot : project_slots) {
        projection.push_back(slot < 0 ? &kNull
                                      : slots[static_cast<size_t>(slot)]);
      }
      if (!seen.insert(projection).second) return;
      Binding projected;
      for (size_t i = 0; i < project_vars.size(); ++i) {
        projected[project_vars[i]] = *projection[i];
      }
      out.push_back(std::move(projected));
      return;
    }
    const AtomJoin& join = joins[atom_index];
    std::vector<rel::Value> key;
    key.reserve(join.key_positions.size());
    for (size_t position : join.key_positions) {
      const ArgStep& step = join.steps[position];
      key.push_back(step.kind == ArgStep::Kind::kConstant ? *step.constant
                                                          : *slots[step.slot]);
    }
    // The index already agrees on the key positions; the steps bind the
    // rest (and re-check the key, harmlessly).
    for (size_t row : join.index->Lookup(key)) {
      const rel::Tuple& tuple = join.relation->row(row);
      bool matches = true;
      for (size_t i = 0; matches && i < join.steps.size(); ++i) {
        const ArgStep& step = join.steps[i];
        switch (step.kind) {
          case ArgStep::Kind::kConstant:
            matches = *step.constant == tuple[i];
            break;
          case ArgStep::Kind::kBind:
            slots[step.slot] = &tuple[i];
            break;
          case ArgStep::Kind::kCheck:
            matches = *slots[step.slot] == tuple[i];
            break;
        }
      }
      if (matches) Run(atom_index + 1);
    }
  }
};

}  // namespace

Result<std::vector<Binding>> GroundSubstitutions(
    TupleIndexCache* indexes, const std::vector<Atom>& atoms,
    const std::vector<std::string>& project_vars) {
  Enumeration enumeration;
  std::map<std::string, size_t> slot_of;
  for (const Atom& atom : atoms) {
    AtomJoin join;
    join.relation = indexes->db().FindRelation(atom.relation);
    if (join.relation == nullptr) {
      return Status::NotFound("relation '" + atom.relation +
                              "' missing from database instance");
    }
    const size_t bound_before = slot_of.size();
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const TermArg& arg = atom.args[i];
      ArgStep step;
      if (arg.kind == TermArg::Kind::kConstant) {
        step.constant = &arg.constant;
        join.key_positions.push_back(i);
      } else {
        auto [it, fresh] = slot_of.try_emplace(arg.variable, slot_of.size());
        step.kind = fresh ? ArgStep::Kind::kBind : ArgStep::Kind::kCheck;
        step.slot = it->second;
        if (step.slot < bound_before) join.key_positions.push_back(i);
      }
      join.steps.push_back(step);
    }
    DART_ASSIGN_OR_RETURN(join.index,
                          indexes->Get(atom.relation, join.key_positions));
    enumeration.joins.push_back(std::move(join));
  }
  enumeration.project_vars = project_vars;
  for (const std::string& var : project_vars) {
    auto it = slot_of.find(var);
    enumeration.project_slots.push_back(
        it == slot_of.end() ? -1 : static_cast<int>(it->second));
  }
  enumeration.slots.assign(slot_of.size(), nullptr);
  enumeration.Run(0);
  return std::move(enumeration.out);
}

Result<std::vector<rel::Value>> ResolveCallArgs(const AggregateTerm& term,
                                                const Binding& binding) {
  std::vector<rel::Value> out;
  out.reserve(term.args.size());
  for (const TermArg& arg : term.args) {
    if (arg.kind == TermArg::Kind::kConstant) {
      out.push_back(arg.constant);
    } else {
      auto it = binding.find(arg.variable);
      if (it == binding.end()) {
        return Status::Internal("unbound variable '" + arg.variable +
                                "' in call " + term.ToString());
      }
      out.push_back(it->second);
    }
  }
  return out;
}

const rel::Value& AggregationPlan::Source::Get(
    const rel::Tuple& tuple, const std::vector<rel::Value>& params) const {
  switch (kind) {
    case Operand::Kind::kAttribute: return tuple[index];
    case Operand::Kind::kParameter: return params[index];
    case Operand::Kind::kConstant: break;
  }
  return constant;
}

Result<AggregationPlan> AggregationPlan::Compile(const AggregationFunction& fn,
                                                 TupleIndexCache* indexes) {
  AggregationPlan plan;
  plan.fn_ = &fn;
  plan.relation_ = indexes->db().FindRelation(fn.relation);
  if (plan.relation_ == nullptr) {
    return Status::NotFound("relation '" + fn.relation +
                            "' missing from database instance");
  }
  const rel::RelationSchema& schema = plan.relation_->schema();
  DART_RETURN_IF_ERROR(fn.expr->Linearize(schema, &plan.form_, 1.0));

  auto resolve = [&](const Operand& operand) -> Result<Source> {
    Source source;
    source.kind = operand.kind;
    switch (operand.kind) {
      case Operand::Kind::kConstant:
        source.constant = operand.constant;
        return source;
      case Operand::Kind::kAttribute: {
        auto idx = schema.AttributeIndex(operand.name);
        if (!idx) {
          return Status::NotFound("attribute '" + operand.name + "' not in " +
                                  schema.ToString());
        }
        source.index = *idx;
        return source;
      }
      case Operand::Kind::kParameter: {
        for (size_t i = 0; i < fn.parameters.size(); ++i) {
          if (fn.parameters[i] == operand.name) {
            source.index = i;
            return source;
          }
        }
        return Status::NotFound("parameter '" + operand.name +
                                "' not declared by function '" + fn.name +
                                "'");
      }
    }
    return Status::Internal("unknown operand kind");
  };

  std::vector<size_t> key_attributes;
  for (const Comparison& cmp : fn.where) {
    DART_ASSIGN_OR_RETURN(Source lhs, resolve(cmp.lhs));
    DART_ASSIGN_OR_RETURN(Source rhs, resolve(cmp.rhs));
    if (cmp.op == CompareOp::kEq &&
        (lhs.kind == Operand::Kind::kAttribute) !=
            (rhs.kind == Operand::Kind::kAttribute)) {
      // `=` is symmetric: key the attribute side on the other one.
      if (rhs.kind == Operand::Kind::kAttribute) std::swap(lhs, rhs);
      key_attributes.push_back(lhs.index);
      plan.key_.push_back(std::move(rhs));
    } else {
      plan.residual_.push_back(
          Residual{std::move(lhs), cmp.op, std::move(rhs)});
    }
  }
  DART_ASSIGN_OR_RETURN(plan.index_,
                        indexes->Get(fn.relation, key_attributes));
  return plan;
}

Result<std::vector<size_t>> AggregationPlan::TupleSet(
    const std::vector<rel::Value>& param_values) const {
  if (param_values.size() != fn_->parameters.size()) {
    return Status::InvalidArgument(
        "function '" + fn_->name + "' expects " +
        std::to_string(fn_->parameters.size()) + " parameters, got " +
        std::to_string(param_values.size()));
  }
  static const rel::Tuple kNoTuple;  // key sources are never attributes.
  std::vector<rel::Value> key;
  key.reserve(key_.size());
  for (const Source& source : key_) {
    key.push_back(source.Get(kNoTuple, param_values));
  }
  std::vector<size_t> out;
  for (size_t row : index_->Lookup(key)) {
    const rel::Tuple& tuple = relation_->row(row);
    const bool matches = std::all_of(
        residual_.begin(), residual_.end(), [&](const Residual& cmp) {
          return EvalCompare(cmp.lhs.Get(tuple, param_values), cmp.op,
                             cmp.rhs.Get(tuple, param_values));
        });
    if (matches) out.push_back(row);
  }
  return out;
}

Result<std::vector<size_t>> AggregationTupleSet(
    const rel::Database& db, const AggregationFunction& fn,
    const std::vector<rel::Value>& param_values) {
  TupleIndexCache indexes(db);
  DART_ASSIGN_OR_RETURN(AggregationPlan plan,
                        AggregationPlan::Compile(fn, &indexes));
  return plan.TupleSet(param_values);
}

std::string Violation::ToString() const {
  return constraint + " " + BindingToString(binding) + ": " +
         std::to_string(lhs) + " " + CompareOpName(op) + " " +
         std::to_string(rhs) + " violated";
}

std::vector<std::string> TermVariables(const AggregateConstraint& constraint) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const AggregateTerm& term : constraint.terms) {
    for (const TermArg& arg : term.args) {
      if (arg.kind == TermArg::Kind::kVariable &&
          seen.insert(arg.variable).second) {
        out.push_back(arg.variable);
      }
    }
  }
  return out;
}

}  // namespace dart::cons
