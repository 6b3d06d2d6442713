#pragma once

#include <string>
#include <vector>

#include "relational/relation.h"
#include "util/status.h"

/// \file database.h
/// A database instance D over a scheme: a named set of relation instances,
/// plus CellRef — the (tuple, attribute) coordinates of the API boundary —
/// and the dense measure-cell ids (the paper's z₁…z_N numbering, Sec. 5)
/// that grounding, translation and repair work on in between.

namespace dart::rel {

/// Coordinates of a single attribute value t[A] inside a database: the pair
/// ⟨tuple, attribute⟩ of the paper's λ(u) notation, made addressable.
struct CellRef {
  std::string relation;
  size_t row = 0;
  size_t attribute = 0;

  bool operator==(const CellRef& other) const {
    return relation == other.relation && row == other.row &&
           attribute == other.attribute;
  }
  bool operator<(const CellRef& other) const {
    if (relation != other.relation) return relation < other.relation;
    if (row != other.row) return row < other.row;
    return attribute < other.attribute;
  }

  std::string ToString() const {
    return relation + "[" + std::to_string(row) + "]." +
           std::to_string(attribute);
  }
};

/// A database instance.
class Database {
 public:
  Database() = default;

  /// Adds an (initially empty) relation instance for `schema`.
  Status AddRelation(RelationSchema schema);

  Relation* FindRelation(const std::string& name);
  const Relation* FindRelation(const std::string& name) const;

  const std::vector<Relation>& relations() const { return relations_; }
  std::vector<Relation>& relations() { return relations_; }

  /// The database scheme induced by the instance.
  DatabaseSchema Schema() const;

  /// Every measure cell in the database, in (relation, row, attribute) order,
  /// relations in insertion order. These are exactly the values a repair may
  /// change; a cell's index here is its measure-cell id.
  std::vector<CellRef> MeasureCells() const;

  /// The measure-cell id of `cell`, its index in MeasureCells(): computed
  /// from the current shape, so ids stay correct as relations grow. -1 for
  /// a non-measure attribute, a dangling row or an unknown relation.
  int MeasureCellId(const CellRef& cell) const;

  /// The value of every measure cell, indexed by id. The one place that
  /// rejects a non-numeric measure value.
  Result<std::vector<double>> MeasureValues() const;

  /// Value at a cell; fails on dangling references.
  Result<Value> ValueAt(const CellRef& cell) const;

  /// Updates the (measure) cell; the repair primitive at database level.
  Status UpdateCell(const CellRef& cell, Value value);

  /// Number of cells whose value differs from `other` (same shape required).
  /// This is |λ(ρ)| when `other` is the repaired instance. Fails if shapes
  /// differ.
  Result<size_t> CountDifferences(const Database& other) const;

  /// Deep copy.
  Database Clone() const { return *this; }

 private:
  std::vector<Relation> relations_;
};

}  // namespace dart::rel
