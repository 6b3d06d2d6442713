#include "relational/database.h"

#include <algorithm>

namespace dart::rel {

Status Database::AddRelation(RelationSchema schema) {
  if (FindRelation(schema.name()) != nullptr) {
    return Status::AlreadyExists("relation '" + schema.name() +
                                 "' already exists in database");
  }
  relations_.emplace_back(std::move(schema));
  return Status::Ok();
}

Relation* Database::FindRelation(const std::string& name) {
  for (Relation& r : relations_) {
    if (r.name() == name) return &r;
  }
  return nullptr;
}

const Relation* Database::FindRelation(const std::string& name) const {
  for (const Relation& r : relations_) {
    if (r.name() == name) return &r;
  }
  return nullptr;
}

DatabaseSchema Database::Schema() const {
  DatabaseSchema schema;
  for (const Relation& r : relations_) {
    DART_CHECK(schema.AddRelation(r.schema()).ok());
  }
  return schema;
}

std::vector<CellRef> Database::MeasureCells() const {
  std::vector<CellRef> out;
  for (const Relation& r : relations_) {
    for (size_t row = 0; row < r.size(); ++row) {
      for (size_t attr : r.schema().measure_indexes()) {
        out.push_back(CellRef{r.name(), row, attr});
      }
    }
  }
  return out;
}

int Database::MeasureCellId(const CellRef& cell) const {
  size_t offset = 0;
  for (const Relation& r : relations_) {
    const std::vector<size_t>& measures = r.schema().measure_indexes();
    if (r.name() == cell.relation) {
      const auto it =
          std::find(measures.begin(), measures.end(), cell.attribute);
      if (cell.row >= r.size() || it == measures.end()) return -1;
      return static_cast<int>(offset + cell.row * measures.size() +
                              (it - measures.begin()));
    }
    offset += r.size() * measures.size();
  }
  return -1;
}

Result<std::vector<double>> Database::MeasureValues() const {
  std::vector<double> out;
  for (const Relation& r : relations_) {
    for (size_t row = 0; row < r.size(); ++row) {
      for (size_t attr : r.schema().measure_indexes()) {
        const Value& v = r.At(row, attr);
        if (!v.is_numeric()) {
          return Status::InvalidArgument(
              "measure cell " + CellRef{r.name(), row, attr}.ToString() +
              " holds a non-numeric value");
        }
        out.push_back(v.AsReal());
      }
    }
  }
  return out;
}

Result<Value> Database::ValueAt(const CellRef& cell) const {
  const Relation* r = FindRelation(cell.relation);
  if (r == nullptr) {
    return Status::NotFound("relation '" + cell.relation + "' not found");
  }
  if (cell.row >= r->size() || cell.attribute >= r->schema().arity()) {
    return Status::OutOfRange("dangling cell reference " + cell.ToString());
  }
  return r->At(cell.row, cell.attribute);
}

Status Database::UpdateCell(const CellRef& cell, Value value) {
  Relation* r = FindRelation(cell.relation);
  if (r == nullptr) {
    return Status::NotFound("relation '" + cell.relation + "' not found");
  }
  return r->UpdateValue(cell.row, cell.attribute, std::move(value));
}

Result<size_t> Database::CountDifferences(const Database& other) const {
  if (relations_.size() != other.relations_.size()) {
    return Status::InvalidArgument("databases have different relation counts");
  }
  size_t diff = 0;
  for (size_t i = 0; i < relations_.size(); ++i) {
    const Relation& a = relations_[i];
    const Relation& b = other.relations_[i];
    if (a.name() != b.name() || a.size() != b.size() ||
        a.schema().arity() != b.schema().arity()) {
      return Status::InvalidArgument(
          "relation shapes differ between databases ('" + a.name() + "')");
    }
    for (size_t row = 0; row < a.size(); ++row) {
      for (size_t attr = 0; attr < a.schema().arity(); ++attr) {
        if (a.At(row, attr) != b.At(row, attr)) ++diff;
      }
    }
  }
  return diff;
}

}  // namespace dart::rel
