#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "textrepair/dictionary.h"
#include "util/status.h"

/// \file domains.h
/// Extraction-metadata vocabulary (Sec. 6.2): *domain descriptions* — named
/// domains with their lexical items (e.g. Section = {Receipts,
/// Disbursements, Balance}) — and *hierarchical relationships* between
/// lexical items of different domains ("beginning cash" is a specialization
/// of "Receipts", Fig. 6). The catalog also answers fuzzy best-item queries,
/// which is how incorrect items "are transformed into the most similar valid
/// lexical items" (the wrapper's msi(·,·)). Each domain keeps an exact-hit
/// index, so text that already spells an item (up to case and surrounding
/// whitespace) is bound with one hash lookup; only the rest pays for the
/// similarity scan.

namespace dart::wrap {

/// Fuzzy lookup result for a domain query.
struct ItemMatch {
  std::string item;       ///< canonical lexical item.
  double similarity = 0;  ///< normalized Levenshtein similarity, [0, 1].
  bool exact = false;     ///< case-insensitive exact match.
};

/// Domains, lexical items, and the specialization hierarchy.
class DomainCatalog {
 public:
  DomainCatalog() = default;

  /// Defines a domain with its lexical items. Items may belong to several
  /// domains; redefining a domain name fails.
  Status AddDomain(const std::string& name,
                   const std::vector<std::string>& items);

  /// Declares `child` (a lexical item) to be a specialization of `parent`.
  /// Both items must already belong to some domain. Cycles are rejected.
  Status AddSpecialization(const std::string& child, const std::string& parent);

  bool HasDomain(const std::string& name) const;
  const std::vector<std::string>* ItemsOf(const std::string& domain) const;
  std::vector<std::string> DomainNames() const;

  /// True iff `child` is a (transitive, reflexive) specialization of
  /// `parent`. Matching is case-insensitive.
  bool IsSpecializationOf(const std::string& child,
                          const std::string& parent) const;

  /// The most similar item of `domain` to `text`; nullopt for an unknown or
  /// empty domain. With `required_generalization` set, only items that are
  /// specializations of it are considered (the row-pattern hierarchy edge).
  /// Ties go to the lexicographically smaller item. An exact hit is answered
  /// from the domain's index; other text is scanned against every item.
  std::optional<ItemMatch> BestMatch(
      const std::string& domain, const std::string& text,
      const std::string* required_generalization = nullptr) const;

  /// A dictionary over every lexical item of every domain (spelling-repair
  /// vocabulary for free-text cells).
  text::Dictionary AllItemsDictionary() const;

  /// Every direct hierarchy edge as (child, parent) in canonical spelling,
  /// sorted — used by metadata serialization.
  std::vector<std::pair<std::string, std::string>> Specializations() const;

 private:
  /// One domain's items with their exact-hit index.
  struct Domain {
    std::vector<std::string> items;    ///< canonical spellings.
    std::vector<std::string> lowered;  ///< items[i] lower-cased.
    /// lowered[i] → i; unique because AddDomain dedups lower-cased items.
    std::unordered_map<std::string, size_t> index;
  };

  std::string Canonical(const std::string& item) const;

  /// domain name → its items.
  std::map<std::string, Domain> domains_;
  /// lower-cased item → canonical spelling (first registration wins).
  std::map<std::string, std::string> canonical_;
  /// lower-cased child → set of lower-cased direct parents.
  std::map<std::string, std::set<std::string>> parents_;
};

}  // namespace dart::wrap
