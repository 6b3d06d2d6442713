#include "wrapper/domains.h"

#include <deque>

#include "textrepair/levenshtein.h"
#include "util/strings.h"

namespace dart::wrap {

Status DomainCatalog::AddDomain(const std::string& name,
                                const std::vector<std::string>& items) {
  if (name.empty()) return Status::InvalidArgument("domain name is empty");
  if (domains_.count(name) > 0) {
    return Status::AlreadyExists("domain '" + name + "' already defined");
  }
  if (items.empty()) {
    return Status::InvalidArgument("domain '" + name + "' has no items");
  }
  Domain domain;
  for (const std::string& item : items) {
    std::string lower = ToLower(item);
    if (!domain.index.emplace(lower, domain.items.size()).second) continue;
    domain.items.push_back(item);
    canonical_.emplace(lower, item);  // keeps first spelling on collision
    domain.lowered.push_back(std::move(lower));
  }
  domains_.emplace(name, std::move(domain));
  return Status::Ok();
}

std::string DomainCatalog::Canonical(const std::string& item) const {
  auto it = canonical_.find(ToLower(item));
  return it == canonical_.end() ? item : it->second;
}

Status DomainCatalog::AddSpecialization(const std::string& child,
                                        const std::string& parent) {
  const std::string child_key = ToLower(child);
  const std::string parent_key = ToLower(parent);
  if (canonical_.count(child_key) == 0) {
    return Status::NotFound("lexical item '" + child +
                            "' does not belong to any domain");
  }
  if (canonical_.count(parent_key) == 0) {
    return Status::NotFound("lexical item '" + parent +
                            "' does not belong to any domain");
  }
  if (child_key == parent_key || IsSpecializationOf(parent, child)) {
    return Status::InvalidArgument(
        "specialization '" + child + "' -> '" + parent +
        "' would create a cycle in the hierarchy");
  }
  parents_[child_key].insert(parent_key);
  return Status::Ok();
}

bool DomainCatalog::HasDomain(const std::string& name) const {
  return domains_.count(name) > 0;
}

const std::vector<std::string>* DomainCatalog::ItemsOf(
    const std::string& domain) const {
  auto it = domains_.find(domain);
  return it == domains_.end() ? nullptr : &it->second.items;
}

std::vector<std::string> DomainCatalog::DomainNames() const {
  std::vector<std::string> out;
  out.reserve(domains_.size());
  for (const auto& [name, domain] : domains_) out.push_back(name);
  return out;
}

bool DomainCatalog::IsSpecializationOf(const std::string& child,
                                       const std::string& parent) const {
  const std::string target = ToLower(parent);
  std::deque<std::string> frontier = {ToLower(child)};
  std::set<std::string> visited;
  while (!frontier.empty()) {
    std::string current = std::move(frontier.front());
    frontier.pop_front();
    if (current == target) return true;
    if (!visited.insert(current).second) continue;
    auto it = parents_.find(current);
    if (it == parents_.end()) continue;
    for (const std::string& up : it->second) frontier.push_back(up);
  }
  return false;
}

std::optional<ItemMatch> DomainCatalog::BestMatch(
    const std::string& domain, const std::string& text,
    const std::string* required_generalization) const {
  auto it = domains_.find(domain);
  if (it == domains_.end()) return std::nullopt;
  const Domain& d = it->second;
  const std::string query = ToLower(Trim(text));
  auto allowed = [&](const std::string& item) {
    return required_generalization == nullptr ||
           IsSpecializationOf(item, *required_generalization);
  };
  // Similarity 1.0 means equal lower-cased spellings, and those are unique
  // within a domain: an allowed exact hit beats every other item.
  auto hit = d.index.find(query);
  if (hit != d.index.end() && allowed(d.items[hit->second])) {
    return ItemMatch{d.items[hit->second], 1.0, true};
  }
  // No allowed exact hit, so every candidate below is inexact.
  std::optional<ItemMatch> best;
  for (size_t i = 0; i < d.items.size(); ++i) {
    const std::string& item = d.items[i];
    if (!allowed(item)) continue;
    const double similarity = text::Similarity(query, d.lowered[i]);
    if (!best || similarity > best->similarity ||
        (similarity == best->similarity && item < best->item)) {
      best = ItemMatch{item, similarity};
    }
  }
  return best;
}

std::vector<std::pair<std::string, std::string>>
DomainCatalog::Specializations() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [child, parents] : parents_) {
    for (const std::string& parent : parents) {
      out.emplace_back(Canonical(child), Canonical(parent));
    }
  }
  return out;  // parents_ is an ordered map, so the result is sorted
}

text::Dictionary DomainCatalog::AllItemsDictionary() const {
  text::Dictionary dictionary;
  for (const auto& [name, domain] : domains_) dictionary.AddTerms(domain.items);
  return dictionary;
}

}  // namespace dart::wrap
