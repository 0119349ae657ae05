#include "blocking/block.h"

#include <algorithm>
#include <utility>

namespace minoan {

bool BlockCollection::AddBlock(std::vector<EntityId>& entities) {
  std::sort(entities.begin(), entities.end());
  entities.erase(std::unique(entities.begin(), entities.end()),
                 entities.end());
  if (entities.size() < 2) return false;
  entities_.insert(entities_.end(), entities.begin(), entities.end());
  offsets_.push_back(entities_.size());
  index_offsets_.clear();
  index_blocks_.clear();
  return true;
}

void BlockCollection::AddBlock(std::string_view key,
                               std::vector<EntityId> entities) {
  if (AddBlock(entities)) key_ids_.push_back(keys_.Intern(key));
}

uint64_t BlockCollection::NumComparisons(uint32_t bi,
                                         const EntityCollection& collection,
                                         ResolutionMode mode) const {
  const std::span<const EntityId> block = entities(bi);
  const uint64_t n = block.size();
  if (mode == ResolutionMode::kDirty) return n * (n - 1) / 2;
  // Clean-clean: pairs from different KBs. Count per-KB membership.
  // sum over kb pairs = (n^2 - sum n_k^2) / 2.
  std::vector<std::pair<uint32_t, uint64_t>> kb_counts;
  for (EntityId e : block) {
    const uint32_t kb = collection.entity(e).kb;
    bool found = false;
    for (auto& [k, c] : kb_counts) {
      if (k == kb) {
        ++c;
        found = true;
        break;
      }
    }
    if (!found) kb_counts.emplace_back(kb, 1);
  }
  uint64_t sum_sq = 0;
  for (const auto& [k, c] : kb_counts) sum_sq += c * c;
  return (n * n - sum_sq) / 2;
}

uint64_t BlockCollection::AggregateComparisons(
    const EntityCollection& collection, ResolutionMode mode) const {
  uint64_t total = 0;
  for (uint32_t bi = 0; bi < num_blocks(); ++bi) {
    total += NumComparisons(bi, collection, mode);
  }
  return total;
}

void BlockCollection::BuildEntityIndex(uint32_t num_entities) {
  index_offsets_.assign(static_cast<size_t>(num_entities) + 1, 0);
  for (const EntityId e : entities_) ++index_offsets_[e + 1];
  for (size_t i = 1; i < index_offsets_.size(); ++i) {
    index_offsets_[i] += index_offsets_[i - 1];
  }
  index_blocks_.resize(index_offsets_.back());
  std::vector<uint64_t> cursor(index_offsets_.begin(),
                               index_offsets_.end() - 1);
  for (uint32_t bi = 0; bi < num_blocks(); ++bi) {
    for (EntityId e : entities(bi)) {
      index_blocks_[cursor[e]++] = bi;
    }
  }
}

}  // namespace minoan
