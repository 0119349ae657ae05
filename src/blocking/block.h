// Copyright 2026 The MinoanER Authors.
// Blocks and block collections.
//
// Blocking places likely-matching descriptions into (overlapping) blocks; the
// matcher then compares only descriptions sharing a block. MinoanER's
// blocking is schema-agnostic: keys are tokens (or URI parts), never
// hand-picked attributes — the poster's "minimal number of assumptions about
// how entities match".

#ifndef MINOAN_BLOCKING_BLOCK_H_
#define MINOAN_BLOCKING_BLOCK_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "kb/collection.h"
#include "kb/entity.h"
#include "util/interner.h"

namespace minoan {

/// Whether resolution is clean-clean (each KB internally duplicate-free, so
/// only cross-KB pairs are candidate matches) or dirty (any pair may match).
enum class ResolutionMode {
  kDirty = 0,
  kCleanClean = 1,
};

/// One candidate comparison (unordered entity pair, a < b).
struct Comparison {
  EntityId a;
  EntityId b;

  Comparison() : a(kInvalidEntity), b(kInvalidEntity) {}
  Comparison(EntityId x, EntityId y) : a(x < y ? x : y), b(x < y ? y : x) {}

  bool operator==(const Comparison& other) const {
    return a == other.a && b == other.b;
  }
  bool operator<(const Comparison& other) const {
    return a != other.a ? a < other.a : b < other.b;
  }
};

/// A set of blocks stored as one CSR — offsets plus the concatenated sorted
/// entity lists — and the inverted entity→blocks index that meta-blocking
/// traverses. Entity membership is all that cleaning, the blocking graph,
/// and pruning read. Block keys are an optional side array: a keyed
/// collection (every block added with a key) also holds one key id per
/// block plus the key interner, for reporting and tests; a keyless one
/// holds membership only. Blocks keep their insertion order forever, and
/// cleaning carries each surviving block's key along.
class BlockCollection {
 public:
  BlockCollection() : offsets_{0} {}

  /// Appends a keyless block. `entities` is sorted and deduplicated in
  /// place; lists of fewer than 2 entities are dropped. Returns whether the
  /// block was kept.
  bool AddBlock(std::vector<EntityId>& entities);

  /// Appends a block with the given key string, normalized as above; the
  /// key is interned only when the block is kept.
  void AddBlock(std::string_view key, std::vector<EntityId> entities);

  size_t num_blocks() const { return offsets_.size() - 1; }

  std::span<const EntityId> entities(uint32_t bi) const {
    return std::span<const EntityId>(entities_.data() + offsets_[bi],
                                     offsets_[bi + 1] - offsets_[bi]);
  }
  size_t block_size(uint32_t bi) const {
    return offsets_[bi + 1] - offsets_[bi];
  }

  /// Key of block `bi` (keyed collections only).
  std::string_view KeyString(uint32_t bi) const {
    return keys_.View(key_ids_[bi]);
  }

  /// Number of comparisons block `bi` induces under `mode` (cross-KB pairs
  /// only for clean-clean), ignoring cross-block redundancy.
  uint64_t NumComparisons(uint32_t bi, const EntityCollection& collection,
                          ResolutionMode mode) const;

  /// Aggregate comparisons over all blocks (with cross-block redundancy).
  uint64_t AggregateComparisons(const EntityCollection& collection,
                                ResolutionMode mode) const;

  /// Builds the entity→block-indices CSR over `num_entities` entities.
  /// Lists are sorted by block index.
  void BuildEntityIndex(uint32_t num_entities);
  bool has_entity_index() const { return !index_offsets_.empty(); }

  /// Block indices containing `e` (requires BuildEntityIndex).
  std::span<const uint32_t> BlocksOf(EntityId e) const {
    return std::span<const uint32_t>(
        index_blocks_.data() + index_offsets_[e],
        index_offsets_[e + 1] - index_offsets_[e]);
  }

  /// Rewrites the blocks in order: `survivor(bi)` returns what block `bi`
  /// keeps — all of entities(bi), a sorted subset of it, or fewer than 2
  /// entities to drop the block. A kept block keeps its key. Compacts in
  /// place and invalidates the entity index.
  template <typename SurvivorFn>
  void FilterInPlace(const SurvivorFn& survivor) {
    std::vector<uint64_t> new_offsets{0};
    size_t write = 0;
    uint32_t kept = 0;
    for (uint32_t bi = 0; bi < num_blocks(); ++bi) {
      const std::span<const EntityId> block = survivor(bi);
      if (block.size() < 2) continue;
      // Safe in place: a survivor inside the store lies within block bi,
      // which starts at or after the write cursor.
      std::copy(block.begin(), block.end(), entities_.begin() + write);
      write += block.size();
      new_offsets.push_back(write);
      if (!key_ids_.empty()) key_ids_[kept] = key_ids_[bi];
      ++kept;
    }
    entities_.resize(write);
    offsets_ = std::move(new_offsets);
    if (!key_ids_.empty()) key_ids_.resize(kept);
    index_offsets_.clear();
    index_blocks_.clear();
  }

 private:
  std::vector<uint64_t> offsets_;   // offsets_[0] == 0, size = blocks + 1
  std::vector<EntityId> entities_;  // concatenated block entity lists
  std::vector<uint32_t> key_ids_;   // empty for a keyless collection
  StringInterner keys_;
  std::vector<uint64_t> index_offsets_;
  std::vector<uint32_t> index_blocks_;
};

}  // namespace minoan

#endif  // MINOAN_BLOCKING_BLOCK_H_
