// Copyright 2026 The MinoanER Authors.
// Character-level blocking methods: q-gram blocking and sorted neighborhood.
//
// Token blocking requires an exact shared token; a single typo breaks the
// key. These two classical methods trade more comparisons for robustness to
// character noise:
//   * QGramBlocking keys every description by the q-grams of its tokens, so
//     "heraklion" and "heraklio" still meet in 7 of their 8 trigram blocks;
//   * SortedNeighborhoodBlocking sorts descriptions by each of their tokens
//     and blocks every window of `window_size` consecutive entries, catching
//     near-equal keys that sort adjacently. The sort is a one-shard shard
//     shuffle (extmem/shuffle.h), so a memory budget makes it an external
//     merge sort without a second window loop.

#ifndef MINOAN_BLOCKING_CHAR_BLOCKING_H_
#define MINOAN_BLOCKING_CHAR_BLOCKING_H_

#include <cstdint>

#include "blocking/blocking_method.h"

namespace minoan {

/// Blocks keyed by token q-grams.
class QGramBlocking : public BlockingMethod {
 public:
  struct Options {
    uint32_t q = 3;
    /// Tokens shorter than q are used whole (their own key).
    /// Frequency filters as in token blocking.
    double max_df_fraction = 0.05;
    uint32_t min_df = 2;
    /// Cap on distinct q-grams taken per entity (the most discriminative —
    /// i.e. rarest — grams are kept; 0 = unlimited).
    uint32_t max_grams_per_entity = 48;
  };

  QGramBlocking() : options_{} {}
  explicit QGramBlocking(Options options) : options_(options) {}
  std::string_view name() const override { return "qgram"; }
  void BuildInto(const EntityCollection& collection, ThreadPool* pool,
                 BlockSink& sink) const override;

 private:
  Options options_;
};

/// Multi-pass sorted neighborhood over token keys.
class SortedNeighborhoodBlocking : public BlockingMethod {
 public:
  struct Options {
    /// Entities within a sliding window of this size over the sorted key
    /// list land in one block.
    uint32_t window_size = 4;
    /// Number of token keys sampled per entity (its rarest tokens).
    uint32_t keys_per_entity = 3;
  };

  SortedNeighborhoodBlocking() : options_{} {}
  explicit SortedNeighborhoodBlocking(Options options) : options_(options) {}
  std::string_view name() const override { return "sorted-nbhd"; }
  void BuildInto(const EntityCollection& collection, ThreadPool* pool,
                 BlockSink& sink) const override;

 private:
  Options options_;
};

}  // namespace minoan

#endif  // MINOAN_BLOCKING_CHAR_BLOCKING_H_
