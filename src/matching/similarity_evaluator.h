// Copyright 2026 The MinoanER Authors.
// Description-level similarity evaluation.
//
// The entity-matching phase compares two descriptions by the content of
// their profiles. The evaluator combines a token-set Jaccard (robust to
// value fragmentation across predicates) with a TF-IDF weighted cosine
// (discounts ubiquitous tokens), both schema-agnostic. Neighbor evidence
// from the progressive update phase is added *on top* by the resolver, not
// here.

#ifndef MINOAN_MATCHING_SIMILARITY_EVALUATOR_H_
#define MINOAN_MATCHING_SIMILARITY_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "kb/collection.h"
#include "kb/entity.h"
#include "text/similarity.h"

namespace minoan {

/// Configuration of the profile similarity.
struct SimilarityOptions {
  /// Convex combination: sim = w · cosine_tfidf + (1-w) · jaccard.
  double tfidf_weight = 0.5;
  /// When false, only the unweighted Jaccard is computed (cheaper).
  bool use_tfidf = true;
};

/// Writes e's (token, tf·idf) vector, sorted by token id, under the
/// collection's CURRENT document frequencies. The one TF-IDF builder: the
/// evaluator precomputes every vector with it at construction; the online
/// engine, whose vocabulary grows per ingest, builds them per comparison.
void BuildTfidfVector(const EntityCollection& collection, EntityId e,
                      std::vector<WeightedToken>& out);

/// The profile similarity mix: jaccard alone without TF-IDF, else
/// w · cosine + (1-w) · jaccard.
inline double MixProfileSimilarity(const SimilarityOptions& options,
                                   double jaccard, double cosine) {
  if (!options.use_tfidf) return jaccard;
  return options.tfidf_weight * cosine +
         (1.0 - options.tfidf_weight) * jaccard;
}

/// Immutable similarity oracle over one collection. Construction precomputes
/// per-entity TF-IDF vectors; Similarity() is then allocation-free and
/// thread-safe.
class SimilarityEvaluator {
 public:
  SimilarityEvaluator(const EntityCollection& collection,
                      SimilarityOptions options);
  explicit SimilarityEvaluator(const EntityCollection& collection)
      : SimilarityEvaluator(collection, SimilarityOptions{}) {}

  /// Profile similarity in [0, 1].
  double Similarity(EntityId a, EntityId b) const;

  /// The token-set Jaccard component alone.
  double TokenJaccard(EntityId a, EntityId b) const;

  /// The TF-IDF cosine component alone (0 when disabled).
  double TfIdfCosine(EntityId a, EntityId b) const;

  const EntityCollection& collection() const { return *collection_; }

 private:
  const EntityCollection* collection_;
  SimilarityOptions options_;
  /// Per entity: (token, tf·idf) sorted by token id.
  std::vector<std::vector<WeightedToken>> tfidf_;
};

}  // namespace minoan

#endif  // MINOAN_MATCHING_SIMILARITY_EVALUATOR_H_
