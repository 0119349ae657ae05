#include "matching/similarity_evaluator.h"

namespace minoan {

void BuildTfidfVector(const EntityCollection& collection, EntityId e,
                      std::vector<WeightedToken>& out) {
  out.clear();
  const auto& bag = collection.entity(e).token_bag;  // sorted, with dups
  size_t i = 0;
  while (i < bag.size()) {
    size_t j = i;
    while (j < bag.size() && bag[j] == bag[i]) ++j;
    const double tf = static_cast<double>(j - i);
    const double idf = collection.TokenIdf(bag[i]);
    if (idf > 0.0) out.push_back(WeightedToken{bag[i], tf * idf});
    i = j;
  }
}

SimilarityEvaluator::SimilarityEvaluator(const EntityCollection& collection,
                                         SimilarityOptions options)
    : collection_(&collection), options_(options) {
  if (!options_.use_tfidf) return;
  tfidf_.resize(collection.num_entities());
  for (const EntityDescription& desc : collection.entities()) {
    BuildTfidfVector(collection, desc.id, tfidf_[desc.id]);
  }
}

double SimilarityEvaluator::TokenJaccard(EntityId a, EntityId b) const {
  return JaccardSimilarity(collection_->entity(a).tokens,
                           collection_->entity(b).tokens);
}

double SimilarityEvaluator::TfIdfCosine(EntityId a, EntityId b) const {
  if (!options_.use_tfidf) return 0.0;
  return WeightedCosineSimilarity(tfidf_[a], tfidf_[b]);
}

double SimilarityEvaluator::Similarity(EntityId a, EntityId b) const {
  return MixProfileSimilarity(options_, TokenJaccard(a, b),
                              TfIdfCosine(a, b));
}

}  // namespace minoan
