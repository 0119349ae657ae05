#include "metablocking/sharded_prune.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <functional>
#include <string>

#include "extmem/shuffle.h"
#include "metablocking/meta_blocking.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/topk.h"

namespace minoan {
namespace {

/// Deterministic strict-weak order: higher weight first, then smaller pair.
struct EdgeRank {
  double weight;
  uint64_t key;
  bool operator<(const EdgeRank& o) const {
    if (weight != o.weight) return weight < o.weight;
    return key > o.key;
  }
};

/// One node-centric vote: `nominator` kept an edge to the other endpoint of
/// `key`. Sorting by (key, nominator) groups votes per pair with the larger
/// endpoint last — the endpoint whose weight the sequential vote table would
/// have kept (last writer over an ascending entity scan).
struct Nomination {
  uint64_t key;
  EntityId nominator;
  double weight;
  bool operator<(const Nomination& o) const {
    if (key != o.key) return key < o.key;
    return nominator < o.nominator;
  }
};

/// Shuffle codec of the WEP/CEP edge lists: edges sorted by weight
/// descending, pair ascending (the SortByWeightDescending order). Encoded
/// key [~weight bits BE][pair BE], payload [weight bits LE]: every scheme's
/// weight is finite and >= 0 (never -0.0), so the complemented bit pattern
/// orders bytes by weight descending.
struct EdgeCodec {
  using Record = EdgeRank;
  static bool Less(const EdgeRank& a, const EdgeRank& b) { return b < a; }
  static void Encode(const EdgeRank& edge, std::string& out) {
    out.clear();
    extmem::AppendU32Le(out, 16);
    extmem::AppendU64Be(out, ~std::bit_cast<uint64_t>(edge.weight));
    extmem::AppendU64Be(out, edge.key);
    extmem::AppendU64Le(out, std::bit_cast<uint64_t>(edge.weight));
  }
  static void Decode(std::string_view bytes, EdgeRank& edge) {
    edge.key = extmem::ReadU64Be(extmem::RecordKey(bytes).substr(8, 8));
    edge.weight = std::bit_cast<double>(
        extmem::ReadU64Le(extmem::RecordPayload(bytes)));
  }
};

/// Shuffle codec of the node-centric vote shards: (pair, nominator)-keyed
/// records carrying the nominator's weight.
struct NominationCodec {
  using Record = Nomination;
  static bool Less(const Nomination& a, const Nomination& b) { return a < b; }
  static void Encode(const Nomination& nom, std::string& out) {
    out.clear();
    extmem::AppendU32Le(out, 12);  // key: pair + nominator
    extmem::AppendU64Be(out, nom.key);
    extmem::AppendU32Be(out, nom.nominator);
    extmem::AppendU64Le(out, std::bit_cast<uint64_t>(nom.weight));
  }
  static void Decode(std::string_view bytes, Nomination& nom) {
    const std::string_view key = extmem::RecordKey(bytes);
    nom.key = extmem::ReadU64Be(key.substr(0, 8));
    nom.nominator = extmem::ReadU32Be(key.substr(8, 4));
    nom.weight = std::bit_cast<double>(
        extmem::ReadU64Le(extmem::RecordPayload(bytes)));
  }
};

/// Order-fixed partial aggregate of one entity chunk.
struct ChunkPartial {
  double weight_sum = 0.0;
  uint64_t edges = 0;
};

}  // namespace

std::vector<WeightedComparison> ShardedPrune(
    const BlockingGraphView& view, const MetaBlockingOptions& options,
    ThreadPool* pool, MetaBlockingStats* stats,
    const extmem::MemoryBudgetOptions& memory) {
  const uint32_t n = view.collection().num_entities();
  const size_t num_chunks = NumChunks(n, kPruneChunkEntities);

  std::vector<WeightedComparison> retained;
  uint64_t graph_edges = 0;
  double weight_sum = 0.0;
  uint64_t nominations = 0;
  uint64_t distinct_pairs = 0;

  switch (options.pruning) {
    case PruningScheme::kWep: {
      // Pass 1: per-chunk partial sums, folded in chunk order so the global
      // mean is one fixed floating-point reduction for every thread count.
      std::vector<ChunkPartial> partials(num_chunks);
      RunChunkedTasks(pool, n, kPruneChunkEntities,
                      [&](size_t c, size_t begin, size_t end) {
        NeighborScratch& scratch = TlsNeighborScratch(n);
        ChunkPartial partial;
        for (EntityId e = static_cast<EntityId>(begin);
             e < static_cast<EntityId>(end); ++e) {
          view.ForNeighbors(scratch, e, /*only_greater=*/true,
                            [&](EntityId nb, uint32_t common, double arcs) {
                              partial.weight_sum +=
                                  view.EdgeWeight(e, nb, common, arcs);
                              ++partial.edges;
                            });
        }
        partials[c] = partial;
      });
      for (const ChunkPartial& p : partials) {
        weight_sum += p.weight_sum;
        graph_edges += p.edges;
      }
      const double mean = graph_edges > 0
                              ? weight_sum / static_cast<double>(graph_edges)
                              : 0.0;
      // Pass 2: edges at or above the mean, in their final order — one
      // shuffle shard keyed by (weight desc, pair asc). Keys are unique per
      // edge (only_greater emits each pair once).
      extmem::RunShardShuffle<EdgeCodec>(
          pool, n, kPruneChunkEntities, /*num_shards=*/1, memory,
          [&](size_t /*c*/, size_t begin, size_t end, const auto& route) {
            NeighborScratch& scratch = TlsNeighborScratch(n);
            for (EntityId e = static_cast<EntityId>(begin);
                 e < static_cast<EntityId>(end); ++e) {
              view.ForNeighbors(
                  scratch, e, true,
                  [&](EntityId nb, uint32_t common, double arcs) {
                    const double w = view.EdgeWeight(e, nb, common, arcs);
                    if (w >= mean) route(0, EdgeRank{w, PairKey(e, nb)});
                  });
            }
          },
          [&](uint32_t /*s*/, auto& cursor) {
            for (EdgeRank edge{}; cursor.Next(edge);) {
              retained.push_back({PairKeyFirst(edge.key),
                                  PairKeySecond(edge.key), edge.weight});
            }
          });
      break;
    }
    case PruningScheme::kCep: {
      // K = half the total block assignments (BC/2, Papadakis). Each chunk
      // keeps its own top-K; the union of those survivors, in one shuffle
      // shard ordered by (weight desc, pair asc), starts with the exact
      // global top-K — every global top-K edge is in its chunk's top-K
      // under the same total order.
      const uint64_t k =
          std::max<uint64_t>(1, view.total_block_assignments() / 2);
      std::vector<ChunkPartial> partials(num_chunks);
      extmem::RunShardShuffle<EdgeCodec>(
          pool, n, kPruneChunkEntities, /*num_shards=*/1, memory,
          [&](size_t c, size_t begin, size_t end, const auto& route) {
            NeighborScratch& scratch = TlsNeighborScratch(n);
            ChunkPartial partial;
            TopK<EdgeRank> top(k);
            for (EntityId e = static_cast<EntityId>(begin);
                 e < static_cast<EntityId>(end); ++e) {
              view.ForNeighbors(
                  scratch, e, true,
                  [&](EntityId nb, uint32_t common, double arcs) {
                    const double w = view.EdgeWeight(e, nb, common, arcs);
                    partial.weight_sum += w;
                    ++partial.edges;
                    top.Push(EdgeRank{w, PairKey(e, nb)});
                  });
            }
            partials[c] = partial;
            for (const EdgeRank& edge : top.TakeSortedDescending()) {
              route(0, edge);
            }
          },
          [&](uint32_t /*s*/, auto& cursor) {
            for (EdgeRank edge{}; retained.size() < k && cursor.Next(edge);) {
              retained.push_back({PairKeyFirst(edge.key),
                                  PairKeySecond(edge.key), edge.weight});
            }
          });
      for (const ChunkPartial& p : partials) {
        weight_sum += p.weight_sum;
        graph_edges += p.edges;
      }
      break;
    }
    case PruningScheme::kWnp:
    case PruningScheme::kCnp: {
      // Node-centric: each node nominates edges; an edge survives when
      // nominated by either endpoint (standard) or both (reciprocal).
      // Phase A routes nominations into PairKey-hashed shuffle shards;
      // phase B aggregates each shard.
      const uint64_t placed = std::max<uint64_t>(
          1, static_cast<uint64_t>(view.num_nodes()));
      const uint64_t cnp_k = std::max<uint64_t>(
          1, static_cast<uint64_t>(
                 std::llround(static_cast<double>(
                                  view.total_block_assignments()) /
                              static_cast<double>(placed))));
      const bool is_wnp = options.pruning == PruningScheme::kWnp;
      const size_t needed = options.reciprocal ? 2 : 1;
      std::vector<ChunkPartial> partials(num_chunks);
      std::vector<std::vector<WeightedComparison>> shard_kept(
          kPruneVoteShards);
      std::vector<std::pair<uint64_t, uint64_t>> shard_counts(
          kPruneVoteShards);

      // Phase A: the per-entity nomination scan; each vote is routed to
      // its PairKey-hashed shard.
      const auto scan_chunk = [&](size_t c, size_t begin, size_t end,
                                  const auto& route) {
        const auto nominate = [&](EntityId e, uint64_t key, double w) {
          route(static_cast<uint32_t>(Mix64(key) & (kPruneVoteShards - 1)),
                Nomination{key, e, w});
        };
        NeighborScratch& scratch = TlsNeighborScratch(n);
        ChunkPartial partial;
        std::vector<std::pair<EntityId, double>> local;
        for (EntityId e = static_cast<EntityId>(begin);
             e < static_cast<EntityId>(end); ++e) {
          local.clear();
          double local_sum = 0.0;
          view.ForNeighbors(scratch, e, /*only_greater=*/false,
                            [&](EntityId nb, uint32_t common, double arcs) {
                              const double w =
                                  view.EdgeWeight(e, nb, common, arcs);
                              local.emplace_back(nb, w);
                              local_sum += w;
                            });
          if (local.empty()) continue;
          partial.edges += local.size();  // counted twice; halved below
          partial.weight_sum += local_sum;
          if (is_wnp) {
            const double mean = local_sum / static_cast<double>(local.size());
            for (const auto& [nb, w] : local) {
              if (w >= mean) nominate(e, PairKey(e, nb), w);
            }
          } else {
            TopK<EdgeRank> top(cnp_k);
            for (const auto& [nb, w] : local) {
              top.Push(EdgeRank{w, PairKey(e, nb)});
            }
            for (const EdgeRank& edge : top.TakeSortedDescending()) {
              nominate(e, edge.key, edge.weight);
            }
          }
        }
        partials[c] = partial;
      };
      // One pair's complete vote set is a (key, nominator)-sorted run whose
      // last entry is the larger endpoint — the endpoint whose weight the
      // sequential vote table kept. `flush_group` applies the retention
      // rule to one such run.
      const auto flush_group = [&](size_t s, uint64_t key, size_t group_votes,
                                   double last_weight, uint64_t& pairs) {
        ++pairs;
        if (group_votes >= needed) {
          shard_kept[s].push_back(
              {PairKeyFirst(key), PairKeySecond(key), last_weight});
        }
      };

      // Phase B: each shard reads its votes in (key, nominator) order.
      extmem::RunShardShuffle<NominationCodec>(
          pool, n, kPruneChunkEntities, kPruneVoteShards, memory, scan_chunk,
          [&](uint32_t s, auto& cursor) {
            uint64_t votes = 0, pairs = 0;
            uint64_t group_key = 0;
            size_t group_votes = 0;
            double last_weight = 0.0;
            for (Nomination nom{}; cursor.Next(nom);) {
              ++votes;
              if (group_votes > 0 && nom.key != group_key) {
                flush_group(s, group_key, group_votes, last_weight, pairs);
                group_votes = 0;
              }
              group_key = nom.key;
              ++group_votes;
              last_weight = nom.weight;
            }
            if (group_votes > 0) {
              flush_group(s, group_key, group_votes, last_weight, pairs);
            }
            shard_counts[s] = {votes, pairs};
          });
      for (const ChunkPartial& p : partials) {
        weight_sum += p.weight_sum;
        graph_edges += p.edges;
      }
      graph_edges /= 2;
      weight_sum /= 2.0;
      static obs::Histogram& shard_votes =
          obs::MetricsRegistry::Default().histogram("prune.shard_votes");
      for (const auto& [votes, pairs] : shard_counts) {
        nominations += votes;
        distinct_pairs += pairs;
        shard_votes.Record(votes);
      }
      retained = FlattenInOrder(shard_kept);
      SortByWeightDescending(retained);
      break;
    }
  }

  // Telemetry once per prune run — all sequential, outside the workers.
  {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    static obs::Counter& chunks = registry.counter("prune.chunks");
    static obs::Counter& edges = registry.counter("prune.graph_edges");
    static obs::Counter& noms = registry.counter("prune.nominations");
    static obs::Counter& kept_edges = registry.counter("prune.retained");
    chunks.Add(num_chunks);
    edges.Add(graph_edges);
    noms.Add(nominations);
    kept_edges.Add(retained.size());
  }
  if (stats) {
    stats->graph_edges = graph_edges;
    stats->retained_edges = retained.size();
    stats->mean_weight =
        graph_edges > 0 ? weight_sum / static_cast<double>(graph_edges) : 0.0;
    stats->nominations = nominations;
    stats->distinct_pairs = distinct_pairs;
  }
  return retained;
}

}  // namespace minoan
