// Vertex-extension mining over the degree-ordered oriented CSR — the shared
// traversal engine behind every analytic tc::query() serves (triangles,
// k-clique, per-vertex local counts, k-truss support).
//
// The design follows Pangolin's VertexMinerDFS policy split: one generic
// depth-first extension over the oriented DAG (each vertex keeps only its
// lower-ID neighbours, so an embedding is a strictly-decreasing ID chain and
// every k-clique is enumerated exactly once), with small analytic policies
// deciding what happens at the leaves. A policy sees the embedding built so
// far plus the final candidate set — the sorted common out-neighbourhood of
// every embedding member — and either counts it (k-clique census), walks it
// (per-corner crediting for local counts / truss supports), or both.
//
// Sharing one traversal is what makes the Engine's prepared-graph cache span
// analytics: every policy consumes the same ArtifactKind::kOriented artifact
// a plain Forward triangle count uses, so a k-clique query after a TC query
// is a cache hit (tc/engine.hpp).
//
// Cancellation/deadline: the root loop runs through parallel::parallel_for,
// which polls the installed ExecContext at chunk granularity — a cancelled
// query stops extending within one chunk of roots. Deep per-root subtrees
// additionally poll between root-level branches.
//
// Thread-safety: the traversal only reads the oriented CSR; policies own
// their mutable state (per-thread partials or atomic arrays).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "parallel/exec_context.hpp"
#include "parallel/padded.hpp"
#include "parallel/parallel_for.hpp"

namespace lotus::mining {

/// Chunk of root vertices a worker grabs per scheduling round; small because
/// per-root subtree cost is wildly skewed (hubs own most embeddings).
inline constexpr std::uint64_t kRootGrain = 32;

namespace detail {

/// Recursive extension step. `embedding` holds the chain so far (strictly
/// decreasing IDs), `cands` its common out-neighbourhood. At `remaining == 1`
/// every candidate completes one embedding and the policy consumes the leaf;
/// above that, each candidate is tentatively appended and the candidate set
/// intersected with its out-neighbours.
template <typename Policy>
void extend(const graph::OrientedCsr& dag, std::vector<graph::VertexId>& embedding,
            const std::vector<graph::VertexId>& cands, unsigned remaining,
            std::vector<std::vector<graph::VertexId>>& scratch, unsigned depth,
            Policy& policy) {
  if (remaining == 1) {
    policy.leaf(std::span<const graph::VertexId>(embedding),
                std::span<const graph::VertexId>(cands));
    return;
  }
  std::vector<graph::VertexId>& next = scratch[depth];
  for (const graph::VertexId w : cands) {
    if (!policy.to_extend(static_cast<unsigned>(embedding.size()), w)) continue;
    auto nw = dag.neighbors(w);
    next.clear();
    std::set_intersection(cands.begin(), cands.end(), nw.begin(), nw.end(),
                          std::back_inserter(next));
    if (next.size() + 1 < remaining) continue;  // cannot finish from here
    embedding.push_back(w);
    extend(dag, embedding, next, remaining - 1, scratch, depth + 1, policy);
    embedding.pop_back();
  }
}

}  // namespace detail

/// Run `make_policy(thread_index)`'s policy over every size-k embedding of
/// the oriented DAG, in parallel over root vertices. `k >= 2`; k = 3
/// enumerates triangles. The factory runs once per worker so policies can
/// hold per-thread accumulators without sharing.
template <typename PolicyFactory>
void mine_dfs(const graph::OrientedCsr& dag, unsigned k,
              PolicyFactory&& make_policy) {
  if (k < 2) return;
  const graph::VertexId n = dag.num_vertices();
  parallel::parallel_for(
      0, n, kRootGrain,
      [&](unsigned thread_index, std::uint64_t b, std::uint64_t e) {
        // decltype(auto): factories returning a reference (shared per-thread
        // accumulators) must not be copied into a discarded local.
        decltype(auto) policy = make_policy(thread_index);
        std::vector<std::vector<graph::VertexId>> scratch(k);
        std::vector<graph::VertexId> embedding;
        embedding.reserve(k);
        const parallel::ExecContext* ctx = parallel::current_exec_context();
        for (std::uint64_t vi = b; vi < e; ++vi) {
          // Roots are cheap to skip but subtrees are not: poll between roots
          // so a deep chunk still honours cancellation promptly.
          if (parallel::check_interrupt(ctx) != parallel::Interrupt::kNone)
            return;
          const auto v = static_cast<graph::VertexId>(vi);
          auto nv = dag.neighbors(v);
          if (nv.size() + 1 < k) continue;
          const std::vector<graph::VertexId> cands(nv.begin(), nv.end());
          embedding.assign(1, v);
          detail::extend(dag, embedding, cands, k - 1, scratch, 0, policy);
        }
      });
}

/// Policy: count embeddings, attributing those whose minimum-ID member falls
/// below `hub_count` (after degree ordering, hubs occupy the lowest IDs, and
/// the IDs along an embedding strictly decrease — so the leaf candidate is
/// the minimum and a sorted candidate set has its hub members as a prefix).
struct CliqueCensusPolicy {
  graph::VertexId hub_count = 0;
  std::uint64_t cliques = 0;
  std::uint64_t hub_cliques = 0;

  static bool to_extend(unsigned, graph::VertexId) { return true; }
  void leaf(std::span<const graph::VertexId>,
            std::span<const graph::VertexId> cands) {
    cliques += cands.size();
    hub_cliques += static_cast<std::uint64_t>(
        std::lower_bound(cands.begin(), cands.end(), hub_count) -
        cands.begin());
  }
};

/// Policy adapter for triangle-shaped analytics (k = 3): invokes
/// `fn(v, u, w)` once per triangle, with v > u > w in the oriented ID order.
template <typename Fn>
struct TriangleVisitPolicy {
  Fn fn;

  static bool to_extend(unsigned, graph::VertexId) { return true; }
  void leaf(std::span<const graph::VertexId> embedding,
            std::span<const graph::VertexId> cands) {
    for (const graph::VertexId w : cands) fn(embedding[0], embedding[1], w);
  }
};

/// Count k-cliques (k >= 3) with hub attribution over a prebuilt
/// degree-ordered oriented CSR — the kKClique analytic's census
/// (tc/analytics_exec.cpp). Hubs are the `hub_count` lowest IDs.
struct CliqueCensus {
  std::uint64_t cliques = 0;
  std::uint64_t hub_cliques = 0;
};

inline CliqueCensus count_cliques(const graph::OrientedCsr& dag, unsigned k,
                                  graph::VertexId hub_count) {
  std::vector<parallel::Padded<CliqueCensusPolicy>> partials(
      parallel::num_threads());
  for (auto& p : partials) p.value.hub_count = hub_count;
  mine_dfs(dag, k, [&](unsigned thread_index) -> CliqueCensusPolicy& {
    return partials[thread_index].value;
  });
  CliqueCensus out;
  for (const auto& p : partials) {
    out.cliques += p.value.cliques;
    out.hub_cliques += p.value.hub_cliques;
  }
  return out;
}

/// Visit every triangle of the oriented DAG: `fn(v, u, w)` per triangle,
/// callable concurrently from pool workers (use atomics or per-thread state).
template <typename Fn>
void for_each_triangle(const graph::OrientedCsr& dag, const Fn& fn) {
  mine_dfs(dag, 3, [&](unsigned) { return TriangleVisitPolicy<const Fn&>{fn}; });
}

}  // namespace lotus::mining
