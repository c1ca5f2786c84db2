// Vertex-extension mining over the degree-ordered oriented CSR: the
// k-clique census tc::query() serves (kKClique). It follows Pangolin's
// VertexMinerDFS policy split — one depth-first extension over the oriented
// DAG (each vertex keeps only its lower-ID neighbours, so every k-clique is
// a strictly-decreasing ID chain enumerated exactly once), with a policy
// consuming the final candidate set of each chain. Triangle-shaped
// analytics take the positional Forward walk (mining/triangle_walk.hpp)
// instead. The census shares the ArtifactKind::kOriented artifact with the
// Forward family, so a k-clique query after a TC query is a cache hit.
//
// Cancellation/deadline: the root loop runs on parallel::parallel_for
// (chunk-level polls) and also polls between roots, since a deep subtree is
// expensive. Thread-safety: the traversal only reads the CSR; policies hold
// per-thread state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "kernels/dispatch.hpp"
#include "parallel/exec_context.hpp"
#include "parallel/padded.hpp"
#include "parallel/parallel_for.hpp"

namespace lotus::mining {

/// Chunk of root vertices a worker grabs per scheduling round; small because
/// per-root subtree cost is wildly skewed (hubs own most embeddings).
inline constexpr std::uint64_t kRootGrain = 32;

namespace detail {

/// Recursive extension of a chain whose common out-neighbourhood is `cands`:
/// at `remaining == 1` the policy consumes the candidates as leaves; above
/// that, each candidate w extends the chain with cands ∩ N(w). N(w) holds
/// IDs below w, so only the candidates before w can match; the merge kernel
/// writes their positions into `next`, which a gather turns into the
/// candidates themselves in place.
template <typename Policy>
void extend(const graph::OrientedCsr& dag, const kernels::KernelTable& table,
            std::span<const graph::VertexId> cands, unsigned remaining,
            std::vector<std::vector<graph::VertexId>>& scratch, unsigned depth,
            Policy& policy) {
  if (remaining == 1) {
    policy.leaf(cands);
    return;
  }
  std::vector<graph::VertexId>& next = scratch[depth];
  if (next.size() < cands.size() + kernels::kMergeSlack)
    next.resize(cands.size() + kernels::kMergeSlack);
  for (std::size_t i = remaining - 1; i < cands.size(); ++i) {
    const auto nw = dag.neighbors(cands[i]);
    const std::uint64_t hits = table.merge_u32(cands.data(), i, nw.data(),
                                               nw.size(), next.data(), nullptr);
    if (hits + 1 < remaining) continue;  // cannot finish from here
    for (std::uint64_t k = 0; k < hits; ++k) next[k] = cands[next[k]];
    extend(dag, table, std::span<const graph::VertexId>(next.data(), hits),
           remaining - 1, scratch, depth + 1, policy);
  }
}

}  // namespace detail

/// Run `make_policy(thread_index)`'s policy over every size-k embedding of
/// the oriented DAG (k >= 2), in parallel over root vertices; the factory
/// runs once per worker, so policies hold per-thread accumulators.
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
        const kernels::KernelTable& table = kernels::kernel_table();
        std::vector<std::vector<graph::VertexId>> scratch(k);
        const parallel::ExecContext* ctx = parallel::current_exec_context();
        for (std::uint64_t vi = b; vi < e; ++vi) {
          // Roots are cheap to skip but subtrees are not: poll between roots
          // so a deep chunk still honours cancellation promptly.
          if (parallel::check_interrupt(ctx) != parallel::Interrupt::kNone)
            return;
          const auto nv = dag.neighbors(static_cast<graph::VertexId>(vi));
          if (nv.size() + 1 < k) continue;
          detail::extend(dag, table, nv, k - 1, scratch, 0, policy);
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

  void leaf(std::span<const graph::VertexId> cands) {
    cliques += cands.size();
    hub_cliques += static_cast<std::uint64_t>(
        std::lower_bound(cands.begin(), cands.end(), hub_count) -
        cands.begin());
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

}  // namespace lotus::mining
