#include "bench/ablations/reorder.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "graph/degree_order.hpp"
#include "util/prng.hpp"

namespace lotus::ablation {

using graph::CsrGraph;
using graph::VertexId;

namespace {

std::vector<VertexId> random_permutation(VertexId n, std::uint64_t seed) {
  std::vector<VertexId> new_id(n);
  std::iota(new_id.begin(), new_id.end(), 0);
  util::Xoshiro256 rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(new_id[i - 1], new_id[rng.next_below(i)]);
  return new_id;
}

/// Visit order -> permutation; unreached vertices (other components) are
/// appended in original order.
std::vector<VertexId> from_visit_order(VertexId n,
                                       const std::vector<VertexId>& visited) {
  std::vector<VertexId> new_id(n, n);  // n = "unassigned"
  VertexId next = 0;
  for (VertexId v : visited) new_id[v] = next++;
  for (VertexId v = 0; v < n; ++v)
    if (new_id[v] == n) new_id[v] = next++;
  return new_id;
}

VertexId max_degree_vertex(const CsrGraph& graph) {
  VertexId best = 0;
  for (VertexId v = 1; v < graph.num_vertices(); ++v)
    if (graph.degree(v) > graph.degree(best)) best = v;
  return best;
}

std::vector<VertexId> bfs_order(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  std::vector<bool> seen(n, false);
  std::vector<VertexId> queue;
  queue.reserve(n);
  // Restart from every component, highest-degree roots first.
  std::vector<VertexId> roots(n);
  std::iota(roots.begin(), roots.end(), 0);
  std::stable_sort(roots.begin(), roots.end(), [&](VertexId a, VertexId b) {
    return graph.degree(a) > graph.degree(b);
  });
  for (VertexId root : roots) {
    if (seen[root]) continue;
    seen[root] = true;
    std::size_t head = queue.size();
    queue.push_back(root);
    while (head < queue.size()) {
      const VertexId v = queue[head++];
      for (VertexId u : graph.neighbors(v)) {
        if (!seen[u]) {
          seen[u] = true;
          queue.push_back(u);
        }
      }
    }
  }
  return from_visit_order(n, queue);
}

std::vector<VertexId> dfs_order(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  std::vector<bool> seen(n, false);
  std::vector<VertexId> visited;
  visited.reserve(n);
  std::vector<VertexId> stack;
  const VertexId start = n > 0 ? max_degree_vertex(graph) : 0;
  for (VertexId offset = 0; offset < n; ++offset) {
    const VertexId root = (start + offset) % n;
    if (seen[root]) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      if (seen[v]) continue;
      seen[v] = true;
      visited.push_back(v);
      auto ns = graph.neighbors(v);
      for (auto it = ns.rbegin(); it != ns.rend(); ++it)
        if (!seen[*it]) stack.push_back(*it);
    }
  }
  return from_visit_order(n, visited);
}

/// fn(gap) for every adjacency entry: the first neighbour's ID, then
/// (u − previous − 1) between consecutive neighbours.
template <typename Fn>
void for_each_gap(const CsrGraph& graph, Fn&& fn) {
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    VertexId previous = 0;
    bool first = true;
    for (VertexId u : graph.neighbors(v)) {
      if (!first && u <= previous)
        throw std::invalid_argument("gap metrics: neighbour lists must be strictly sorted");
      fn(first ? u : u - previous - 1);
      previous = u;
      first = false;
    }
  }
}

}  // namespace

std::vector<VertexId> make_ordering(const CsrGraph& graph, Ordering ordering,
                                    std::uint64_t seed) {
  const VertexId n = graph.num_vertices();
  switch (ordering) {
    case Ordering::kOriginal: {
      std::vector<VertexId> identity(n);
      std::iota(identity.begin(), identity.end(), 0);
      return identity;
    }
    case Ordering::kRandom:
      return random_permutation(n, seed);
    case Ordering::kDegreeDesc:
      return graph::degree_descending_permutation(graph);
    case Ordering::kBfs:
      return bfs_order(graph);
    case Ordering::kDfs:
      return dfs_order(graph);
  }
  return {};
}

const char* ordering_name(Ordering ordering) {
  switch (ordering) {
    case Ordering::kOriginal: return "original";
    case Ordering::kRandom: return "random";
    case Ordering::kDegreeDesc: return "degree";
    case Ordering::kBfs: return "bfs";
    case Ordering::kDfs: return "dfs";
  }
  return "?";
}

std::vector<Ordering> all_orderings() {
  return {Ordering::kOriginal, Ordering::kRandom, Ordering::kDegreeDesc,
          Ordering::kBfs, Ordering::kDfs};
}

double average_neighbor_gap(const CsrGraph& graph) {
  if (graph.num_edges() == 0) return 0.0;
  double total = 0.0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v)
    for (VertexId u : graph.neighbors(v))
      total += std::abs(static_cast<double>(v) - static_cast<double>(u));
  return total / static_cast<double>(graph.num_edges());
}

double log_gap_cost_bits(const CsrGraph& graph) {
  if (graph.num_edges() == 0) return 0.0;
  double total = 0.0;
  for_each_gap(graph, [&total](VertexId gap) {
    total += std::log2(1.0 + static_cast<double>(gap));
  });
  return total / static_cast<double>(graph.num_edges());
}

std::uint64_t gap_varint_bytes(const CsrGraph& graph) {
  std::uint64_t bytes = (std::uint64_t{graph.num_vertices()} + 1) * sizeof(std::uint64_t);
  for_each_gap(graph, [&bytes](VertexId gap) {
    do {
      ++bytes;
      gap >>= 7;
    } while (gap != 0);
  });
  return bytes;
}

}  // namespace lotus::ablation
