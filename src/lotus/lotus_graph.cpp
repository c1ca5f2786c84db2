#include "lotus/lotus_graph.hpp"

#include <algorithm>
#include <numeric>

#include "lotus/relabel.hpp"
#include "parallel/parallel_for.hpp"
#include "util/memory_budget.hpp"

namespace lotus::core {

using graph::CsrGraph;
using graph::VertexId;

LotusGraph LotusGraph::from_parts(VertexId hub_count, TriangularBitArray h2h,
                                  graph::Csr16 he, CsrGraph nhe,
                                  util::ConstArray<VertexId> new_id,
                                  bool validate) {
  if (he.num_vertices() != nhe.num_vertices() ||
      static_cast<std::size_t>(he.num_vertices()) != new_id.size())
    throw std::invalid_argument("LotusGraph parts disagree on vertex count");
  if (h2h.hub_count() != hub_count)
    throw std::invalid_argument("H2H hub count mismatch");
  const auto n = he.num_vertices();
  if (validate) {
    std::vector<bool> seen(n, false);
    for (VertexId id : new_id) {
      if (id >= n || seen[id])
        throw std::invalid_argument("relabeling array is not a permutation");
      seen[id] = true;
    }
    for (VertexId v = 0; v < n; ++v)
      for (std::uint16_t h : he.neighbors(v))
        if (h >= hub_count || static_cast<VertexId>(h) >= v)
          throw std::invalid_argument("HE entry out of range");
    for (VertexId v = 0; v < n; ++v)
      for (VertexId u : nhe.neighbors(v))
        if (u < hub_count || u >= v)
          throw std::invalid_argument("NHE entry out of range");
  }

  LotusGraph lg;
  lg.num_vertices_ = n;
  lg.hub_count_ = hub_count;
  lg.h2h_ = std::move(h2h);
  lg.he_ = std::move(he);
  lg.nhe_ = std::move(nhe);
  lg.new_id_ = std::move(new_id);
  return lg;
}

LotusGraph LotusGraph::build(const CsrGraph& graph, const LotusConfig& config,
                             obs::PhaseTracer* tracer) {
  LotusGraph lg;
  const VertexId n = graph.num_vertices();
  lg.num_vertices_ = n;
  lg.hub_count_ = config.resolve_hub_count(n);
  const VertexId hubs = lg.hub_count_;

  {
    obs::ScopedSpan span(tracer, "relabel");
    const auto reorder_count = static_cast<VertexId>(std::max<std::uint64_t>(
        hubs, static_cast<std::uint64_t>(config.relabel_fraction * n)));
    // create_relabeling_array charges its own buffers; old_of_new below
    // adds one more VertexId array.
    util::charge_current(static_cast<std::uint64_t>(n) * sizeof(VertexId),
                         "relabel_buffers");
    lg.new_id_ = create_relabeling_array(graph, reorder_count);
    if (tracer != nullptr) {
      tracer->note("hub_count", static_cast<std::uint64_t>(hubs));
      tracer->note("reorder_count", static_cast<std::uint64_t>(reorder_count));
    }
  }

  // The inverse permutation: new_id_ is a bijection, so every chunk writes
  // disjoint slots. (An interrupted relabel returns a partial array, but the
  // interrupt is latched, so this loop then runs no chunk at all.)
  std::vector<VertexId> old_of_new(n);
  parallel::parallel_for(0, n, 4096,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t v = b; v < e; ++v)
          old_of_new[lg.new_id_[v]] = static_cast<VertexId>(v);
      });

  // Pass 1: per-vertex HE/NHE degrees (Alg. 2 decides he vs nhe per edge).
  util::charge_current((static_cast<std::uint64_t>(n) + 1) * 2 * sizeof(std::uint64_t),
                       "csx_offsets");
  std::vector<std::uint64_t> he_offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::uint64_t> nhe_offsets(static_cast<std::size_t>(n) + 1, 0);
  {
    obs::ScopedSpan span(tracer, "partition");
    parallel::parallel_for(0, n, 512,
        [&](unsigned, std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t wi = b; wi < e; ++wi) {
            const auto v_new = static_cast<VertexId>(wi);
            const VertexId v_old = old_of_new[v_new];
            std::uint64_t he_deg = 0, nhe_deg = 0;
            for (VertexId u_old : graph.neighbors(v_old)) {
              if (u_old == v_old) continue;  // self-edge
              const VertexId u_new = lg.new_id_[u_old];
              if (u_new > v_new) continue;  // symmetric edge
              if (u_new < hubs)
                ++he_deg;
              else
                ++nhe_deg;
            }
            he_offsets[wi + 1] = he_deg;
            nhe_offsets[wi + 1] = nhe_deg;
          }
        });
    std::partial_sum(he_offsets.begin(), he_offsets.end(), he_offsets.begin());
    std::partial_sum(nhe_offsets.begin(), nhe_offsets.end(), nhe_offsets.begin());
  }

  // Pass 2: fill, sort, and set H2H bits.
  {
    obs::ScopedSpan span(tracer, "serialize");
    util::charge_current(TriangularBitArray::size_bytes_for(hubs), "h2h_bitarray");
    lg.h2h_ = TriangularBitArray(hubs);
    util::charge_current(he_offsets.back() * sizeof(std::uint16_t) +
                             nhe_offsets.back() * sizeof(VertexId),
                         "csx_neighbors");
    std::vector<std::uint16_t> he_neighbors(he_offsets.back());
    std::vector<VertexId> nhe_neighbors(nhe_offsets.back());
    parallel::parallel_for(0, n, 512,
        [&](unsigned, std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t wi = b; wi < e; ++wi) {
            const auto v_new = static_cast<VertexId>(wi);
            const VertexId v_old = old_of_new[v_new];
            std::uint64_t he_out = he_offsets[wi];
            std::uint64_t nhe_out = nhe_offsets[wi];
            for (VertexId u_old : graph.neighbors(v_old)) {
              if (u_old == v_old) continue;
              const VertexId u_new = lg.new_id_[u_old];
              if (u_new > v_new) continue;
              if (u_new < hubs) {
                he_neighbors[he_out++] = static_cast<std::uint16_t>(u_new);
                if (v_new < hubs) lg.h2h_.set_atomic(v_new, u_new);
              } else {
                nhe_neighbors[nhe_out++] = u_new;
              }
            }
            std::sort(he_neighbors.begin() + static_cast<std::ptrdiff_t>(he_offsets[wi]),
                      he_neighbors.begin() + static_cast<std::ptrdiff_t>(he_out));
            std::sort(nhe_neighbors.begin() + static_cast<std::ptrdiff_t>(nhe_offsets[wi]),
                      nhe_neighbors.begin() + static_cast<std::ptrdiff_t>(nhe_out));
          }
        });

    lg.he_ = graph::Csr16(std::move(he_offsets), std::move(he_neighbors));
    lg.nhe_ = CsrGraph(std::move(nhe_offsets), std::move(nhe_neighbors));
    if (tracer != nullptr) {
      tracer->note("he_edges", lg.he_.num_edges());
      tracer->note("nhe_edges", lg.nhe_.num_edges());
      tracer->note("topology_bytes", lg.topology_bytes());
    }
  }
  return lg;
}

}  // namespace lotus::core
