#include "lotus/lotus.hpp"

#include "lotus/count.hpp"
#include "obs/trace.hpp"
#include "parallel/exec_context.hpp"
#include "util/timer.hpp"

namespace lotus::core {

LotusResult count_triangles_prepared(const LotusGraph& lg,
                                     const LotusConfig& config,
                                     obs::PhaseTracer* tracer) {
  LotusResult result;
  result.hub_count = lg.hub_count();
  result.he_edges = lg.he().num_edges();
  result.nhe_edges = lg.nhe().num_edges();
  result.topology_bytes = lg.topology_bytes();

  obs::ScopedSpan count_span(tracer, "count");

  util::Timer timer;
  {
    obs::ScopedSpan span(tracer, "hhh_hhn");
    const HubPhaseCounts hub_phase = count_hhh_hhn(lg, config);
    result.hhh = hub_phase.hhh;
    result.hhn = hub_phase.hhn;
    if (tracer != nullptr) {
      tracer->note("hhh", result.hhh);
      tracer->note("hhn", result.hhn);
    }
  }
  result.hhh_hhn_s = timer.elapsed_s();

  // Cancellation/deadline checks at phase boundaries: once interrupted the
  // remaining phases are skipped. The counts are then partial, which is
  // fine — the layer that installed the ExecContext (tc::query)
  // re-checks it after the run and discards the numbers.
  if (parallel::interrupted()) return result;

  timer.reset();
  {
    obs::ScopedSpan span(tracer, "hnn");
    result.hnn = count_hnn(lg, baselines::null_probe, config.vectorize);
    if (tracer != nullptr) tracer->note("hnn", result.hnn);
  }
  result.hnn_s = timer.elapsed_s();

  if (parallel::interrupted()) return result;

  timer.reset();
  {
    obs::ScopedSpan span(tracer, "nnn");
    result.nnn = count_nnn(lg, baselines::null_probe, config.vectorize,
                           config.hybrid_degree_threshold);
    if (tracer != nullptr) tracer->note("nnn", result.nnn);
  }
  result.nnn_s = timer.elapsed_s();

  result.triangles = result.hhh + result.hhn + result.hnn + result.nnn;
  return result;
}

LotusResult count_triangles(const graph::CsrGraph& graph,
                            const LotusConfig& config,
                            obs::PhaseTracer* tracer) {
  util::Timer timer;
  LotusGraph lg;
  {
    obs::ScopedSpan span(tracer, "preprocess");
    lg = LotusGraph::build(graph, config, tracer);
  }
  const double preprocess_s = timer.elapsed_s();
  if (parallel::interrupted()) {
    LotusResult result;
    result.preprocess_s = preprocess_s;
    return result;
  }
  LotusResult result = count_triangles_prepared(lg, config, tracer);
  result.preprocess_s = preprocess_s;
  return result;
}

}  // namespace lotus::core
