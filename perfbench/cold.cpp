// The cold workloads: one client in a closed loop issues back-to-back
// one-shot queries on all CPUs. An op maps the LOTUSGR1 input file
// (oocore::read_csr_mapped_s, eager checksum verify), runs
// tc::query(kLotus) on it and checks the answer against the reference.
//
// The inputs are sized past the last-level cache, the regime the paper's
// locality argument is about: cold-social is the hub-heavy RMAT stand-in of
// Twtr-S (the H2H hub phase is a large share of an op), cold-web is the
// copy-model stand-in of SK-S (crawl locality moves the work into HNN and
// NNN). See README.md for the measured splits.
//
// The traced run repeats the op as explicit calls into each layer — load,
// Alg. 2 build, then the three Alg. 3 phases — with a span around each, and
// adds the points behind parallel.efficiency and the Forward baseline.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "graph/io.hpp"
#include "graph/oocore.hpp"
#include "harness.hpp"
#include "lotus/count.hpp"
#include "lotus/lotus_graph.hpp"
#include "parallel/thread_pool.hpp"
#include "tc/api.hpp"

namespace perfbench {

namespace g = lotus::graph;
namespace core = lotus::core;
namespace tc = lotus::tc;

namespace {

struct ColdWorkload {
  g::CsrGraph (*make)(std::uint64_t seed, double factor);
  double factor;
  unsigned setup_repeats;
};

ColdWorkload cold_workload(const std::string& name) {
  // Factor 16 puts both input CSRs at about twice the 105 MiB L3 of the
  // reference host; set-up (generation) dominates a run, so it is repeated
  // only three times for the setup_s median.
  if (name == "cold-social") return {make_twitter, 16.0, 3};
  if (name == "cold-web") return {make_sk, 16.0, 3};
  throw std::invalid_argument("unknown cold workload: " + name);
}

constexpr unsigned kProbes = 4;  // host-speed probes after each set-up and op slice

struct OpTime {
  double seconds = 0.0;
  bool ok = false;
};

// One untraced op: map + verify the input, tc::query(algorithm), check.
OpTime timed_op(const std::string& path, std::uint64_t expected,
                tc::Algorithm algorithm) {
  const Clock::time_point t0 = Clock::now();
  bool ok = false;
  {
    lotus::util::Expected<g::CsrGraph> graph =
        g::oocore::read_csr_mapped_s(path, g::oocore::MapVerify::kEager);
    if (graph.ok()) {
      lotus::util::Expected<tc::QueryResult> result =
          tc::query(algorithm, graph.value());
      ok = result.ok() && result.value().ok() &&
           result.value().result.triangles == expected;
    }
  }
  return {seconds_since(t0), ok};
}

struct LayerTimes {
  double op_s = 0.0;
  double load_s = 0.0;
  double build_s = 0.0;
  double hub_s = 0.0;
  double hnn_s = 0.0;
  double nnn_s = 0.0;
  double hub_idle_frac = 0.0;
  bool ok = false;
};

// Exact work of the three phases, from the HE/NHE list lengths: hub pairs
// probed in H2H, and elements the HNN and NNN merges walk.
struct PhaseWork {
  std::uint64_t hub_pairs = 0;
  std::uint64_t hnn_elems = 0;
  std::uint64_t nnn_elems = 0;
  std::uint64_t topology_bytes = 0;
  core::HubPhaseCounts hub;
  std::uint64_t hnn = 0;
  std::uint64_t nnn = 0;
};

PhaseWork phase_work(const core::LotusGraph& lg) {
  PhaseWork work;
  const g::Csr16& he = lg.he();
  const g::CsrGraph& nhe = lg.nhe();
  for (g::VertexId v = 0; v < lg.num_vertices(); ++v) {
    const std::uint64_t hv = he.degree(v);
    const std::uint64_t nv = nhe.degree(v);
    work.hub_pairs += hv > 1 ? hv * (hv - 1) / 2 : 0;
    for (g::VertexId u : nhe.neighbors(v)) {
      work.hnn_elems += hv + he.degree(u);
      work.nnn_elems += nv + nhe.degree(u);
    }
  }
  work.topology_bytes = lg.topology_bytes();
  return work;
}

// One traced op: the same work as timed_op(kLotus), issued as one call per
// layer with a span around each. `work` (when non-null) receives the exact
// phase work; computing it is excluded from the op's time.
LayerTimes traced_op(const std::string& path, std::uint64_t expected,
                     std::uint64_t op_id, SpanLog& spans, PhaseWork* work) {
  LayerTimes t;
  const core::LotusConfig config;
  const Clock::time_point t0 = Clock::now();
  const int root = spans.add(op_id, "op", -1, t0, t0);  // end set below
  double excluded_s = 0.0;
  {
    std::optional<g::CsrGraph> graph;
    std::optional<core::LotusGraph> lg;
    Clock::time_point a = Clock::now();
    {
      lotus::util::Expected<g::CsrGraph> mapped =
          g::oocore::read_csr_mapped_s(path, g::oocore::MapVerify::kEager);
      if (!mapped.ok()) return t;
      graph.emplace(mapped.take());
    }
    Clock::time_point b = Clock::now();
    spans.add(op_id, "graph/oocore.read_csr_mapped_s", root, a, b);
    t.load_s = seconds_between(a, b);

    a = Clock::now();
    lg.emplace(core::LotusGraph::build(*graph, config));
    b = Clock::now();
    spans.add(op_id, "lotus.LotusGraph::build", root, a, b);
    t.build_s = seconds_between(a, b);

    std::vector<double> busy;
    a = Clock::now();
    const core::HubPhaseCounts hub =
        core::count_hhh_hhn(*lg, config, core::TilingPolicy::kSquared, &busy);
    b = Clock::now();
    spans.add(op_id, "lotus.count_hhh_hhn", root, a, b);
    t.hub_s = seconds_between(a, b);
    double busy_s = 0.0;
    for (double s : busy) busy_s += s;
    if (!busy.empty() && t.hub_s > 0.0)
      t.hub_idle_frac =
          1.0 - busy_s / (static_cast<double>(busy.size()) * t.hub_s);

    a = Clock::now();
    const std::uint64_t hnn = core::count_hnn(*lg, lotus::baselines::null_probe,
                                              config.vectorize);
    b = Clock::now();
    spans.add(op_id, "lotus.count_hnn", root, a, b);
    t.hnn_s = seconds_between(a, b);

    a = Clock::now();
    const std::uint64_t nnn =
        core::count_nnn(*lg, lotus::baselines::null_probe, config.vectorize,
                        config.hybrid_degree_threshold);
    b = Clock::now();
    spans.add(op_id, "lotus.count_nnn", root, a, b);
    t.nnn_s = seconds_between(a, b);

    t.ok = hub.hhh + hub.hhn + hnn + nnn == expected;
    if (work != nullptr) {
      a = Clock::now();
      *work = phase_work(*lg);
      work->hub = hub;
      work->hnn = hnn;
      work->nnn = nnn;
      excluded_s = seconds_since(a);
    }
  }  // the LotusGraph and the mapping are released inside the op, as in tc::query
  const Clock::time_point end = Clock::now();
  t.op_s = seconds_between(t0, end) - excluded_s;
  spans.set_end(root, end);
  return t;
}

std::string input_path(const Options& options) {
  return options.work_dir + "/" + options.workload + "-" +
         std::to_string(::getpid()) + ".lotusgr";
}

// Generate + build the input CSR and write it as a LOTUSGR1 file; the graph
// is handed back for the reference count and the stamp (not timed).
g::CsrGraph set_up_once(const ColdWorkload& w, const Options& options,
                        const std::string& path, double& seconds) {
  const Clock::time_point t0 = Clock::now();
  g::CsrGraph graph =
      w.make(options.seed, options.factor > 0 ? options.factor : w.factor);
  const lotus::util::Status written = g::write_csr_binary_s(path, graph);
  seconds = seconds_since(t0);
  if (!written.ok())
    throw std::runtime_error("writing the input failed: " + written.message());
  return graph;
}

}  // namespace

void trace_lotus_layers(const std::string& path, std::uint64_t expected,
                        std::uint64_t file_bytes, double seconds,
                        bool closure_metrics, Outcome& out, SpanLog& spans) {
  const unsigned nproc = lotus::parallel::num_threads();
  auto count = [&out](bool ok) {
    ++out.attempted;
    if (!ok) ++out.failed;
  };

  // Traced and untraced ops alternate, so both medians see the same host.
  std::vector<LayerTimes> traced;
  std::vector<double> untraced;
  PhaseWork work;
  const Clock::time_point start = Clock::now();
  do {
    traced.push_back(traced_op(path, expected, traced.size(), spans,
                               traced.empty() ? &work : nullptr));
    count(traced.back().ok);
    const OpTime op = timed_op(path, expected, tc::Algorithm::kLotus);
    count(op.ok);
    untraced.push_back(op.seconds);
  } while (seconds_since(start) < seconds);

  lotus::parallel::set_num_threads(1);
  const OpTime single = timed_op(path, expected, tc::Algorithm::kLotus);
  lotus::parallel::set_num_threads(nproc);
  count(single.ok);
  const OpTime forward = timed_op(path, expected, tc::Algorithm::kForwardMerge);
  count(forward.ok);

  auto med = [&traced](double LayerTimes::*field) {
    std::vector<double> v;
    for (const LayerTimes& t : traced) v.push_back(t.*field);
    return median(v);
  };
  std::vector<double> unattributed;
  for (const LayerTimes& t : traced)
    unattributed.push_back(
        (t.op_s - t.load_s - t.build_s - t.hub_s - t.hnn_s - t.nnn_s) / t.op_s);

  const double op_s = med(&LayerTimes::op_s);
  const double untraced_s = median(untraced);
  const double load_s = med(&LayerTimes::load_s);
  const double hub_s = med(&LayerTimes::hub_s);
  const double hnn_s = med(&LayerTimes::hnn_s);
  const double nnn_s = med(&LayerTimes::nnn_s);
  const double build_s = med(&LayerTimes::build_s);
  auto rate = [](std::uint64_t n, double s) {
    return s > 0.0 ? static_cast<double>(n) / s : 0.0;
  };

  std::vector<Metric>& m = out.metrics;
  add(m, "io.load_s", load_s, "s");
  add(m, "io.load_gb_per_s", load_s > 0 ? static_cast<double>(file_bytes) / load_s / 1e9 : 0.0,
      "GB/s");
  add(m, "lotus.build_s", build_s, "s");
  add(m, "lotus.topology_bytes", static_cast<double>(work.topology_bytes), "B");
  add(m, "lotus.hub_s", hub_s, "s");
  add(m, "lotus.hnn_s", hnn_s, "s");
  add(m, "lotus.nnn_s", nnn_s, "s");
  add(m, "lotus.build_frac", build_s / op_s, "frac");
  add(m, "lotus.hub_frac", hub_s / op_s, "frac");
  add(m, "lotus.hnn_frac", hnn_s / op_s, "frac");
  add(m, "lotus.nnn_frac", nnn_s / op_s, "frac");
  add(m, "lotus.hub_pairs", static_cast<double>(work.hub_pairs), "count");
  add(m, "lotus.hnn_elems", static_cast<double>(work.hnn_elems), "count");
  add(m, "lotus.nnn_elems", static_cast<double>(work.nnn_elems), "count");
  add(m, "lotus.hub_pairs_per_s", rate(work.hub_pairs, hub_s), "1/s");
  add(m, "lotus.hnn_elems_per_s", rate(work.hnn_elems, hnn_s), "1/s");
  add(m, "lotus.nnn_elems_per_s", rate(work.nnn_elems, nnn_s), "1/s");
  add(m, "lotus.hhh", static_cast<double>(work.hub.hhh), "count");
  add(m, "lotus.hhn", static_cast<double>(work.hub.hhn), "count");
  add(m, "lotus.hnn", static_cast<double>(work.hnn), "count");
  add(m, "lotus.nnn", static_cast<double>(work.nnn), "count");
  add(m, "parallel.hub_idle_frac", med(&LayerTimes::hub_idle_frac), "frac");
  add(m, "parallel.efficiency",
      single.seconds / (static_cast<double>(nproc) * untraced_s), "frac");
  add(m, "baselines.forward_s", forward.seconds, "s");
  add(m, "lotus.speedup_vs_forward", forward.seconds / untraced_s, "x");
  if (closure_metrics) {
    add(m, "trace.unattributed_frac", median(unattributed), "frac");
    add(m, "trace.overhead_frac", op_s / untraced_s - 1.0, "frac");
  }
  add(out.details, "trace.op_s", op_s, "s");
  add(out.details, "trace.untraced_op_s", untraced_s, "s");
  add(out.details, "parallel.op_s_1_thread", single.seconds, "s");
  add(out.details, "trace.ops", static_cast<double>(traced.size()), "count");
}

Outcome run_cold(const Options& options) {
  const ColdWorkload w = cold_workload(options.workload);
  Outcome out;
  stamp_host(out.stamp);
  out.stamp.factor = options.factor > 0 ? options.factor : w.factor;
  lotus::parallel::set_num_threads(out.stamp.nproc);
  const std::string path = input_path(options);

  // Set-up, repeated for the setup_s median. The timed ops are split into
  // one slice after each set-up so that they sample the whole run, and
  // host-speed probes (HostClock) follow every set-up and slice.
  const unsigned repeats = options.trace ? 1 : w.setup_repeats;
  HostClock clock;
  std::vector<double> setup_s, ops;
  std::uint64_t edges = 0, file_bytes = 0, triangles = 0;
  double ops_total_s = 0.0, rss = 0.0;
  for (unsigned r = 0; r < repeats; ++r) {
    double s = 0.0;
    std::optional<g::CsrGraph> graph(set_up_once(w, options, path, s));
    setup_s.push_back(s);
    clock.probe(kProbes);
    std::cerr << "[perfbench] set-up " << r + 1 << "/" << repeats << ": " << s << " s\n";
    if (r == 0) {
      const Clock::time_point ref_start = Clock::now();
      stamp_input(out.stamp, *graph);
      edges = graph->num_edges() / 2;
      file_bytes = graph->topology_bytes();
      triangles = reference_triangles(*graph, out.stamp.nproc) +
                  (options.corrupt_reference ? 1 : 0);
      std::cerr << "[perfbench] reference: " << seconds_since(ref_start) << " s\n";
    }
    graph.reset();
    if (options.trace) break;

    const double slice_end_s = options.seconds * (r + 1) / repeats;
    release_free_memory();
    reset_peak_rss();
    do {
      const OpTime op = timed_op(path, triangles, tc::Algorithm::kLotus);
      ++out.attempted;
      if (!op.ok) ++out.failed;
      ops.push_back(op.seconds);
      ops_total_s += op.seconds;
      std::cerr << "[perfbench] op " << ops.size() << ": " << op.seconds << " s\n";
    } while (ops_total_s < slice_end_s);
    rss = std::max(rss, peak_rss_mb());
    clock.probe(kProbes);
  }

  if (options.trace) {
    SpanLog spans;
    trace_lotus_layers(path, triangles, file_bytes, options.seconds, true, out,
                       spans);
    // The Engine and the analytics kinds are not exercised by a cold op.
    for (const auto& [name, unit] : kEngineLayerMetrics)
      add(out.metrics, name, 0.0, unit);
    out.spans_json = spans.to_json();
  } else {
    const double op_s = clock.normalized(median(ops));
    std::vector<Metric>& m = out.metrics;
    add(m, "setup_s", clock.normalized(median(setup_s)), "s");
    add(m, "edges_per_s", static_cast<double>(edges) / op_s, "1/s");
    add(m, "triangles_per_s", static_cast<double>(triangles) / op_s, "1/s");
    add(m, "qps", static_cast<double>(ops.size()) / clock.normalized(ops_total_s), "1/s");
    add(m, "lat_p50_ms", op_s * 1e3, "ms");
    add(m, "lat_p99_ms", clock.normalized(percentile(ops, 0.99)) * 1e3, "ms");
    add(m, "peak_rss_mb", rss, "MB");
    add(out.details, "lat_samples", static_cast<double>(ops.size()), "count");
    add(out.details, "raw.setup_s", median(setup_s), "s");
    add(out.details, "raw.lat_p50_ms", median(ops) * 1e3, "ms");
    add_host_details(out, clock);
  }
  std::remove(path.c_str());
  return out;
}

}  // namespace perfbench
