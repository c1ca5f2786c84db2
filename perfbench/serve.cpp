// serve-mix: a closed loop against one tc::Engine (2 drivers × 2 threads).
// The generator keeps num_drivers + 2 requests outstanding — one waiting
// slot per outstanding request, each submitting its next request as soon as
// its previous one resolves — so the Engine queue is always in use.
//
// The working set is three small graphs (the Twtr-S, SK-S and LJGrp-S
// stand-ins at factor 0.1), so the Engine, its artifact cache and the
// analytics layers carry the load instead of LOTUS preprocessing. Requests
// come in shuffled blocks of fixed composition: mostly triangle counts on the
// lotus and gap-forward substrates, then local counts and clustering; the
// expensive kclique@4 and ktruss (50-70× a TC query) are one in fifty each
// and run on the smallest graph. Once per block, invalidate() of one graph
// stands in for an update, so artifact rebuilds run beside cache hits.
//
// Every result is checked: triangle-shaped answers against the reference
// count, local counts by Σ/3 = T, clustering by its count and wedge total,
// kclique@4 and ktruss against a cold reference query.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "graph/io.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"
#include "tc/api.hpp"
#include "tc/engine.hpp"

namespace perfbench {

namespace g = lotus::graph;
namespace tc = lotus::tc;

namespace {

constexpr unsigned kDrivers = 2;
constexpr unsigned kThreadsPerQuery = 2;
constexpr unsigned kOutstanding = kDrivers + 2;
constexpr double kFactor = 0.08;
constexpr unsigned kSetupRepeats = 5;
constexpr unsigned kProbes = 10;  // host-speed probes on each side of the stream
constexpr std::uint64_t kBlock = 50;  // requests per shuffled block

enum Kind : unsigned { kTcLotus, kTcForward, kLocalCounts, kClustering, kKClique4, kKTruss, kKinds };
constexpr const char* kKindNames[kKinds] = {"tc-lotus",   "tc-forward", "local-counts",
                                            "clustering", "kclique4",   "ktruss"};
// Requests of each kind in one block of kBlock.
constexpr unsigned kPerBlock[kKinds] = {20, 20, 4, 4, 1, 1};
constexpr unsigned kSmallest = 2;  // index of the LJGrp-S stand-in below

struct ServeGraph {
  const char* key;
  g::CsrGraph graph;
};

struct Reference {
  std::uint64_t triangles = 0;
  std::uint64_t wedges = 0;
  std::uint64_t k4 = 0;  // kclique@4 census of the smallest graph
  std::uint64_t k4_hub = 0;
  tc::TrussSummary truss;  // of the smallest graph
};

struct Request {
  Kind kind;
  unsigned graph;
};

// Fixed-composition blocks, each shuffled by the run's seeded generator.
class Sequence {
 public:
  explicit Sequence(std::uint64_t seed) : rng_(seed) {}
  Request at(std::uint64_t index) {
    while (requests_.size() <= index) extend();
    return requests_[index];
  }

 private:
  void extend() {
    std::vector<Request> block;
    for (unsigned k = 0; k < kKinds; ++k)
      for (unsigned i = 0; i < kPerBlock[k]; ++i)
        block.push_back({static_cast<Kind>(k),
                         k == kKClique4 || k == kKTruss ? kSmallest : i % 3});
    for (std::size_t i = block.size() - 1; i > 0; --i)
      std::swap(block[i], block[rng_() % (i + 1)]);
    requests_.insert(requests_.end(), block.begin(), block.end());
  }
  std::mt19937_64 rng_;
  std::vector<Request> requests_;
};

tc::QuerySpec spec_for(Kind kind, const ServeGraph& graph) {
  tc::QuerySpec spec;
  spec.graph_key = graph.key;
  spec.graph = &graph.graph;
  spec.algorithm = tc::Algorithm::kForwardMerge;
  tc::AnalyticsRequest& analytic = spec.options.analytic;
  switch (kind) {
    case kTcLotus: spec.algorithm = tc::Algorithm::kLotus; break;
    case kTcForward: break;
    case kLocalCounts:  // lotus/local
      spec.algorithm = tc::Algorithm::kLotus;
      analytic.kind = tc::AnalyticKind::kLocalCounts;
      break;
    case kClustering:  // analytics/clustering over the oriented CSR
      analytic.kind = tc::AnalyticKind::kClustering;
      break;
    case kKClique4:
      analytic.kind = tc::AnalyticKind::kKClique;
      analytic.k = 4;
      break;
    case kKTruss:
      analytic.kind = tc::AnalyticKind::kKTruss;
      analytic.granularity = tc::OutputGranularity::kSummary;
      break;
    case kKinds: break;
  }
  return spec;
}

bool answer_ok(Kind kind, const tc::QueryResult& r, const Reference& ref) {
  if (!r.ok()) return false;
  const tc::AnalyticsResult& a = r.result.analytics;
  switch (kind) {
    case kTcLotus:
    case kTcForward: return r.result.triangles == ref.triangles;
    case kLocalCounts:
      return a.count == ref.triangles &&
             std::accumulate(a.vertex_counts.begin(), a.vertex_counts.end(),
                             std::uint64_t{0}) == 3 * ref.triangles;
    case kClustering:
      return a.count == ref.triangles && a.clustering.wedges == ref.wedges;
    case kKClique4: return a.count == ref.k4 && a.hub_count == ref.k4_hub;
    case kKTruss:
      return a.truss.max_k == ref.truss.max_k &&
             a.truss.edges_in_max_truss == ref.truss.edges_in_max_truss;
    case kKinds: break;
  }
  return false;
}

struct Sample {
  Kind kind;
  unsigned graph;
  bool ok;
  bool hit;
  double latency_s;
  double queue_s;
  double prepare_s;
  double count_s;
};

struct Served {
  std::vector<std::unique_ptr<ServeGraph>> graphs;
  std::unique_ptr<tc::Engine> engine;
};

// Generate the working set and bring up a warm Engine: one triangle query per
// graph and artifact kind, so the timed stream starts from a full cache.
Served set_up_once(std::uint64_t seed, double factor) {
  Served s;
  s.graphs.push_back(std::make_unique<ServeGraph>(ServeGraph{"social", make_twitter(seed, factor)}));
  s.graphs.push_back(std::make_unique<ServeGraph>(ServeGraph{"web", make_sk(seed, factor)}));
  s.graphs.push_back(std::make_unique<ServeGraph>(ServeGraph{"lj", make_lj(seed, factor)}));
  tc::EngineOptions options;
  options.num_drivers = kDrivers;
  options.threads_per_query = kThreadsPerQuery;
  s.engine = std::make_unique<tc::Engine>(options);
  for (const auto& graph : s.graphs)
    for (Kind kind : {kTcLotus, kTcForward})
      if (!s.engine->query(spec_for(kind, *graph)).ok())
        throw std::runtime_error("engine warm-up query was not attempted");
  return s;
}

struct Stream {
  std::vector<Sample> samples;
  double wall_s = 0.0;
  std::uint64_t next_index = 0;
};

// Run the closed loop from request `first` until `seconds` pass or `limit`
// requests (0 = no limit) have been issued. A traced stream records each
// query's span, with queue, prepare and count children taken from its
// QueryResult, as the query completes.
Stream run_stream(tc::Engine& engine, const Served& served,
                  const std::vector<Reference>& refs, Sequence& sequence,
                  std::uint64_t first, double seconds, std::uint64_t limit,
                  SpanLog& spans, bool traced) {
  std::mutex mutex;  // guards next, the sequence and submission order
  std::uint64_t next = first;
  std::mutex spans_mutex;  // guards spans
  std::vector<std::vector<Sample>> per_slot(kOutstanding);
  const Clock::time_point start = Clock::now();
  auto slot = [&](unsigned id) {
    for (;;) {
      Request request{};
      std::uint64_t index = 0;
      Clock::time_point submitted;
      std::future<lotus::util::Expected<tc::QueryResult>> future;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (seconds_since(start) >= seconds || (limit > 0 && next - first >= limit))
          return;
        index = next++;
        request = sequence.at(index);
        if (index % kBlock == kBlock / 2)
          engine.invalidate(served.graphs[(index / kBlock) % 3]->key);
        submitted = Clock::now();
        future = engine.submit(spec_for(request.kind, *served.graphs[request.graph]));
      }
      lotus::util::Expected<tc::QueryResult> result = future.get();
      const Clock::time_point done = Clock::now();
      Sample s{request.kind, request.graph, false, false,
               seconds_between(submitted, done), 0, 0, 0};
      if (result.ok()) {
        const tc::QueryResult& r = result.value();
        s.ok = answer_ok(request.kind, r, refs[request.graph]);
        s.hit = r.cache_hit;
        s.queue_s = r.queue_s;
        s.prepare_s = r.result.preprocess_s;
        s.count_s = r.result.count_s;
      }
      if (traced) {
        std::lock_guard<std::mutex> lock(spans_mutex);
        const int root = spans.add(index, kKindNames[request.kind], -1, submitted, done);
        double at = spans.since_origin(submitted);
        spans.add_s(index, "tc.Engine.queue", root, at, at + s.queue_s);
        at += s.queue_s;
        spans.add_s(index, "tc.prepare", root, at, at + s.prepare_s);
        at += s.prepare_s;
        spans.add_s(index, "tc.count", root, at, at + s.count_s);
      }
      per_slot[id].push_back(s);
    }
  };
  std::vector<std::thread> slots;
  for (unsigned id = 0; id < kOutstanding; ++id) slots.emplace_back(slot, id);
  for (std::thread& t : slots) t.join();
  Stream stream;
  stream.wall_s = seconds_since(start);
  stream.next_index = next;
  for (auto& v : per_slot)
    stream.samples.insert(stream.samples.end(), v.begin(), v.end());
  return stream;
}

std::vector<double> field(const std::vector<Sample>& samples, double Sample::*f,
                          int kind = -1) {
  std::vector<double> out;
  for (const Sample& s : samples)
    if (kind < 0 || s.kind == static_cast<Kind>(kind)) out.push_back(s.*f);
  return out;
}

}  // namespace

Outcome run_serve(const Options& options) {
  if (options.workload != "serve-mix")
    throw std::invalid_argument("unknown workload: " + options.workload);
  Outcome out;
  stamp_host(out.stamp);
  const double factor = options.factor > 0 ? options.factor : kFactor;
  out.stamp.factor = factor;
  lotus::parallel::set_num_threads(out.stamp.nproc);

  HostClock clock;
  std::vector<double> setup_s;
  Served served;
  for (unsigned r = 0; r < (options.trace ? 1 : kSetupRepeats); ++r) {
    served.engine.reset();  // the previous Engine shuts down untimed
    served.graphs.clear();
    clock.probe(1);
    const Clock::time_point t0 = Clock::now();
    served = set_up_once(options.seed, factor);
    setup_s.push_back(seconds_since(t0));
  }

  // References: an independent count per graph, cold reference queries for
  // the two DAG analytics on the smallest graph.
  const std::uint64_t skew = options.corrupt_reference ? 1 : 0;
  std::vector<Reference> refs(served.graphs.size());
  for (std::size_t i = 0; i < served.graphs.size(); ++i) {
    const g::CsrGraph& graph = served.graphs[i]->graph;
    stamp_input(out.stamp, graph);
    refs[i].triangles = reference_triangles(graph, out.stamp.nproc) + skew;
    refs[i].wedges = reference_wedges(graph);
  }
  {
    Reference& small = refs[kSmallest];
    const ServeGraph& graph = *served.graphs[kSmallest];
    const auto k4 = tc::query(tc::Algorithm::kForwardMerge, graph.graph,
                              spec_for(kKClique4, graph).options);
    const auto truss = tc::query(tc::Algorithm::kForwardMerge, graph.graph,
                                 spec_for(kKTruss, graph).options);
    if (!k4.ok() || !k4.value().ok() || !truss.ok() || !truss.value().ok())
      throw std::runtime_error("reference analytics query failed");
    small.k4 = k4.value().result.analytics.count + skew;
    small.k4_hub = k4.value().result.analytics.hub_count;
    small.truss = truss.value().result.analytics.truss;
    small.truss.edges_in_max_truss += skew;
  }

  auto count_failures = [&out](const Stream& stream) {
    for (const Sample& s : stream.samples) {
      ++out.attempted;
      if (!s.ok) ++out.failed;
    }
  };

  Sequence sequence(options.seed);
  SpanLog spans;
  if (!options.trace) {
    clock.probe(kProbes);
    release_free_memory();
    reset_peak_rss();
    const Stream stream = run_stream(*served.engine, served, refs, sequence, 0,
                                     options.seconds, options.max_queries, spans, false);
    const double rss = peak_rss_mb();
    clock.probe(kProbes);
    count_failures(stream);
    double edges = 0.0, triangles = 0.0;
    for (const Sample& s : stream.samples) {
      edges += static_cast<double>(served.graphs[s.graph]->graph.num_edges() / 2);
      if (s.kind != kKClique4 && s.kind != kKTruss)
        triangles += static_cast<double>(refs[s.graph].triangles);
    }
    const std::vector<double> latency = field(stream.samples, &Sample::latency_s);
    const double n = static_cast<double>(stream.samples.size());
    const double wall_s = clock.normalized(stream.wall_s);
    std::vector<Metric>& m = out.metrics;
    add(m, "setup_s", clock.normalized(median(setup_s)), "s");
    add(m, "edges_per_s", edges / wall_s, "1/s");
    add(m, "triangles_per_s", triangles / wall_s, "1/s");
    add(m, "qps", n / wall_s, "1/s");
    add(m, "lat_p50_ms", clock.normalized(median(latency)) * 1e3, "ms");
    add(m, "lat_p99_ms", clock.normalized(percentile(latency, 0.99)) * 1e3, "ms");
    add(m, "peak_rss_mb", rss, "MB");
    add(out.details, "lat_samples", n, "count");
    add(out.details, "lat_samples_beyond_p99", n - std::ceil(0.99 * n), "count");
    add(out.details, "raw.setup_s", median(setup_s), "s");
    add(out.details, "raw.qps", n / stream.wall_s, "1/s");
    add(out.details, "raw.lat_p50_ms", median(latency) * 1e3, "ms");
    add_host_details(out, clock);
  } else {
    // The LOTUS layers on the largest graph of the working set: what an
    // artifact rebuild after invalidate() pays.
    const std::string path = options.work_dir + "/serve-mix-" +
                             std::to_string(::getpid()) + ".lotusgr";
    const g::CsrGraph& social = served.graphs[0]->graph;
    if (!g::write_csr_binary_s(path, social).ok())
      throw std::runtime_error("writing the traced input failed");
    trace_lotus_layers(path, refs[0].triangles, social.topology_bytes(),
                       std::min(1.0, options.seconds / 10), false, out, spans);
    std::remove(path.c_str());

    // Untraced half, then the traced half of the stream; the latency medians
    // of the two give the tracing overhead.
    const double half_s = options.seconds / 2;
    const std::uint64_t half_limit = options.max_queries / 2;
    const Stream plain = run_stream(*served.engine, served, refs, sequence, 0, half_s,
                                    half_limit, spans, false);
    const tc::EngineStats before = served.engine->stats();
    const Stream traced = run_stream(*served.engine, served, refs, sequence,
                                     plain.next_index, half_s, half_limit, spans, true);
    const tc::EngineStats after = served.engine->stats();
    count_failures(plain);
    count_failures(traced);

    std::vector<double> overhead, unattributed, builds;
    for (const Sample& s : traced.samples) {
      const double rest = s.latency_s - s.queue_s - s.prepare_s - s.count_s;
      overhead.push_back(rest);
      unattributed.push_back(rest / s.latency_s);
      if (!s.hit) builds.push_back(s.prepare_s);
    }
    const std::vector<double> queue = field(traced.samples, &Sample::queue_s);
    const double lookups = static_cast<double>(after.cache_lookups - before.cache_lookups);
    std::vector<Metric>& m = out.metrics;
    add(m, "engine.queue_ms_p50", median(queue) * 1e3, "ms");
    add(m, "engine.queue_ms_p99", percentile(queue, 0.99) * 1e3, "ms");
    add(m, "engine.hit_rate",
        lookups > 0 ? static_cast<double>(after.cache_hits - before.cache_hits) / lookups : 0.0,
        "frac");
    add(m, "engine.builds",
        static_cast<double>(after.cache_misses - before.cache_misses), "count");
    add(m, "engine.build_ms_p50", median(builds) * 1e3, "ms");
    add(m, "engine.overhead_ms_p50", median(overhead) * 1e3, "ms");
    for (unsigned k = 0; k < kKinds; ++k) {
      const std::string prefix = std::string("kind.") + kKindNames[k];
      add(m, prefix + ".count_ms_p50",
          median(field(traced.samples, &Sample::count_s, static_cast<int>(k))) * 1e3, "ms");
      add(m, prefix + ".prepare_ms_p50",
          median(field(traced.samples, &Sample::prepare_s, static_cast<int>(k))) * 1e3, "ms");
    }
    const double plain_p50 = median(field(plain.samples, &Sample::latency_s));
    const double traced_p50 = median(field(traced.samples, &Sample::latency_s));
    add(out.metrics, "trace.unattributed_frac", median(unattributed), "frac");
    add(out.metrics, "trace.overhead_frac",
        plain_p50 > 0 ? traced_p50 / plain_p50 - 1.0 : 0.0, "frac");
    add(out.details, "trace.queries", static_cast<double>(traced.samples.size()), "count");
    out.spans_json = spans.to_json();
  }
  return out;
}

}  // namespace perfbench
