#include "tc/api.hpp"

#include <iostream>
#include <memory>
#include <optional>

#include "lotus/adaptive.hpp"
#include "parallel/exec_context.hpp"
#include "parallel/thread_pool.hpp"
#include "simcache/machines.hpp"
#include "simcache/sim_events.hpp"
#include "tc/instrumented.hpp"
#include "tc/prepared.hpp"
#include "util/memory_budget.hpp"

namespace lotus::tc {

namespace {

// Single source of truth for the per-algorithm facts: the CLI/schema name
// (name(), parse(), all_algorithms() and the benches' sweep order derive
// from it), the artifact the algorithm counts against, and whether a memory
// budget can veto its scratch/topology allocations (it then degrades to the
// scratch-free gap-forward merge). The kernel itself is picked in one place,
// detail::run_prepared_kernel. Order matters — it is the display order
// (LOTUS first).
struct AlgorithmInfo {
  Algorithm algorithm;
  const char* name;
  ArtifactKind artifact;
  bool budget_degradable;
};
constexpr AlgorithmInfo kAlgorithmTable[] = {
    {Algorithm::kLotus, "lotus", ArtifactKind::kLotus, true},
    // Resolved to lotus or gap-forward before any lookup; the row describes
    // the skewed choice.
    {Algorithm::kAdaptive, "adaptive", ArtifactKind::kLotus, true},
    {Algorithm::kForwardMerge, "gap-forward", ArtifactKind::kOriented, false},
    {Algorithm::kForwardGallop, "forward-gallop", ArtifactKind::kOriented, false},
    {Algorithm::kForwardHashed, "forward-hashed", ArtifactKind::kOriented, true},
    {Algorithm::kForwardBitmap, "forward-bitmap", ArtifactKind::kOriented, true},
    {Algorithm::kForwardHybrid, "forward-hybrid", ArtifactKind::kOriented, true},
    {Algorithm::kEdgeParallel, "gbbs-edgepar", ArtifactKind::kOriented, false},
    {Algorithm::kEdgeIterator, "ggrind-edgeit", ArtifactKind::kNone, false},
    {Algorithm::kNodeIterator, "node-iterator", ArtifactKind::kNone, false},
    {Algorithm::kBlocked, "bbtc-blocked", ArtifactKind::kOriented, false},
};

const AlgorithmInfo* find_info(Algorithm algorithm) {
  for (const AlgorithmInfo& entry : kAlgorithmTable)
    if (entry.algorithm == algorithm) return &entry;
  return nullptr;
}

util::Status interrupt_status(parallel::Interrupt interrupt) {
  return interrupt == parallel::Interrupt::kCancelled
             ? util::Status{util::StatusCode::kCancelled,
                            "query cancelled via QueryOptions::cancel"}
             : util::Status{util::StatusCode::kDeadlineExceeded,
                            "QueryOptions::deadline expired before completion"};
}

bool budget_degradable(Algorithm algorithm) {
  const AlgorithmInfo* info = find_info(algorithm);
  return info != nullptr && info->budget_degradable;
}

// One execution of the query's analytic against its artifact: the caller's
// (an Engine cache entry) or, when there is none, one built here into
// `built` under the tracer's `preprocess` span. Exceptions propagate to the
// caller — the retry/status policy lives in execute_query. Non-triangle
// analytics route to the mining-engine layer (analytics_exec.cpp).
RunResult execute_once(Algorithm algorithm, const graph::CsrGraph& graph,
                       const QueryOptions& options,
                       const PreparedGraph* prepared, obs::PhaseTracer* trace,
                       std::optional<PreparedGraph>& built) {
  if (prepared == nullptr) {
    prepared = &built.emplace(PreparedGraph::build(
        artifact_kind(algorithm, options.analytic.kind), graph, options.config,
        trace));
    // Interrupted during the build: skip the count; execute_query's re-check
    // of the latched interrupt reports the status.
    if (parallel::interrupted()) {
      RunResult out;
      out.preprocess_s = built->build_s();
      return out;
    }
  }
  RunResult out =
      options.analytic.kind == AnalyticKind::kTriangles
          ? detail::run_prepared_kernel(algorithm, *prepared, graph,
                                        options.config, trace)
          : detail::run_analytic(algorithm, graph, options, *prepared, trace);
  if (built.has_value()) out.preprocess_s += built->build_s();
  return out;
}

// `--events sim`: replay the already-finished run single-threaded through the
// simcache model, against the artifact the run counted on, and graft the
// modeled per-phase event deltas onto the span tree. The replay re-executes
// the counting kernels (not preprocessing), so only count-side spans
// receive events. Supported for the algorithms that have instrumented
// replays (lotus and gap-forward, which adaptive runs as); everything else
// reports zero events with an explanatory note.
void attribute_simulated(ProfileReport& report, Algorithm runs_as,
                         const PreparedGraph& artifact,
                         const core::LotusConfig& config) {
  // Cache-size divisor for the simulated machine: the fig4/fig5 scaling of
  // SkyLakeX to laptop-scale datasets.
  constexpr std::uint32_t kSimCacheScale = 16;
  const simcache::MachineConfig machine =
      simcache::skylakex().scaled(kSimCacheScale);
  simcache::SimEventProvider sim(machine);
  report.event_source = obs::EventSource::kSimulated;
  report.event_backend = sim.backend();

  std::uint64_t replay_triangles = 0;
  switch (runs_as) {
    case Algorithm::kLotus: {
      const SampledLotusReplay replay =
          replay_lotus_sampled(*artifact.lotus(), config, sim.model());
      replay_triangles = replay.triangles;
      const obs::EventCounts hub = simcache::to_event_counts(replay.after_hub);
      const obs::EventCounts hnn = simcache::to_event_counts(replay.after_hnn);
      const obs::EventCounts nnn = simcache::to_event_counts(replay.after_nnn);
      report.events = nnn;  // cumulative after the last phase = run total
      report.trace.set_events("count", nnn);
      report.trace.set_events("hhh_hhn", hub);
      report.trace.set_events("hnn", hnn - hub);
      report.trace.set_events("nnn", nnn - hnn);
      report.event_note =
          "events modeled by single-threaded simcache replay of the counting "
          "phases; preprocess spans carry no events";
      break;
    }
    case Algorithm::kForwardMerge: {
      replay_triangles = replay_forward(*artifact.oriented(), sim.model());
      report.events = sim.read();
      report.trace.set_events("count", report.events);
      report.event_note =
          "events modeled by single-threaded simcache replay of the counting "
          "phase; preprocess spans carry no events";
      break;
    }
    default:
      report.events = obs::EventCounts{};
      report.event_note = "no instrumented replay for " + name(report.algorithm) +
                          "; simulated events are zero";
      return;
  }
  if (replay_triangles != report.result.triangles)
    report.event_note += "; replay count mismatch (replay " +
                         std::to_string(replay_triangles) + " vs run " +
                         std::to_string(report.result.triangles) + ")";
}

// Route this query's counter domain and scheduler sink through the pool the
// driver is using, so pool workers attribute their work to exactly this
// query. Balanced on unwind — execute_query catches the exceptions the run
// body may throw, and a stale pool pointer must not outlive the query.
struct PoolObsGuard {
  PoolObsGuard(parallel::ThreadPool& pool, obs::CounterDomain* domain,
               obs::SchedEventLog* sink)
      : pool_(pool) {
    pool_.set_counter_domain(domain);
    pool_.set_sched_sink(sink);
  }
  ~PoolObsGuard() {
    pool_.set_counter_domain(nullptr);
    pool_.set_sched_sink(nullptr);
  }
  PoolObsGuard(const PoolObsGuard&) = delete;
  PoolObsGuard& operator=(const PoolObsGuard&) = delete;
  parallel::ThreadPool& pool_;
};

// One profiled execution of `runs_as`, reported as `algorithm`: span tree,
// query-scoped counters, optional hardware/simulated events and scheduler
// timeline. Exceptions propagate.
ProfileReport profiled_once(Algorithm algorithm, Algorithm runs_as,
                            const graph::CsrGraph& graph,
                            const QueryOptions& options,
                            const PreparedGraph* prepared) {
  ProfileReport report;
  report.algorithm = algorithm;
  report.vertices = graph.num_vertices();
  report.edges = graph.num_edges() / 2;
  parallel::ThreadPool& pool = parallel::default_pool();
  report.threads = pool.size();

  // Hardware counters: probe availability up front and degrade to the
  // simulated source rather than failing the run (locked-down containers
  // routinely deny perf_event_open).
  obs::EventSource source = options.events;
  std::unique_ptr<obs::HwcProvider> hw;
  obs::EventCounts hw_begin;
  if (source == obs::EventSource::kHardware) {
    std::string error;
    hw = obs::HwcProvider::create(&error);
    if (hw == nullptr) {
      std::cerr << "[obs] hardware counters unavailable (" << error
                << "); falling back to --events sim\n";
      source = obs::EventSource::kSimulated;
      report.event_note =
          "hardware counters unavailable (" + error + "); degraded to simulated";
      report.degradations.push_back(
          {"hwc", "fallback=simulated", "hardware counters unavailable: " + error});
    } else {
      pool.execute([&hw](unsigned) { hw->attach_current_thread(); });
      report.trace.set_event_provider(hw.get());
      hw_begin = hw->read();
    }
  }

  obs::CounterDomain domain;
  obs::SchedEventLog sched_log;
  std::optional<PreparedGraph> built;
  {
    obs::ScopedCounterDomain scoped_domain(&domain);
    PoolObsGuard pool_obs(pool, &domain,
                          options.capture_sched_events ? &sched_log : nullptr);
    report.result = execute_once(runs_as, graph, options, prepared,
                                 &report.trace, built);
  }
  if (algorithm == Algorithm::kAdaptive)
    report.trace.note("chosen_algorithm",
                      runs_as == Algorithm::kLotus ? "lotus" : "forward");
  if (options.capture_sched_events) report.sched_events = sched_log.events();

  report.counters = domain.snapshot();

  if (hw != nullptr) {
    report.event_source = obs::EventSource::kHardware;
    report.event_backend = hw->backend();
    report.events = hw->read() - hw_begin;
    // The provider dies with this frame; the trace must not keep sampling it.
    report.trace.set_event_provider(nullptr);
  } else if (source == obs::EventSource::kSimulated) {
    if (options.analytic.kind != AnalyticKind::kTriangles) {
      // The simcache replays model the triangle-counting kernels only.
      report.event_source = obs::EventSource::kSimulated;
      report.events = obs::EventCounts{};
      report.event_note = "no instrumented replay for analytic " +
                          analytic_name(options.analytic.kind) +
                          "; simulated events are zero";
    } else {
      const std::string degradation_note = report.event_note;
      attribute_simulated(report, runs_as,
                          built.has_value() ? *built : *prepared,
                          options.config);
      if (!degradation_note.empty())
        report.event_note = degradation_note + "; " + report.event_note;
    }
  }
  return report;
}

}  // namespace

namespace detail {

Algorithm resolve_adaptive(Algorithm algorithm, const graph::CsrGraph& graph) {
  if (algorithm != Algorithm::kAdaptive) return algorithm;
  return core::should_use_lotus(graph) ? Algorithm::kLotus
                                       : Algorithm::kForwardMerge;
}

QueryResult execute_query(Algorithm algorithm, Algorithm runs_as,
                          const graph::CsrGraph& graph,
                          const QueryOptions& options,
                          const PreparedGraph* prepared) {
  QueryResult out;
  out.algorithm = algorithm;
  out.threads = parallel::default_pool().size();
  // Analytic identity is part of the result even when execution never starts
  // (pre-cancelled token, expired deadline): clear_payload keeps kind/k, so
  // they must be stamped from the request, not from a run that may not happen.
  out.result.analytics.kind = options.analytic.kind;
  out.result.analytics.k =
      options.analytic.kind == AnalyticKind::kKClique ? options.analytic.k : 3;

  // Query-scoped environment: both installs are thread-local, so concurrent
  // queries on different driver threads never see each other's context.
  // Skipped entirely when unused — a bare query() stays zero-overhead.
  parallel::ExecContext ctx;
  ctx.cancel = options.cancel;
  ctx.deadline = options.deadline;
  std::optional<parallel::ScopedExecContext> exec;
  if (options.cancel != nullptr || !options.deadline.is_unlimited())
    exec.emplace(&ctx);
  util::MemoryBudget budget(options.memory_budget_bytes);
  std::optional<util::ScopedMemoryBudget> scoped_budget;
  if (options.memory_budget_bytes != 0) scoped_budget.emplace(&budget);

  const auto fill_identity = [&](ProfileReport& r, Algorithm a) {
    r.algorithm = a;
    r.vertices = graph.num_vertices();
    r.edges = graph.num_edges() / 2;
    r.threads = out.threads;
    r.result.analytics.kind = out.result.analytics.kind;
    r.result.analytics.k = out.result.analytics.k;
  };

  if (const auto i = parallel::check_interrupt();
      i != parallel::Interrupt::kNone) {
    out.status = interrupt_status(i);
    if (options.profile) {
      out.profile.emplace();
      fill_identity(*out.profile, algorithm);
      out.profile->status = out.status;
    }
    return out;
  }

  // `reported` is what QueryResult::algorithm names: the request, until a
  // budget degradation swaps both it and `runs_as` for gap-forward.
  Algorithm reported = algorithm;
  for (int attempt = 0;; ++attempt) {
    try {
      if (options.profile) {
        ProfileReport report =
            profiled_once(reported, runs_as, graph, options, prepared);
        // The context latched any interrupt a poll observed, so a chunk or
        // phase the run skipped is visible here even if the token was
        // re-armed since: a partial count can never escape as valid.
        if (const auto i = parallel::check_interrupt();
            i != parallel::Interrupt::kNone) {
          report.status = interrupt_status(i);
          report.result.clear_payload();
        }
        out.algorithm = reported;
        out.result = report.result;
        out.status = report.status;
        out.profile = std::move(report);
      } else {
        std::optional<PreparedGraph> built;
        const RunResult result =
            execute_once(runs_as, graph, options, prepared, nullptr, built);
        if (const auto i = parallel::check_interrupt();
            i != parallel::Interrupt::kNone) {
          out.status = interrupt_status(i);
        } else {
          out.algorithm = reported;
          out.result = result;
        }
      }
      break;
    } catch (const std::bad_alloc& e) {  // includes util::BudgetError
      if (attempt == 0 && options.allow_degradation &&
          budget_degradable(runs_as)) {
        out.degradations.push_back({name(reported),
                                    "fallback=" + name(Algorithm::kForwardMerge),
                                    e.what()});
        budget.reset_used();  // the failed attempt's charges are released
        reported = runs_as = Algorithm::kForwardMerge;
        // Prepared artifacts belong to the vetoed algorithm; the fallback
        // builds its own (gap-forward preprocessing is cheap and
        // scratch-free).
        prepared = nullptr;
        continue;
      }
      out.status = {util::StatusCode::kOutOfMemory, e.what()};
      if (options.profile) {
        out.profile.emplace();
        fill_identity(*out.profile, reported);
      }
      break;
    } catch (...) {
      out.status = util::status_from_current_exception();
      if (options.profile) {
        out.profile.emplace();
        fill_identity(*out.profile, reported);
      }
      break;
    }
  }

  if (out.profile.has_value()) {
    // Budget fallbacks happened before the run that produced the report; any
    // degradations profiled_once recorded itself (hw→sim) come after.
    std::vector<obs::Degradation> merged = out.degradations;
    merged.insert(merged.end(), out.profile->degradations.begin(),
                  out.profile->degradations.end());
    out.profile->degradations = merged;
    out.degradations = std::move(merged);
    out.profile->status = out.status;
  }
  return out;
}

}  // namespace detail

util::Status validate(Algorithm algorithm, const QueryOptions& options) {
  const double fraction = options.config.relabel_fraction;
  if (!(fraction >= 0.0 && fraction <= 1.0))
    return {util::StatusCode::kInvalidArgument,
            "relabel_fraction must be in [0, 1]"};
  const AnalyticsRequest& request = options.analytic;
  if (request.kind == AnalyticKind::kTriangles) return util::Status::Ok();
  if (request.kind == AnalyticKind::kKClique && request.k < 3)
    return {util::StatusCode::kInvalidArgument,
            "kclique requires k >= 3 (k = 3 is the triangle census)"};
  if (request.kind == AnalyticKind::kKClique &&
      !(request.hub_fraction > 0.0 && request.hub_fraction <= 1.0))
    return {util::StatusCode::kInvalidArgument,
            "hub_fraction must be in (0, 1]"};
  if (artifact_kind(algorithm) == ArtifactKind::kNone)
    return {util::StatusCode::kInvalidArgument,
            "analytic '" + analytic_name(request.kind) + "' cannot run on " +
                name(algorithm) +
                ": the algorithm builds no reusable prepared artifact "
                "(pick lotus/adaptive or a Forward-family substrate)"};
  return util::Status::Ok();
}

util::Expected<QueryResult> query(Algorithm algorithm,
                                  const graph::CsrGraph& graph,
                                  const QueryOptions& options) {
  // Malformed requests are never attempted — the Expected side.
  if (util::Status admission = validate(algorithm, options);
      !admission.ok())
    return admission;
  return detail::execute_query(
      algorithm, detail::resolve_adaptive(algorithm, graph), graph, options,
      nullptr);
}

obs::MetricsRegistry ProfileReport::metrics() const {
  obs::MetricsRegistry registry;
  registry.set_meta("algorithm", name(algorithm));
  registry.set_meta("analytic", analytic_name(result.analytics.kind));
  registry.set_meta("vertices", vertices);
  registry.set_meta("edges", edges);
  registry.set_meta("threads", static_cast<std::uint64_t>(threads));
  registry.set_meta("obs_enabled", obs::enabled());
  registry.set_metric("triangles", result.triangles);
  if (result.analytics.kind != AnalyticKind::kTriangles) {
    const AnalyticsResult& a = result.analytics;
    registry.set_metric("analytic_count", a.count);
    switch (a.kind) {
      case AnalyticKind::kKClique:
        registry.set_metric("clique_k", static_cast<std::uint64_t>(a.k));
        registry.set_metric("hub_cliques", a.hub_count);
        break;
      case AnalyticKind::kKTruss:
        registry.set_metric("truss_max_k",
                            static_cast<std::uint64_t>(a.truss.max_k));
        registry.set_metric("edges_in_max_truss", a.truss.edges_in_max_truss);
        break;
      case AnalyticKind::kClustering:
        registry.set_metric("global_transitivity",
                            a.clustering.global_transitivity);
        registry.set_metric("avg_clustering", a.clustering.avg_clustering);
        registry.set_metric("wedges", a.clustering.wedges);
        break;
      default:
        break;
    }
  }
  registry.set_metric("preprocess_s", result.preprocess_s);
  registry.set_metric("count_s", result.count_s);
  registry.set_metric("total_s", result.total_s());
  registry.set_metric("triangles_per_s", result.triangles_per_s());
  registry.set_metric("edges_per_s", edges_per_s(edges, result.total_s()));
  registry.set_hw(event_source, event_backend, events, event_note);
  registry.set_resilience(status, degradations);
  if (engine_served)
    registry.set_engine({{"cache_hit", cache_hit},
                         {"queue_s", queue_s},
                         {"preprocess_s", result.preprocess_s},
                         {"count_s", result.count_s}});
  registry.set_trace(trace);
  registry.set_counters(counters);
  return registry;
}

std::string ProfileReport::to_json(int indent) const {
  return metrics().to_json_string(indent);
}

std::string ProfileReport::to_chrome_trace() const {
  return obs::chrome_trace_string(trace, sched_events);
}

ArtifactKind artifact_kind(Algorithm algorithm) {
  const AlgorithmInfo* info = find_info(algorithm);
  return info != nullptr ? info->artifact : ArtifactKind::kNone;
}

std::string name(Algorithm algorithm) {
  const AlgorithmInfo* info = find_info(algorithm);
  return info != nullptr ? info->name : "unknown";
}

std::optional<Algorithm> parse(const std::string& text) {
  for (const AlgorithmInfo& entry : kAlgorithmTable)
    if (text == entry.name) return entry.algorithm;
  return std::nullopt;
}

std::vector<Algorithm> all_algorithms() {
  std::vector<Algorithm> out;
  out.reserve(std::size(kAlgorithmTable));
  for (const AlgorithmInfo& entry : kAlgorithmTable)
    out.push_back(entry.algorithm);
  return out;
}

std::vector<std::string> algorithm_labels() {
  std::vector<std::string> labels(std::size(kAlgorithmTable));
  for (const AlgorithmInfo& entry : kAlgorithmTable)
    labels[static_cast<std::size_t>(entry.algorithm)] = entry.name;
  return labels;
}

std::vector<Algorithm> paper_comparators() {
  return {Algorithm::kBlocked, Algorithm::kEdgeIterator,
          Algorithm::kForwardMerge, Algorithm::kEdgeParallel,
          Algorithm::kLotus};
}

std::string analytic_name(AnalyticKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  if (index < std::size(kAnalyticNames)) return kAnalyticNames[index];
  return "unknown";
}

std::optional<AnalyticKind> parse_analytic(const std::string& text) {
  for (std::size_t i = 0; i < std::size(kAnalyticNames); ++i)
    if (text == kAnalyticNames[i]) return static_cast<AnalyticKind>(i);
  return std::nullopt;
}

std::vector<AnalyticKind> all_analytics() {
  std::vector<AnalyticKind> out;
  out.reserve(std::size(kAnalyticNames));
  for (std::size_t i = 0; i < std::size(kAnalyticNames); ++i)
    out.push_back(static_cast<AnalyticKind>(i));
  return out;
}

std::vector<std::string> analytic_labels() {
  return {std::begin(kAnalyticNames), std::end(kAnalyticNames)};
}

}  // namespace lotus::tc
