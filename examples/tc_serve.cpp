// tc_serve: replay a triangle-counting query mix through tc::Engine — the
// concurrent serving layer with prepared-graph caching — and compare it
// against cold per-query runs that re-pay preprocessing every time.
//
//   tc_serve                                   # synthetic Twtr-S, both modes
//   tc_serve --queries 32 --drivers 4
//   tc_serve --mix lotus,gap-forward,forward-hybrid --mode engine
//   tc_serve --mix lotus,lotus:kclique@4,lotus:ktruss,clustering
//   tc_serve --graph edges.txt --cache-mb 256
//   tc_serve --metrics-out engine.json         # Engine::metrics() report
//   tc_serve --telemetry-out metrics.prom      # Prometheus text exposition
//   tc_serve --query-log queries.jsonl --stats-interval-s 1
//
// Prints per-mode wall time, the warm/cold speedup, and the engine's cache
// statistics; --metrics-out additionally writes the "lotus-metrics/8"
// engine + engine_telemetry sections (docs/METRICS.md, docs/API.md),
// --telemetry-out the Prometheus exposition, --query-log a JSON-lines
// record of sampled queries, and --stats-interval-s a periodic rolling
// telemetry line to stderr (docs/TELEMETRY.md) — so the demo doubles as a
// live dashboard source.
//
// Exit codes follow util::exit_code (docs/ROBUSTNESS.md): 0 ok, 2 invalid
// argument, 3 io error, 1 internal (count mismatch between modes). Every
// failure prints exactly one "error (<code>): <message>" line to stderr.
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "datasets/registry.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "tc/engine.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace {

bool has_magic(const std::string& path, const char* magic) {
  std::ifstream in(path, std::ios::binary);
  char buffer[8] = {};
  in.read(buffer, 8);
  return in && std::string(buffer, 8) == magic;
}

int fail(const lotus::util::Status& status) {
  std::cerr << "error (" << lotus::util::status_code_name(status.code())
            << "): " << status.message() << "\n";
  return lotus::util::exit_code(status.code());
}

int fail_invalid(const std::string& message) {
  return fail({lotus::util::StatusCode::kInvalidArgument, message});
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

// One replayed request: which algorithm, running which analytic. Summary
// granularity keeps the serving payloads scalar-sized regardless of kind.
struct Request {
  lotus::tc::Algorithm algorithm = lotus::tc::Algorithm::kLotus;
  lotus::tc::AnalyticsRequest analytic;
};

// Mix grammar: `algo`, `algo:analytic`, `algo:kclique@k`, or a bare analytic
// name (which runs on the lotus substrate). Examples: `gap-forward`,
// `adaptive:local-counts`, `lotus:kclique@4`, `ktruss`.
std::optional<Request> parse_mix_item(const std::string& item) {
  Request request;
  request.analytic.granularity = lotus::tc::OutputGranularity::kSummary;
  std::string algo_part = item;
  std::string analytic_part;
  if (const auto colon = item.find(':'); colon != std::string::npos) {
    algo_part = item.substr(0, colon);
    analytic_part = item.substr(colon + 1);
  }
  if (const auto algorithm = lotus::tc::parse(algo_part)) {
    request.algorithm = *algorithm;
  } else if (analytic_part.empty()) {
    analytic_part = algo_part;  // bare analytic name, lotus substrate
  } else {
    return std::nullopt;
  }
  if (analytic_part.empty()) return request;
  unsigned k = 0;
  if (const auto at = analytic_part.find('@'); at != std::string::npos) {
    try {
      k = static_cast<unsigned>(std::stoul(analytic_part.substr(at + 1)));
    } catch (...) {
      return std::nullopt;
    }
    analytic_part = analytic_part.substr(0, at);
  }
  const auto kind = lotus::tc::parse_analytic(analytic_part);
  if (!kind) return std::nullopt;
  request.analytic.kind = *kind;
  if (k != 0) {
    if (*kind != lotus::tc::AnalyticKind::kKClique) return std::nullopt;
    request.analytic.k = k;
  }
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  lotus::util::Cli cli(
      "Replay a TC query mix through tc::Engine vs cold per-query runs");
  cli.opt("graph", "", "input graph file (text edge list or LOTUSGR1 binary "
          "CSR); empty = synthetic --dataset");
  cli.opt("dataset", "Twtr-S", "synthetic dataset name when --graph is empty");
  cli.opt("factor", "0.1", "vertex-count multiplier for the synthetic dataset");
  cli.opt("mix", "lotus,gap-forward,adaptive,forward-hybrid",
          "comma-separated request mix, replayed round-robin; each entry is "
          "algo[:analytic[@k]] (algo: lotus, adaptive, gap-forward, "
          "forward-hybrid, ...) or a bare analytic name (kclique, ktruss, "
          "local-counts, clustering) served on the lotus substrate");
  cli.opt("queries", "16", "total queries to replay");
  cli.opt("drivers", "2", "engine query drivers (queries in flight)");
  cli.opt("threads-per-query", "0",
          "pool width per driver (0 = hardware_concurrency / drivers)");
  cli.opt("cache-mb", "0",
          "prepared-graph cache budget in MiB (0 = unlimited)");
  cli.opt("mode", "both", "what to run: engine, cold, or both");
  cli.opt("metrics-out", "",
          "write Engine::metrics() JSON to this file (empty = don't)");
  cli.opt("telemetry-out", "",
          "write the engine's Prometheus text exposition to this file");
  cli.opt("query-log", "",
          "append sampled queries as JSON lines to this file");
  cli.opt("query-log-sample", "1",
          "log every Nth query (1 = every query, 0 = disable the log)");
  cli.opt("stats-interval-s", "0",
          "print rolling telemetry to stderr every S seconds (0 = off)");
  if (!cli.parse(argc, argv))
    return lotus::util::exit_code(lotus::util::StatusCode::kInvalidArgument);

  const std::string mode = cli.get("mode");
  if (mode != "engine" && mode != "cold" && mode != "both")
    return fail_invalid("unknown --mode: " + mode +
                        " (expected engine, cold, or both)");
  std::vector<Request> mix;
  for (const std::string& item : split_csv(cli.get("mix"))) {
    const auto request = parse_mix_item(item);
    if (!request) return fail_invalid("bad --mix entry: " + item);
    mix.push_back(*request);
  }
  if (mix.empty()) return fail_invalid("--mix is empty");
  const int queries = static_cast<int>(cli.get_int("queries"));
  if (queries <= 0) return fail_invalid("--queries must be > 0");
  if (cli.get_int("drivers") <= 0) return fail_invalid("--drivers must be > 0");
  if (cli.get_int("threads-per-query") < 0)
    return fail_invalid("--threads-per-query must be >= 0");
  if (cli.get_int("cache-mb") < 0) return fail_invalid("--cache-mb must be >= 0");
  if (cli.get_int("query-log-sample") < 0)
    return fail_invalid("--query-log-sample must be >= 0");
  const double stats_interval_s = cli.get_double("stats-interval-s");
  if (stats_interval_s < 0) return fail_invalid("--stats-interval-s must be >= 0");
  if (!cli.get("query-log").empty()) {
    // Surface an unwritable log path as an io error up front instead of
    // silently counting write failures inside the engine.
    std::ofstream probe(cli.get("query-log"), std::ios::app);
    if (!probe)
      return fail({lotus::util::StatusCode::kIoError,
                   "cannot open --query-log " + cli.get("query-log")});
  }

  lotus::graph::CsrGraph graph;
  std::string graph_key;
  if (!cli.get("graph").empty()) {
    graph_key = cli.get("graph");
    if (has_magic(cli.get("graph"), "LOTUSGR1")) {
      auto loaded = lotus::graph::read_csr_binary_s(cli.get("graph"));
      if (!loaded.ok()) return fail(loaded.status());
      graph = loaded.take();
    } else {
      auto edges = lotus::graph::read_edge_list_text_s(cli.get("graph"));
      if (!edges.ok()) return fail(edges.status());
      try {
        graph = lotus::graph::build_undirected(edges.value());
      } catch (...) {
        return fail(lotus::util::status_from_current_exception());
      }
    }
  } else {
    graph_key = cli.get("dataset") + "@" + cli.get("factor");
    try {
      const auto selection = lotus::datasets::parse_selection(cli.get("dataset"));
      graph = selection.at(0).make(cli.get_double("factor"));
    } catch (...) {
      return fail(lotus::util::status_from_current_exception(
          lotus::util::StatusCode::kInvalidArgument));
    }
  }
  std::cerr << "graph: |V|=" << lotus::util::with_commas(graph.num_vertices())
            << " |E|=" << lotus::util::with_commas(graph.num_edges() / 2)
            << "\n";

  // The replayed request stream: the mix, round-robin, `queries` long.
  std::vector<Request> requests;
  requests.reserve(static_cast<std::size_t>(queries));
  for (int i = 0; i < queries; ++i)
    requests.push_back(mix[static_cast<std::size_t>(i) % mix.size()]);

  std::uint64_t cold_triangles = 0;
  double cold_s = 0.0;
  if (mode != "engine") {
    lotus::util::Timer timer;
    for (const auto& request : requests) {
      lotus::tc::QueryOptions options;
      options.analytic = request.analytic;
      const auto outcome = lotus::tc::query(request.algorithm, graph, options);
      if (!outcome.ok()) return fail(outcome.status());
      if (!outcome.value().ok()) return fail(outcome.value().status);
      cold_triangles = outcome.value().result.triangles;
    }
    cold_s = timer.elapsed_s();
    std::cout << "cold:   " << queries << " queries in "
              << lotus::util::fixed(cold_s, 3) << "s ("
              << lotus::util::with_commas(cold_triangles)
              << " triangles, preprocessing re-paid per query)\n";
  }

  if (mode != "cold") {
    lotus::tc::EngineOptions options;
    options.num_drivers = static_cast<unsigned>(cli.get_int("drivers"));
    options.threads_per_query =
        static_cast<unsigned>(cli.get_int("threads-per-query"));
    options.cache_budget_bytes =
        static_cast<std::uint64_t>(cli.get_int("cache-mb")) * 1024 * 1024;
    options.telemetry.query_log_path = cli.get("query-log");
    options.telemetry.query_log_sample =
        static_cast<std::uint32_t>(cli.get_int("query-log-sample"));
    lotus::tc::Engine engine(options);

    // Live dashboard line: rolling-window QPS + quantiles, then one compact
    // per-algorithm p50/p95/p99 summary (total stage), every interval.
    std::atomic<bool> replay_done{false};
    std::thread reporter;
    if (stats_interval_s > 0) {
      reporter = std::thread([&engine, &replay_done, stats_interval_s] {
        const auto interval =
            std::chrono::duration<double>(stats_interval_s);
        auto next = std::chrono::steady_clock::now() + interval;
        while (!replay_done.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          if (std::chrono::steady_clock::now() < next) continue;
          next += interval;
          const auto snap = engine.telemetry_snapshot();
          const auto stats = engine.stats();
          std::ostringstream line;
          line << "[telemetry +" << lotus::util::fixed(snap.uptime_s, 1)
               << "s] qps=" << lotus::util::fixed(snap.window.qps, 1)
               << " window_n=" << snap.window.queries << " p50="
               << lotus::util::fixed(snap.window.hist.quantile_s(0.5) * 1e3, 2)
               << "ms p95="
               << lotus::util::fixed(snap.window.hist.quantile_s(0.95) * 1e3, 2)
               << "ms p99="
               << lotus::util::fixed(snap.window.hist.quantile_s(0.99) * 1e3, 2)
               << "ms hits=" << stats.cache_hits
               << " misses=" << stats.cache_misses
               << " deadline_misses=" << stats.deadline_misses << "\n";
          for (const auto& series : snap.series) {
            if (series.dimension != lotus::obs::Dimension::kAlgorithm ||
                series.stage != lotus::obs::QueryStage::kTotal)
              continue;
            line << "[telemetry]   " << series.label
                 << ": n=" << series.hist.count() << " p50/p95/p99 = "
                 << lotus::util::fixed(series.hist.quantile_s(0.5) * 1e3, 2)
                 << "/"
                 << lotus::util::fixed(series.hist.quantile_s(0.95) * 1e3, 2)
                 << "/"
                 << lotus::util::fixed(series.hist.quantile_s(0.99) * 1e3, 2)
                 << " ms\n";
          }
          std::cerr << line.str();
        }
      });
    }
    // Stops the reporter on every exit path (including early fail returns).
    struct ReporterGuard {
      std::atomic<bool>& done;
      std::thread& thread;
      ~ReporterGuard() {
        done.store(true, std::memory_order_relaxed);
        if (thread.joinable()) thread.join();
      }
    } reporter_guard{replay_done, reporter};

    lotus::util::Timer timer;
    std::vector<std::future<lotus::util::Expected<lotus::tc::QueryResult>>>
        futures;
    futures.reserve(requests.size());
    for (const auto& request : requests) {
      lotus::tc::QueryOptions query_options;
      query_options.analytic = request.analytic;
      futures.push_back(engine.submit(
          {request.algorithm, graph_key, &graph, query_options}));
    }
    std::uint64_t warm_triangles = 0;
    std::uint64_t hits = 0;
    for (auto& future : futures) {
      auto outcome = future.get();
      if (!outcome.ok()) return fail(outcome.status());
      if (!outcome.value().ok()) return fail(outcome.value().status);
      warm_triangles = outcome.value().result.triangles;
      if (outcome.value().cache_hit) ++hits;
    }
    const double warm_s = timer.elapsed_s();

    const auto stats = engine.stats();
    std::cout << "engine: " << queries << " queries in "
              << lotus::util::fixed(warm_s, 3) << "s ("
              << lotus::util::with_commas(warm_triangles) << " triangles, "
              << engine.num_drivers() << " drivers x "
              << engine.threads_per_query() << " threads, " << hits << "/"
              << queries << " cache hits)\n";
    std::cout << "cache:  " << stats.cache_hits << " hits, "
              << stats.cache_misses << " misses, " << stats.cache_evictions
              << " evictions, " << stats.cache_entries << " entries ("
              << lotus::util::human_bytes(stats.cache_bytes) << ")\n";
    if (mode == "both") {
      if (warm_triangles != cold_triangles)
        return fail({lotus::util::StatusCode::kInternal,
                     "engine and cold runs disagree on the triangle count"});
      std::cout << "speedup: "
                << lotus::util::fixed(warm_s > 0.0 ? cold_s / warm_s : 0.0, 2)
                << "x (engine vs cold)\n";
    }

    if (!cli.get("metrics-out").empty()) {
      std::ofstream out(cli.get("metrics-out"));
      out << engine.metrics().to_json_string() << "\n";
      if (!out)
        return fail({lotus::util::StatusCode::kIoError,
                     "failed to write " + cli.get("metrics-out")});
      std::cerr << "wrote " << cli.get("metrics-out") << "\n";
    }

    if (!cli.get("telemetry-out").empty()) {
      std::ofstream out(cli.get("telemetry-out"));
      out << engine.prometheus_text();
      if (!out)
        return fail({lotus::util::StatusCode::kIoError,
                     "failed to write " + cli.get("telemetry-out")});
      std::cerr << "wrote " << cli.get("telemetry-out") << "\n";
    }
  }
  return 0;
}
