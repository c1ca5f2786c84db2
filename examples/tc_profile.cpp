// tc_profile: run one triangle-counting algorithm through tc::query() and
// dump the complete observability report — span tree, query-scoped counters,
// hardware events, and scalar metrics — in the versioned "lotus-metrics/8"
// schema (docs/METRICS.md).
//
//   tc_profile --algo lotus                        # synthetic Twtr-S, JSON
//   tc_profile --algo gap-forward --format csv
//   tc_profile --algo lotus --graph edges.txt --output report.json
//   tc_profile --algo lotus --threads 4 --factor 0.2
//   tc_profile --algo lotus --events hw            # per-phase PMU deltas
//   tc_profile --algo lotus --trace-out trace.json # Perfetto timeline
//   tc_profile --algo lotus --deadline-ms 100      # bounded wall clock
//   tc_profile --algo lotus --budget-mb 16         # degrade over budget
//
// Exit codes follow util::exit_code (docs/ROBUSTNESS.md): 0 ok, 2 invalid
// argument, 3 io error, 4 out of memory, 5 deadline exceeded, 6 cancelled,
// 7 resource exhausted, 1 internal. Every failure prints exactly one
// "error (<code>): <message>" line to stderr.
#include <fstream>
#include <iostream>

#include "datasets/registry.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "parallel/thread_pool.hpp"
#include "tc/api.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"

namespace {

bool has_magic(const std::string& path, const char* magic) {
  std::ifstream in(path, std::ios::binary);
  char buffer[8] = {};
  in.read(buffer, 8);
  return in && std::string(buffer, 8) == magic;
}

// The single failure exit path: one line, stable code name, mapped status.
int fail(const lotus::util::Status& status) {
  std::cerr << "error (" << lotus::util::status_code_name(status.code())
            << "): " << status.message() << "\n";
  return lotus::util::exit_code(status.code());
}

int fail_invalid(const std::string& message) {
  return fail({lotus::util::StatusCode::kInvalidArgument, message});
}

}  // namespace

int main(int argc, char** argv) {
  lotus::util::Cli cli("Profile one TC run and export the metrics report");
  cli.opt("algo", "lotus", "algorithm name (see tc::parse; e.g. lotus, adaptive, gap-forward)");
  cli.opt("graph", "", "input graph file (text edge list or LOTUSGR1 binary CSR); "
          "empty = synthetic --dataset");
  cli.opt("dataset", "Twtr-S", "synthetic dataset name when --graph is empty");
  cli.opt("factor", "0.2", "vertex-count multiplier for the synthetic dataset");
  cli.opt("threads", "0", "worker threads (0 = hardware concurrency)");
  cli.opt("hubs", "0", "LOTUS hub count (0 = automatic 1% rule)");
  cli.opt("format", "json", "report format: json or csv");
  cli.opt("output", "", "write the report to this file (empty = stdout)");
  cli.opt("events", "off", "hardware-event source: hw (perf_event_open, "
          "degrades to sim when denied), sim (simcache replay), off");
  cli.opt("trace-out", "", "also write a Chrome-trace/Perfetto timeline "
          "(span tree + scheduler events) to this file");
  cli.opt("deadline-ms", "0", "abort with deadline_exceeded (exit 5) if the "
          "run exceeds this wall-clock budget in milliseconds (0 = none)");
  cli.opt("budget-mb", "0", "memory budget in MiB for the run's large "
          "allocations (0 = unlimited); over-budget algorithms degrade to "
          "gap-forward, recorded in the resilience section");
  cli.flag("no-degrade", "fail with out_of_memory (exit 4) instead of "
           "degrading to gap-forward when the budget is exceeded");
  if (!cli.parse(argc, argv))
    return lotus::util::exit_code(lotus::util::StatusCode::kInvalidArgument);

  const auto algorithm = lotus::tc::parse(cli.get("algo"));
  if (!algorithm) return fail_invalid("unknown algorithm: " + cli.get("algo"));
  const std::string format = cli.get("format");
  if (format != "json" && format != "csv")
    return fail_invalid("unknown format: " + format + " (expected json or csv)");
  const auto events = lotus::obs::parse_event_source(cli.get("events"));
  if (!events)
    return fail_invalid("unknown --events source: " + cli.get("events") +
                        " (expected hw, sim, or off)");
  if (cli.get_int("deadline-ms") < 0)
    return fail_invalid("--deadline-ms must be >= 0");
  if (cli.get_int("budget-mb") < 0) return fail_invalid("--budget-mb must be >= 0");

  lotus::parallel::set_num_threads(static_cast<unsigned>(cli.get_int("threads")));

  lotus::graph::CsrGraph graph;
  if (!cli.get("graph").empty()) {
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
    try {
      const auto selection = lotus::datasets::parse_selection(cli.get("dataset"));
      graph = selection.at(0).make(cli.get_double("factor"));
    } catch (...) {
      return fail(lotus::util::status_from_current_exception(
          lotus::util::StatusCode::kInvalidArgument));
    }
  }

  lotus::tc::QueryOptions options;
  options.config.hub_count =
      static_cast<lotus::graph::VertexId>(cli.get_int("hubs"));
  if (cli.get_int("deadline-ms") > 0)
    options.deadline = lotus::util::Deadline::after(
        static_cast<double>(cli.get_int("deadline-ms")) / 1000.0);
  options.memory_budget_bytes =
      static_cast<std::uint64_t>(cli.get_int("budget-mb")) * 1024 * 1024;
  options.allow_degradation = !cli.get_flag("no-degrade");
  options.profile = true;
  options.events = *events;
  options.capture_sched_events = !cli.get("trace-out").empty();

  auto query_result = lotus::tc::query(*algorithm, graph, options);
  if (!query_result.ok()) return fail(query_result.status());
  const lotus::tc::ProfileReport report =
      std::move(query_result.value().profile).value();
  const std::string text =
      format == "json" ? report.to_json() : report.metrics().to_csv();

  if (!cli.get("trace-out").empty()) {
    std::ofstream trace_out(cli.get("trace-out"));
    trace_out << report.to_chrome_trace() << "\n";
    if (!trace_out)
      return fail({lotus::util::StatusCode::kIoError,
                   "failed to write " + cli.get("trace-out")});
    std::cerr << "wrote " << cli.get("trace-out") << "\n";
  }

  // The report is written even for a failed run — its resilience section
  // carries the status and partial phase metrics; the exit code and the
  // one-line stderr message carry the failure.
  if (cli.get("output").empty()) {
    std::cout << text << "\n";
  } else {
    std::ofstream out(cli.get("output"));
    out << text << "\n";
    if (!out)
      return fail({lotus::util::StatusCode::kIoError,
                   "failed to write " + cli.get("output")});
    std::cerr << "wrote " << cli.get("output") << "\n";
  }
  if (!report.status.ok()) return fail(report.status);
  return 0;
}
