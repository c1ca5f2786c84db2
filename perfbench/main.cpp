// lotus_bench: one run of one perfbench workload (perfbench/README.md).
//
//   lotus_bench --workload <cold-social|cold-web|serve-mix> --seed N
//               --seconds S --trace 0|1 [--record FILE] [--work-dir DIR]
//               [--factor F] [--max-queries N] [--corrupt-reference]
//
// Prints, as the last line of stdout, one JSON object with the keys
// `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1). --record also writes the full
// record: host stamp, metrics, extra details and the span log.
//
// --factor overrides the workload's graph scale and --max-queries caps the
// serve-mix stream; both exist for the benchmark's own tests, as does
// --corrupt-reference, which offsets every reference answer by one so that
// every checked op must count as failed.
//
// Exit codes: 0 = run completed (check `correct`), 1 = the run could not be
// carried out, 2 = bad command line.
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Metric;
using perfbench::Outcome;

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " + quoted(metrics[i].unit) + "}";
  return out + "}";
}

std::string stamp_json(const perfbench::Stamp& s, const perfbench::Options& o) {
  std::ostringstream out;
  out << "{\"workload\": " << quoted(o.workload) << ", \"seed\": " << o.seed
      << ", \"factor\": " << number(s.factor) << ", \"nproc\": " << s.nproc
      << ", \"llc_bytes\": " << s.llc_bytes
      << ", \"input_csr_bytes\": " << s.input_csr_bytes
      << ", \"input_csr_over_llc\": "
      << number(s.llc_bytes ? static_cast<double>(s.input_csr_bytes) /
                                  static_cast<double>(s.llc_bytes)
                            : 0.0)
      << ", \"input_vertices\": " << s.input_vertices
      << ", \"input_edges\": " << s.input_edges
      << ", \"input_fingerprint\": " << quoted(std::to_string(s.input_fingerprint))
      << ", \"isa\": " << quoted(s.isa) << ", \"compiler\": " << quoted(s.compiler)
      << ", \"flags\": " << quoted(s.flags) << ", \"lotus_obs\": " << s.lotus_obs
      << "}";
  return out.str();
}

int usage(const std::string& why) {
  std::cerr << "lotus_bench: " << why
            << "\nusage: lotus_bench --workload <cold-social|cold-web|serve-mix> "
               "--seed N --seconds S --trace 0|1 [--record FILE] [--work-dir DIR] "
               "[--factor F] [--max-queries N] [--corrupt-reference]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string record;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--corrupt-reference") {
        options.corrupt_reference = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = std::stoi(value) != 0;
      else if (flag == "--factor") options.factor = std::stod(value);
      else if (flag == "--max-queries") options.max_queries = std::stoull(value);
      else if (flag == "--work-dir") options.work_dir = value;
      else if (flag == "--record") record = value;
      else return usage("unknown flag " + flag);
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (options.workload.empty()) return usage("--workload is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  Outcome out;
  try {
    out = options.workload == "serve-mix" ? perfbench::run_serve(options)
                                          : perfbench::run_cold(options);
  } catch (const std::exception& e) {
    std::cerr << "lotus_bench: " << e.what() << "\n";
    return 1;
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  if (!record.empty()) {
    std::ofstream file(record);
    file << "{\"stamp\": " << stamp_json(out.stamp, options)
         << ", \"trace\": " << (options.trace ? 1 : 0)
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
         << ", \"fail_frac\": "
         << number(out.attempted ? static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted)
                                 : 1.0)
         << ", \"metrics\": " << metrics_json(out.metrics)
         << ", \"details\": " << metrics_json(out.details)
         << ", \"spans\": " << out.spans_json << "}\n";
    if (!file) {
      std::cerr << "lotus_bench: cannot write " << record << "\n";
      return 1;
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics_json(out.metrics) << "}" << std::endl;
  return 0;
}
