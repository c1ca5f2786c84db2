#include "harness.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "kernels/isa.hpp"
#include "obs/counters.hpp"

namespace perfbench {

namespace g = lotus::graph;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

// --- host facts ------------------------------------------------------------

namespace {

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t llc_bytes() {
  std::uint64_t best_size = 0;
  int best_level = -1;
  for (int index = 0; index < 16; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_file(dir + "level");
    std::ifstream size_file(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || size.empty()) continue;
    std::uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    switch (size.back()) {
      case 'K': bytes <<= 10; break;
      case 'M': bytes <<= 20; break;
      case 'G': bytes <<= 30; break;
      default: break;
    }
    if (level > best_level || (level == best_level && bytes > best_size)) {
      best_level = level;
      best_size = bytes;
    }
  }
  return best_size;
}

}  // namespace

void stamp_host(Stamp& stamp) {
  stamp.nproc = available_cpus();
  stamp.llc_bytes = llc_bytes();
  stamp.isa = lotus::kernels::isa_name(lotus::kernels::active_isa());
  stamp.compiler = PERFBENCH_COMPILER;
  stamp.flags = PERFBENCH_FLAGS;
  stamp.lotus_obs = LOTUS_OBS;
}

namespace {

// Word-at-a-time multiplicative hash; only needs to tell inputs apart.
std::uint64_t mix_words(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i + 8 <= bytes; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, sizeof word);
    h = (h ^ word) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  for (std::size_t i = bytes & ~std::size_t{7}; i < bytes; ++i)
    h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

}  // namespace

void stamp_input(Stamp& stamp, const g::CsrGraph& graph) {
  stamp.input_csr_bytes += graph.topology_bytes();
  stamp.input_vertices += graph.num_vertices();
  stamp.input_edges += graph.num_edges() / 2;
  std::uint64_t h = stamp.input_fingerprint ^ 0xcbf29ce484222325ULL;
  h = mix_words(h, graph.offsets().data(),
                graph.offsets().size() * sizeof(std::uint64_t));
  h = mix_words(h, graph.neighbor_array().data(),
                graph.neighbor_array().size() * sizeof(g::VertexId));
  stamp.input_fingerprint = h;
}

double calibrate() {
  constexpr unsigned kRounds = 20;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::uint32_t> a(std::size_t{1} << 16);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, sum = 0;
  for (unsigned r = 0; r < kRounds; ++r) {
    for (std::uint32_t& v : a) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x);
    }
    std::sort(a.begin(), a.end());
    sum += a[a.size() / 2];
  }
  const double seconds = seconds_since(t0);
  // Keep the work observable so it cannot be optimized away.
  static std::atomic<std::uint64_t> sink{0};
  sink.store(sum, std::memory_order_relaxed);
  return seconds;
}

void add_host_details(Outcome& out, const HostClock& clock) {
  const double probe_s = median(clock.probes());
  add(out.details, "host.probe_s", probe_s, "s");
  add(out.details, "host.speed", kCalibrationNominalS / probe_s, "x");
}

void release_free_memory() { malloc_trim(0); }

void reset_peak_rss() {
  // "5" resets the VmHWM watermark of this process (Linux >= 4.0).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
  }
  return 0.0;
}

// --- inputs ----------------------------------------------------------------
// Same formulas as the registry's make_rmat / make_web / make_social.

namespace {

g::VertexId scaled(double base, double factor) {
  return static_cast<g::VertexId>(std::max(1024.0, base * factor));
}

}  // namespace

g::CsrGraph make_twitter(std::uint64_t seed, double factor) {
  const double target = std::max(1024.0, 128e3 * factor);
  return g::build_undirected(
      g::rmat({.scale = static_cast<unsigned>(std::lround(std::log2(target))),
               .edge_factor = 12,
               .seed = seed}));
}

g::CsrGraph make_sk(std::uint64_t seed, double factor) {
  const g::VertexId n = scaled(192e3, factor);
  return g::build_undirected(g::copy_web({.num_vertices = n,
                                          .edges_per_vertex = 12,
                                          .p_copy = 0.78,
                                          .locality_window = 4096,
                                          .core_size = std::min<g::VertexId>(2048, n / 32),
                                          .p_core = 0.30,
                                          .p_local = 0.55,
                                          .seed = seed}));
}

g::CsrGraph make_lj(std::uint64_t seed, double factor) {
  const g::VertexId n = scaled(96e3, factor);
  return g::build_undirected(g::copy_web({.num_vertices = n,
                                          .edges_per_vertex = 8,
                                          .p_copy = 0.60,
                                          .locality_window = n,
                                          .core_size = std::min<g::VertexId>(1024, n / 32),
                                          .p_core = 0.35,
                                          .p_local = 0.40,
                                          .seed = seed}));
}

// --- reference answers -------------------------------------------------------

namespace {

// Runs body(begin, end) over [0, n) in chunks claimed from a shared counter.
template <typename Body>
void parallel_chunks(std::uint64_t n, unsigned threads, Body&& body) {
  constexpr std::uint64_t kChunk = 512;
  std::atomic<std::uint64_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::uint64_t begin = next.fetch_add(kChunk);
      if (begin >= n) return;
      body(begin, std::min(n, begin + kChunk));
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

}  // namespace

std::uint64_t reference_triangles(const g::CsrGraph& graph, unsigned threads) {
  const g::VertexId n = graph.num_vertices();
  threads = std::max(1u, threads);
  // Rank vertices by (degree, id) and keep, for each vertex, only its
  // higher-ranked neighbours: each triangle is then found exactly once, from
  // its lowest-ranked corner, and no list is longer than O(sqrt(E)).
  std::vector<g::VertexId> order(n);
  std::iota(order.begin(), order.end(), g::VertexId{0});
  std::sort(order.begin(), order.end(), [&](g::VertexId a, g::VertexId b) {
    const auto da = graph.degree(a), db = graph.degree(b);
    return da != db ? da < db : a < b;
  });
  std::vector<g::VertexId> rank(n);
  for (g::VertexId i = 0; i < n; ++i) rank[order[i]] = i;

  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (g::VertexId v = 0; v < n; ++v) {
    std::uint64_t up = 0;
    for (g::VertexId u : graph.neighbors(v)) up += rank[u] > rank[v] ? 1u : 0u;
    offsets[rank[v] + 1] = up;
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<g::VertexId> up(offsets.back());
  parallel_chunks(n, threads, [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t v = begin; v < end; ++v) {
      const g::VertexId r = rank[v];
      std::uint64_t pos = offsets[r];
      for (g::VertexId u : graph.neighbors(static_cast<g::VertexId>(v)))
        if (rank[u] > r) up[pos++] = rank[u];
      std::sort(up.begin() + static_cast<std::ptrdiff_t>(offsets[r]),
                up.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  });

  // Count by marking: out(r) goes into a per-thread bitmap over ranks, then
  // every out(s), s in out(r), is scanned against it.
  std::atomic<std::uint64_t> total{0};
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  parallel_chunks(n, threads, [&](std::uint64_t begin, std::uint64_t end) {
    thread_local std::vector<std::uint64_t> bits;  // all-zero between vertices
    if (bits.size() != words) bits.assign(words, 0);
    std::uint64_t local = 0;
    for (std::uint64_t r = begin; r < end; ++r) {
      const g::VertexId* a = up.data() + offsets[r];
      const g::VertexId* a_end = up.data() + offsets[r + 1];
      for (const g::VertexId* x = a; x != a_end; ++x) bits[*x >> 6] |= 1ULL << (*x & 63);
      for (const g::VertexId* s = a; s != a_end; ++s)
        for (std::uint64_t i = offsets[*s]; i < offsets[*s + 1]; ++i)
          local += (bits[up[i] >> 6] >> (up[i] & 63)) & 1u;
      for (const g::VertexId* x = a; x != a_end; ++x) bits[*x >> 6] = 0;
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load();
}

std::uint64_t reference_wedges(const g::CsrGraph& graph) {
  std::uint64_t wedges = 0;
  for (g::VertexId v = 0; v < graph.num_vertices(); ++v) {
    const std::uint64_t d = graph.degree(v);
    wedges += d > 1 ? d * (d - 1) / 2 : 0;
  }
  return wedges;
}

// --- span log ----------------------------------------------------------------

int SpanLog::add(std::uint64_t op, const char* name, int parent,
                 Clock::time_point start, Clock::time_point end) {
  return add_s(op, name, parent, since_origin(start), since_origin(end));
}

int SpanLog::add_s(std::uint64_t op, const char* name, int parent,
                   double start_s, double end_s) {
  spans_.push_back({op, name, parent, start_s, end_s});
  return static_cast<int>(spans_.size() - 1);
}

std::string SpanLog::to_json() const {
  std::ostringstream out;
  out.precision(9);
  out << '[';
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? "," : "") << "{\"id\":" << i << ",\"op\":" << s.op
        << ",\"name\":\"" << s.name << "\",\"parent\":" << s.parent
        << ",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s << '}';
  }
  out << ']';
  return out.str();
}

}  // namespace perfbench
