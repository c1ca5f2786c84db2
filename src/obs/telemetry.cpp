// Implementation of the serving-telemetry layer (see telemetry.hpp).
#include "obs/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

#include "obs/json.hpp"

namespace lotus::obs {

namespace {

/// Shard assignment: each recording thread gets a stable shard index from a
/// round-robin counter the first time it records. Drivers therefore never
/// contend on the same cache lines unless there are more than kShards of
/// them (in which case increments still stay correct, just slower).
std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % Telemetry::kShards;
  return shard;
}

/// Shortest round-trippable representation for Prometheus sample values.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return std::string(buf);
}

}  // namespace

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

std::size_t LatencyHistogram::bucket_index(std::uint64_t ns) noexcept {
  if (ns < kSubBuckets) return static_cast<std::size_t>(ns);
  unsigned octave = static_cast<unsigned>(std::bit_width(ns)) - 1u;
  if (octave > kMaxOctave) {
    octave = kMaxOctave;
    ns = (std::uint64_t{1} << (kMaxOctave + 1)) - 1;  // saturate to top bucket
  }
  const std::uint64_t sub =
      (ns >> (octave - kSubBucketBits)) & (kSubBuckets - 1);
  return (static_cast<std::size_t>(octave) - kSubBucketBits + 1) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

std::uint64_t LatencyHistogram::bucket_lower_ns(std::size_t bucket) noexcept {
  if (bucket < kSubBuckets) return bucket;
  const unsigned octave = static_cast<unsigned>(bucket / kSubBuckets) +
                          kSubBucketBits - 1u;
  const std::uint64_t sub = bucket % kSubBuckets;
  return (std::uint64_t{1} << octave) + (sub << (octave - kSubBucketBits));
}

std::uint64_t LatencyHistogram::bucket_upper_ns(std::size_t bucket) noexcept {
  if (bucket + 1 >= kBuckets) return std::numeric_limits<std::uint64_t>::max();
  return bucket_lower_ns(bucket + 1);
}

void LatencyHistogram::record(std::uint64_t ns) noexcept {
  ++bins_[bucket_index(ns)];
  ++count_;
  sum_ns_ += ns;
}

void LatencyHistogram::add_bin(std::size_t bucket, std::uint64_t n) noexcept {
  bins_[bucket] += n;
  count_ += n;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) bins_[i] += other.bins_[i];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

LatencyHistogram LatencyHistogram::delta(const LatencyHistogram& newer,
                                         const LatencyHistogram& older) noexcept {
  LatencyHistogram out;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = newer.bins_[i];
    const std::uint64_t o = older.bins_[i];
    const std::uint64_t d = n > o ? n - o : 0;
    out.bins_[i] = d;
    out.count_ += d;
  }
  out.sum_ns_ =
      newer.sum_ns_ > older.sum_ns_ ? newer.sum_ns_ - older.sum_ns_ : 0;
  return out;
}

double LatencyHistogram::quantile_ns(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // 0-based rank of the order statistic we estimate.
  const auto rank = std::min<std::uint64_t>(
      count_ - 1, static_cast<std::uint64_t>(q * static_cast<double>(count_)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += bins_[i];
    if (cumulative > rank) {
      const std::uint64_t lower = bucket_lower_ns(i);
      if (i + 1 >= kBuckets) return static_cast<double>(lower);  // saturated
      const std::uint64_t upper = bucket_upper_ns(i);
      return static_cast<double>(lower) +
             static_cast<double>(upper - lower) * 0.5;
    }
  }
  return 0.0;  // unreachable when count_ > 0
}

// ---------------------------------------------------------------------------
// Dimensions
// ---------------------------------------------------------------------------

const char* query_stage_name(QueryStage stage) noexcept {
  switch (stage) {
    case QueryStage::kQueue:
      return "queue";
    case QueryStage::kPrepare:
      return "prepare";
    case QueryStage::kCount:
      return "count";
    case QueryStage::kTotal:
      return "total";
  }
  return "unknown";
}

const char* cache_outcome_name(CacheOutcome outcome) noexcept {
  switch (outcome) {
    case CacheOutcome::kUncached:
      return "uncached";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kRemap:
      return "remap";
    case CacheOutcome::kHeal:
      return "heal";
  }
  return "unknown";
}

const char* dimension_name(Dimension dimension) noexcept {
  switch (dimension) {
    case Dimension::kAlgorithm:
      return "algorithm";
    case Dimension::kOutcome:
      return "outcome";
    case Dimension::kAnalytic:
      return "analytic";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// RollingWindow
// ---------------------------------------------------------------------------

RollingWindow::RollingWindow(double window_s, std::size_t slots)
    : window_s_(window_s > 0.0 ? window_s : 60.0),
      slot_s_(window_s_ / static_cast<double>(slots > 0 ? slots : 1)) {}

bool RollingWindow::due(double now_s) const noexcept {
  return ring_.empty() || now_s - ring_.back().at_s >= slot_s_;
}

double RollingWindow::next_due_s() const noexcept {
  return ring_.empty() ? 0.0 : ring_.back().at_s + slot_s_;
}

void RollingWindow::advance(double now_s, std::uint64_t completed,
                            const LatencyHistogram& cumulative) {
  if (!due(now_s)) return;
  ring_.push_back(Slot{now_s, completed, cumulative});
  // Expire slots that fell out of the window, but always keep one baseline
  // at or beyond the window edge so stats() can span the full window.
  while (ring_.size() > 1 && ring_[1].at_s <= now_s - window_s_)
    ring_.pop_front();
}

RollingWindow::Stats RollingWindow::stats(
    double now_s, std::uint64_t completed,
    const LatencyHistogram& cumulative) const {
  Stats out;
  if (ring_.empty()) {
    // No baseline yet: the whole lifetime is the window.
    out.span_s = now_s;
    out.queries = completed;
    out.hist = cumulative;
  } else {
    const Slot& base = ring_.front();
    out.span_s = now_s - base.at_s;
    out.queries = completed > base.completed ? completed - base.completed : 0;
    out.hist = LatencyHistogram::delta(cumulative, base.hist);
  }
  out.qps = out.span_s > 0.0
                ? static_cast<double>(out.queries) / out.span_s
                : 0.0;
  return out;
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

Telemetry::Telemetry(TelemetryOptions options,
                     std::vector<std::string> algorithm_labels,
                     std::vector<std::string> analytic_labels)
    : options_(std::move(options)),
      dims_{DimensionLayout{std::move(algorithm_labels)}, DimensionLayout{},
            DimensionLayout{std::move(analytic_labels)}},
      window_(options_.window_s) {
  for (std::size_t o = 0; o < kNumCacheOutcomes; ++o)
    dims_[static_cast<std::size_t>(Dimension::kOutcome)].labels.emplace_back(
        cache_outcome_name(static_cast<CacheOutcome>(o)));
  for (DimensionLayout& dim : dims_) {
    dim.first_series = aggregate_series_;
    aggregate_series_ += (dim.labels.size() + 1) * kNumQueryStages;
  }
  if (!options_.enabled) return;
  cells_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(kShards) * series_count() * kCellsPerSeries);
  // Seed the window with a zero baseline at t=0 so the first real slot has
  // something to delta against.
  window_.advance(0.0, 0, LatencyHistogram{});
  next_rotation_s_.store(window_.next_due_s(), std::memory_order_relaxed);
  if (!options_.query_log_path.empty() && options_.query_log_sample > 0) {
    log_.open(options_.query_log_path, std::ios::app);
    if (!log_.is_open()) log_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Telemetry::bump(std::size_t shard, std::size_t series,
                     std::uint64_t ns) noexcept {
  const std::size_t base =
      (shard * series_count() + series) * kCellsPerSeries;
  // Release pairs with the acquire loads in merge_series(): any bin value a
  // snapshot observes makes the recorded_ increment sequenced before it
  // visible too, so merged counts never run ahead of queries_recorded (free
  // on x86; one barrier flavor change on ARM).
  cells_[base + LatencyHistogram::bucket_index(ns)].fetch_add(
      1, std::memory_order_release);
  cells_[base + LatencyHistogram::kBuckets].fetch_add(
      ns, std::memory_order_release);
}

std::uint64_t Telemetry::record(const QuerySample& sample) {
  if (!options_.enabled) return 0;
  const std::uint64_t id =
      recorded_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t shard = this_thread_shard();
  const std::uint64_t by_stage[kNumQueryStages] = {
      sample.queue_ns, sample.prepare_ns, sample.count_ns, sample.total_ns};
  const std::size_t index[kNumDimensions] = {
      sample.algorithm, static_cast<std::size_t>(sample.outcome),
      sample.analytic};
  for (std::size_t d = 0; d < kNumDimensions; ++d) {
    // Out-of-range indices route to the reserved "unknown" row instead of
    // silently riding on the last real label.
    const DimensionLayout& dim = dims_[d];
    const std::size_t first = dim.first_series +
                              std::min(index[d], dim.labels.size()) *
                                  kNumQueryStages;
    for (std::size_t s = 0; s < kNumQueryStages; ++s)
      bump(shard, first + s, by_stage[s]);
  }
  bump(shard, aggregate_series_, sample.total_ns);

  // Lazy window rotation. window_ is only ever touched under window_mutex_;
  // the steady-state check reads the cached next-rotation timestamp
  // lock-free, and try-lock means a concurrent snapshot() or another
  // rotating driver never blocks this one.
  const double now_s = clock_.elapsed_s();
  if (now_s >= next_rotation_s_.load(std::memory_order_relaxed)) {
    std::unique_lock<std::mutex> lock(window_mutex_, std::try_to_lock);
    if (lock.owns_lock()) {
      if (window_.due(now_s)) {
        window_.advance(now_s, recorded_.load(std::memory_order_relaxed),
                        merge_series(aggregate_series_));
      }
      next_rotation_s_.store(window_.next_due_s(), std::memory_order_relaxed);
    }
  }

  if (log_.is_open() && options_.query_log_sample > 0 &&
      (id - 1) % options_.query_log_sample == 0) {
    write_log_line(id, sample);
  }
  return id;
}

LatencyHistogram Telemetry::merge_series(std::size_t series) const {
  LatencyHistogram out;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    const std::size_t base =
        (shard * series_count() + series) * kCellsPerSeries;
    // Acquire pairs with the release fetch_adds in bump() (see there).
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      const std::uint64_t n =
          cells_[base + b].load(std::memory_order_acquire);
      if (n != 0) out.add_bin(b, n);
    }
    out.add_sum_ns(cells_[base + LatencyHistogram::kBuckets].load(
        std::memory_order_acquire));
  }
  return out;
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot out;
  out.enabled = options_.enabled;
  out.window_span_s = options_.window_s;
  if (!options_.enabled) return out;

  // Every label row plus the trailing reserved "unknown" row (which only
  // surfaces if an out-of-range index was ever recorded).
  for (std::size_t d = 0; d < kNumDimensions; ++d) {
    const DimensionLayout& dim = dims_[d];
    for (std::size_t row = 0; row <= dim.labels.size(); ++row) {
      for (std::size_t s = 0; s < kNumQueryStages; ++s) {
        LatencyHistogram hist =
            merge_series(dim.first_series + row * kNumQueryStages + s);
        if (hist.empty()) continue;
        out.series.push_back(SeriesSnapshot{
            static_cast<Dimension>(d),
            row < dim.labels.size() ? dim.labels[row] : std::string("unknown"),
            static_cast<QueryStage>(s), std::move(hist)});
      }
    }
  }

  // Counters are read *after* the series merges: record() bumps recorded_
  // before its release-ordered bin increments, and the acquire loads above
  // make that increment visible here, so a merged series count never lands
  // ahead of queries_recorded in a snapshot — on weakly-ordered targets
  // too, not just x86 TSO (cross-bin skew between series remains possible
  // and is documented).
  out.queries_recorded = recorded_.load(std::memory_order_relaxed);
  out.query_log_lines = log_lines_.load(std::memory_order_relaxed);
  out.query_log_failures = log_failures_.load(std::memory_order_relaxed);

  const double now_s = clock_.elapsed_s();
  out.uptime_s = now_s;
  const LatencyHistogram cumulative = merge_series(aggregate_series_);
  {
    std::lock_guard<std::mutex> lock(window_mutex_);
    const_cast<RollingWindow&>(window_).advance(now_s, out.queries_recorded,
                                                cumulative);
    next_rotation_s_.store(window_.next_due_s(), std::memory_order_relaxed);
    out.window = window_.stats(now_s, out.queries_recorded, cumulative);
  }
  return out;
}

void Telemetry::log_event(std::string_view kind, std::string_view detail) {
  if (!options_.enabled || !log_.is_open()) return;
  JsonValue line;
  line.set("event", std::string(kind));
  line.set("detail", std::string(detail));
  append_log_line(line.dump(-1));
}

void Telemetry::append_log_line(const std::string& text) {
  std::lock_guard<std::mutex> lock(log_mutex_);
  log_ << text << '\n';
  log_.flush();
  if (log_.good()) {
    log_lines_.fetch_add(1, std::memory_order_relaxed);
  } else {
    log_failures_.fetch_add(1, std::memory_order_relaxed);
    log_.clear();
  }
}

void Telemetry::write_log_line(std::uint64_t id, const QuerySample& sample) {
  JsonValue line;
  line.set("query_id", id);
  const auto label = [this](Dimension d, std::size_t index) {
    const std::vector<std::string>& labels =
        dims_[static_cast<std::size_t>(d)].labels;
    return index < labels.size() ? labels[index] : std::string("unknown");
  };
  line.set("algorithm", label(Dimension::kAlgorithm, sample.algorithm));
  line.set("analytic", label(Dimension::kAnalytic, sample.analytic));
  line.set("graph_key", std::string(sample.graph_key));
  line.set("threads", static_cast<std::uint64_t>(sample.threads));
  line.set("cache_outcome", std::string(cache_outcome_name(sample.outcome)));
  line.set("status", std::string(sample.status));
  line.set("deadline_miss", sample.deadline_missed);
  line.set("queue_s", static_cast<double>(sample.queue_ns) * 1e-9);
  line.set("prepare_s", static_cast<double>(sample.prepare_ns) * 1e-9);
  line.set("count_s", static_cast<double>(sample.count_ns) * 1e-9);
  line.set("total_s", static_cast<double>(sample.total_ns) * 1e-9);
  append_log_line(line.dump(-1));
}

// ---------------------------------------------------------------------------
// PrometheusWriter
// ---------------------------------------------------------------------------

std::string PrometheusWriter::escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void PrometheusWriter::header(const std::string& name, const std::string& help,
                              const char* type) {
  if (!declared_.insert(name).second) return;
  std::string escaped_help;
  escaped_help.reserve(help.size());
  for (const char c : help) {
    if (c == '\\')
      escaped_help += "\\\\";
    else if (c == '\n')
      escaped_help += "\\n";
    else
      escaped_help += c;
  }
  out_ += "# HELP " + name + " " + escaped_help + "\n";
  out_ += "# TYPE " + name + " ";
  out_ += type;
  out_ += "\n";
}

void PrometheusWriter::sample(const std::string& name,
                              const std::string& suffix, const Labels& labels,
                              const std::string& value) {
  out_ += name;
  out_ += suffix;
  if (!labels.empty()) {
    out_ += '{';
    bool first = true;
    for (const auto& [key, val] : labels) {
      if (!first) out_ += ',';
      first = false;
      out_ += key;
      out_ += "=\"";
      out_ += escape_label_value(val);
      out_ += '"';
    }
    out_ += '}';
  }
  out_ += ' ';
  out_ += value;
  out_ += '\n';
}

void PrometheusWriter::counter(const std::string& name, const std::string& help,
                               std::uint64_t value, const Labels& labels) {
  header(name, help, "counter");
  sample(name, "", labels, std::to_string(value));
}

void PrometheusWriter::gauge(const std::string& name, const std::string& help,
                             double value, const Labels& labels) {
  header(name, help, "gauge");
  sample(name, "", labels, fmt_double(value));
}

void PrometheusWriter::histogram(const std::string& name,
                                 const std::string& help, const Labels& labels,
                                 const LatencyHistogram& hist) {
  header(name, help, "histogram");
  std::uint64_t cumulative = 0;
  Labels bucket_labels = labels;
  bucket_labels.emplace_back("le", "");
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const std::uint64_t n = hist.bins()[b];
    if (n == 0) continue;
    cumulative += n;
    // `le` is inclusive in the exposition format while bucket_upper_ns()
    // is exclusive; durations are integer nanoseconds, so the inclusive
    // bound of [lower, upper) is upper - 1.
    const std::uint64_t upper = LatencyHistogram::bucket_upper_ns(b);
    bucket_labels.back().second =
        upper == std::numeric_limits<std::uint64_t>::max()
            ? "+Inf"
            : fmt_double(static_cast<double>(upper - 1) * 1e-9);
    if (bucket_labels.back().second != "+Inf")
      sample(name, "_bucket", bucket_labels, std::to_string(cumulative));
  }
  bucket_labels.back().second = "+Inf";
  sample(name, "_bucket", bucket_labels, std::to_string(hist.count()));
  sample(name, "_sum", labels, fmt_double(hist.sum_s()));
  sample(name, "_count", labels, std::to_string(hist.count()));
}

}  // namespace lotus::obs
