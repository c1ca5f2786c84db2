#include "tc/engine.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <random>
#include <sys/stat.h>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "tc/engine_metrics.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace lotus::tc {

namespace {

/// Cache key: graph identity + artifact kind + the config fields that shape
/// the artifact (hub selection and relabeling for the LotusGraph; the
/// oriented CSR is config-independent). Counting-only knobs (tiling, fusion)
/// deliberately don't fragment the cache.
std::string cache_key(const std::string& graph_key, ArtifactKind kind,
                      const core::LotusConfig& config) {
  std::string key = graph_key;
  key += '|';
  key += artifact_kind_name(kind);
  if (kind == ArtifactKind::kLotus) {
    key += "|hub=" + std::to_string(config.hub_count);
    key += ",frac=" + util::fixed(config.relabel_fraction, 6);
  }
  return key;
}

EngineOptions normalized(EngineOptions options) {
  if (options.num_drivers == 0) options.num_drivers = 1;
  if (options.threads_per_query == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    options.threads_per_query = std::max(1u, hw / options.num_drivers);
  }
  return options;
}

/// Random hex token baked into this engine's spill file names, so two
/// engines in one process (or a recycled pid) sharing a spill_dir never
/// write to each other's files.
std::string make_spill_token() {
  std::random_device rd;
  const std::uint64_t bits =
      (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

long current_pid() {
#ifdef _WIN32
  return static_cast<long>(_getpid());
#else
  return static_cast<long>(::getpid());
#endif
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Record one finished query into `sink`. The *requested* algorithm labels
/// the series: a budget fallback shows up in the requested algorithm's
/// latency, not as phantom gap-forward traffic.
void record_query(obs::Telemetry& sink, const QuerySpec& spec,
                  const QueryResult& result, obs::CacheOutcome outcome,
                  double queue_s, double total_s) {
  const auto to_ns = [](double seconds) {
    return seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e9)
                         : std::uint64_t{0};
  };
  sink.record({.algorithm = static_cast<std::size_t>(spec.algorithm),
               .analytic = static_cast<std::size_t>(spec.options.analytic.kind),
               .outcome = outcome,
               .graph_key = spec.graph_key,
               .status = util::status_code_name(result.status.code()),
               .threads = result.threads,
               .deadline_missed = result.status.code() ==
                                  util::StatusCode::kDeadlineExceeded,
               .queue_ns = to_ns(queue_s),
               .prepare_ns = to_ns(result.result.preprocess_s),
               .count_ns = to_ns(result.result.count_s),
               .total_ns = to_ns(total_s)});
}

/// The member `key` of `object`, appended as `fresh` when absent.
obs::JsonValue& member(obs::JsonValue& object, const char* key,
                       obs::JsonValue fresh) {
  for (auto& [k, v] : object.object())
    if (k == key) return v;
  object.set(key, std::move(fresh));
  return object.object().back().second;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(normalized(options)),
      threads_per_query_(options_.threads_per_query),
      cache_budget_(options_.cache_budget_bytes),
      // algorithm_labels()/analytic_labels(): index i names Algorithm(i) /
      // AnalyticKind(i), so QuerySample can carry the enum values directly
      // while obs stays tc-free.
      telemetry_(std::make_unique<obs::Telemetry>(options_.telemetry,
                                                  algorithm_labels(),
                                                  analytic_labels())),
      spill_token_(make_spill_token()) {
  drivers_.reserve(options_.num_drivers);
  for (unsigned i = 0; i < options_.num_drivers; ++i)
    drivers_.emplace_back([this] { driver_loop(); });
}

Engine::~Engine() {
  std::deque<Job> orphaned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    orphaned.swap(queue_);
    stats_.rejected += orphaned.size();
  }
  cv_.notify_all();
  for (Job& job : orphaned)
    job.promise.set_value(util::Status{
        util::StatusCode::kCancelled,
        "engine destroyed before the query started"});
  for (std::thread& t : drivers_) t.join();
  std::vector<std::thread> verifiers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    verifiers.swap(verifiers_);
  }
  for (std::thread& t : verifiers) t.join();
  // Spill files are engine-private; remove them (quarantined .corrupt files
  // are deliberately left behind for forensics). Already-remapped artifacts
  // still held by callers stay valid (the mapping outlives the unlink).
  // Unlink failures are counted and logged like any other cleanup failure —
  // a leaked spill file is disk the operator must know about.
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, path] : spilled_)
    remove_spill_file_locked(path, "shutdown");
}

std::future<util::Expected<QueryResult>> Engine::submit(QuerySpec spec) {
  std::promise<util::Expected<QueryResult>> promise;
  std::future<util::Expected<QueryResult>> future = promise.get_future();
  util::Status rejection = util::Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    if (shutting_down_) {
      rejection = {util::StatusCode::kCancelled, "engine is shutting down"};
    } else if (spec.graph == nullptr) {
      rejection = {util::StatusCode::kInvalidArgument,
                   "QuerySpec::graph is null"};
    } else if (util::Status admission =
                   validate(spec.algorithm, spec.options);
               !admission.ok()) {
      rejection = std::move(admission);
    }
    if (!rejection.ok()) {
      ++stats_.rejected;
    } else {
      queue_.push_back(Job{std::move(spec), std::move(promise),
                           std::chrono::steady_clock::now()});
    }
  }
  if (!rejection.ok()) {
    promise.set_value(rejection);
    return future;
  }
  cv_.notify_one();
  return future;
}

util::Expected<QueryResult> Engine::query(QuerySpec spec) {
  return submit(std::move(spec)).get();
}

void Engine::driver_loop() {
  // The driver thread is pool thread 0 of its own pool; the scoped override
  // routes every parallel primitive of the queries it runs through it, which
  // is what isolates concurrent queries from each other.
  parallel::ThreadPool pool(threads_per_query_);
  parallel::ScopedPool scoped(&pool);
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down, nothing left to serve
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_job(std::move(job));
  }
}

void Engine::run_job(Job job) {
  const double queue_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    job.submitted_at)
          .count();

  Acquired acquired;
  // Adaptive is resolved first, so it shares the lotus or oriented artifact
  // of the algorithm it runs as. The artifact kind depends on (algorithm,
  // analytic) but deliberately collapses analytics onto the same artifacts
  // TC uses — cross-analytic sharing is the whole point of the cache key.
  const Algorithm runs_as =
      detail::resolve_adaptive(job.spec.algorithm, *job.spec.graph);
  const ArtifactKind kind =
      artifact_kind(runs_as, job.spec.options.analytic.kind);
  if (kind != ArtifactKind::kNone && !job.spec.graph_key.empty())
    acquired = acquire_artifact(job.spec, kind);

  util::Timer exec_timer;
  QueryResult result = detail::execute_query(
      job.spec.algorithm, runs_as, *job.spec.graph, job.spec.options,
      acquired.artifact.get());
  const double exec_s = exec_timer.elapsed_s();
  // The builder pays the artifact's construction once; hits ride for free.
  result.result.preprocess_s += acquired.build_s;
  result.queue_s = queue_s;
  result.cache_hit = acquired.hit;
  if (result.profile.has_value()) {
    result.profile->engine_served = true;
    result.profile->queue_s = queue_s;
    result.profile->cache_hit = acquired.hit;
    result.profile->result.preprocess_s = result.result.preprocess_s;
  }
  const bool deadline_missed =
      result.status.code() == util::StatusCode::kDeadlineExceeded;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.completed;
    if (deadline_missed) ++stats_.deadline_misses;
    stats_.queue_s_total += queue_s;
    stats_.preprocess_s_total += result.result.preprocess_s;
    stats_.count_s_total += result.result.count_s;
  }

  // Record before resolving the promise so a caller that waits on the
  // future and then snapshots telemetry always sees its own query.
  record_query(*telemetry_, job.spec, result, acquired.outcome, queue_s,
               queue_s + exec_s + acquired.build_s);

  job.promise.set_value(std::move(result));
}

Engine::Acquired Engine::acquire_artifact(const QuerySpec& spec,
                                          ArtifactKind kind) {
  const std::string key =
      cache_key(spec.graph_key, kind, spec.options.config);

  ArtifactFuture future;
  std::promise<std::shared_ptr<const PreparedGraph>> build_promise;
  bool builder = false;
  std::string spill_path;  // non-empty: try remapping before rebuilding
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      it->second.last_used = ++tick_;
      future = it->second.artifact;
    } else {
      builder = true;
      auto spilled = spilled_.find(key);
      if (spilled != spilled_.end()) spill_path = spilled->second;
      CacheEntry entry;
      entry.artifact = build_promise.get_future().share();
      entry.last_used = ++tick_;
      future = entry.artifact;
      cache_.emplace(key, std::move(entry));
    }
  }

  if (builder) {
    // Remap tier: a previously spilled artifact is reloaded as zero-copy
    // views into the file — the build is not re-paid, and the remapped entry
    // charges ≈0 bytes, so it is always retained. Waiters on this
    // single-flight entry share the remap like they would a build.
    std::shared_ptr<const PreparedGraph> artifact;
    bool remapped = false;
    bool healed = false;
    double acquire_s = 0.0;
    if (!spill_path.empty()) {
      util::Timer timer;
      // Eager verification checksums every footered section under the
      // SIGBUS guard before the artifact serves a single query; the
      // background knob defers that pass off the query path instead.
      const auto verify_mode = options_.background_spill_verify
                                   ? graph::oocore::MapVerify::kOff
                                   : graph::oocore::MapVerify::kEager;
      util::Expected<PreparedGraph> loaded =
          PreparedGraph::load_mapped_s(spill_path, verify_mode);
      if (loaded.ok()) {
        artifact = std::make_shared<const PreparedGraph>(loaded.take());
        remapped = true;
        acquire_s = timer.elapsed_s();
        if (options_.background_spill_verify)
          start_background_verify(key, spill_path);
      } else {
        // Corrupt (checksum/SIGBUS → kIoError) or vanished spill file:
        // quarantine it and rebuild from the live graph — the heal path.
        std::lock_guard<std::mutex> lock(mutex_);
        if (loaded.status().code() == util::StatusCode::kIoError) {
          ++stats_.spill_verify_failures;
          healed = true;
        }
        quarantine_spill_locked(key, loaded.status().message());
      }
    }
    if (artifact == nullptr) {
      try {
        artifact = std::make_shared<const PreparedGraph>(
            PreparedGraph::build(kind, *spec.graph, spec.options.config));
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          cache_.erase(key);
          ++stats_.cache_lookups;
          ++stats_.cache_misses;
        }
        build_promise.set_exception(std::current_exception());
        // The builder itself degrades to building a private artifact.
        Acquired failed;
        failed.outcome = obs::CacheOutcome::kMiss;
        return failed;
      }
      acquire_s = artifact->build_s();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Lookup resolution: the lookup counter moves in the same critical
      // section as its hit-or-miss verdict, which is what keeps
      // `hits + misses == lookups` true in every stats() snapshot.
      ++stats_.cache_lookups;
      if (remapped) {
        ++stats_.cache_hits;
        ++stats_.cache_remaps;
      } else {
        ++stats_.cache_misses;
      }
      auto it = cache_.find(key);  // invalidate() may have raced us
      if (it != cache_.end()) {
        if (reserve_locked(artifact->bytes(), key)) {
          it->second.bytes = artifact->bytes();
          it->second.charged = true;
        } else {
          // Larger than the whole budget: serve it, don't retain it in
          // memory — but spill it so the next query remaps at ≈0 charge.
          spill_locked(key, artifact);
          cache_.erase(it);
        }
      }
    }
    build_promise.set_value(artifact);
    return {artifact, remapped, acquire_s,
            remapped ? obs::CacheOutcome::kRemap
                     : (healed ? obs::CacheOutcome::kHeal
                               : obs::CacheOutcome::kMiss)};
  }

  try {
    std::shared_ptr<const PreparedGraph> artifact = future.get();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cache_lookups;
    ++stats_.cache_hits;
    return {std::move(artifact), true, 0.0, obs::CacheOutcome::kHit};
  } catch (...) {
    // The build we waited on failed; count honestly and build privately.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cache_lookups;
    ++stats_.cache_misses;
    Acquired failed;
    failed.outcome = obs::CacheOutcome::kMiss;
    return failed;
  }
}

bool Engine::reserve_locked(std::uint64_t bytes, const std::string& keep_key) {
  for (;;) {
    if (cache_budget_.try_charge(bytes)) return true;
    // Evict the least-recently-used charged entry (never the one we are
    // inserting, never an in-flight build — its bytes are unknown).
    auto victim = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (!it->second.charged || it->first == keep_key) continue;
      if (victim == cache_.end() ||
          it->second.last_used < victim->second.last_used)
        victim = it;
    }
    if (victim == cache_.end()) return false;
    // The victim is charged, so its build already completed; get() does not
    // wait (beyond the builder's instant between charging and set_value).
    spill_locked(victim->first, victim->second.artifact.get());
    cache_budget_.release(victim->second.bytes);
    ++stats_.cache_evictions;
    cache_.erase(victim);
  }
}

void Engine::spill_locked(const std::string& key,
                          const std::shared_ptr<const PreparedGraph>& artifact) {
  if (options_.spill_dir.empty() || artifact == nullptr) return;
  if (artifact->bytes() == 0) return;  // already mapped; file still on disk
  if (spilled_.count(key) != 0) return;
  // pid + per-engine random token keep engines sharing one spill_dir (other
  // processes, other Engine instances, recycled pids) out of each other's
  // files; the sequence number uniquifies within this engine.
  const std::string path = options_.spill_dir + "/lotus-spill-" +
                           std::to_string(current_pid()) + "-" + spill_token_ +
                           "-" + std::to_string(spill_seq_++) + ".lpa";
  // A name that somehow already exists is not ours to overwrite — skip the
  // spill (the artifact is simply rebuilt next time) and count the episode.
  if (file_exists(path)) {
    ++stats_.spill_collisions;
    telemetry_->log_event("spill_collision", path);
    return;
  }
  // Best effort while holding mutex_: spills happen on the eviction path,
  // where simplicity of the cache state machine beats write overlap. A
  // failed write just falls back to discard-and-rebuild behaviour.
  if (artifact->save_s(path).ok()) {
    spilled_.emplace(key, path);
    ++stats_.cache_spills;
  }
}

void Engine::drop_spill_locked(const std::string& key) {
  auto it = spilled_.find(key);
  if (it == spilled_.end()) return;
  remove_spill_file_locked(it->second, "drop");
  spilled_.erase(it);
}

void Engine::quarantine_spill_locked(const std::string& key,
                                     const std::string& why) {
  auto it = spilled_.find(key);
  if (it == spilled_.end()) return;
  const std::string corrupt = it->second + ".corrupt";
  if (std::rename(it->second.c_str(), corrupt.c_str()) == 0) {
    ++stats_.cache_quarantines;
    telemetry_->log_event("spill_quarantine", corrupt + ": " + why);
  } else {
    // Could not set the bytes aside (file vanished?) — just drop the record
    // after a best-effort unlink.
    remove_spill_file_locked(it->second, "quarantine");
  }
  spilled_.erase(it);
}

void Engine::remove_spill_file_locked(const std::string& path,
                                      const char* context) {
  errno = 0;
  if (std::remove(path.c_str()) == 0 || errno == ENOENT) return;
  ++stats_.spill_cleanup_failures;
  telemetry_->log_event("spill_cleanup_failure",
                        std::string(context) + ": " + path + ": " +
                            std::strerror(errno));
}

void Engine::start_background_verify(const std::string& key,
                                     const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutting_down_) return;
  verifiers_.emplace_back([this, key, path] {
    // One eager-verify remap: a sequential checksum pass over the file
    // (page-cache hot from the serving mapping) under the SIGBUS guard.
    const util::Expected<PreparedGraph> checked =
        PreparedGraph::load_mapped_s(path, graph::oocore::MapVerify::kEager);
    if (checked.ok()) return;
    std::lock_guard<std::mutex> inner(mutex_);
    ++stats_.spill_verify_failures;
    quarantine_spill_locked(key, checked.status().message());
    // Drop the resident artifact mapped over the corrupt file so the next
    // lookup rebuilds from the live graph instead of serving poisoned
    // bytes; in-flight queries hold their own shared_ptr and finish.
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      if (it->second.charged) cache_budget_.release(it->second.bytes);
      ++stats_.cache_evictions;
      cache_.erase(it);
    }
  });
}

void Engine::invalidate(const std::string& graph_key) {
  const std::string prefix = graph_key + '|';
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      if (it->second.charged) cache_budget_.release(it->second.bytes);
      ++stats_.cache_evictions;
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  // Stale spill files must go too — the graph data changed underneath them.
  // Failed unlinks are counted (spill_cleanup_failures) and logged: a stale
  // file that survives an invalidate is a correctness hazard for a future
  // engine pointed at the same directory.
  for (auto it = spilled_.begin(); it != spilled_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      remove_spill_file_locked(it->second, "invalidate");
      it = spilled_.erase(it);
    } else {
      ++it;
    }
  }
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats out = stats_;
  out.cache_entries = cache_.size();
  out.cache_bytes = cache_budget_.used();
  out.cache_spilled_entries = spilled_.size();
  return out;
}

obs::MetricsRegistry Engine::metrics() const {
  const EngineStats s = stats();
  const obs::TelemetrySnapshot t = telemetry_->snapshot();
  const MetricSource source{s, t, options_};
  obs::MetricsRegistry registry;
  registry.set_meta("component", "tc-engine");
  registry.set_meta("drivers", static_cast<std::uint64_t>(num_drivers()));
  registry.set_meta("threads_per_query",
                    static_cast<std::uint64_t>(threads_per_query_));
  const auto quantiles = [](obs::JsonValue& object,
                            const obs::LatencyHistogram& hist) {
    for (const LatencyQuantile& q : kLatencyQuantiles)
      object.set(q.json_key, hist.quantile_s(q.q));
  };
  obs::JsonValue engine{obs::JsonValue::Object{}};
  obs::JsonValue telemetry{obs::JsonValue::Object{}};
  for (const EngineMetric& m : kEngineMetrics) {
    if (m.json == JsonSection::kNone) continue;
    // A disabled telemetry layer exports its switch and nothing else.
    if (m.json != JsonSection::kEngine && !t.enabled &&
        m.value != &telemetry_enabled)
      continue;
    obs::JsonValue& section =
        m.json == JsonSection::kEngine   ? engine
        : m.json == JsonSection::kWindow ? member(telemetry, "window",
                                                  obs::JsonValue::Object{})
                                         : telemetry;
    if (m.shape == MetricShape::kScalar) {
      obs::JsonValue value = m.value(source);
      if (!value.is_null()) section.set(m.json_key, std::move(value));
    } else if (m.shape == MetricShape::kQuantiles) {
      quantiles(section, t.window.hist);
    } else {  // kStages
      obs::JsonValue& rows =
          member(section, m.json_key, obs::JsonValue::Array{});
      for (const obs::SeriesSnapshot& series : t.series) {
        if (series.dimension != m.dimension) continue;
        obs::JsonValue row;
        row.set("series", obs::dimension_name(series.dimension));
        row.set("label", series.label);
        row.set("stage", obs::query_stage_name(series.stage));
        row.set("count", series.hist.count());
        row.set("sum_s", series.hist.sum_s());
        quantiles(row, series.hist);
        rows.push_back(std::move(row));
      }
    }
  }
  registry.set_engine(std::move(engine.object()));
  registry.set_engine_telemetry(std::move(telemetry));
  return registry;
}

obs::TelemetrySnapshot Engine::telemetry_snapshot() const {
  return telemetry_->snapshot();
}

std::string Engine::prometheus_text() const {
  const EngineStats s = stats();
  const obs::TelemetrySnapshot t = telemetry_->snapshot();
  const MetricSource source{s, t, options_};
  obs::PrometheusWriter w;
  for (const EngineMetric& m : kEngineMetrics) {
    if (m.family == nullptr) continue;
    if (m.shape == MetricShape::kScalar && m.type == MetricType::kCounter) {
      w.counter(m.family, m.help, m.value(source).as_uint());
    } else if (m.shape == MetricShape::kScalar) {
      w.gauge(m.family, m.help, m.value(source).as_double());
    } else if (m.shape == MetricShape::kQuantiles) {
      for (const LatencyQuantile& q : kLatencyQuantiles)
        w.gauge(m.family, m.help, t.window.hist.quantile_s(q.q),
                {{m.labels[0], q.label}});
    } else {
      for (const obs::SeriesSnapshot& series : t.series) {
        if (series.dimension != m.dimension) continue;
        if (m.shape == MetricShape::kStages)
          w.histogram(m.family, m.help,
                      {{m.labels[0], series.label},
                       {m.labels[1], obs::query_stage_name(series.stage)}},
                      series.hist);
        else if (series.stage == obs::QueryStage::kTotal)  // kLabelTotals
          w.counter(m.family, m.help, series.hist.count(),
                    {{m.labels[0], series.label}});
      }
    }
  }
  return w.str();
}

}  // namespace lotus::tc
