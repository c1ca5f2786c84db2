// Hardware-counter backend: event vocabulary arithmetic, source parsing, the
// perf_event_open provider's forced-failure hook, and the profiled-query
// event pipeline — hw-degrades-to-sim, sim replay attribution, and off.
#include <gtest/gtest.h>

#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "obs/hwc.hpp"
#include "simcache/machines.hpp"
#include "simcache/sim_events.hpp"
#include "tc/api.hpp"
#include "util/fault.hpp"

namespace {

namespace g = lotus::graph;
namespace obs = lotus::obs;
namespace tc = lotus::tc;
namespace fault = lotus::util::fault;

using obs::Event;
using obs::EventCounts;
using obs::EventSource;

/// Run a profiled query and unwrap the report (every request here is
/// well-formed and expected to complete).
tc::ProfileReport profiled(tc::Algorithm algorithm, const g::CsrGraph& graph,
                           tc::QueryOptions options = {}) {
  options.profile = true;
  return tc::query(algorithm, graph, options).value().profile.value();
}


TEST(EventCounts, ArithmeticAndSaturation) {
  EventCounts a;
  EXPECT_FALSE(a.any());
  a[Event::kCycles] = 100;
  a[Event::kLlcMisses] = 7;
  EXPECT_TRUE(a.any());

  EventCounts b;
  b[Event::kCycles] = 40;
  b[Event::kInstructions] = 5;
  a += b;
  EXPECT_EQ(a[Event::kCycles], 140u);
  EXPECT_EQ(a[Event::kInstructions], 5u);

  // Differences saturate at zero (multiplex scaling can jitter samples).
  const EventCounts d = b - a;
  EXPECT_EQ(d[Event::kCycles], 0u);
  EXPECT_EQ(d[Event::kLlcMisses], 0u);
  const EventCounts e = a - b;
  EXPECT_EQ(e[Event::kCycles], 100u);
  EXPECT_EQ(e[Event::kLlcMisses], 7u);
}

TEST(EventNames, StableAndDistinct) {
  for (std::size_t i = 0; i < obs::kNumEvents; ++i) {
    const std::string name = obs::event_name(static_cast<Event>(i));
    EXPECT_FALSE(name.empty());
    for (std::size_t j = i + 1; j < obs::kNumEvents; ++j)
      EXPECT_NE(name, obs::event_name(static_cast<Event>(j)));
  }
  EXPECT_STREQ(obs::event_name(Event::kLlcMisses), "llc_misses");
}

TEST(EventSourceParsing, AcceptsCliSpellings) {
  EXPECT_EQ(obs::parse_event_source("off"), EventSource::kOff);
  EXPECT_EQ(obs::parse_event_source("sim"), EventSource::kSimulated);
  EXPECT_EQ(obs::parse_event_source("simulated"), EventSource::kSimulated);
  EXPECT_EQ(obs::parse_event_source("hw"), EventSource::kHardware);
  EXPECT_EQ(obs::parse_event_source("hardware"), EventSource::kHardware);
  EXPECT_FALSE(obs::parse_event_source("perf").has_value());
  EXPECT_FALSE(obs::parse_event_source("").has_value());

  for (EventSource s :
       {EventSource::kOff, EventSource::kSimulated, EventSource::kHardware})
    EXPECT_EQ(obs::parse_event_source(obs::event_source_name(s)), s);
}

TEST(HwcProvider, ForcedErrorFailsCreateWithMessage) {
  // The `hwc` fault site refuses perf_event_open like a locked-down
  // container does.
  fault::ScopedFaultPlan plan(fault::single_site_plan(fault::Site::kHwc, 1.0));
  std::string error;
  const auto provider = obs::HwcProvider::create(&error);
  EXPECT_EQ(provider, nullptr);
  EXPECT_NE(error.find("fault site hwc"), std::string::npos) << error;
}

TEST(SimEvents, StallModelMatchesDocumentedFormula) {
  lotus::simcache::PerfCounters c;
  c.loads = 10;
  c.ops = 5;
  c.branches = 3;  // instructions() = 18
  c.l2_misses = 2;
  c.llc_misses = 1;
  c.dtlb_misses = 4;
  c.mispredicts = 6;
  const EventCounts ev = lotus::simcache::to_event_counts(c);
  EXPECT_EQ(ev[Event::kInstructions], 18u);
  EXPECT_EQ(ev[Event::kL2Misses], 2u);
  EXPECT_EQ(ev[Event::kLlcMisses], 1u);
  EXPECT_EQ(ev[Event::kDtlbMisses], 4u);
  EXPECT_EQ(ev[Event::kBranchMispredicts], 6u);
  EXPECT_EQ(ev[Event::kCycles], 18u + 12 * 2 + 40 * 1 + 100 * 4 + 15 * 6);
}

TEST(RunProfiled, EventsOffLeavesHwSectionEmpty) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 3}));
  const auto report = profiled(tc::Algorithm::kLotus, graph);
  EXPECT_EQ(report.event_source, EventSource::kOff);
  EXPECT_FALSE(report.events.any());

  const auto doc = obs::JsonValue::parse(report.to_json());
  const obs::JsonValue* hw = doc.find("hw");
  ASSERT_NE(hw, nullptr);
  EXPECT_EQ(hw->find("source")->as_string(), "off");
  EXPECT_EQ(hw->find("events"), nullptr);
}

TEST(RunProfiled, SimulatedEventsAttributeToLotusPhases) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 10, .edge_factor = 8, .seed = 9}));
  tc::QueryOptions options;
  options.events = EventSource::kSimulated;
  const auto report = profiled(tc::Algorithm::kLotus, graph, options);

  EXPECT_EQ(report.event_source, EventSource::kSimulated);
  EXPECT_EQ(report.event_backend.rfind("simcache:", 0), 0u) << report.event_backend;
  EXPECT_TRUE(report.events.any());
  // The replay recounts the exact same graph, so the note must not report a
  // count mismatch.
  EXPECT_EQ(report.event_note.find("mismatch"), std::string::npos)
      << report.event_note;

  // Every counting-phase span carries a delta; the phase deltas sum to the
  // "count" span's total (the replay covers exactly these three phases).
  EventCounts phase_sum;
  for (const char* name : {"hhh_hhn", "hnn", "nnn"}) {
    const auto* span = report.trace.find(name);
    ASSERT_NE(span, nullptr) << name;
    EXPECT_TRUE(span->has_events) << name;
    EXPECT_GT(span->events[Event::kInstructions], 0u) << name;
    phase_sum += span->events;
  }
  const auto* count = report.trace.find("count");
  ASSERT_NE(count, nullptr);
  ASSERT_TRUE(count->has_events);
  for (std::size_t i = 0; i < obs::kNumEvents; ++i)
    EXPECT_EQ(count->events.value[i], phase_sum.value[i]) << i;

  // Preprocessing is not replayed and must carry no events.
  const auto* preprocess = report.trace.find("preprocess");
  ASSERT_NE(preprocess, nullptr);
  EXPECT_FALSE(preprocess->has_events);

  // The metrics export stamps the source and the run totals.
  const auto doc = obs::JsonValue::parse(report.to_json());
  const obs::JsonValue* hw = doc.find("hw");
  ASSERT_NE(hw, nullptr);
  EXPECT_EQ(hw->find("source")->as_string(), "simulated");
  ASSERT_NE(hw->find("events"), nullptr);
  EXPECT_GT(hw->find("events")->find("llc_misses")->as_uint(), 0u);
}

TEST(RunProfiled, SimulatedEventsUnsupportedBaselineReportsZeroWithNote) {
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 4}));
  tc::QueryOptions options;
  options.events = EventSource::kSimulated;
  const auto report = profiled(tc::Algorithm::kNodeIterator, graph, options);
  EXPECT_EQ(report.event_source, EventSource::kSimulated);
  EXPECT_FALSE(report.events.any());
  EXPECT_NE(report.event_note.find("no instrumented replay"), std::string::npos)
      << report.event_note;
}

TEST(RunProfiled, HardwareDegradesToSimulatedWhenPerfUnavailable) {
  // The `hwc` fault site refuses perf_event_open like a locked-down
  // container does.
  fault::ScopedFaultPlan plan(fault::single_site_plan(fault::Site::kHwc, 1.0));
  const auto graph =
      g::build_undirected(g::rmat({.scale = 9, .edge_factor = 8, .seed = 6}));
  tc::QueryOptions options;
  options.events = EventSource::kHardware;
  const auto report = profiled(tc::Algorithm::kLotus, graph, options);

  // The run must succeed, fall back to the simulated source, and say why.
  EXPECT_EQ(report.event_source, EventSource::kSimulated);
  EXPECT_TRUE(report.events.any());
  EXPECT_NE(report.event_note.find("hardware counters unavailable"),
            std::string::npos)
      << report.event_note;
  EXPECT_NE(report.event_note.find("degraded"), std::string::npos);
}

}  // namespace
