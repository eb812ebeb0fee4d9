// gred::obs — metrics registry, route-trace ring, dynamics event log,
// phase timers, and the JSON exporter.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/controller.hpp"
#include "core/protocol.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "topology/presets.hpp"

namespace gred::obs {
namespace {

// Runs first (gtest registration order): the master switch defaults to
// off, so a library user who never touches gred::obs pays nothing.
TEST(ObsFlagTest, DisabledByDefault) { EXPECT_FALSE(enabled()); }

TEST(ObsFlagTest, SetEnabledToggles) {
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
}

TEST(ObsFlagTest, InitFromEnvHonorsGredObs) {
  ::setenv("GRED_OBS", "1", 1);
  EXPECT_TRUE(init_from_env());
  EXPECT_TRUE(enabled());
  ::setenv("GRED_OBS", "0", 1);
  EXPECT_FALSE(init_from_env());
  EXPECT_FALSE(enabled());
  ::unsetenv("GRED_OBS");
  EXPECT_FALSE(init_from_env());
  set_enabled(false);
}

TEST(MetricsTest, CounterAccumulatesAndResets) {
  Registry reg;
  Counter& c = reg.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name, same metric (stable address).
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeKeepsLastValue) {
  Registry reg;
  Gauge& g = reg.gauge("test.gauge");
  g.set(2.5);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
}

TEST(MetricsTest, HistogramSnapshotMatchesRecords) {
  Registry reg;
  Histogram& h = reg.histogram("test.hist");
  h.record(1.5);
  h.record(3.0);
  h.record(0.25);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 4.75);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.75 / 3.0);
  std::uint64_t binned = 0;
  for (std::size_t i = 0; i < Histogram::kBins; ++i) binned += s.bins[i];
  EXPECT_EQ(binned, 3u);
  // Upper edges are the power-of-two ladder; 2^(kMinExp+1+i).
  EXPECT_DOUBLE_EQ(Histogram::Snapshot::bin_upper(19), 1.0);
  EXPECT_LT(Histogram::Snapshot::bin_upper(0),
            Histogram::Snapshot::bin_upper(1));
}

TEST(MetricsTest, RegistrySnapshotIsNameSorted) {
  Registry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.gauge("g").set(7.0);
  reg.histogram("h").record(1.0);
  const Registry::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "b");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 7.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

TEST(TraceRingTest, RecordWrapAndSnapshot) {
  RouteTraceRing ring;
  EXPECT_EQ(ring.capacity(), 0u);
  // Inactive ring ignores records.
  ring.record(RouteTraceSample{});
  EXPECT_EQ(ring.recorded(), 0u);

  ring.enable(3);  // rounds up to 4
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    RouteTraceSample s;
    s.ingress = i;
    s.hops = i;
    ring.record(s);
  }
  EXPECT_EQ(ring.recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto samples = ring.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  // Oldest first; the first two records were overwritten.
  EXPECT_EQ(samples.front().seq, 2u);
  EXPECT_EQ(samples.front().ingress, 2u);
  EXPECT_EQ(samples.back().seq, 5u);

  ring.disable();
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(EventLogTest, AppendAssignsSequence) {
  EventLog log;
  DynamicsEvent ev;
  ev.kind = EventKind::kAddLink;
  ev.ok = true;
  EXPECT_EQ(log.append(ev), 0u);
  ev.kind = EventKind::kRemoveSwitch;
  EXPECT_EQ(log.append(ev), 1u);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].kind, EventKind::kRemoveSwitch);
  EXPECT_STREQ(event_kind_name(events[0].kind), "add_link");
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

// Whole-system instrumentation: the global flag is on, a controller
// initializes and mutates a network, packets route. Every test in the
// fixture leaves the process-wide obs state as it found it (off,
// empty) so neighbors are unaffected.
class ObsSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry().reset_values();
    event_log().clear();
    route_trace().enable(128);
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    route_trace().disable();
    event_log().clear();
    registry().reset_values();
  }

  static sden::SdenNetwork make_net() {
    return sden::SdenNetwork(
        topology::uniform_edge_network(topology::ring(6), 2));
  }
};

TEST_F(ObsSystemTest, PhaseTimersEventsAndTracesAreRecorded) {
  sden::SdenNetwork net = make_net();
  core::Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  core::GredProtocol proto(net, ctrl);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(proto.place("obs-" + std::to_string(i), "v", i % 6).ok());
  }
  for (int i = 0; i < 30; ++i) {
    auto r = proto.retrieve("obs-" + std::to_string(i), (i + 3) % 6);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().route.found);
  }
  ASSERT_TRUE(ctrl.add_link(net, 0, 3).ok());
  EXPECT_FALSE(ctrl.extend_range(net, 9999).ok());  // logged as failed

  // Control-plane phases each ran at least once (initialize) and the
  // add_link rebuild bumped them again.
  const Registry::Snapshot snap = registry().snapshot();
  for (const char* phase : {"apsp", "mds_embed", "cvt", "dt_build",
                            "install"}) {
    const std::string key = std::string("control.phase.") + phase + ".ms";
    bool found = false;
    for (const auto& [name, hist] : snap.histograms) {
      if (name == key) {
        found = true;
        EXPECT_GE(hist.count, 1u) << key;
      }
    }
    EXPECT_TRUE(found) << key;
  }

  // Data-plane counters and the trace ring saw the traffic.
  EXPECT_GE(registry().counter("sden.packets_routed").value(), 60u);
  EXPECT_GE(registry().histogram("sden.route_hops").snapshot().count, 60u);
  EXPECT_GE(route_trace().recorded(), 60u);
  const auto samples = route_trace().snapshot();
  ASSERT_FALSE(samples.empty());
  bool any_found = false;
  for (const RouteTraceSample& s : samples) {
    EXPECT_LT(s.ingress, 6u);
    any_found = any_found || s.found;
  }
  EXPECT_TRUE(any_found);

  // One event per public dynamics call, in order, failures included.
  const auto events = event_log().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kAddLink);
  EXPECT_TRUE(events[0].ok);
  EXPECT_EQ(events[0].subject, 0u);
  EXPECT_EQ(events[0].peer, 3u);
  EXPECT_GT(events[0].entries_after, 0u);
  EXPECT_GE(events[0].duration_ms, 0.0);
  EXPECT_EQ(events[1].kind, EventKind::kExtendRange);
  EXPECT_FALSE(events[1].ok);
  EXPECT_FALSE(events[1].status.empty());
}

TEST_F(ObsSystemTest, EventLogCoversChurnOps) {
  sden::SdenNetwork net = make_net();
  core::Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  ASSERT_TRUE(ctrl.add_switch(net, {0, 2}, 1).ok());
  // One join: one incremental rebuild, then one `migrate` phase timing
  // its item migration and replica repair.
  EXPECT_EQ(registry().counter("control.phase.migrate.runs").value(), 1u);
  EXPECT_EQ(
      registry().counter("control.phase.incremental_rebuild.runs").value(),
      1u);
  ASSERT_TRUE(ctrl.extend_range(net, 0).ok());
  ASSERT_TRUE(ctrl.retract_range(net, 0).ok());
  ASSERT_TRUE(ctrl.remove_switch(net, 6).ok());
  const auto events = event_log().snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, EventKind::kAddSwitch);
  EXPECT_EQ(events[0].subject, 6u);  // the id the join produced
  EXPECT_EQ(events[1].kind, EventKind::kExtendRange);
  EXPECT_EQ(events[2].kind, EventKind::kRetractRange);
  EXPECT_EQ(events[3].kind, EventKind::kRemoveSwitch);
  EXPECT_EQ(events[3].subject, 6u);
  for (const DynamicsEvent& ev : events) EXPECT_TRUE(ev.ok);
}

TEST_F(ObsSystemTest, EventLogRecordsPatchedCounts) {
  // A chord across ring(6) shortens two of six distance rows; cutting
  // ring(8) lengthens six of eight. Both finish on the delta path, and
  // the log records how many switches each one patched.
  sden::SdenNetwork net = make_net();
  core::Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  ASSERT_TRUE(ctrl.add_link(net, 0, 3).ok());
  const std::size_t chord_patched = ctrl.last_affected_switches().size();
  sden::SdenNetwork ring8(
      topology::uniform_edge_network(topology::ring(8), 1));
  core::Controller ctrl8;
  ASSERT_TRUE(ctrl8.initialize(ring8).ok());
  ASSERT_TRUE(ctrl8.remove_link(ring8, 0, 1).ok());
  const std::size_t cut_patched = ctrl8.last_affected_switches().size();
  EXPECT_GT(chord_patched, 0u);
  EXPECT_GT(cut_patched, 0u);

  const auto events = event_log().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kAddLink);
  EXPECT_TRUE(events[0].ok);
  EXPECT_EQ(events[0].patched, chord_patched);
  EXPECT_EQ(events[1].kind, EventKind::kRemoveLink);
  EXPECT_TRUE(events[1].ok);
  EXPECT_EQ(events[1].patched, cut_patched);

  const std::string json = to_json(default_sources());
  for (const std::size_t patched : {chord_patched, cut_patched}) {
    EXPECT_NE(json.find("\"patched\": " + std::to_string(patched) +
                        ", \"migrated\""),
              std::string::npos)
        << patched;
  }
}

TEST_F(ObsSystemTest, JsonExportCarriesAllSections) {
  sden::SdenNetwork net = make_net();
  core::Controller ctrl;
  ASSERT_TRUE(ctrl.initialize(net).ok());
  core::GredProtocol proto(net, ctrl);
  ASSERT_TRUE(proto.place("exp-0", "v", 0).ok());
  ASSERT_TRUE(ctrl.add_link(net, 1, 4).ok());

  const std::string json = to_json(default_sources());
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("control.phase.apsp.ms"), std::string::npos);
  EXPECT_NE(json.find("\"route_trace\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"add_link\""), std::string::npos);

  // Null sources drop their sections instead of crashing.
  ExportSources none;
  const std::string empty_json = to_json(none);
  EXPECT_EQ(empty_json.find("\"metrics\""), std::string::npos);
}

}  // namespace
}  // namespace gred::obs
