// The disabled-tracing overhead contract: every instrumentation site must
// compile down to one relaxed atomic load and a branch when tracing is off —
// no recorder allocation, no recorder lock, no vclock read. The recorder's
// testing hooks count allocations and mutex acquisitions, so the contract is
// checked structurally instead of with a flaky wall-clock benchmark.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "comm/fabric.hpp"
#include "comm/fault.hpp"
#include "comm/ledger.hpp"
#include "obs/monitor/monitor.hpp"
#include "obs/trace.hpp"

namespace ds {
namespace {

struct RecorderBaseline {
  std::uint64_t allocations = obs::testing::recorder_allocations();
  std::uint64_t locks = obs::testing::recorder_lock_acquisitions();

  void expect_untouched() const {
    EXPECT_EQ(obs::testing::recorder_allocations(), allocations);
    EXPECT_EQ(obs::testing::recorder_lock_acquisitions(), locks);
  }
};

TEST(ObsOverhead, DisabledInstrumentationSitesTouchNothing) {
  obs::set_tracing_enabled(false);
  const RecorderBaseline base;
  for (int i = 0; i < 100000; ++i) {
    DS_TRACE_SPAN("test", "hot");
    obs::instant("test", "hot");
    obs::counter("hot", static_cast<double>(i));
    obs::complete_v("test", "hot", 0.0, 1.0, 0);
    obs::complete_wall("test", "hot", 0, 1);
    obs::span_begin("test", "hot");
    obs::span_end();
  }
  base.expect_untouched();
}

TEST(ObsOverhead, DisabledChargeTracedIsJustACharge) {
  obs::set_tracing_enabled(false);
  const RecorderBaseline base;
  CostLedger ledger;
  double vtime = 0.0;
  for (int i = 0; i < 100000; ++i) {
    vtime += 1.0e-3;
    ledger.charge_traced(Phase::kForwardBackward, 1.0e-3, vtime);
  }
  EXPECT_NEAR(ledger.seconds(Phase::kForwardBackward), 100.0, 1e-6);
  base.expect_untouched();
}

TEST(ObsOverhead, DisabledFabricStepsTouchNothing) {
  obs::set_tracing_enabled(false);
  Fabric fabric(2, LinkModel{});
  const RecorderBaseline base;
  for (int i = 0; i < 500; ++i) {
    fabric.advance(0, 1.0e-6);
    fabric.send(0, 1, 7, std::vector<float>{1.0f, 2.0f});
    const std::vector<float> got = fabric.recv(1, 0, 7);
    ASSERT_EQ(got.size(), 2u);
  }
  base.expect_untouched();
}

TEST(ObsOverhead, DisabledWildcardAndFaultedStepsTouchNothing) {
  // The protocol-narration emits (proto.v1 send/recv/wait instants) ride
  // the same one-branch gate as every other site — including the faulted
  // send path and the wildcard receive added for the protocol checker.
  obs::set_tracing_enabled(false);
  Fabric fabric(3, LinkModel{}, FaultPlan::none().with_polling(50, 1.0e-4));
  const RecorderBaseline base;
  for (int i = 0; i < 200; ++i) {
    fabric.send(1, 0, 9, std::vector<float>{1.0f});
    fabric.send(2, 0, 9, std::vector<float>{2.0f});
    const auto a = fabric.recv_any(0, 9);
    const auto b = fabric.recv_any(0, 9);
    ASSERT_NE(a.first, b.first);
    ASSERT_EQ(a.second.size() + b.second.size(), 2u);
  }
  base.expect_untouched();
}

TEST(ObsOverhead, RankScopeBindingIsRecorderFree) {
  obs::set_tracing_enabled(false);
  const RecorderBaseline base;
  for (int i = 0; i < 100000; ++i) {
    const obs::RankScope scope(i % 4);
  }
  base.expect_untouched();
}

TEST(ObsOverhead, UninstalledMonitorHooksAreOneBranch) {
  // With no Monitor installed, every hook_*() is one relaxed load + branch:
  // the slow-path entry counter must not move, and neither may the recorder
  // (no allocation, no lock, no clock read hides behind the hooks).
  ASSERT_FALSE(obs::monitor::enabled());
  obs::set_tracing_enabled(false);
  const RecorderBaseline base;
  const std::uint64_t slow = obs::monitor::testing::slow_path_entries();
  for (int i = 0; i < 100000; ++i) {
    obs::monitor::hook_run_begin(4);
    obs::monitor::hook_step(i % 4, static_cast<double>(i) * 1e-3);
    obs::monitor::hook_retransmit(i % 4, static_cast<double>(i) * 1e-3, 1);
    obs::monitor::hook_serve_reply(static_cast<double>(i) * 1e-3, 1e-4, false);
    obs::monitor::hook_serve_queue(static_cast<double>(i) * 1e-3, i % 16);
    obs::monitor::hook_tick(static_cast<double>(i) * 1e-3);
    obs::monitor::hook_failure(i % 4, static_cast<double>(i) * 1e-3, "x");
    obs::monitor::hook_run_finalize(static_cast<double>(i) * 1e-3);
  }
  EXPECT_EQ(obs::monitor::testing::slow_path_entries(), slow);
  base.expect_untouched();
}

TEST(ObsOverhead, InstalledMonitorCountsSlowPathEntries) {
  // The inverse contract: with a monitor installed the hooks DO reach the
  // slow path (one entry per call) — proving the test above measures the
  // gate, not dead code.
  obs::monitor::Monitor monitor;
  const obs::monitor::InstallScope scope(monitor);
  const std::uint64_t slow = obs::monitor::testing::slow_path_entries();
  obs::monitor::hook_run_begin(2);
  obs::monitor::hook_step(0, 0.01, 0.01);
  obs::monitor::hook_run_finalize(0.02);
  EXPECT_EQ(obs::monitor::testing::slow_path_entries(), slow + 3);
}

}  // namespace
}  // namespace ds
