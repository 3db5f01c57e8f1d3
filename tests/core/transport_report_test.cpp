// Unit tests for NetworkedOffloadTransport (the device<->server glue) and
// the report printers.

#include <gtest/gtest.h>

#include <sstream>

#include "ff/core/framefeedback.h"

namespace ff::core {
namespace {

struct Rig {
  sim::Simulator sim{5};
  server::EdgeServer server{sim, {}};
  NetworkedOffloadTransport transport;
  std::vector<std::pair<std::uint64_t, device::OffloadReply>> responses;
  std::vector<std::uint64_t> failures;

  explicit Rig(NetworkedTransportConfig tc = {})
      : transport(sim, sim, server, std::move(tc)) {
    transport.set_on_response(
        [this](std::uint64_t id, device::OffloadReply reply) {
          responses.emplace_back(id, reply);
        });
    transport.set_on_failure(
        [this](std::uint64_t id) { failures.push_back(id); });
  }
};

TEST(NetworkedTransport, RoundTripDeliversResponse) {
  Rig rig;
  rig.transport.offload(7, Bytes{20000});
  rig.sim.run_until(5 * kSecond);
  ASSERT_EQ(rig.responses.size(), 1u);
  EXPECT_EQ(rig.responses[0].first, 7u);
  EXPECT_EQ(rig.responses[0].second, device::OffloadReply::kCompleted);
  EXPECT_EQ(rig.server.stats().requests_completed, 1u);
}

TEST(NetworkedTransport, ManyFramesAllResolve) {
  Rig rig;
  for (std::uint64_t i = 0; i < 100; ++i) {
    rig.transport.offload(i, Bytes{20000});
  }
  rig.sim.run_until(30 * kSecond);
  EXPECT_EQ(rig.responses.size(), 100u);
  EXPECT_TRUE(rig.failures.empty());
}

TEST(NetworkedTransport, RejectionFlagTravelsBack) {
  NetworkedTransportConfig tc;
  Rig rig(std::move(tc));
  // Saturate the server with a hard queue limit so rejection happens.
  server::ServerConfig sc;
  sc.batch_limit = 1;
  server::EdgeServer tiny(rig.sim, sc);
  NetworkedOffloadTransport transport(rig.sim, rig.sim, tiny, {});
  std::vector<device::OffloadReply> replies;
  transport.set_on_response([&](std::uint64_t, device::OffloadReply reply) {
    replies.push_back(reply);
  });
  for (std::uint64_t i = 0; i < 10; ++i) {
    transport.offload(i, Bytes{20000});
  }
  rig.sim.run_until(30 * kSecond);
  int rejections = 0;
  for (const device::OffloadReply r : replies) {
    rejections += device::is_rejection(r) ? 1 : 0;
  }
  EXPECT_GT(rejections, 0);
  EXPECT_EQ(replies.size(), 10u);
}

TEST(NetworkedTransport, DeadLinkReportsFailure) {
  NetworkedTransportConfig tc;
  tc.uplink.initial.loss_probability = 1.0;
  Rig rig(std::move(tc));
  rig.transport.offload(3, Bytes{5000});
  rig.sim.run_until(30 * kSecond);
  ASSERT_EQ(rig.failures.size(), 1u);
  EXPECT_EQ(rig.failures[0], 3u);
  EXPECT_TRUE(rig.responses.empty());
}

TEST(NetworkedTransport, CancelSilencesFrame) {
  NetworkedTransportConfig tc;
  tc.uplink.initial.bandwidth = Bandwidth::mbps(0.5);  // slow: in flight long
  Rig rig(std::move(tc));
  rig.transport.offload(9, Bytes{30000});
  (void)rig.sim.schedule_in(50 * kMillisecond,
                            [&] { rig.transport.cancel(9); });
  rig.sim.run_until(10 * kSecond);
  EXPECT_TRUE(rig.failures.empty());
}

TEST(NetworkedTransport, UplinkStatsExposed) {
  Rig rig;
  rig.transport.offload(1, Bytes{20000});
  rig.sim.run_until(5 * kSecond);
  EXPECT_EQ(rig.transport.uplink_stats().messages_sent, 1u);
  EXPECT_EQ(rig.transport.uplink_stats().sends_succeeded, 1u);
}

TEST(Report, SummaryContainsDevicesAndServer) {
  Scenario s = Scenario::ideal(10 * kSecond);
  s.seed = 2;
  const auto r = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  std::ostringstream os;
  print_summary(os, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("scenario: ideal"), std::string::npos);
  EXPECT_NE(out.find("frame-feedback"), std::string::npos);
  EXPECT_NE(out.find("server:"), std::string::npos);
  EXPECT_NE(out.find("gpu-util"), std::string::npos);
}

TEST(Report, PhaseComparisonAlignsColumns) {
  std::vector<std::vector<PhaseStat>> stats(2);
  for (int run = 0; run < 2; ++run) {
    auto& dest = stats[static_cast<std::size_t>(run)];
    dest.push_back({"phase-x", 0, 10 * kSecond, 11.0 + run, 0.0});
    dest.push_back({"phase-y", 10 * kSecond, 20 * kSecond, 21.0 + run, 0.0});
  }
  std::ostringstream os;
  print_phase_comparison(os, {"a", "b"}, stats);
  const std::string out = os.str();
  EXPECT_NE(out.find("phase-x"), std::string::npos);
  EXPECT_NE(out.find("11.00"), std::string::npos);
  EXPECT_NE(out.find("22.00"), std::string::npos);
  EXPECT_NE(out.find("0-10"), std::string::npos);
}

TEST(Report, PlotRunsRendersLegendFromControllerNames) {
  Scenario s = Scenario::ideal(5 * kSecond);
  s.seed = 2;
  const auto a = run_experiment(
      s, make_controller_factory<control::LocalOnlyController>());
  const auto b = run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>());
  std::ostringstream os;
  plot_runs(os, "title", {&a, &b}, "P");
  const std::string out = os.str();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("local-only"), std::string::npos);
  EXPECT_NE(out.find("always-offload"), std::string::npos);
}

TEST(Report, PlotRunsToleratesMissingSeries) {
  Scenario s = Scenario::ideal(5 * kSecond);
  const auto a = run_experiment(
      s, make_controller_factory<control::LocalOnlyController>());
  std::ostringstream os;
  EXPECT_NO_THROW(plot_runs(os, "t", {&a}, "no-such-series"));
}

TEST(Stats, MeanCiBasics) {
  EXPECT_EQ(mean_ci(std::vector<double>{}).n, 0u);
  const MeanCi single = mean_ci({5.0});
  EXPECT_DOUBLE_EQ(single.mean, 5.0);
  EXPECT_DOUBLE_EQ(single.half_width, 0.0);
  const MeanCi ci = mean_ci({10.0, 12.0, 14.0});
  EXPECT_DOUBLE_EQ(ci.mean, 12.0);
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_DOUBLE_EQ(ci.lo() + ci.hi(), 24.0);
}

}  // namespace
}  // namespace ff::core
