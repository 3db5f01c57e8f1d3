#include "ff/net/transport.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace ff::net {
namespace {

LinkConfig clean_link(double mbps = 8.0) {
  LinkConfig c;
  c.initial.bandwidth = Bandwidth::mbps(mbps);
  c.initial.loss_probability = 0.0;
  c.initial.propagation_delay = kMillisecond;
  return c;
}

struct Rig {
  sim::Simulator sim{7};
  DuplexPath path;
  std::vector<std::pair<std::uint64_t, Bytes>> delivered;
  std::map<std::uint64_t, bool> send_results;

  explicit Rig(LinkConfig fwd = clean_link(), LinkConfig rev = clean_link())
      : path(sim, fwd, rev) {
    path.uplink().set_on_message([this](std::uint64_t id, Bytes b) {
      delivered.emplace_back(id, b);
    });
    path.uplink().set_on_send_result([this](std::uint64_t id, bool ok) {
      send_results[id] = ok;
    });
  }
};

TEST(ReliableChannel, SingleFragmentDelivery) {
  Rig rig;
  rig.path.uplink().send(1, Bytes{500});
  rig.sim.run_until(kSecond);
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[0].first, 1u);
  EXPECT_EQ(rig.delivered[0].second.count, 500);
  EXPECT_TRUE(rig.send_results.at(1));
  EXPECT_EQ(rig.path.uplink().stats().sends_succeeded, 1u);
}

TEST(ReliableChannel, MultiFragmentReassembly) {
  Rig rig;
  rig.path.uplink().send(2, Bytes{10000});  // 8 fragments at 1400 MTU
  rig.sim.run_until(kSecond);
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[0].second.count, 10000);
  EXPECT_GE(rig.path.uplink().stats().fragments_sent, 8u);
}

TEST(ReliableChannel, PayloadSmallerThanMtuIsOneFragment) {
  Rig rig;
  rig.path.uplink().send(3, Bytes{1});
  rig.sim.run_until(kSecond);
  EXPECT_EQ(rig.path.uplink().stats().fragments_sent, 1u);
}

TEST(ReliableChannel, RetransmitsThroughLoss) {
  LinkConfig lossy = clean_link();
  lossy.initial.loss_probability = 0.3;
  Rig rig(lossy, lossy);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rig.path.uplink().send(i, Bytes{5000});
  }
  rig.sim.run_until(30 * kSecond);
  EXPECT_EQ(rig.delivered.size(), 20u);
  EXPECT_GT(rig.path.uplink().stats().retransmissions, 0u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_TRUE(rig.send_results.at(i));
}

TEST(ReliableChannel, TotalLossExhaustsRetriesAndFails) {
  LinkConfig dead = clean_link();
  dead.initial.loss_probability = 1.0;
  Rig rig(dead, dead);
  rig.path.uplink().send(9, Bytes{100});
  rig.sim.run_until(60 * kSecond);
  EXPECT_TRUE(rig.delivered.empty());
  ASSERT_TRUE(rig.send_results.count(9));
  EXPECT_FALSE(rig.send_results.at(9));
  EXPECT_EQ(rig.path.uplink().stats().sends_failed, 1u);
  EXPECT_FALSE(rig.path.uplink().in_flight(9));
}

TEST(ReliableChannel, CancelStopsRetransmission) {
  LinkConfig dead = clean_link();
  dead.initial.loss_probability = 1.0;
  Rig rig(dead, dead);
  rig.path.uplink().send(4, Bytes{100});
  EXPECT_TRUE(rig.path.uplink().in_flight(4));
  rig.path.uplink().cancel(4);
  EXPECT_FALSE(rig.path.uplink().in_flight(4));
  rig.sim.run_until(10 * kSecond);
  // Neither success nor failure is reported after cancel.
  EXPECT_EQ(rig.send_results.count(4), 0u);
  EXPECT_EQ(rig.path.uplink().stats().sends_cancelled, 1u);
}

TEST(ReliableChannel, ExponentialBackoffSpacesRetries) {
  LinkConfig dead = clean_link();
  dead.initial.loss_probability = 1.0;
  Rig rig(dead, dead);
  rig.path.uplink().send(5, Bytes{100});
  // The 100 ms RTO doubles per attempt up to 3.2 s: attempts at 0, 0.1,
  // 0.3, 0.7, 1.5, 3.1, 6.3, 9.5 and 12.7 s, and the ninth attempt's RTO
  // fails the message at 15.9 s.
  rig.sim.run_until(kSecond);
  EXPECT_EQ(rig.path.uplink().stats().fragments_sent, 4u);
  rig.sim.run_until(15'800 * kMillisecond);
  EXPECT_TRUE(rig.path.uplink().in_flight(5));
  rig.sim.run_until(16 * kSecond);
  EXPECT_FALSE(rig.path.uplink().in_flight(5));
  EXPECT_EQ(rig.path.uplink().stats().fragments_sent, 9u);  // 1 + 8 retries
}

TEST(ReliableChannel, DuplicateFragmentsAreCountedNotRedelivered) {
  // Lossy ack path: data arrives, acks die, sender retransmits, receiver
  // must not deliver twice.
  LinkConfig fwd = clean_link();
  LinkConfig rev = clean_link();
  rev.initial.loss_probability = 1.0;
  Rig rig(fwd, rev);
  rig.path.uplink().send(6, Bytes{100});
  rig.sim.run_until(20 * kSecond);
  EXPECT_EQ(rig.delivered.size(), 1u);
  EXPECT_GT(rig.path.uplink().stats().duplicate_fragments, 0u);
  // Sender never saw an ack -> reported failed even though delivered.
  EXPECT_FALSE(rig.send_results.at(6));
}

TEST(ReliableChannel, ManyConcurrentMessagesAllArrive) {
  Rig rig;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    rig.path.uplink().send(static_cast<std::uint64_t>(i), Bytes{3000});
  }
  rig.sim.run_until(60 * kSecond);
  EXPECT_EQ(rig.delivered.size(), static_cast<std::size_t>(n));
}

TEST(DuplexPath, DownlinkIsIndependent) {
  Rig rig;
  std::vector<std::uint64_t> down;
  rig.path.downlink().set_on_message(
      [&](std::uint64_t id, Bytes) { down.push_back(id); });
  rig.path.uplink().send(1, Bytes{1000});
  rig.path.downlink().send(1, Bytes{300});  // same id, different channel
  rig.sim.run_until(kSecond);
  EXPECT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(down.size(), 1u);
}

TEST(DuplexPath, SetConditionsHitsBothDirections) {
  Rig rig;
  rig.path.set_conditions({Bandwidth::mbps(1), 0.2, 5 * kMillisecond});
  EXPECT_DOUBLE_EQ(rig.path.forward_link().conditions().loss_probability, 0.2);
  EXPECT_DOUBLE_EQ(rig.path.reverse_link().conditions().loss_probability, 0.2);
}

TEST(DuplexPath, LinksAccessorReturnsBoth) {
  Rig rig;
  EXPECT_EQ(rig.path.links().size(), 2u);
}

TEST(ReliableChannel, BandwidthBoundsThroughput) {
  // 0.8 Mbps = 100 B/us... actually 0.1 B/us: 30 KB message takes ~300 ms
  // of pure serialization, so at most ~3 msgs/s fit.
  Rig rig(clean_link(0.8), clean_link(0.8));
  for (std::uint64_t i = 0; i < 10; ++i) {
    rig.path.uplink().send(i, Bytes{30000});
  }
  rig.sim.run_until(2 * kSecond);
  // ~2s * 0.8 Mbps / (30 KB + overhead) ~= 6 messages, certainly < 10.
  EXPECT_LT(rig.delivered.size(), 9u);
  EXPECT_GE(rig.delivered.size(), 4u);
}

TEST(ReliableChannel, PartialsExpireAfterReassemblyTimeout) {
  // Forward link drops 60%: fragments trickle in; a fragment loses all
  // nine attempts about 1 % of the time, so some messages stay partial at
  // the receiver and must be expired.
  LinkConfig fwd = clean_link();
  fwd.initial.loss_probability = 0.6;
  Rig rig(fwd, clean_link());
  for (std::uint64_t i = 0; i < 50; ++i) {
    rig.path.uplink().send(i, Bytes{10000});
  }
  rig.sim.run_until(30 * kSecond);
  // Keep feeding new messages so gc runs.
  for (std::uint64_t i = 50; i < 60; ++i) {
    rig.path.uplink().send(i, Bytes{10000});
  }
  rig.sim.run_until(60 * kSecond);
  EXPECT_GT(rig.path.uplink().stats().partials_expired, 0u);
}

}  // namespace
}  // namespace ff::net
