#include "ff/sim/partition.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ff::sim {
namespace {

using EventTrace = std::vector<std::pair<SimTime, std::uint64_t>>;

void record_event(void* ctx, SimTime t, std::uint64_t seq) {
  static_cast<EventTrace*>(ctx)->emplace_back(t, seq);
}

/// Serial driver options: deterministic logs may be appended from event
/// actions without any cross-thread coordination.
PartitionedSimulator::Options serial(std::size_t partitions) {
  PartitionedSimulator::Options o;
  o.partitions = partitions;
  o.threads = 1;
  return o;
}

TEST(PartitionedSimulator, RejectsZeroPartitions) {
  EXPECT_THROW(PartitionedSimulator(1, serial(0)), std::invalid_argument);
}

TEST(PartitionedSimulator, RejectsZeroDelayEdge) {
  PartitionedSimulator ps(1, serial(2));
  try {
    ps.add_edge(0, 1, 0);
    FAIL() << "zero-delay edge must be rejected";
  } catch (const std::invalid_argument& e) {
    // The message must tell the user what the lookahead contract needs.
    EXPECT_NE(std::string(e.what()).find("lookahead"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ps.add_edge(0, 1, -5), std::invalid_argument);
}

TEST(PartitionedSimulator, RejectsOutOfRangeEdge) {
  PartitionedSimulator ps(1, serial(2));
  EXPECT_THROW(ps.add_edge(0, 2, kMillisecond), std::invalid_argument);
  EXPECT_THROW(ps.add_edge(5, 0, kMillisecond), std::invalid_argument);
}

TEST(PartitionedSimulator, LookaheadIsMinimumEdgeDelay) {
  PartitionedSimulator ps(1, serial(3));
  EXPECT_EQ(ps.lookahead(), 0);
  ps.add_edge(0, 1, 5 * kMillisecond);
  ps.add_edge(1, 2, 2 * kMillisecond);
  ps.add_edge(2, 0, 9 * kMillisecond);
  EXPECT_EQ(ps.lookahead(), 2 * kMillisecond);
}

/// A single partition with no edges must behave exactly like a plain
/// Simulator: same clock, same event count, same (time, sequence) trace,
/// same RNG streams (the root seed is shared).
TEST(PartitionedSimulator, SinglePartitionDegeneratesToPlainSimulator) {
  const std::uint64_t kSeed = 99;

  Simulator plain(kSeed);
  std::vector<double> plain_draws;
  EventTrace plain_trace;
  plain.set_event_observer(&record_event, &plain_trace);
  // Keep the workload RNG alive for the whole run.
  Rng plain_rng = plain.make_rng("workload");
  for (int i = 0; i < 50; ++i) {
    plain.schedule_at(i * 10, [&plain, &plain_draws, &plain_rng] {
      plain_draws.push_back(plain_rng.uniform());
      plain.schedule_in(3, [] {});
    });
  }
  const std::uint64_t plain_events = plain.run_until(1000);

  PartitionedSimulator ps(kSeed, serial(1));
  Simulator& p0 = ps.partition(0);
  std::vector<double> part_draws;
  EventTrace part_trace;
  p0.set_event_observer(&record_event, &part_trace);
  Rng part_rng = p0.make_rng("workload");
  for (int i = 0; i < 50; ++i) {
    p0.schedule_at(i * 10, [&p0, &part_draws, &part_rng] {
      part_draws.push_back(part_rng.uniform());
      p0.schedule_in(3, [] {});
    });
  }
  const std::uint64_t part_events = ps.run_until(1000);

  EXPECT_EQ(plain_events, part_events);
  EXPECT_EQ(plain.now(), ps.now());
  EXPECT_EQ(plain_trace, part_trace);
  EXPECT_EQ(plain_draws, part_draws);
}

TEST(PartitionedSimulator, SafeHorizonIsEarliestEventPlusLookahead) {
  PartitionedSimulator ps(1, serial(2));
  ps.add_edge(0, 1, 5);
  ps.partition(0).schedule_at(10, [] {});
  ps.partition(1).schedule_at(20, [] {});
  EXPECT_EQ(ps.safe_horizon(1000), 15);  // min(10, 20) + 5
  EXPECT_EQ(ps.safe_horizon(12), 12);    // capped at t_end
}

TEST(PartitionedSimulator, SafeHorizonIsHorizonWhenIdleOrEdgeFree) {
  PartitionedSimulator no_edges(1, serial(2));
  no_edges.partition(0).schedule_at(10, [] {});
  EXPECT_EQ(no_edges.safe_horizon(1000), 1000);

  PartitionedSimulator idle(1, serial(2));
  idle.add_edge(0, 1, 5);
  EXPECT_EQ(idle.safe_horizon(1000), 1000);
}

/// Adversarial mailbox ordering: deliveries with equal timestamps, posted
/// through different edges at different post times, must execute in
/// (deliver_at, post_time, edge id, FIFO) order -- also when the tied
/// edges start in different partitions -- and always after the
/// destination's internal events at the same timestamp, even ones
/// scheduled after the deliveries were drained.
TEST(PartitionedSimulator, CanonicalDrainOrderUnderAdversarialTimestamps) {
  PartitionedSimulator ps(1, serial(2));
  BoundaryEdge& e0 = ps.add_edge(0, 1, 10);
  BoundaryEdge& e1 = ps.add_edge(0, 1, 10);

  std::vector<std::string> log;
  const auto mark = [&log](const char* label) {
    return [&log, label] { log.emplace_back(label); };
  };

  Simulator& p0 = ps.partition(0);
  Simulator& p1 = ps.partition(1);

  // Window 1 (events at t=0 and t=5; horizon 0+10): four posts, three
  // sharing deliver_at=20 with equal post times (A, C on e0; B on e1)
  // plus D posted later at t=5. E delivers at 25.
  p0.schedule_at(0, [&] {
    e0.post(0, 20, InlineTask(mark("A")));
    e1.post(0, 20, InlineTask(mark("B")));
    e0.post(0, 20, InlineTask(mark("C")));
    e0.post(0, 25, InlineTask(mark("E")));
  });
  p0.schedule_at(5, [&] { e1.post(5, 20, InlineTask(mark("D"))); });

  // Window 2: F also delivers at 25 but is posted at t=12, after E's
  // barrier -- its later external sequence must still order it after E.
  p0.schedule_at(12, [&] { e0.post(12, 25, InlineTask(mark("F"))); });

  // Internal events in the destination at the delivery timestamps. "I20"
  // is scheduled at t=15 -- after the t=20 deliveries were already
  // drained into p1's queue -- and must still run before all of them:
  // internal sequences sort below the external band.
  p1.schedule_at(15, [&] {
    p1.schedule_at(20, mark("I20"));
  });
  p1.schedule_at(25, mark("I25"));

  ps.run_until(100);

  const std::vector<std::string> expected = {
      "I20", "A", "C", "B", "D", "I25", "E", "F"};
  EXPECT_EQ(log, expected);

  // A full (deliver_at, post_time) tie between edges from different source
  // partitions breaks by edge id, not by which source's posts are gathered
  // first: edge 1->2 is created before edge 0->2, so its delivery runs
  // first even though partition 0 precedes partition 1.
  PartitionedSimulator three(1, serial(3));
  BoundaryEdge& from1 = three.add_edge(1, 2, 10);
  BoundaryEdge& from0 = three.add_edge(0, 2, 10);
  ASSERT_LT(from1.id(), from0.id());
  log.clear();
  three.partition(0).schedule_at(0, [&] {
    from0.post(0, 20, InlineTask(mark("0->2")));
  });
  three.partition(1).schedule_at(0, [&] {
    from1.post(0, 20, InlineTask(mark("1->2")));
  });
  three.run_until(100);
  const std::vector<std::string> cross = {"1->2", "0->2"};
  EXPECT_EQ(log, cross);
}

/// The sending end of one link, as Link wires it: a delivery id and a FIFO
/// counter, and a boundary edge only when the receiver is on another
/// partition.
struct Route {
  std::uint32_t link;
  Simulator* source;
  Simulator* receiver;
  BoundaryEdge* edge;
  std::uint64_t fifo{0};

  void post(SimTime deliver_at, InlineTask action) {
    const DeliveryKey key{deliver_at, source->now(), fifo++, link};
    if (edge != nullptr) {
      edge->post(key, std::move(action));
    } else {
      receiver->schedule_delivery(key, std::move(action));
    }
  }
};

/// The adversarial timeline above, with its two tied links placed on K
/// partitions: K = 1 keeps both inside one partition, K = 2 puts the
/// receiver on its own partition, and K = 3 gives each sender its own.
/// Edges are created against link-id order, so only the key's link id can
/// order the tie.
std::vector<std::string> replay_adversarial_timeline(std::size_t k) {
  PartitionedSimulator ps(1, serial(k));
  const std::size_t receiver = k - 1;
  const auto route = [&](std::uint32_t link, std::size_t source) {
    BoundaryEdge* edge = source == receiver
                             ? nullptr
                             : &ps.add_edge(source, receiver, 10);
    return Route{link, &ps.partition(source), &ps.partition(receiver),
                 edge};
  };
  Route r1 = route(1, 0);
  Route r0 = route(0, k == 3 ? 1 : 0);

  std::vector<std::string> log;
  const auto mark = [&log](const char* label) {
    return [&log, label] { log.emplace_back(label); };
  };
  r0.source->schedule_at(0, [&] {
    r0.post(20, mark("A"));
    r0.post(20, mark("C"));
    r0.post(25, mark("E"));
  });
  r1.source->schedule_at(0, [&] { r1.post(20, mark("B")); });
  r1.source->schedule_at(5, [&] { r1.post(20, mark("D")); });
  r0.source->schedule_at(12, [&] { r0.post(25, mark("F")); });
  Simulator& dst = ps.partition(receiver);
  dst.schedule_at(15, [&] { dst.schedule_at(20, mark("I20")); });
  dst.schedule_at(25, mark("I25"));

  ps.run_until(100);
  return log;
}

/// One delivery order for every K: at equal times internal events run
/// first, then deliveries by post time, link id and FIFO number -- whether
/// the links post through edges or insert directly.
TEST(PartitionedSimulator, DeliveryKeyOrderIsTheSameAtEveryK) {
  const std::vector<std::string> expected = {
      "I20", "A", "C", "B", "D", "I25", "E", "F"};
  for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}}) {
    EXPECT_EQ(replay_adversarial_timeline(k), expected) << "K=" << k;
  }
}

/// Envelopes still pending when run_until returns (posted in the final
/// window) are delivered by the next call.
TEST(PartitionedSimulator, PendingEnvelopesSurviveAcrossRunCalls) {
  PartitionedSimulator ps(1, serial(2));
  BoundaryEdge& edge = ps.add_edge(0, 1, 10);

  bool delivered = false;
  ps.partition(0).schedule_at(0, [&] {
    edge.post(0, 30, InlineTask([&delivered] { delivered = true; }));
  });

  ps.run_until(5);  // one window; the post happened but nothing delivered
  EXPECT_FALSE(delivered);
  ps.run_until(100);
  EXPECT_TRUE(delivered);
}

/// The same workload must produce the same trace with the worker gang as
/// serially -- here each partition records into its own slot, so threaded
/// execution is race-free by the static-ownership rule.
TEST(PartitionedSimulator, ThreadedWindowsMatchSerial) {
  const auto run = [](unsigned threads) {
    PartitionedSimulator::Options o;
    o.partitions = 4;
    o.threads = threads;
    PartitionedSimulator ps(7, o);
    std::vector<BoundaryEdge*> to_next;
    for (std::size_t p = 0; p < 4; ++p) {
      to_next.push_back(&ps.add_edge(p, (p + 1) % 4, 3));
    }
    std::vector<EventTrace> traces(4);
    std::vector<std::uint64_t> hops(4, 0);
    for (std::size_t p = 0; p < 4; ++p) {
      ps.partition(p).set_event_observer(&record_event, &traces[p]);
      // A kickoff event per partition; workers only ever touch their own
      // partition's slot of `hops`/`traces`, so threading is race-free.
      ps.partition(p).schedule_at(static_cast<SimTime>(p),
                                  [&hops, p] { ++hops[p]; });
    }
    // A token relayed around the ring: partition p at time t posts to
    // p+1 at t+5, 40 hops total.
    struct Chain {
      std::vector<BoundaryEdge*>* edges;
      std::vector<std::uint64_t>* hops;
      std::size_t p;
      int remaining;
      SimTime at;
      void fire() {
        ++(*hops)[p];
        if (remaining == 0) return;
        Chain next{edges, hops, (p + 1) % 4, remaining - 1, at + 5};
        (*edges)[p]->post(at, at + 5, InlineTask([next]() mutable {
          next.fire();
        }));
      }
    };
    Chain seed{&to_next, &hops, 0, 40, 0};
    ps.partition(0).schedule_at(0, [seed]() mutable { seed.fire(); });
    ps.run_until(10000);
    return std::make_pair(traces, hops);
  };

  const auto serial_result = run(1);
  const auto threaded_result = run(4);
  EXPECT_EQ(serial_result.first, threaded_result.first);
  EXPECT_EQ(serial_result.second, threaded_result.second);
  // The token made it around: 41 fires plus the 4 kickoff events.
  std::uint64_t total = 0;
  for (const auto h : serial_result.second) total += h;
  EXPECT_EQ(total, 45u);
}

}  // namespace
}  // namespace ff::sim
