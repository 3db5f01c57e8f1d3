#include "ff/server/edge_server.h"

#include <gtest/gtest.h>

#include <vector>

#include "ff/sim/timer.h"

namespace ff::server {
namespace {

InferenceRequest req(
    std::uint64_t id,
    models::ModelId model = models::ModelId::kMobileNetV3Small) {
  InferenceRequest r;
  r.request_id = id;
  r.client_id = 1;
  r.model = model;
  r.payload = Bytes{20000};
  return r;
}

struct Collector {
  std::vector<RequestOutcome> outcomes;

  CompletionFn fn() {
    return [this](const RequestOutcome& o) { outcomes.push_back(o); };
  }

  [[nodiscard]] int completed() const {
    int n = 0;
    for (const auto& o : outcomes) {
      if (o.status == RequestStatus::kCompleted) ++n;
    }
    return n;
  }
  [[nodiscard]] int rejected() const {
    return static_cast<int>(outcomes.size()) - completed();
  }
};

TEST(EdgeServer, SingleRequestCompletes) {
  sim::Simulator sim;
  EdgeServer server(sim, {});
  Collector c;
  server.submit(req(1), c.fn());
  sim.run();
  ASSERT_EQ(c.outcomes.size(), 1u);
  EXPECT_EQ(c.outcomes[0].status, RequestStatus::kCompleted);
  EXPECT_EQ(c.outcomes[0].batch_size, 1);
  EXPECT_GT(c.outcomes[0].finished_at, 0);
}

TEST(EdgeServer, CompletionFiresExactlyOncePerRequest) {
  sim::Simulator sim;
  EdgeServer server(sim, {});
  Collector c;
  for (int i = 0; i < 50; ++i) server.submit(req(i), c.fn());
  sim.run();
  EXPECT_EQ(c.outcomes.size(), 50u);
}

TEST(EdgeServer, ArrivalsDuringBatchFormNextBatch) {
  sim::Simulator sim;
  EdgeServer server(sim, {});
  Collector c;
  server.submit(req(0), c.fn());  // batch 1, size 1
  // These arrive while batch 1 executes.
  (void)sim.schedule_in(kMillisecond, [&] {
    for (int i = 1; i <= 5; ++i) server.submit(req(i), c.fn());
  });
  sim.run();
  ASSERT_EQ(c.outcomes.size(), 6u);
  EXPECT_EQ(c.outcomes[0].batch_size, 1);
  for (int i = 1; i <= 5; ++i) EXPECT_EQ(c.outcomes[i].batch_size, 5);
  EXPECT_EQ(server.stats().batches_executed, 2u);
}

TEST(EdgeServer, BatchLimitCapsBatchAndRejectsRemainder) {
  sim::Simulator sim;
  ServerConfig cfg;
  cfg.batch_limit = 15;
  EdgeServer server(sim, cfg);
  Collector c;
  server.submit(req(0), c.fn());  // occupies the GPU
  (void)sim.schedule_in(kMillisecond, [&] {
    for (int i = 1; i <= 20; ++i) server.submit(req(i), c.fn());
  });
  sim.run();
  // 1 (first batch) + 15 (second batch) complete; 5 rejected.
  EXPECT_EQ(c.completed(), 16);
  EXPECT_EQ(c.rejected(), 5);
  EXPECT_EQ(server.stats().requests_rejected, 5u);
}

TEST(EdgeServer, RejectionDisabledKeepsQueue) {
  sim::Simulator sim;
  ServerConfig cfg;
  cfg.batch_limit = 15;
  cfg.reject_overflow = false;
  EdgeServer server(sim, cfg);
  Collector c;
  server.submit(req(0), c.fn());
  (void)sim.schedule_in(kMillisecond, [&] {
    for (int i = 1; i <= 20; ++i) server.submit(req(i), c.fn());
  });
  sim.run();
  EXPECT_EQ(c.completed(), 21);
  EXPECT_EQ(c.rejected(), 0);
  EXPECT_EQ(server.stats().batches_executed, 3u);  // 1 + 15 + 5
}

TEST(EdgeServer, RejectedOutcomeHasZeroBatch) {
  sim::Simulator sim;
  ServerConfig cfg;
  cfg.batch_limit = 1;
  EdgeServer server(sim, cfg);
  Collector c;
  server.submit(req(0), c.fn());
  (void)sim.schedule_in(kMillisecond, [&] {
    server.submit(req(1), c.fn());
    server.submit(req(2), c.fn());
  });
  sim.run();
  bool saw_rejection = false;
  for (const auto& o : c.outcomes) {
    if (o.status == RequestStatus::kRejected) {
      saw_rejection = true;
      EXPECT_EQ(o.batch_size, 0);
    }
  }
  EXPECT_TRUE(saw_rejection);
}

TEST(EdgeServer, HardQueueLimitRejectsOnArrival) {
  sim::Simulator sim;
  ServerConfig cfg;
  cfg.reject_overflow = false;
  EdgeServer server(sim, cfg);
  Collector c;
  server.submit(req(0), c.fn());  // in service
  for (int i = 1; i <= 1026; ++i) server.submit(req(i), c.fn());
  // 1024 queued (the memory guard's limit), 2 rejected immediately.
  EXPECT_EQ(c.rejected(), 2);
  sim.run();
  EXPECT_EQ(c.completed(), 1025);
}

TEST(EdgeServer, MultiModelRoundRobinAvoidsStarvation) {
  sim::Simulator sim;
  EdgeServer server(sim, {});
  Collector small, b0;
  // Saturate with MobileNet, then slip one EfficientNet in.
  server.submit(req(0, models::ModelId::kMobileNetV3Small), small.fn());
  (void)sim.schedule_in(kMillisecond, [&] {
    for (int i = 1; i <= 10; ++i) {
      server.submit(req(i, models::ModelId::kMobileNetV3Small), small.fn());
    }
    server.submit(req(100, models::ModelId::kEfficientNetB0), b0.fn());
  });
  sim.run();
  EXPECT_EQ(b0.completed(), 1);
  EXPECT_EQ(small.completed(), 11);
  // Batches never mix models.
  EXPECT_EQ(server.stats().batches_executed, 3u);
}

TEST(EdgeServer, ServiceLatencyIncludesQueueing) {
  sim::Simulator sim;
  EdgeServer server(sim, {});
  Collector c;
  server.submit(req(0), c.fn());
  (void)sim.schedule_in(kMillisecond, [&] { server.submit(req(1), c.fn()); });
  sim.run();
  ASSERT_EQ(c.outcomes.size(), 2u);
  // Request 1 waited for batch 0 to finish.
  EXPECT_GT(c.outcomes[1].service_latency(),
            c.outcomes[0].service_latency() / 2);
}

// Regression: queue_for hands out a reference into the queue container, and
// start_batch keeps using it across rejection callbacks. A rejected client
// may react by submitting the first-ever request for a *different* model,
// growing the container mid-loop; when the container was a vector that
// reallocation left start_batch iterating a dangling reference (caught by
// ASan). The container is now a deque, whose references survive growth.
TEST(EdgeServer, RejectionCallbackMayRegisterNewModelMidBatch) {
  sim::Simulator sim;
  ServerConfig cfg;
  cfg.batch_limit = 1;
  EdgeServer server(sim, cfg);
  Collector small, b0;
  server.submit(req(0), small.fn());  // occupies the GPU
  (void)sim.schedule_in(kMillisecond, [&] {
    server.submit(req(1), small.fn());
    // Rejected when the next batch starts; retries on another model whose
    // queue does not exist yet.
    server.submit(req(2), [&](const RequestOutcome& o) {
      if (o.status == RequestStatus::kRejected) {
        server.submit(req(100, models::ModelId::kEfficientNetB0), b0.fn());
      }
    });
    // Still pending behind req 2, so the rejection loop keeps touching the
    // queue after the callback grew the container.
    server.submit(req(3), small.fn());
  });
  sim.run();
  EXPECT_EQ(small.completed(), 2);  // 0 and 1
  EXPECT_EQ(b0.completed(), 1);
  EXPECT_EQ(server.stats().requests_rejected, 2u);  // 2 and 3
  EXPECT_EQ(server.stats().requests_completed, 3u);
}

// Regression: gpu_utilization used to credit a batch's whole execution time
// the moment the batch started, so queries landing mid-batch over-reported
// -- above 1.0 when most of the elapsed run was one in-flight batch.
TEST(EdgeServer, GpuUtilizationProratesInFlightBatch) {
  sim::Simulator sim;
  EdgeServer server(sim, {});
  Collector c;
  server.submit(req(0), c.fn());  // batch starts at t=0, exec ~ several ms
  sim.run_until(kMillisecond);
  ASSERT_TRUE(server.gpu_busy());
  // Mid-batch the GPU has been busy for exactly the elapsed time.
  EXPECT_DOUBLE_EQ(server.gpu_utilization(), 1.0);
}

TEST(EdgeServer, GpuUtilizationFallsWhileIdle) {
  sim::Simulator sim;
  EdgeServer server(sim, {});
  Collector c;
  server.submit(req(0), c.fn());
  sim.run();                       // batch done, GPU idle
  const SimTime done = sim.now();
  sim.run_until(done * 2);         // idle as long as it was busy
  EXPECT_FALSE(server.gpu_busy());
  EXPECT_NEAR(server.gpu_utilization(), 0.5, 0.02);
}

TEST(EdgeServer, GpuUtilizationBetweenZeroAndOne) {
  sim::Simulator sim;
  EdgeServer server(sim, {});
  Collector c;
  for (int i = 0; i < 10; ++i) server.submit(req(i), c.fn());
  sim.run_until(10 * kSecond);
  const double u = server.gpu_utilization();
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0);
}

TEST(EdgeServer, QueueDepthPerModel) {
  sim::Simulator sim;
  EdgeServer server(sim, {});
  Collector c;
  server.submit(req(0, models::ModelId::kMobileNetV3Small), c.fn());
  server.submit(req(1, models::ModelId::kMobileNetV3Small), c.fn());
  server.submit(req(2, models::ModelId::kEfficientNetB0), c.fn());
  EXPECT_EQ(server.queue_depth(models::ModelId::kMobileNetV3Small), 1u);
  EXPECT_EQ(server.queue_depth(models::ModelId::kEfficientNetB0), 1u);
  EXPECT_EQ(server.queue_depth(), 2u);
  EXPECT_TRUE(server.gpu_busy());
}

// Parameterized: the adaptive batcher must keep served throughput near the
// offered rate whenever the offered rate is below the full-batch capacity.
class BatcherThroughputSweep : public ::testing::TestWithParam<double> {};

TEST_P(BatcherThroughputSweep, ServesOfferedLoadBelowCapacity) {
  const double rate = GetParam();
  sim::Simulator sim(11);
  EdgeServer server(sim, {});
  Collector c;
  std::uint64_t id = 0;
  sim::PeriodicTimer source(sim, [&](std::uint64_t) {
    server.submit(req(id++), c.fn());
  });
  source.start(static_cast<SimDuration>(kSecond / rate));
  sim.run_until(20 * kSecond);
  const double served =
      static_cast<double>(server.stats().requests_completed) / 20.0;
  EXPECT_NEAR(served, rate, rate * 0.1) << "offered " << rate << "/s";
  EXPECT_EQ(server.stats().requests_rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(OfferedRates, BatcherThroughputSweep,
                         ::testing::Values(10.0, 40.0, 90.0, 140.0));

TEST(EdgeServer, OverloadRejectsRatherThanQueuesForever) {
  sim::Simulator sim(12);
  EdgeServer server(sim, {});
  Collector c;
  std::uint64_t id = 0;
  sim::PeriodicTimer source(sim, [&](std::uint64_t) {
    server.submit(req(id++), c.fn());
  });
  source.start(kSecond / 300);  // 300/s >> ~162/s capacity
  sim.run_until(20 * kSecond);
  EXPECT_GT(server.stats().requests_rejected, 1000u);
  // Mean batch size pushed to the limit under overload.
  EXPECT_GT(server.stats().mean_batch_size(), 10.0);
  // Completed requests still flowed at roughly capacity.
  const double served =
      static_cast<double>(server.stats().requests_completed) / 20.0;
  EXPECT_GT(served, 120.0);
  EXPECT_LT(served, 200.0);
}

}  // namespace
}  // namespace ff::server
