// Concurrency stress suite. These tests exist to give ThreadSanitizer
// something to chew on: they hammer the queues and the thread pool from many
// threads at once, with enough iterations that a missing memory order or a
// torn non-atomic access shows up as a TSan report (and, without TSan, as a
// wrong checksum). They run in every build type; the dedicated CI job builds
// them with -DFF_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "ff/core/framefeedback.h"
#include "ff/obs/trace.h"
#include "ff/rt/thread_pool.h"
#include "ff/sim/inline_task.h"
#include "ff/sweep/sweep.h"
#include "ff/util/mpmc_queue.h"
#include "ff/util/sliding_window.h"

namespace {

// ---------------------------------------------------------------------------
// MpmcQueue

TEST(MpmcStress, ManyProducersManyConsumersConserveSum) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 20000;

  ff::MpmcQueue<std::uint64_t> queue(256);
  std::atomic<std::uint64_t> consumed_sum{0};
  std::atomic<std::uint64_t> consumed_count{0};

  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = queue.pop()) {
        consumed_sum.fetch_add(*v, std::memory_order_relaxed);
        consumed_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(std::uint64_t{static_cast<unsigned>(p)} + i));
      }
    });
  }

  for (auto& t : producers) t.join();
  queue.close();  // consumers drain what is left, then exit
  for (auto& t : consumers) t.join();

  std::uint64_t expected = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (std::uint64_t i = 0; i < kPerProducer; ++i) {
      expected += std::uint64_t{static_cast<unsigned>(p)} + i;
    }
  }
  EXPECT_EQ(consumed_count.load(), kProducers * kPerProducer);
  EXPECT_EQ(consumed_sum.load(), expected);
}

TEST(MpmcStress, TryPushTryPopUnderContention) {
  ff::MpmcQueue<int> queue(64);
  std::atomic<int> pushed{0};
  std::atomic<int> popped{0};
  constexpr int kTarget = 50000;

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (pushed.load(std::memory_order_relaxed) < kTarget) {
        if (queue.try_push(1)) {
          pushed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
    threads.emplace_back([&] {
      while (popped.load(std::memory_order_relaxed) < kTarget) {
        if (queue.try_pop()) {
          popped.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Over-shoot is possible (several threads observe count < target and all
  // succeed), so drain and check conservation rather than equality with
  // kTarget.
  int drained = 0;
  while (queue.try_pop()) ++drained;
  EXPECT_EQ(pushed.load(), popped.load() + drained);
}

TEST(MpmcStress, CloseRacingWithBlockedProducersAndConsumers) {
  for (int round = 0; round < 50; ++round) {
    ff::MpmcQueue<int> queue(2);
    std::vector<std::thread> threads;
    std::atomic<int> rejected_pushes{0};
    // Producers: the queue fills instantly, so most block in push() and must
    // be released by close() with a false return.
    for (int p = 0; p < 4; ++p) {
      threads.emplace_back([&] {
        for (int i = 0; i < 100; ++i) {
          if (!queue.push(i)) {
            rejected_pushes.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    // Consumers: pop until closed-and-drained.
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&] {
        while (queue.pop()) {
        }
      });
    }
    queue.close();
    for (auto& t : threads) t.join();
    // After close, pushes must fail and pops must drain to empty.
    EXPECT_FALSE(queue.push(99));
    EXPECT_EQ(queue.pop(), std::nullopt);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolStress, SubmitStormFromManyThreads) {
  ff::rt::ThreadPool pool(4);
  constexpr int kSubmitters = 6;
  constexpr int kPerSubmitter = 2000;
  std::atomic<std::uint64_t> executed{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &executed] {
      std::vector<std::future<std::uint64_t>> futures;
      futures.reserve(kPerSubmitter);
      for (int i = 0; i < kPerSubmitter; ++i) {
        futures.push_back(pool.submit([&executed, i] {
          executed.fetch_add(1, std::memory_order_relaxed);
          return std::uint64_t{static_cast<unsigned>(i)};
        }));
      }
      std::uint64_t sum = 0;
      for (auto& f : futures) sum += f.get();
      EXPECT_EQ(sum,
                std::uint64_t{kPerSubmitter} * (kPerSubmitter - 1) / 2);
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(executed.load(), kSubmitters * kPerSubmitter);
}

TEST(ThreadPoolStress, ConcurrentCallersShareDefaultPool) {
  // Several threads fanning out through the shared default_pool() at once:
  // exercises first-use construction racing with submission from siblings.
  constexpr int kCallers = 4;
  constexpr std::size_t kTasks = 200;
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c] {
      const auto offset = static_cast<std::size_t>(c);
      std::vector<std::future<std::size_t>> futures;
      futures.reserve(kTasks);
      for (std::size_t i = 0; i < kTasks; ++i) {
        futures.push_back(ff::rt::default_pool().submit(
            [i, offset] { return i * 2 + offset; }));
      }
      for (std::size_t i = 0; i < kTasks; ++i) {
        EXPECT_EQ(futures[i].get(), i * 2 + offset);
      }
    });
  }
  for (auto& t : callers) t.join();
}

TEST(ThreadPoolStress, DestructorDrainsInFlightTasksBeforeJoin) {
  // Shutdown ordering: tasks already queued when ~ThreadPool runs must
  // either run or be dropped without racing the worker joins. Futures for
  // executed tasks must be resolved; the counter must be stable after join.
  std::atomic<int> ran{0};
  {
    ff::rt::ThreadPool pool(2);
    for (int i = 0; i < 1000; ++i) {
      // Submit-and-drop: the future is discarded, the pool must still not
      // leak or race the task destruction at close().
      auto f = pool.submit([&ran] { ran.fetch_add(1); });
      (void)f;
    }
  }  // ~ThreadPool: close() + join all workers
  const int after_join = ran.load();
  EXPECT_GE(after_join, 0);
  EXPECT_LE(after_join, 1000);
  // No more increments are possible now -- the workers are joined.
  EXPECT_EQ(after_join, ran.load());
}

// ---------------------------------------------------------------------------
// InlineTask heap fallback (oversized captures) across threads

TEST(InlineTaskStress, OversizedCaptureConstructInvokeDestroyAcrossThreads) {
  // Capture bigger than kInlineCapacity forces the heap-fallback path:
  // thread A constructs, thread B moves + invokes, thread C destroys.
  struct Big {
    std::uint64_t payload[16];  // 128 bytes > 64-byte inline capacity
  };
  static_assert(sizeof(Big) > ff::sim::InlineTask::kInlineCapacity);

  constexpr int kRounds = 2000;
  ff::MpmcQueue<ff::sim::InlineTask> to_invoke(64);
  ff::MpmcQueue<ff::sim::InlineTask> to_destroy(64);
  std::atomic<std::uint64_t> checksum{0};

  std::thread invoker([&] {
    while (auto task = to_invoke.pop()) {
      (*task)();  // runs on a different thread than construction
      EXPECT_TRUE(to_destroy.push(std::move(*task)));
    }
    to_destroy.close();
  });
  int destroyed = 0;
  std::thread destroyer([&] {
    while (auto task = to_destroy.pop()) {
      task->reset();  // destroys the heap-allocated capture on thread C
      ++destroyed;
    }
  });

  std::uint64_t expected = 0;
  for (int r = 0; r < kRounds; ++r) {
    Big big{};
    for (int i = 0; i < 16; ++i) {
      big.payload[i] = static_cast<std::uint64_t>(r) * 16 + i;
    }
    for (int i = 0; i < 16; ++i) expected += big.payload[i];
    ff::sim::InlineTask task([big, &checksum] {
      std::uint64_t sum = 0;
      for (std::uint64_t v : big.payload) sum += v;
      checksum.fetch_add(sum, std::memory_order_relaxed);
    });
    EXPECT_TRUE(to_invoke.push(std::move(task)));
  }
  to_invoke.close();
  invoker.join();
  destroyer.join();
  EXPECT_EQ(destroyed, kRounds);
  EXPECT_EQ(checksum.load(), expected);
}

TEST(InlineTaskStress, InlineCaptureHandoffThroughPoolQueue) {
  // Inline-capacity tasks moved through the MPMC queue the pool uses:
  // construct on main, invoke on workers, sum must be conserved.
  constexpr int kTasks = 20000;
  ff::MpmcQueue<ff::sim::InlineTask> queue(128);
  std::atomic<std::uint64_t> sum{0};

  std::vector<std::thread> workers;
  workers.reserve(3);
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&queue] {
      while (auto task = queue.pop()) (*task)();
    });
  }
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(queue.push(ff::sim::InlineTask(
        [i, &sum] { sum.fetch_add(static_cast<unsigned>(i)); })));
  }
  queue.close();
  for (auto& t : workers) t.join();
  EXPECT_EQ(sum.load(), std::uint64_t{kTasks} * (kTasks - 1) / 2);
}

// ---------------------------------------------------------------------------
// obs::TraceSink under cross-thread use (a partitioned experiment's
// workers sharing one sink through obs::SynchronizedTraceSink).

TEST(TraceSinkStress, SynchronizedSinkSerializesConcurrentEmitters) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;

  ff::obs::CollectingTraceSink collector;
  ff::obs::SynchronizedTraceSink sink(collector);

  std::vector<std::thread> emitters;
  emitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.emit(ff::obs::TraceEvent(i, ff::obs::ev::kControlTick, "stress")
                      .with_id(static_cast<std::uint64_t>(t))
                      .with("i", i));
      }
    });
  }
  for (auto& t : emitters) t.join();

  // Nothing lost, nothing torn: per-thread event counts come out exact.
  const auto& events = collector.events();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::vector<int> per_thread(kThreads, 0);
  for (const auto& e : events) ++per_thread[e.id];
  for (const int count : per_thread) EXPECT_EQ(count, kPerThread);
}

TEST(TraceSinkStress, SynchronizedJsonlSinkWritesIntactLines) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;

  std::ostringstream os;
  {
    ff::obs::JsonlTraceSink jsonl(os);
    ff::obs::SynchronizedTraceSink sink(jsonl);
    std::vector<std::thread> emitters;
    for (int t = 0; t < kThreads; ++t) {
      emitters.emplace_back([&sink] {
        for (int i = 0; i < kPerThread; ++i) {
          sink.emit(
              ff::obs::TraceEvent(i, ff::obs::ev::kFrameCaptured, "stress"));
        }
      });
    }
    for (auto& t : emitters) t.join();
  }
  // Interleaving at line granularity only: every line parses back as one
  // complete event record.
  std::istringstream is(os.str());
  std::size_t lines = 0;
  for (std::string line; std::getline(is, line); ++lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("frame.captured"), std::string::npos);
  }
  EXPECT_EQ(lines, static_cast<std::size_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// util::SlidingWindowCounter across threads. The class is intentionally
// not synchronized; concurrent sweeps rely on every experiment owning its
// own counters. This pins down that independent instances really share no
// hidden state (statics, allocator races TSan would flag).

TEST(SlidingWindowStress, IndependentInstancesAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kEvents = 50000;

  std::vector<double> results(kThreads, 0.0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&results, t] {
      ff::SlidingWindowCounter counter(ff::kSecond);
      ff::SlidingWindowMean mean(ff::kSecond);
      for (int i = 0; i < kEvents; ++i) {
        const ff::SimTime now = static_cast<ff::SimTime>(i) * 100;
        counter.add(now, 1.0);
        mean.add(now, static_cast<double>(t + 1));
      }
      const ff::SimTime end = static_cast<ff::SimTime>(kEvents - 1) * 100;
      results[t] = counter.rate(end) + mean.mean(end);
    });
  }
  for (auto& t : workers) t.join();

  // Every thread saw a full 1 s window at 10 kHz: rate 10000/s, plus its
  // own mean (t + 1). Any cross-instance interference breaks this.
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(results[t], 10000.0 + static_cast<double>(t + 1)) << t;
  }
}

// ---------------------------------------------------------------------------
// The sweep engine end-to-end under TSan: concurrent experiments sharing
// the default pool, a sweep-level trace sink, and the coordinator's
// bookkeeping.

TEST(SweepStress, ConcurrentTracedSweepIsRaceFree) {
  namespace sweep = ff::sweep;
  namespace core = ff::core;

  sweep::SweepConfig cfg;
  cfg.name = "stress";
  cfg.base = core::Scenario::ideal(2 * ff::kSecond);
  cfg.base.seed = 3;
  cfg.replicates = 3;
  cfg.threads = 4;
  cfg.controllers = {
      {"ff", core::make_controller_factory<
                 ff::control::FrameFeedbackController>()},
      {"local",
       core::make_controller_factory<ff::control::LocalOnlyController>()},
  };
  ff::obs::CollectingTraceSink sink;
  cfg.trace = &sink;

  const sweep::SweepResult result = sweep::run(cfg);
  EXPECT_EQ(result.points.size(), 6u);
  EXPECT_EQ(sink.count(ff::obs::ev::kSweepPoint), 6u);

  cfg.threads = 0;  // shared default pool, then tear it down
  const sweep::SweepResult shared = sweep::run(cfg);
  ff::rt::shutdown_default_pool();
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    EXPECT_EQ(sweep::result_fingerprint(result.points[i].result),
              sweep::result_fingerprint(shared.points[i].result));
  }
}

// ---------------------------------------------------------------------------
// Partitioned kernel: the worker gang's round/remaining protocol plus the
// side-split entity state (links, channels, shared media) under real
// cross-partition traffic. TSan verifies the happens-before edges; the
// fingerprint comparison verifies the scheduling interleave left no trace.

TEST(PartitionStress, ConcurrentWindowsMatchSerialFingerprint) {
  namespace core = ff::core;
  namespace sweep = ff::sweep;

  const auto run_at = [](unsigned threads) {
    core::Scenario s = core::Scenario::ideal(6 * ff::kSecond);
    s.name = "partition-stress";
    s.seed = 11;
    const ff::device::DeviceConfig proto = s.devices.at(0);
    s.devices.clear();
    for (int i = 0; i < 8; ++i) {
      ff::device::DeviceConfig d = proto;
      d.name = "dev-" + std::to_string(i);
      s.add_device(std::move(d));
    }
    s.shared_uplink_medium = true;
    s.uplink_medium_groups = 4;
    s.network = ff::net::NetemSchedule::loss_injection(
        2 * ff::kSecond, 0.05, ff::Bandwidth::mbps(10.0));
    s.partitions = 4;
    s.partition_threads = threads;
    const core::ExperimentResult r = core::run_experiment(
        s, core::make_controller_factory<
               ff::control::FrameFeedbackController>());
    return sweep::result_fingerprint(r);
  };

  const std::uint64_t serial = run_at(1);
  EXPECT_EQ(serial, run_at(4));
  EXPECT_EQ(serial, run_at(2));
}

TEST(PartitionStress, TracedPartitionedRunEmitsIntactEvents) {
  namespace core = ff::core;

  core::Scenario s = core::Scenario::ideal(4 * ff::kSecond);
  s.seed = 5;
  const ff::device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (int i = 0; i < 4; ++i) {
    ff::device::DeviceConfig d = proto;
    d.name = "dev-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.partitions = 4;
  s.partition_threads = 4;

  ff::obs::CollectingTraceSink sink;
  core::Experiment experiment(
      s, core::make_controller_factory<
             ff::control::FrameFeedbackController>());
  experiment.set_trace_sink(&sink);
  const core::ExperimentResult r = experiment.run();
  EXPECT_GT(r.events_executed, 1000u);
  // Concurrent emitters went through the synchronized wrapper: every
  // event arrived intact (CollectingTraceSink would tear otherwise).
  EXPECT_GT(sink.count(ff::obs::ev::kFrameCaptured), 0u);
}

}  // namespace
