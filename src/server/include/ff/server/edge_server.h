#pragma once

// GPU-equipped multi-tenant edge server with adaptive batching (paper
// §IV-A "Adaptive Batching Strategy"): while a batch executes, arrivals
// queue; the next batch takes everything queued up to the per-model limit
// (default 15) and REJECTS the remainder of that queue. Rejections are the
// load-induced timeout source Tl.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "ff/models/latency_model.h"
#include "ff/obs/trace.h"
#include "ff/server/admission.h"
#include "ff/server/request.h"
#include "ff/sim/simulator.h"
#include "ff/util/stats.h"

namespace ff::server {

struct ServerConfig {
  std::string name{"edge-server"};
  int batch_limit{15};            ///< per model, per batch (paper: 15)
  /// When false, the queue remainder past the batch limit stays queued
  /// instead of being rejected (ablation knob; the paper rejects). A
  /// per-model queue is still capped (edge_server.cpp's memory guard).
  bool reject_overflow{true};
  /// Admission gate consulted before queueing (default: admit all, the
  /// legacy behavior). Rejections surface as kRejectedAdmission.
  AdmissionConfig admission{};
};

struct ServerStats {
  std::uint64_t requests_received{0};
  std::uint64_t requests_completed{0};
  std::uint64_t requests_rejected{0};
  std::uint64_t requests_admission_rejected{0};
  std::uint64_t batches_executed{0};
  StreamingStats batch_size{};
  StreamingStats service_latency_us{};  ///< completed requests only
  SimDuration gpu_busy_time{0};         ///< finished batches only

  [[nodiscard]] double mean_batch_size() const { return batch_size.mean(); }
};

class EdgeServer {
 public:
  /// `sim` must outlive the server.
  EdgeServer(sim::Simulator& sim, ServerConfig config);

  EdgeServer(const EdgeServer&) = delete;
  EdgeServer& operator=(const EdgeServer&) = delete;

  /// Submits a request; `on_complete` fires exactly once (completion or
  /// rejection). The arrival timestamp is stamped here.
  void submit(InferenceRequest request, CompletionFn on_complete);

  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const ServerConfig& config() const { return config_; }

  /// Requests currently queued across all models.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Requests queued for one model.
  [[nodiscard]] std::size_t queue_depth(models::ModelId model) const;

  [[nodiscard]] bool gpu_busy() const { return gpu_busy_; }

  /// Requests in the batch currently executing on the GPU (0 when idle).
  /// Together with queue_depth() this closes the server-side conservation
  /// identity at any instant:
  ///   received == completed + rejected + admission_rejected
  ///             + queue_depth + in_flight_batch
  [[nodiscard]] std::size_t in_flight_batch() const {
    return in_flight_batch_;
  }

  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }

  /// GPU utilization over the sim so far (busy time / elapsed time). An
  /// in-flight batch is credited only for the time it has actually run,
  /// so mid-batch queries never over-report.
  [[nodiscard]] double gpu_utilization() const;

  /// Attaches a trace sink for batch/reject/complete events (nullptr
  /// detaches). Not owned.
  void attach_trace_sink(obs::TraceSink* sink) { sink_ = sink; }

 private:
  struct PendingRequest {
    InferenceRequest request;
    CompletionFn on_complete;
  };

  struct ModelQueue {
    models::ModelId model;
    std::deque<PendingRequest> pending;
    models::GpuBatchLatencyModel latency;
  };

  ModelQueue& queue_for(models::ModelId model);
  void maybe_start_batch();
  void start_batch(ModelQueue& queue);
  void finish_batch(std::vector<PendingRequest> batch, SimTime started_at);
  void reject(PendingRequest&& pending);
  void reject_admission(PendingRequest&& pending);

  sim::Simulator& sim_;
  ServerConfig config_;
  /// Deque, not vector: queue_for hands out references that must survive
  /// another model's first submit growing the container mid-callback.
  std::deque<ModelQueue> queues_;
  std::size_t next_queue_rr_{0};  ///< round-robin cursor across models
  bool gpu_busy_{false};
  SimTime batch_started_at_{0};    ///< valid while gpu_busy_
  SimDuration batch_exec_{0};      ///< scheduled runtime of in-flight batch
  std::size_t in_flight_batch_{0};  ///< requests in the executing batch
  AdmissionController admission_;
  ServerStats stats_;
  obs::TraceSink* sink_{nullptr};
};

}  // namespace ff::server
