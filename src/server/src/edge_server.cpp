#include "ff/server/edge_server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "ff/util/logging.h"

namespace ff::server {
namespace {

/// Multiplicative batch-latency jitter.
constexpr double kGpuJitterSigma = 0.05;
/// Hard cap on any per-model queue; beyond it requests are rejected on
/// arrival even with reject_overflow=false (memory guard).
constexpr std::size_t kQueueHardLimit = 1024;

}  // namespace

EdgeServer::EdgeServer(sim::Simulator& sim, ServerConfig config)
    : sim_(sim), config_(std::move(config)), admission_(config_.admission) {}

EdgeServer::ModelQueue& EdgeServer::queue_for(models::ModelId model) {
  for (auto& q : queues_) {
    if (q.model == model) return q;
  }
  queues_.push_back(ModelQueue{
      model,
      {},
      models::GpuBatchLatencyModel(
          model,
          sim_.make_rng(config_.name + "/gpu/" +
                        std::string(models::model_name(model))),
          kGpuJitterSigma)});
  return queues_.back();
}

void EdgeServer::submit(InferenceRequest request, CompletionFn on_complete) {
  ++stats_.requests_received;
  request.arrived_at = sim_.now();
  if (admission_.enabled() && !admission_.admit(sim_.now(), queue_depth())) {
    reject_admission(
        PendingRequest{std::move(request), std::move(on_complete)});
    return;
  }
  ModelQueue& q = queue_for(request.model);
  if (q.pending.size() >= kQueueHardLimit) {
    reject(PendingRequest{std::move(request), std::move(on_complete)});
    return;
  }
  q.pending.push_back(PendingRequest{std::move(request),
                                     std::move(on_complete)});
  maybe_start_batch();
}

std::size_t EdgeServer::queue_depth() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.pending.size();
  return n;
}

std::size_t EdgeServer::queue_depth(models::ModelId model) const {
  for (const auto& q : queues_) {
    if (q.model == model) return q.pending.size();
  }
  return 0;
}

double EdgeServer::gpu_utilization() const {
  const SimTime elapsed = sim_.now();
  if (elapsed <= 0) return 0.0;
  // Finished batches plus the elapsed share of the in-flight batch: the
  // whole batch must not be credited at start, or mid-batch queries
  // over-report (historically above 1.0 early in a run).
  SimDuration busy = stats_.gpu_busy_time;
  if (gpu_busy_) {
    busy += std::min<SimDuration>(elapsed - batch_started_at_, batch_exec_);
  }
  return static_cast<double>(busy) / static_cast<double>(elapsed);
}

void EdgeServer::maybe_start_batch() {
  if (gpu_busy_ || queues_.empty()) return;
  // Round-robin across model queues so one model cannot starve another.
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    ModelQueue& q = queues_[(next_queue_rr_ + i) % queues_.size()];
    if (!q.pending.empty()) {
      next_queue_rr_ = (next_queue_rr_ + i + 1) % queues_.size();
      start_batch(q);
      return;
    }
  }
}

void EdgeServer::start_batch(ModelQueue& queue) {
  gpu_busy_ = true;

  // Adaptive batching: take everything that queued during the previous
  // batch, capped at the limit...
  std::vector<PendingRequest> batch;
  const auto limit = static_cast<std::size_t>(config_.batch_limit);
  while (!queue.pending.empty() && batch.size() < limit) {
    batch.push_back(std::move(queue.pending.front()));
    queue.pending.pop_front();
  }
  // ...and reject the remainder of the queue (paper §IV-A).
  if (config_.reject_overflow) {
    while (!queue.pending.empty()) {
      reject(std::move(queue.pending.front()));
      queue.pending.pop_front();
    }
  }

  const int batch_size = static_cast<int>(batch.size());
  in_flight_batch_ = batch.size();
  stats_.batch_size.add(batch_size);
  ++stats_.batches_executed;

  const SimDuration exec = queue.latency.sample(batch_size);
  const SimTime started_at = sim_.now();
  batch_started_at_ = started_at;
  batch_exec_ = exec;
  FF_TRACE(config_.name) << "batch model=" << models::model_name(queue.model)
                         << " size=" << batch_size << " exec_us=" << exec;
  if (sink_) {
    sink_->emit(obs::TraceEvent(started_at, obs::ev::kServerBatchStart,
                                config_.name)
                    .with_id(stats_.batches_executed)
                    .with_detail("model", models::model_name(queue.model))
                    .with("size", batch_size)
                    .with("exec_us", static_cast<double>(exec))
                    .with("queued", static_cast<double>(queue.pending.size())));
  }
  sim_.schedule_in(exec, [this, batch = std::move(batch),
                          started_at]() mutable {
    finish_batch(std::move(batch), started_at);
  });
}

void EdgeServer::finish_batch(std::vector<PendingRequest> batch,
                              SimTime started_at) {
  const int batch_size = static_cast<int>(batch.size());
  stats_.gpu_busy_time += sim_.now() - started_at;
  if (sink_) {
    sink_->emit(obs::TraceEvent(sim_.now(), obs::ev::kServerBatchDone,
                                config_.name)
                    .with_id(stats_.batches_executed)
                    .with("size", batch_size));
  }
  for (auto& pending : batch) {
    ++stats_.requests_completed;
    RequestOutcome outcome;
    outcome.request = std::move(pending.request);
    outcome.status = RequestStatus::kCompleted;
    outcome.finished_at = sim_.now();
    outcome.batch_size = batch_size;
    stats_.service_latency_us.add(
        static_cast<double>(outcome.service_latency()));
    if (sink_) {
      sink_->emit(obs::TraceEvent(sim_.now(), obs::ev::kServerComplete,
                                  config_.name)
                      .with_id(outcome.request.request_id)
                      .with("client",
                            static_cast<double>(outcome.request.client_id))
                      .with("service_us",
                            static_cast<double>(outcome.service_latency())));
    }
    if (pending.on_complete) pending.on_complete(outcome);
  }
  gpu_busy_ = false;
  in_flight_batch_ = 0;
  maybe_start_batch();
}

void EdgeServer::reject(PendingRequest&& pending) {
  ++stats_.requests_rejected;
  RequestOutcome outcome;
  outcome.request = std::move(pending.request);
  outcome.status = RequestStatus::kRejected;
  outcome.finished_at = sim_.now();
  outcome.batch_size = 0;
  if (sink_) {
    sink_->emit(obs::TraceEvent(sim_.now(), obs::ev::kServerReject,
                                config_.name)
                    .with_id(outcome.request.request_id)
                    .with("client",
                          static_cast<double>(outcome.request.client_id)));
  }
  if (pending.on_complete) pending.on_complete(outcome);
}

void EdgeServer::reject_admission(PendingRequest&& pending) {
  ++stats_.requests_admission_rejected;
  RequestOutcome outcome;
  outcome.request = std::move(pending.request);
  outcome.status = RequestStatus::kRejectedAdmission;
  outcome.finished_at = sim_.now();
  outcome.batch_size = 0;
  if (sink_) {
    sink_->emit(obs::TraceEvent(sim_.now(), obs::ev::kServerAdmissionReject,
                                config_.name)
                    .with_id(outcome.request.request_id)
                    .with("client",
                          static_cast<double>(outcome.request.client_id)));
  }
  if (pending.on_complete) pending.on_complete(outcome);
}

}  // namespace ff::server
