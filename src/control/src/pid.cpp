#include "ff/control/pid.h"

namespace ff::control {

PidController::PidController(PidConfig config) : config_(config) {}

double PidController::step(double error, double dt) {
  if (dt <= 0.0) dt = 1.0;

  integral_ += error * dt;

  double derivative = 0.0;
  if (has_last_error_) derivative = (error - last_error_) / dt;
  last_error_ = error;
  has_last_error_ = true;

  return config_.kp * error + config_.ki * integral_ + config_.kd * derivative;
}

void PidController::reset() {
  integral_ = 0.0;
  last_error_ = 0.0;
  has_last_error_ = false;
}

}  // namespace ff::control
