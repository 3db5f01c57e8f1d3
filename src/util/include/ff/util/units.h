#pragma once

// Strong unit helpers shared across the FrameFeedback libraries.
//
// Simulated time is an integer count of microseconds (`SimTime`); rates are
// plain doubles in domain-meaningful wrappers.  The wrappers are deliberately
// thin -- implicit arithmetic stays cheap -- but constructors are explicit so
// a bandwidth can never silently stand in for a frame rate.

#include <chrono>
#include <cstdint>
#include <compare>

namespace ff {

/// Simulated time since experiment start, in microseconds.
using SimTime = std::int64_t;

/// A span of simulated time, in microseconds.
using SimDuration = std::int64_t;

inline constexpr SimDuration kMicrosecond = 1;
inline constexpr SimDuration kMillisecond = 1000;
inline constexpr SimDuration kSecond = 1'000'000;

/// Converts a chrono duration to simulated microseconds.
template <class Rep, class Period>
[[nodiscard]] constexpr SimDuration to_sim(std::chrono::duration<Rep,
                                           Period> d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

/// Converts fractional seconds to simulated microseconds, rounding half
/// away from zero (so -1 s is exactly -kSecond, as 1 s is kSecond).
[[nodiscard]] constexpr SimDuration seconds_to_sim(double s) {
  const double us = s * static_cast<double>(kSecond);
  return static_cast<SimDuration>(us < 0.0 ? us - 0.5 : us + 0.5);
}

/// Converts simulated time to fractional seconds.
[[nodiscard]] constexpr double sim_to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Frames (or requests) per second.
struct Rate {
  double per_second{0.0};

  constexpr Rate() = default;
  explicit constexpr Rate(double v) : per_second(v) {}

  /// Mean gap between events at this rate; kSecond*1e9 (effectively never)
  /// when the rate is zero.
  [[nodiscard]] constexpr SimDuration period() const {
    if (per_second <= 0.0) return kSecond * 1'000'000'000;
    return static_cast<SimDuration>(
        static_cast<double>(kSecond) / per_second + 0.5);
  }

  friend constexpr auto operator<=>(const Rate&, const Rate&) = default;
};

/// Payload size in bytes.
struct Bytes {
  std::int64_t count{0};

  constexpr Bytes() = default;
  explicit constexpr Bytes(std::int64_t v) : count(v) {}

  friend constexpr auto operator<=>(const Bytes&, const Bytes&) = default;
  friend constexpr Bytes operator+(Bytes a, Bytes b) {
    return Bytes{a.count + b.count};
  }
};

/// Link capacity in bits per second.
struct Bandwidth {
  double bits_per_second{0.0};

  constexpr Bandwidth() = default;
  explicit constexpr Bandwidth(double bps) : bits_per_second(bps) {}

  [[nodiscard]] static constexpr Bandwidth kbps(double v) {
    return Bandwidth{v * 1e3};
  }
  [[nodiscard]] static constexpr Bandwidth mbps(double v) {
    return Bandwidth{v * 1e6};
  }

  /// Time to serialize `b` bytes onto a link of this capacity.
  [[nodiscard]] constexpr SimDuration serialization_time(Bytes b) const {
    if (bits_per_second <= 0.0) return kSecond * 1'000'000'000;
    const double seconds = static_cast<double>(b.count) * 8.0 / bits_per_second;
    return seconds_to_sim(seconds);
  }

  friend constexpr auto operator<=>(const Bandwidth&,
                                    const Bandwidth&) = default;
};

}  // namespace ff
