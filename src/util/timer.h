// Wall-clock timing used by the evaluation harness and benches.
#pragma once

#include <chrono>

namespace bytebrain {

/// Monotonic stopwatch. Starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace bytebrain
