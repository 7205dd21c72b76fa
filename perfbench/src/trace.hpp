// In-memory span tracer for the traced (--trace 1) run.
//
// A span carries a name, start, end, the span that caused it (its parent)
// and a request id. Spans stay in per-thread buffers while the run goes
// and are written out as JSON lines when it ends. A span's self time is
// its duration minus the time its child spans on the same thread cover;
// a span recorded on another thread with an explicit parent (a client
// request inside a serve phase) is linked to it but does not subtract.
//
// Spans wrap the benchmark's own calls into each layer's public
// functions; nothing inside the library is instrumented.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint32_t thread = 0;
    std::uint64_t request = 0;
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
  };

  struct NameStats {
    std::size_t count = 0;
    double self_s = 0.0;
    double total_s = 0.0;
    [[nodiscard]] double mean_self_us() const {
      return count == 0 ? 0.0 : 1e6 * self_s / static_cast<double>(count);
    }
  };

  /// The process-wide tracer (off until enable()).
  static Tracer& get();

  /// Turns recording on; the calling thread becomes the main thread whose
  /// spans the coverage check sums.
  void enable();
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Fine spans (one per timed call or request) are recorded only while
  /// this is on; the traced run toggles it to measure its own overhead.
  void set_fine(bool on) noexcept {
    fine_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool fine() const noexcept {
    return enabled() && fine_.load(std::memory_order_relaxed);
  }

  /// RAII span on the calling thread; nested scopes become its children.
  class Scope {
   public:
    explicit Scope(const char* name, std::uint64_t request = 0,
                   bool fine = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

   private:
    const char* name_;
    std::uint64_t request_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    Clock::time_point start_;
  };

  /// Records a span the caller timed itself (e.g. a SOLVE timed from its
  /// scheduled send), on the calling thread, under an explicit parent.
  void record(const char* name, std::uint64_t request, Clock::time_point start,
              Clock::time_point end, std::uint32_t parent);

  /// Id of the innermost open span on the calling thread (0 = none).
  [[nodiscard]] std::uint32_t current() const;

  /// Self and total time per span name, over every thread or (with
  /// `main_only`) over the main thread's spans alone.
  [[nodiscard]] std::map<std::string, NameStats> by_name(
      bool main_only = false) const;

  /// Sum of self times of the main thread's spans: the traced share of
  /// the main thread's wall time.
  [[nodiscard]] double main_thread_self_s() const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;
  };

  Buffer& local();
  [[nodiscard]] std::vector<Span> all_spans() const;
  [[nodiscard]] std::map<std::uint32_t, double> self_times(
      const std::vector<Span>& spans) const;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> fine_{true};
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Buffer>> buffers_;  // guarded by mutex_
  std::uint32_t main_thread_ = 0;
};

}  // namespace perfbench
