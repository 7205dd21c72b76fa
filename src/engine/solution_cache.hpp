// SolutionCache: the engine's long-lived solution memo as a proper cache.
//
// The PR-1 memo was an append-only map that simply stopped caching when
// full — fine for one batch, wrong for a daemon that must keep serving
// for days: the working set drifts, and whatever filled the map first
// squats in it forever. This is the replacement policy the serve layer
// needs: least-recently-used eviction under two independent caps (entry
// count and estimated bytes), with a stats surface (hit rate, size,
// evictions, age of the coldest entry) that the daemon's STATS endpoint
// samples live — see docs/architecture.md ("Long-lived caches").
//
// Layout: a sweep's memo misses far more often than it hits, so a miss
// must cost little. Each entry is one heap block: a header (the key's
// hash, its byte charge, its touch time, the intrusive LRU links and the
// Solution's scalars) followed by the Solution's speeds, profiles and
// method name, then the key bytes. An insert is one allocation and an
// eviction one free. The index is an open-addressing table (linear
// probing, at most half full) whose slots hold an entry pointer and its
// hash. A probe compares the stored hash first and then the full key
// bytes, so a hash collision can never alias two answers; deletion
// shifts the rest of the probe chain back, so there are no tombstones.
// Callers that look a key up and then store it (the engine's miss path)
// hash it once with hash_of and pass the hash to both get and put.
//
// Thread safety: every operation takes the internal mutex (a hit mutates
// the recency list, so even lookups are writes). Critical sections are
// O(1) and tiny — a put builds its entry and frees its victims outside
// the lock; the solvers the cache fronts are micro- to milliseconds,
// so the lock is never the bottleneck. The guarded fields are annotated
// (util/annotated_mutex.hpp), so Clang's -Wthread-safety proves every
// access really is under the lock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/problem.hpp"
#include "util/annotated_mutex.hpp"

namespace reclaim::engine {

/// Eviction policy caps; 0 means "that cap is off". With both off the
/// cache grows without bound (the batch-library behavior).
struct CacheLimits {
  std::size_t max_entries = 0;
  std::size_t max_bytes = 0;
};

/// Point-in-time counters; sampled under the cache lock, so a snapshot is
/// internally consistent even while solves are in flight.
struct CacheStats {
  std::size_t entries = 0;
  /// Estimated footprint: per entry its block (header, the Solution's
  /// arrays and method name, key bytes), its index slots and a per-block
  /// allocator overhead.
  std::size_t bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Seconds since the least-recently-used entry was last touched: how
  /// stale the cold end of the cache is (0 when empty).
  double oldest_age_s = 0.0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class SolutionCache {
 public:
  explicit SolutionCache(CacheLimits limits = {});
  ~SolutionCache();

  SolutionCache(const SolutionCache&) = delete;
  SolutionCache& operator=(const SolutionCache&) = delete;

  /// The hash get and put use for `key`.
  [[nodiscard]] static std::uint64_t hash_of(std::string_view key) noexcept;

  /// The cached solution for `key`, refreshing its recency; nullopt on
  /// miss. Counts a hit or a miss either way. `hash` must be
  /// hash_of(key).
  [[nodiscard]] std::optional<core::Solution> get(std::string_view key,
                                                  std::uint64_t hash);
  [[nodiscard]] std::optional<core::Solution> get(std::string_view key) {
    return get(key, hash_of(key));
  }

  /// Inserts (or refreshes) key -> solution, then evicts from the cold
  /// end until both caps hold again. An entry larger than max_bytes by
  /// itself is still admitted alone — the caller already paid for the
  /// solve, and it will be the first evicted. `hash` must be
  /// hash_of(key).
  void put(std::string_view key, std::uint64_t hash,
           const core::Solution& solution);
  void put(std::string_view key, const core::Solution& solution) {
    put(key, hash_of(key), solution);
  }

  /// Drops every entry and resets the counters.
  void clear();

  [[nodiscard]] CacheStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Entry;
  /// An index slot: an entry and its key's hash (entry null when empty),
  /// so a probe compares hashes without touching the entries.
  struct Slot {
    std::uint64_t hash = 0;
    Entry* entry = nullptr;
  };

  /// The slot holding the entry for (key, hash), or else the empty slot
  /// where it would go.
  [[nodiscard]] std::size_t find_slot_locked(std::string_view key,
                                             std::uint64_t hash) const
      RECLAIM_REQUIRES(mutex_);
  /// Doubles the index (16 slots at first) and re-homes every entry.
  void grow_locked() RECLAIM_REQUIRES(mutex_);
  void erase_slot_locked(const Entry* entry) RECLAIM_REQUIRES(mutex_);
  void link_front_locked(Entry* entry) RECLAIM_REQUIRES(mutex_);
  void unlink_locked(Entry* entry) RECLAIM_REQUIRES(mutex_);
  void touch_locked(Entry* entry) RECLAIM_REQUIRES(mutex_);
  /// Unlinks cold entries until both caps hold (never the last one) and
  /// returns them chained, for freeing after the lock.
  [[nodiscard]] Entry* evict_to_limits_locked() RECLAIM_REQUIRES(mutex_);

  CacheLimits limits_;
  mutable util::Mutex mutex_;
  /// Open-addressing index: a power-of-two number of slots (or none),
  /// null when empty, never more than half full.
  std::vector<Slot> slots_ RECLAIM_GUARDED_BY(mutex_);
  Entry* hottest_ RECLAIM_GUARDED_BY(mutex_) = nullptr;
  Entry* coldest_ RECLAIM_GUARDED_BY(mutex_) = nullptr;  ///< next victim
  std::size_t entries_ RECLAIM_GUARDED_BY(mutex_) = 0;
  std::size_t bytes_ RECLAIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ RECLAIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ RECLAIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t insertions_ RECLAIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ RECLAIM_GUARDED_BY(mutex_) = 0;
};

}  // namespace reclaim::engine
