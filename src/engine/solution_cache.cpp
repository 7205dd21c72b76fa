#include "engine/solution_cache.hpp"

#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>

namespace reclaim::engine {

namespace {

using Segment = sched::SpeedProfile::Segment;
static_assert(std::is_trivially_copyable_v<Segment>);

/// Copies `n` bytes to `out` and returns the end of the copy.
char* write(char* out, const void* data, std::size_t n) {
  if (n != 0) std::memcpy(out, data, n);
  return out + n;
}

/// Copies `n` bytes from `in` to `out` and returns the end of the read.
const char* read(const char* in, void* out, std::size_t n) {
  if (n != 0) std::memcpy(out, in, n);
  return in + n;
}

}  // namespace

/// One heap block per entry: this header, then its payload — the
/// Solution's speeds, its profiles (each one's segment count, then every
/// segment), its method name, and last the key bytes. A put makes one
/// allocation and an eviction frees one block.
struct SolutionCache::Entry {
  std::uint64_t hash = 0;
  Entry* hotter = nullptr;
  Entry* colder = nullptr;  ///< also chains evicted entries for freeing
  Clock::time_point touched{};
  std::size_t bytes = 0;  ///< the byte charge
  // The Solution's scalars, and the sizes of its payload arrays.
  bool feasible = false;
  double energy = 0.0;
  std::size_t iterations = 0;
  std::size_t speed_count = 0;
  std::size_t profile_count = 0;
  std::size_t segment_count = 0;  ///< over all profiles
  std::size_t method_size = 0;
  std::size_t key_size = 0;

  [[nodiscard]] char* payload() noexcept {
    return reinterpret_cast<char*>(this + 1);
  }
  [[nodiscard]] const char* payload() const noexcept {
    return reinterpret_cast<const char*>(this + 1);
  }
  [[nodiscard]] std::size_t payload_size() const noexcept {
    return speed_count * sizeof(double) +
           profile_count * sizeof(std::uint64_t) +
           segment_count * sizeof(Segment) + method_size + key_size;
  }

  [[nodiscard]] std::string_view key() const noexcept {
    return {payload() + payload_size() - key_size, key_size};
  }

  /// The entry's one allocation, with the Solution and the key copied
  /// in; the caller links it.
  static Entry* make(std::string_view key, std::uint64_t hash,
                     const core::Solution& solution) {
    static_assert(std::is_trivially_copyable_v<Entry>);
    static_assert(sizeof(Entry) % alignof(double) == 0);  // payload align
    std::size_t segment_count = 0;
    for (const auto& profile : solution.profiles) {
      segment_count += profile.segments.size();
    }
    const Entry header{.hash = hash,
                       .feasible = solution.feasible,
                       .energy = solution.energy,
                       .iterations = solution.iterations,
                       .speed_count = solution.speeds.size(),
                       .profile_count = solution.profiles.size(),
                       .segment_count = segment_count,
                       .method_size = solution.method.size(),
                       .key_size = key.size()};
    void* block = ::operator new(sizeof(Entry) + header.payload_size());
    auto* entry = new (block) Entry(header);
    char* out = write(entry->payload(), solution.speeds.data(),
                      solution.speeds.size() * sizeof(double));
    for (const auto& profile : solution.profiles) {
      const std::uint64_t count = profile.segments.size();
      out = write(out, &count, sizeof count);
    }
    for (const auto& profile : solution.profiles) {
      out = write(out, profile.segments.data(),
                  profile.segments.size() * sizeof(Segment));
    }
    out = write(out, solution.method.data(), solution.method.size());
    write(out, key.data(), key.size());
    entry->bytes = entry->charge();
    return entry;
  }

  struct Free {
    void operator()(Entry* entry) const noexcept { ::operator delete(entry); }
  };

  /// Frees a chain of entries linked through `colder`.
  static void destroy_chain(Entry* entry) noexcept {
    while (entry != nullptr) {
      Entry* const next = entry->colder;
      ::operator delete(entry);
      entry = next;
    }
  }

  /// The stored Solution, rebuilt.
  [[nodiscard]] core::Solution solution() const {
    core::Solution solution;
    solution.feasible = feasible;
    solution.energy = energy;
    solution.iterations = iterations;
    solution.speeds.resize(speed_count);
    const char* in = read(payload(), solution.speeds.data(),
                          speed_count * sizeof(double));
    solution.profiles.resize(profile_count);
    for (auto& profile : solution.profiles) {
      std::uint64_t count = 0;
      in = read(in, &count, sizeof count);
      profile.segments.resize(count);
    }
    for (auto& profile : solution.profiles) {
      in = read(in, profile.segments.data(),
                profile.segments.size() * sizeof(Segment));
    }
    solution.method.assign(in, method_size);
    return solution;
  }

  /// Estimated, not measured: the heap knows the truth, but an estimate
  /// that counts every growing field keeps the byte cap meaningful. An
  /// entry is charged its block (header, the Solution's arrays and
  /// method name, the key bytes, and the allocator's per-block
  /// overhead) and its index slots (the index is at most half full, so
  /// two per entry).
  [[nodiscard]] std::size_t charge() const noexcept {
    constexpr std::size_t kBlockOverhead = 16;
    constexpr std::size_t kIndexSlots = 2 * sizeof(Slot);
    return sizeof(Entry) + payload_size() + kBlockOverhead + kIndexSlots;
  }
};

SolutionCache::SolutionCache(CacheLimits limits) : limits_(limits) {}

SolutionCache::~SolutionCache() {
  const util::MutexLock lock(mutex_);
  Entry::destroy_chain(hottest_);
}

std::uint64_t SolutionCache::hash_of(std::string_view key) noexcept {
  return std::hash<std::string_view>{}(key);
}

std::size_t SolutionCache::find_slot_locked(std::string_view key,
                                            std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.entry == nullptr ||
        (slot.hash == hash && slot.entry->key() == key)) {
      return i;
    }
  }
}

void SolutionCache::grow_locked() {
  std::vector<Slot> grown(slots_.empty() ? 16 : 2 * slots_.size());
  const std::size_t mask = grown.size() - 1;
  for (const Slot& slot : slots_) {
    if (slot.entry == nullptr) continue;
    std::size_t i = slot.hash & mask;
    while (grown[i].entry != nullptr) i = (i + 1) & mask;
    grown[i] = slot;
  }
  slots_.swap(grown);
}

void SolutionCache::erase_slot_locked(const Entry* entry) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = entry->hash & mask;
  while (slots_[hole].entry != entry) hole = (hole + 1) & mask;
  // Backward shift: walk the rest of the probe chain and move back every
  // entry whose home slot does not lie strictly after the hole, so each
  // entry stays reachable from its home with no tombstone left behind.
  for (std::size_t j = (hole + 1) & mask; slots_[j].entry != nullptr;
       j = (j + 1) & mask) {
    const std::size_t home = slots_[j].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
}

void SolutionCache::link_front_locked(Entry* entry) {
  entry->hotter = nullptr;
  entry->colder = hottest_;
  if (hottest_ != nullptr) hottest_->hotter = entry;
  hottest_ = entry;
  if (coldest_ == nullptr) coldest_ = entry;
}

void SolutionCache::unlink_locked(Entry* entry) {
  (entry->hotter != nullptr ? entry->hotter->colder : hottest_) =
      entry->colder;
  (entry->colder != nullptr ? entry->colder->hotter : coldest_) =
      entry->hotter;
  entry->hotter = entry->colder = nullptr;
}

void SolutionCache::touch_locked(Entry* entry) {
  entry->touched = Clock::now();
  if (entry != hottest_) {
    unlink_locked(entry);
    link_front_locked(entry);
  }
}

std::optional<core::Solution> SolutionCache::get(std::string_view key,
                                                 std::uint64_t hash) {
  const util::MutexLock lock(mutex_);
  if (!slots_.empty()) {
    if (Entry* entry = slots_[find_slot_locked(key, hash)].entry) {
      ++hits_;
      touch_locked(entry);
      return entry->solution();
    }
  }
  ++misses_;
  return std::nullopt;
}

void SolutionCache::put(std::string_view key, std::uint64_t hash,
                        const core::Solution& solution) {
  // The entry is built before the lock, and the evicted entries (or the
  // unused new one) are freed after it.
  std::unique_ptr<Entry, Entry::Free> fresh(Entry::make(key, hash, solution));
  Entry* victims = nullptr;
  {
    const util::MutexLock lock(mutex_);
    std::size_t slot = slots_.empty() ? 0 : find_slot_locked(key, hash);
    if (!slots_.empty() && slots_[slot].entry != nullptr) {
      // Two workers racing on one key compute identical deterministic
      // solutions; refreshing recency is all there is to do.
      touch_locked(slots_[slot].entry);
    } else {
      if (2 * (entries_ + 1) > slots_.size()) {
        grow_locked();
        slot = find_slot_locked(key, hash);
      }
      Entry* const entry = fresh.release();
      entry->touched = Clock::now();
      slots_[slot] = Slot{hash, entry};
      link_front_locked(entry);
      ++entries_;
      bytes_ += entry->bytes;
      ++insertions_;
      victims = evict_to_limits_locked();
    }
  }
  Entry::destroy_chain(victims);
}

SolutionCache::Entry* SolutionCache::evict_to_limits_locked() {
  // Never evict the entry just inserted (size 1): an oversized single
  // solution is admitted alone rather than thrashing to emptiness.
  Entry* victims = nullptr;
  while (entries_ > 1 &&
         ((limits_.max_entries != 0 && entries_ > limits_.max_entries) ||
          (limits_.max_bytes != 0 && bytes_ > limits_.max_bytes))) {
    Entry* const victim = coldest_;
    erase_slot_locked(victim);
    unlink_locked(victim);
    --entries_;
    bytes_ -= victim->bytes;
    ++evictions_;
    victim->colder = victims;
    victims = victim;
  }
  return victims;
}

void SolutionCache::clear() {
  Entry* dropped = nullptr;
  {
    const util::MutexLock lock(mutex_);
    dropped = hottest_;
    hottest_ = coldest_ = nullptr;
    std::vector<Slot>().swap(slots_);
    entries_ = bytes_ = 0;
    hits_ = misses_ = insertions_ = evictions_ = 0;
  }
  Entry::destroy_chain(dropped);
}

CacheStats SolutionCache::stats() const {
  const util::MutexLock lock(mutex_);
  CacheStats s;
  s.entries = entries_;
  s.bytes = bytes_;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  if (coldest_ != nullptr) {
    s.oldest_age_s =
        std::chrono::duration<double>(Clock::now() - coldest_->touched)
            .count();
  }
  return s;
}

}  // namespace reclaim::engine
