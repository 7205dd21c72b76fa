#include "trace.hpp"

#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local std::shared_ptr<Buffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<Buffer>();
    const std::lock_guard<std::mutex> lock(mutex_);
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void Tracer::enable() {
  main_thread_ = local().thread;
  enabled_.store(true, std::memory_order_relaxed);
}

Tracer::Scope::Scope(const char* name, std::uint64_t request, bool fine)
    : name_(name), request_(request) {
  Tracer& tracer = get();
  if (fine ? !tracer.fine() : !tracer.enabled()) return;
  Buffer& buffer = tracer.local();
  id_ = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = buffer.open.empty() ? 0 : buffer.open.back();
  buffer.open.push_back(id_);
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (id_ == 0) return;
  const auto end = Clock::now();
  Buffer& buffer = get().local();
  buffer.open.pop_back();
  buffer.spans.push_back(
      Span{id_, parent_, buffer.thread, request_, name_, start_, end});
}

void Tracer::record(const char* name, std::uint64_t request,
                    Clock::time_point start, Clock::time_point end,
                    std::uint32_t parent) {
  if (!fine()) return;
  Buffer& buffer = local();
  const std::uint32_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  buffer.spans.push_back(
      Span{id, parent, buffer.thread, request, name, start, end});
}

std::uint32_t Tracer::current() const {
  if (!enabled()) return 0;
  const Buffer& buffer = const_cast<Tracer*>(this)->local();
  return buffer.open.empty() ? 0 : buffer.open.back();
}

std::vector<Tracer::Span> Tracer::all_spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> spans;
  for (const auto& buffer : buffers_) {
    spans.insert(spans.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return spans;
}

std::map<std::uint32_t, double> Tracer::self_times(
    const std::vector<Span>& spans) const {
  std::unordered_map<std::uint32_t, const Span*> by_id;
  by_id.reserve(spans.size());
  std::map<std::uint32_t, double> self;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    self[s.id] = us_between(s.start, s.end) * 1e-6;
  }
  for (const Span& s : spans) {
    const auto parent = by_id.find(s.parent);
    if (parent == by_id.end() || parent->second->thread != s.thread) continue;
    self[s.parent] -= us_between(s.start, s.end) * 1e-6;
  }
  return self;
}

std::map<std::string, Tracer::NameStats> Tracer::by_name(bool main_only) const {
  const std::vector<Span> spans = all_spans();
  const auto self = self_times(spans);
  std::map<std::string, NameStats> out;
  for (const Span& s : spans) {
    if (main_only && s.thread != main_thread_) continue;
    NameStats& stats = out[s.name];
    ++stats.count;
    stats.self_s += self.at(s.id);
    stats.total_s += us_between(s.start, s.end) * 1e-6;
  }
  return out;
}

double Tracer::main_thread_self_s() const {
  const std::vector<Span> spans = all_spans();
  const auto self = self_times(spans);
  double sum = 0.0;
  for (const Span& s : spans) {
    if (s.thread == main_thread_) sum += self.at(s.id);
  }
  return sum;
}

void Tracer::write(const std::string& path) const {
  const std::vector<Span> spans = all_spans();
  const auto self = self_times(spans);
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans) origin = std::min(origin, s.start);
  std::ofstream out(path);
  out.setf(std::ios::fixed);
  out.precision(3);
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"thread\":" << s.thread << ",\"request\":" << s.request
        << ",\"name\":\"" << s.name << "\",\"start_us\":"
        << us_between(origin, s.start) << ",\"end_us\":"
        << us_between(origin, s.end) << ",\"self_us\":" << 1e6 * self.at(s.id)
        << "}\n";
  }
}

}  // namespace perfbench
