#include "spans.h"

#include <stdexcept>

namespace perfbench {

int Tracer::open(std::string layer, std::string name) {
  SpanRecord s;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.layer = std::move(layer);
  s.name = std::move(name);
  s.start_ns = now_ns() - origin_ns_;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans must close innermost first");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns() - origin_ns_;
}

void Tracer::aggregate(std::string layer, std::string name,
                       std::int64_t total_ns, std::uint64_t calls,
                       std::uint64_t lanes) {
  if (open_.empty()) {
    throw std::logic_error("perfbench: an aggregate span needs an open parent");
  }
  SpanRecord s;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.back();
  s.layer = std::move(layer);
  s.name = std::move(name);
  s.end_ns = total_ns;
  s.aggregate = true;
  s.calls = calls;
  s.lanes = lanes;
  spans_.push_back(std::move(s));
}

}  // namespace perfbench
