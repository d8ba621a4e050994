#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace deproto::sim {

namespace {

// Bucket indices saturate here, far beyond any simulated horizon; every
// later time shares the last bucket, which the drain sorts exactly.
constexpr double kSaturation = 0x1p60;

}  // namespace

std::int64_t EventQueue::bucket_of(double t) {
  const double scaled = t * kBucketsPerUnit;
  return static_cast<std::int64_t>(std::min(scaled, kSaturation));
}

void EventQueue::schedule(double t, Handler fn) {
  if (!std::isfinite(t)) {
    throw std::invalid_argument("EventQueue::schedule: non-finite time");
  }
  if (t < now_) {
    throw std::invalid_argument("EventQueue::schedule: time in the past");
  }
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  place(Key{t, next_seq_++, slot});
  if (drain_.empty()) refill();
}

void EventQueue::place(const Key& key) {
  const std::int64_t bucket = bucket_of(key.time);
  if (bucket <= cur_) {
    // At or before the bucket being drained (the ring may have run ahead
    // of now() to the next pending event): keep drain_ sorted.
    drain_.insert(std::lower_bound(drain_.begin(), drain_.end(), key, Later{}),
                  key);
  } else if (bucket - cur_ < static_cast<std::int64_t>(kBuckets)) {
    ring_bucket(bucket).push_back(key);
    ++in_ring_;
  } else {
    overflow_.push_back(key);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

void EventQueue::refill() {
  while (drain_.empty() && !empty()) {
    // Step to the next bucket, or jump straight to the overflow heap's
    // earliest event when the ring holds nothing.
    if (in_ring_ == 0) {
      cur_ = bucket_of(overflow_.front().time);
    } else {
      ++cur_;
    }
    std::vector<Key>& bucket = ring_bucket(cur_);
    in_ring_ -= bucket.size();
    drain_.swap(bucket);
    // Overflow events the advanced horizon now covers enter the ring.
    while (!overflow_.empty() &&
           bucket_of(overflow_.front().time) - cur_ <
               static_cast<std::int64_t>(kBuckets)) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      const Key key = overflow_.back();
      overflow_.pop_back();
      const std::int64_t at = bucket_of(key.time);
      if (at <= cur_) {
        drain_.push_back(key);
      } else {
        ring_bucket(at).push_back(key);
        ++in_ring_;
      }
    }
    std::sort(drain_.begin(), drain_.end(), Later{});
  }
}

bool EventQueue::step() {
  if (drain_.empty()) return false;
  const Key key = drain_.back();
  drain_.pop_back();
  // Move the handler out first: it may schedule more work, which can
  // reuse its slot or grow the slab.
  Task fn = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  refill();
  now_ = key.time;
  ++executed_;
  fn();
  return true;
}

void EventQueue::run_until(double t_end) {
  while (!drain_.empty() && drain_.back().time <= t_end) {
    step();
  }
  if (now_ < t_end) now_ = t_end;
}

void EventQueue::run_all() {
  while (step()) {
  }
}

}  // namespace deproto::sim
