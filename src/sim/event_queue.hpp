#pragma once

// Discrete-event kernel: a time-ordered queue of inline closures with
// stable FIFO tie-breaking at equal timestamps. Neither scheduling nor
// running an event allocates once the queue's buffers have warmed up.

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace deproto::sim {

/// A move-only `void()` callable stored inline: captures up to kCapacity
/// bytes, never heap-allocated. A larger capture is a compile error, so a
/// new caller must fit its state (pointers, ids, small values) into it.
class Task {
 public:
  static constexpr std::size_t kCapacity = 40;

  Task() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Task> &&
                                        std::is_invocable_r_v<void, D&>>>
  Task(F&& fn) : ops_(&kOps<D>) {  // implicit: callers pass lambdas
    static_assert(sizeof(D) <= kCapacity, "Task: capture too large");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "Task: capture over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "Task: capture must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
  }

  Task(Task&& other) noexcept : ops_(std::exchange(other.ops_, nullptr)) {
    if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
  }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = std::exchange(other.ops_, nullptr);
      if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into `dst`, then destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };
  template <typename D>
  static void invoke_as(void* p) {
    (*static_cast<D*>(p))();
  }
  template <typename D>
  static void relocate_as(void* dst, void* src) noexcept {
    ::new (dst) D(std::move(*static_cast<D*>(src)));
    static_cast<D*>(src)->~D();
  }
  template <typename D>
  static void destroy_as(void* p) noexcept {
    static_cast<D*>(p)->~D();
  }
  template <typename D>
  static constexpr Ops kOps{&invoke_as<D>, &relocate_as<D>, &destroy_as<D>};

  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

/// Pops events in (time, seq) order. Handlers sit in a slab with a free
/// list; their keys sit in a calendar ring of kBuckets buckets, each
/// 1/kBucketsPerUnit time units wide, so the ring spans a horizon of
/// kBuckets / kBucketsPerUnit units (two protocol periods). The bucket
/// being drained is kept sorted; later events wait unsorted in their
/// bucket, and events beyond the horizon in a small overflow heap that
/// feeds the ring as it advances.
class EventQueue {
 public:
  using Handler = Task;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `t` (finite and >= now()).
  void schedule(double t, Handler fn);

  /// Schedule `fn` `delay` time units from now.
  void schedule_in(double delay, Handler fn) {
    schedule(now_ + delay, std::move(fn));
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  /// Timestamp of the earliest pending event; +infinity when empty (so
  /// callers pacing the queue against an external clock -- the net
  /// backend's wall-clock loop -- can min() it against their horizon).
  [[nodiscard]] double next_time() const noexcept {
    return drain_.empty() ? std::numeric_limits<double>::infinity()
                          : drain_.back().time;
  }
  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return slots_.size() - free_slots_.size();
  }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Pop and run the earliest event. Returns false when the queue is empty.
  bool step();

  /// Run events until the queue empties or the next event is later than
  /// `t_end`; the clock then advances to t_end.
  void run_until(double t_end);

  /// Drain everything (use only when the event population is finite).
  void run_all();

 private:
  static constexpr std::size_t kBuckets = 512;
  static constexpr std::size_t kSlotMask = kBuckets - 1;
  static_assert((kBuckets & kSlotMask) == 0, "kBuckets is a power of two");
  static constexpr double kBucketsPerUnit = 256.0;

  struct Key {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slots_
  };
  /// Strict (time, seq) order, reversed: a sorted drain_ pops from back().
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Absolute bucket index of time `t` (monotone in t; saturates far out).
  [[nodiscard]] static std::int64_t bucket_of(double t);
  [[nodiscard]] std::vector<Key>& ring_bucket(std::int64_t bucket) {
    return ring_[static_cast<std::size_t>(bucket) & kSlotMask];
  }
  /// File `key` into drain_ (sorted), the ring, or the overflow heap.
  void place(const Key& key);
  /// With drain_ empty, move the ring forward to the next non-empty
  /// bucket (jumping to the overflow heap when the ring is empty) and
  /// sort it into drain_. Leaves drain_ empty only if the queue is.
  void refill();

  std::vector<Task> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Key> drain_;  // bucket cur_ and anything earlier, sorted
  std::array<std::vector<Key>, kBuckets> ring_;  // (cur_, cur_ + kBuckets)
  std::vector<Key> overflow_;  // min-heap under Later, >= cur_ + kBuckets
  std::int64_t cur_ = 0;
  std::size_t in_ring_ = 0;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace deproto::sim
