#include "poi360/sim/simulator.h"

#include <limits>
#include <utility>

namespace poi360::sim {

std::uint32_t Simulator::acquire_slot(Callback cb) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(std::move(cb));
  return slot;
}

void Simulator::schedule_at(SimTime t, Callback cb) {
  if (t < now_) t = now_;
  queue_.push(Event{t, next_seq_++, acquire_slot(std::move(cb))});
}

void Simulator::schedule_periodic(SimTime start, SimDuration period,
                                  Callback cb) {
  if (start < now_) start = now_;
  periodic_keys_.push_back(TimerKey{start, next_seq_++});
  periodics_.push_back(PeriodicTimer{period, std::move(cb)});
}

bool Simulator::fire_next(SimTime horizon) {
  // The earliest firing is the globally smallest (time, seq) across the
  // one-shot heap and the periodic lane. Sessions run a handful of timers,
  // so a linear scan of the contiguous keys beats maintaining a second heap.
  constexpr std::size_t kFromQueue = std::numeric_limits<std::size_t>::max();
  std::size_t timer_index = kFromQueue;
  SimTime best_time = std::numeric_limits<SimTime>::max();
  std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();

  if (!queue_.empty()) {
    best_time = queue_.top().time;
    best_seq = queue_.top().seq;
  }
  for (std::size_t i = 0; i < periodic_keys_.size(); ++i) {
    const TimerKey& key = periodic_keys_[i];
    if (key.next < best_time || (key.next == best_time && key.seq < best_seq)) {
      best_time = key.next;
      best_seq = key.seq;
      timer_index = i;
    }
  }
  if (timer_index == kFromQueue && queue_.empty()) return false;
  if (best_time > horizon) return false;

  now_ = best_time;
  if (timer_index != kFromQueue) {
    PeriodicTimer& timer = periodics_[timer_index];
    timer.cb();
    // Re-arm in place. The next firing draws its sequence number *after*
    // the callback ran, exactly as when each firing re-scheduled itself
    // through the queue: events the callback just scheduled at the same
    // future timestamp keep their FIFO slot ahead of the timer's next turn.
    // Index the keys afresh: the callback may have registered new timers.
    TimerKey& key = periodic_keys_[timer_index];
    key.seq = next_seq_++;
    key.next = now_ + timer.period;
  } else {
    const Event ev = queue_.top();
    queue_.pop();
    // Move the callback out before invoking: the callback may schedule new
    // events, which can grow `slots_` and recycle this slot.
    Callback cb = std::move(slots_[ev.slot]);
    free_slots_.push_back(ev.slot);
    cb();
  }
  return true;
}

void Simulator::run_until(SimTime end) {
  while (fire_next(end)) {
  }
  if (now_ < end) now_ = end;
}

bool Simulator::step() {
  return fire_next(std::numeric_limits<SimTime>::max());
}

}  // namespace poi360::sim
