#include "smc/fault.h"

#include <chrono>
#include <thread>

#include "common/hash.h"

namespace hprl::smc {

namespace {

/// SplitMix64 finalizer — a well-mixed pure function of its input.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of the hash.
double ToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool IsTransientFault(const Status& s) {
  return s.code() == StatusCode::kNotFound ||
         s.code() == StatusCode::kIOError ||
         s.code() == StatusCode::kInternal;
}

bool IsFaultClass(const Status& s) {
  return IsTransientFault(s) || s.code() == StatusCode::kUnavailable;
}

void FaultyBus::SetPairContext(int64_t a_id, int64_t b_id, int attempt) {
  armed_ = true;
  pair_key_ = static_cast<int64_t>(
      Mix(static_cast<uint64_t>(a_id) * kFnv64Prime ^
          static_cast<uint64_t>(b_id)));
  attempt_ = attempt;
  step_ = 0;
}

bool FaultyBus::Roll(Kind kind, double rate, uint64_t step) {
  if (rate <= 0) return false;
  uint64_t h = plan_.seed;
  h = Mix(h ^ static_cast<uint64_t>(pair_key_));
  h = Mix(h ^ step);
  h = Mix(h ^ (static_cast<uint64_t>(attempt_) << 8) ^
          static_cast<uint64_t>(kind));
  return ToUnit(h) < rate;
}

void FaultyBus::CountFault(obs::Counter* per_kind) {
  ++faults_injected_;
  if (total_counter_ != nullptr) total_counter_->Increment();
  if (per_kind != nullptr) per_kind->Increment();
}

void FaultyBus::Send(Message msg) {
  if (!armed_) {
    MessageBus::Send(std::move(msg));
    return;
  }
  const uint64_t step = step_++;
  if (Roll(Kind::kDrop, plan_.drop_rate, step)) {
    CountFault(dropped_counter_);
    return;  // vanished in transit; the receiver's Expect comes up NotFound
  }
  if (Roll(Kind::kDelay, plan_.delay_rate, step) && plan_.delay_micros > 0) {
    CountFault(delayed_counter_);
    std::this_thread::sleep_for(std::chrono::microseconds(plan_.delay_micros));
  }
  Stamp(&msg);  // checksum covers the payload as the sender produced it
  if (Roll(Kind::kCorrupt, plan_.corrupt_rate, step) && !msg.payload.empty()) {
    CountFault(corrupted_counter_);
    // Flip one byte at a schedule-derived position: detected by the
    // receiver's checksum validation, healed by the retry layer.
    uint64_t h = Mix(plan_.seed ^ static_cast<uint64_t>(pair_key_) ^ step);
    msg.payload[h % msg.payload.size()] ^= static_cast<uint8_t>(0x80u | h);
  }
  Enqueue(std::move(msg));
}

Result<Message> FaultyBus::Expect(const std::string& to,
                                  const std::string& tag) {
  if (!armed_) return MessageBus::Expect(to, tag);
  const uint64_t step = step_++;
  if (Roll(Kind::kCrash, plan_.crash_rate, step)) {
    CountFault(crashed_counter_);
    return Status::Unavailable("injected crash: " + to +
                               " died waiting for '" + tag + "'");
  }
  return MessageBus::Expect(to, tag);
}

void FaultyBus::AttachMetrics(obs::MetricsRegistry* registry) {
  MessageBus::AttachMetrics(registry);
  total_counter_ =
      registry ? registry->counter("smc.faults_injected") : nullptr;
  dropped_counter_ =
      registry ? registry->counter("smc.faults_dropped") : nullptr;
  corrupted_counter_ =
      registry ? registry->counter("smc.faults_corrupted") : nullptr;
  delayed_counter_ =
      registry ? registry->counter("smc.faults_delayed") : nullptr;
  crashed_counter_ =
      registry ? registry->counter("smc.faults_crashed") : nullptr;
}

}  // namespace hprl::smc
