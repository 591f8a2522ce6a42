#include "src/serve/target_pool.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <utility>

#include "src/corpus/spec.h"
#include "src/support/verdict_store.h"

namespace spex {

TargetPool::TargetPool(size_t capacity, SessionOptions session_options, std::string store_dir,
                       size_t replay_budget, std::shared_ptr<Clock> clock)
    : capacity_(capacity == 0 ? 1 : capacity),
      session_options_(std::move(session_options)),
      store_dir_(std::move(store_dir)),
      replay_budget_(replay_budget),
      clock_(std::move(clock)) {}

std::shared_ptr<TargetPool::Entry> TargetPool::Acquire(const std::string& name,
                                                       Status* status) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it != slots_.end()) {
    it->second.last_used = ++tick_;
    ++hits_;
    *status = Status::Ok();
    return it->second.entry;
  }

  // An unknown name is the caller's mistake (kNotFound), not a failed
  // load, and costs no Session.
  if (LookupTarget(name) == nullptr) {
    *status = Status::NotFound("unknown target '" + name + "'");
    return nullptr;
  }

  auto entry = std::make_shared<Entry>();
  entry->name = name;
  entry->session = std::make_unique<Session>(session_options_);
  entry->target = entry->session->LoadTarget(name);
  if (entry->target == nullptr) {
    *status = Status::Internal("loading target '" + name +
                               "' failed: " + entry->session->RenderDiagnostics());
    return nullptr;
  }
  if (!store_dir_.empty()) {
    // Persistent verdicts: the store outlives both this entry (eviction)
    // and the process (restart), which is the whole point — Open never
    // hard-fails, so a corrupt or unwritable store means checking without
    // one, not a failed load.
    std::error_code ec;
    std::filesystem::create_directories(store_dir_, ec);
    entry->target->AttachVerdictStore(
        VerdictStore::Open(store_dir_ + "/" + name + ".vst"));
  }
  // A fresh target starts with a full bucket: the first `budget` dynamic
  // checks run unthrottled, then refill paces the rest.
  entry->budget_tokens = static_cast<double>(replay_budget_);
  entry->budget_refilled = Now();
  ++loads_;

  if (slots_.size() >= capacity_) {
    // Evict the least-recently-used entry. Dropping the map's shared_ptr
    // is all eviction means — an in-flight request holding the entry keeps
    // it alive until it finishes, so eviction can never pull a Session out
    // from under a replay.
    auto victim = slots_.end();
    for (auto candidate = slots_.begin(); candidate != slots_.end(); ++candidate) {
      if (victim == slots_.end() || candidate->second.last_used < victim->second.last_used) {
        victim = candidate;
      }
    }
    if (victim != slots_.end()) {
      slots_.erase(victim);
      ++evictions_;
    }
  }
  slots_[name] = Slot{entry, ++tick_};
  *status = Status::Ok();
  return entry;
}

bool TargetPool::TryConsumeReplayToken(Entry* entry) {
  if (replay_budget_ == 0 || entry == nullptr) {
    return true;  // Budgets disarmed: every dynamic request may replay.
  }
  std::lock_guard<std::mutex> lock(entry->budget_mutex);
  // Refill: budget tokens per second of (injected) clock time, capped at
  // the bucket size so idle time never banks an unbounded burst.
  MonotonicTime now = Now();
  if (now > entry->budget_refilled) {
    double elapsed_seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(now - entry->budget_refilled)
            .count();
    entry->budget_tokens =
        std::min(static_cast<double>(replay_budget_),
                 entry->budget_tokens + elapsed_seconds * static_cast<double>(replay_budget_));
  }
  entry->budget_refilled = now;
  if (entry->budget_tokens >= 1.0) {
    entry->budget_tokens -= 1.0;
    return true;
  }
  entry->budget_degraded.fetch_add(1, std::memory_order_relaxed);
  return false;
}

size_t TargetPool::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

size_t TargetPool::loads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return loads_;
}

size_t TargetPool::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

size_t TargetPool::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::vector<TargetPool::BudgetState> TargetPool::BudgetStates() const {
  std::vector<BudgetState> states;
  if (replay_budget_ == 0) {
    return states;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  states.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {
    BudgetState state;
    state.name = name;
    {
      std::lock_guard<std::mutex> budget_lock(slot.entry->budget_mutex);
      state.tokens = slot.entry->budget_tokens;
    }
    state.degraded = slot.entry->budget_degraded.load(std::memory_order_relaxed);
    states.push_back(std::move(state));
  }
  return states;
}

}  // namespace spex
