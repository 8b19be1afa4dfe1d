/// \file parallel_for.hpp
/// \brief Deterministic data-parallel loops on top of ThreadPool.
///
/// `parallel_map` evaluates `f(i)` for i in [0, n) and returns results in
/// index order regardless of scheduling, so sweeps produce identical tables
/// on any thread count — a requirement for reproducible experiment output.
///
/// Each call completes on its own: it waits for its own indices, not for the
/// pool to go idle, so several threads may run loops on one shared pool at
/// once (the serve daemon's connection threads all sweep on the runner's
/// pool).  A call submits at most `thread_count()` helpers that claim index
/// ranges from one atomic cursor; the caller only waits.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "support/contracts.hpp"

namespace radiocast::par {

/// Runs `body(i)` for every i in [0, n) using `pool`, blocking until every
/// index has run.  Helpers claim `grain` consecutive indices at a time.  If
/// bodies throw, the first exception is rethrown here, to this caller only,
/// once every other claimed range has finished; a throw skips the rest of
/// its own range, and all other indices still run.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t n, Body body,
                  std::size_t grain = 1) {
  RC_EXPECTS(grain >= 1);
  if (n == 0) return;
  // Shared with the helpers, which may outlive the call: a helper dequeued
  // after every index has finished sees an exhausted cursor and returns
  // without touching `body`, which lives on this frame.
  struct State {
    Body* body = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> finished{0};
    std::mutex mu;
    std::condition_variable all_done;
    std::exception_ptr error;
  };
  const auto state = std::make_shared<State>();
  state->body = &body;
  state->n = n;
  state->grain = grain;
  const std::size_t helpers =
      std::min(pool.thread_count(), (n + grain - 1) / grain);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([state] {
      for (;;) {
        const std::size_t begin = state->next.fetch_add(state->grain);
        if (begin >= state->n) return;
        const std::size_t end = std::min(state->n, begin + state->grain);
        try {
          for (std::size_t i = begin; i < end; ++i) (*state->body)(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(state->mu);
          if (!state->error) state->error = std::current_exception();
        }
        const std::size_t count = end - begin;
        if (state->finished.fetch_add(count) + count == state->n) {
          const std::lock_guard<std::mutex> lock(state->mu);
          state->all_done.notify_all();
        }
      }
    });
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->all_done.wait(lock, [&] { return state->finished.load() == n; });
  if (state->error) std::rethrow_exception(state->error);
}

/// Maps `f` over [0, n); results land in index order.
template <typename F>
auto parallel_map(ThreadPool& pool, std::size_t n, F f, std::size_t grain = 1)
    -> std::vector<decltype(f(std::size_t{0}))> {
  using R = decltype(f(std::size_t{0}));
  std::vector<R> out(n);
  parallel_for(
      pool, n, [&](std::size_t i) { out[i] = f(i); }, grain);
  return out;
}

}  // namespace radiocast::par
