// BatchRunner: deterministic parallel execution of independent scenario
// tasks (seed x config replications).
//
// Contract: `map(count, fn)` evaluates `fn(i)` for every task index
// i in [0, count) and returns the results **in submission (index) order**,
// so the aggregated output is bit-identical to a serial run regardless of
// thread count.  Tasks must be independent — each owns its own
// Simulator/Scenario/Rng; the DES core stays single-threaded by design
// (see src/sim/scheduler.hpp).  Derive per-task randomness with
// `derive_seed(base_seed, i)` rather than sharing one Rng across tasks.
//
// Exceptions thrown by tasks are captured and rethrown on the calling
// thread; when several tasks throw, the lowest task index wins (again
// matching what a serial run would have reported first).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runner/cli.hpp"  // default_jobs() — also re-exported for callers

namespace abw::runner {

/// splitmix64 — the standard 64-bit mixer (Steele et al.); bijective, so
/// distinct inputs give distinct well-scrambled outputs.
std::uint64_t splitmix64(std::uint64_t x);

/// Deterministic per-task seed: splitmix64 of `base_seed ^ task_index`
/// (with the index pre-mixed so low-entropy bases still decorrelate).
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index);

/// Bounded retry of failed grid cells (map_cells).  Each retry reruns the
/// cell's function with the next attempt number; seeded variants derive a
/// fresh deterministic seed per attempt, so a retry is a *different*
/// random replication, not a replay of the failing one.
struct RetryPolicy {
  std::size_t max_retries = 0;  ///< extra attempts after the first (0 = none)
};

/// Outcome of one grid cell under map_cells: a result or the error that
/// killed its final attempt — never an exception.  One pathological cell
/// (an estimator crashing under fault injection, a misconfigured
/// scenario) must not discard the rest of a sweep's completed work.
template <typename R>
struct CellResult {
  R value{};                   ///< meaningful only when ok
  bool ok = false;             ///< the cell produced a value
  std::string error;           ///< what() of the last failed attempt
  std::uint32_t attempts = 0;  ///< total attempts made (>= 1)
};

namespace detail {

/// Runs `task(i)` for every i in [0, count) on `threads` new threads named
/// "abw-batch-<n>".  Each thread claims the next unclaimed index from one
/// atomic counter until the indices run out; returns once all have
/// joined.  `task` must not throw.  When a thread cannot be started, the
/// started ones finish the task they hold and the std::system_error
/// propagates.
void run_on_threads(std::size_t count, std::size_t threads,
                    const std::function<void(std::size_t)>& task);

}  // namespace detail

/// Executes batches of independent tasks on up to `jobs` threads that
/// each map() call starts and joins.  Jobs-count CLI/env parsing lives in
/// runner/cli.hpp.
class BatchRunner {
 public:
  /// `jobs` == 0 means default_jobs().  With jobs == 1 `map` runs the
  /// plain serial loop on the calling thread.
  explicit BatchRunner(std::size_t jobs = 0);

  std::size_t jobs() const { return jobs_; }

  /// Runs `fn(i)` for i in [0, count) and returns {fn(0), ..., fn(count-1)}
  /// in index order.  `fn` must be callable concurrently from multiple
  /// threads; its result type must be movable and default-constructible.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{0}))> {
    using R = decltype(fn(std::size_t{0}));
    std::vector<R> results(count);
    if (count == 0) return results;
    if (jobs_ == 1 || count == 1) {
      for (std::size_t i = 0; i < count; ++i) results[i] = fn(i);
      return results;
    }
    std::vector<std::exception_ptr> errors(count);
    auto run_one = [&](std::size_t i) {
      try {
        results[i] = fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    };
    detail::run_on_threads(count, jobs_ < count ? jobs_ : count, run_one);
    for (auto& e : errors)
      if (e) std::rethrow_exception(e);
    return results;
  }

  /// `map` over task seeds derived from `base_seed`: fn(i, derive_seed(...)).
  template <typename Fn>
  auto map_seeded(std::size_t count, std::uint64_t base_seed, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{0}, std::uint64_t{0}))> {
    return map(count, [&](std::size_t i) { return fn(i, derive_seed(base_seed, i)); });
  }

  /// Fault-tolerant `map`: runs `fn(i, attempt)` for every cell, catching
  /// exceptions instead of rethrowing them, and returns one CellResult
  /// per cell in index order.  A throwing attempt is retried up to
  /// `retry.max_retries` times; the error string records the final
  /// attempt's failure.  Successful cells compute exactly what map()
  /// would (fn sees attempt == 0), so aggregation over the ok cells is
  /// bit-identical whether or not other cells failed.
  template <typename Fn>
  auto map_cells(std::size_t count, Fn&& fn, RetryPolicy retry = {})
      -> std::vector<CellResult<decltype(fn(std::size_t{0}, std::size_t{0}))>> {
    using R = decltype(fn(std::size_t{0}, std::size_t{0}));
    return map(count, [&](std::size_t i) {
      CellResult<R> cell;
      for (std::size_t attempt = 0; attempt <= retry.max_retries; ++attempt) {
        ++cell.attempts;
        try {
          cell.value = fn(i, attempt);
          cell.ok = true;
          cell.error.clear();
          break;
        } catch (const std::exception& e) {
          cell.error = e.what();
        } catch (...) {
          cell.error = "non-standard exception";
        }
      }
      return cell;
    });
  }

  /// Seeded fault-tolerant map.  Attempt 0 of cell i runs under
  /// derive_seed(base_seed, i) — the same seed map_seeded would hand it,
  /// keeping successful first-attempt cells bit-identical to a plain
  /// seeded sweep.  Retry attempt a > 0 runs under
  /// derive_seed(derive_seed(base_seed, i), a): a fresh deterministic
  /// replication seed, reproducible across runs and thread counts.
  template <typename Fn>
  auto map_cells_seeded(std::size_t count, std::uint64_t base_seed, Fn&& fn,
                        RetryPolicy retry = {})
      -> std::vector<CellResult<decltype(fn(std::size_t{0}, std::uint64_t{0}))>> {
    return map_cells(
        count,
        [&](std::size_t i, std::size_t attempt) {
          std::uint64_t seed = derive_seed(base_seed, i);
          if (attempt > 0) seed = derive_seed(seed, attempt);
          return fn(i, seed);
        },
        retry);
  }

 private:
  std::size_t jobs_;
};

}  // namespace abw::runner
