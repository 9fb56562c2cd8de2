#include "runner/batch.hpp"

#include <atomic>
#include <thread>

#include "runner/thread_name.hpp"

namespace abw::runner {

void detail::run_on_threads(std::size_t count, std::size_t threads,
                            const std::function<void(std::size_t)>& task) {
  std::atomic<std::size_t> next{0};
  auto work = [&](std::size_t t) {
    set_current_thread_name("abw-batch-", t);
    for (std::size_t i = next++; i < count; i = next++) task(i);
  };
  std::vector<std::thread> workers;
  workers.reserve(threads);
  try {
    for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(work, t);
  } catch (...) {
    // A thread that did not start: let the started ones finish the task
    // they hold, claim nothing more, and report the failure.
    next = count;
    for (std::thread& w : workers) w.join();
    throw;
  }
  for (std::thread& w : workers) w.join();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  return splitmix64(base_seed ^ splitmix64(task_index));
}

BatchRunner::BatchRunner(std::size_t jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {}

}  // namespace abw::runner
