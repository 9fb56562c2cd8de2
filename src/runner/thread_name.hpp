// Portable thread naming, so perf/TSAN/trace output is attributable.
//
// The batch runner's worker threads ("abw-batch-N", runner/batch.hpp)
// are named through this helper.  Naming is best-effort — on platforms
// without a setname call it is a no-op and never an error.
#pragma once

#include <cstddef>
#include <string>

namespace abw::runner {

/// Names the calling thread `name` (truncated to the platform limit — 15
/// visible characters on Linux).  Best-effort: failures are ignored.
void set_current_thread_name(const std::string& name);

/// Convenience: names the calling thread `<prefix><index>`, e.g.
/// set_current_thread_name("abw-batch-", 3) -> "abw-batch-3".
void set_current_thread_name(const char* prefix, std::size_t index);

}  // namespace abw::runner
