// Shared CLI helpers for the parallel benches and examples: one home for
// the `--jobs N` / `--jobs=N` / `-j N` flag and the ABW_JOBS environment
// variable, so every binary parses them identically, plus the wall clock
// the micro-benchmarks and examples time themselves with.
#pragma once

#include <cstddef>
#include <string>

namespace abw::runner {

/// Number of parallel jobs to use by default: the ABW_JOBS environment
/// variable when set to a positive integer, else hardware_concurrency()
/// (at least 1).
std::size_t default_jobs();

/// Parses a trailing `--jobs N` / `--jobs=N` / `-j N` flag from argv.
/// Returns `fallback` when absent; throws std::invalid_argument on a
/// malformed value.
std::size_t parse_jobs_flag(int argc, char** argv, std::size_t fallback);

/// CLI front end for the benches/examples: parse_jobs_flag over
/// default_jobs(), but a malformed --jobs or ABW_JOBS prints the error to
/// stderr and exits 2 instead of propagating (no aborting on a typo).
std::size_t jobs_from_cli(int argc, char** argv);

/// Parses a `--name VALUE` / `--name=VALUE` string flag from argv (pass
/// `name` without the leading dashes).  Returns `fallback` when absent;
/// throws std::invalid_argument when the value is missing.  Used by the
/// observability flags (`--trace=FILE`, `--metrics=FILE`).
std::string parse_string_flag(int argc, char** argv, const std::string& name,
                              const std::string& fallback);

/// Monotonic wall clock in seconds (steady_clock).
double monotonic_seconds();

}  // namespace abw::runner
