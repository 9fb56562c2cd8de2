#include "runner/cli.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

namespace abw::runner {

namespace {

std::size_t parse_positive(const std::string& s, const char* what) {
  // std::stoull skips leading whitespace and accepts a sign, wrapping "-1"
  // to 2^64 - 1; only plain digits are a job count.
  if (s.empty() || s[0] < '0' || s[0] > '9')
    throw std::invalid_argument(std::string(what) + ": want a positive integer, got: " + s);
  std::size_t pos = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string(what) + ": not a number: " + s);
  }
  if (pos != s.size() || v == 0)
    throw std::invalid_argument(std::string(what) + ": want a positive integer, got: " + s);
  return static_cast<std::size_t>(v);
}

}  // namespace

std::size_t default_jobs() {
  if (const char* env = std::getenv("ABW_JOBS"); env && *env)
    return parse_positive(env, "ABW_JOBS");
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

std::size_t parse_jobs_flag(int argc, char** argv, std::size_t fallback) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--jobs" || arg == "-j") {
      if (i + 1 >= argc)
        throw std::invalid_argument("--jobs: missing value");
      return parse_positive(argv[i + 1], "--jobs");
    }
    if (arg.rfind("--jobs=", 0) == 0)
      return parse_positive(arg.substr(7), "--jobs");
  }
  return fallback;
}

std::string parse_string_flag(int argc, char** argv, const std::string& name,
                              const std::string& fallback) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == flag) {
      if (i + 1 >= argc)
        throw std::invalid_argument(flag + ": missing value");
      return argv[i + 1];
    }
    if (arg.rfind(flag + "=", 0) == 0) {
      std::string value = arg.substr(flag.size() + 1);
      if (value.empty())
        throw std::invalid_argument(flag + ": missing value");
      return value;
    }
  }
  return fallback;
}

std::size_t jobs_from_cli(int argc, char** argv) {
  try {
    return parse_jobs_flag(argc, argv, default_jobs());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "abw", e.what());
    std::exit(2);
  }
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace abw::runner
