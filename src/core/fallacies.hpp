// The ten fallacies and pitfalls as runnable demonstrations.
//
// Each entry reproduces, at small scale, the experiment with which the
// paper makes its point, and checks whether our system exhibits the same
// qualitative behaviour.  The full-scale versions (paper parameters,
// 500-sample curves) live in bench/; these miniatures are used by the
// fallacy_tour example and the integration tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace abw::core {

/// The paper's two flavors of misconception.
enum class MisconceptionKind { kFallacy, kPitfall };

const char* to_string(MisconceptionKind k);

/// Outcome of one demonstration.
struct FallacyResult {
  int id = 0;                       ///< 1..10, paper order
  MisconceptionKind kind = MisconceptionKind::kPitfall;
  std::string title;                ///< the paper's heading
  bool demonstrated = false;        ///< did our run exhibit the effect?
  std::string evidence;             ///< the numbers behind the verdict
};

/// Number of catalogued misconceptions.
inline constexpr int kFallacyCount = 10;

/// Title of misconception `id` (1-based, paper order).
std::string fallacy_title(int id);

/// Kind of misconception `id`.
MisconceptionKind fallacy_kind(int id);

/// Runs demonstration `id` (1-based).  Deterministic given `seed`.
/// Throws std::out_of_range for an unknown id.
FallacyResult run_fallacy(int id, std::uint64_t seed);

}  // namespace abw::core
