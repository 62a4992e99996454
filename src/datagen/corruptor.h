#ifndef AUTOEM_DATAGEN_CORRUPTOR_H_
#define AUTOEM_DATAGEN_CORRUPTOR_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "table/value.h"

namespace autoem {

/// Controls how aggressively a record is perturbed when rendered for the
/// second data source. Rates are per-opportunity probabilities.
struct CorruptionProfile {
  double typo_rate = 0.0;        // per-character edit rate
  double token_drop_rate = 0.0;  // P(drop each non-head token)
  double token_swap_rate = 0.0;  // P(swap one adjacent token pair)
  double abbreviate_rate = 0.0;  // P(abbreviate each known/long word)
  double synonym_rate = 0.0;     // P(rewrite via the synonym table)
  double null_rate = 0.0;        // P(replace the value with NULL)
  double numeric_jitter = 0.0;   // relative sigma for numbers
  double extra_token_rate = 0.0; // P(append a filler token)

  /// Presets roughly matching the paper's dataset families.
  static CorruptionProfile Clean();   // Fodors-Zagats-like
  static CorruptionProfile Heavy();   // Amazon-Google / Abt-Buy-like

  /// Linear interpolation Clean -> Heavy by t in [0, 1].
  static CorruptionProfile FromSeverity(double t);
};

/// Deterministic string/value perturbation engine. All randomness comes
/// from the caller-owned Rng, so a fixed seed reproduces a dataset exactly.
class Corruptor {
 public:
  Corruptor(CorruptionProfile profile, Rng* rng);

  /// Applies character edits (insert/delete/substitute/transpose); the edit
  /// count scales with string length and the profile's typo_rate.
  std::string Typo(const std::string& s);

  /// Drops each token after the first with token_drop_rate.
  std::string DropTokens(const std::string& s);

  /// Swaps one random adjacent token pair.
  std::string SwapTokens(const std::string& s);

  /// Rewrites known long-form words to their abbreviations ("street" ->
  /// "st.") and, with a lower rate, truncates long words to "<prefix>.".
  std::string Abbreviate(const std::string& s);

  /// Appends a filler token drawn from the supplied pool.
  std::string AddToken(const std::string& s,
                       const std::vector<std::string>& filler_pool);

  /// Full pipeline for a string value, applying each perturbation with its
  /// profile probability.
  std::string CorruptString(const std::string& s);

  /// Relative jitter for numbers: v * (1 + N(0, numeric_jitter)).
  double CorruptNumber(double v);

  /// Applies the profile to a typed Value, including nulling.
  Value Corrupt(const Value& v);

  /// Pool used by the extra_token_rate perturbation inside CorruptString;
  /// no extra tokens are injected until a pool is set.
  void SetFillerPool(const std::vector<std::string>* pool) {
    filler_pool_ = pool;
  }

  const CorruptionProfile& profile() const { return profile_; }

 private:
  CorruptionProfile profile_;
  Rng* rng_;
  const std::vector<std::string>* filler_pool_ = nullptr;
};

}  // namespace autoem

#endif  // AUTOEM_DATAGEN_CORRUPTOR_H_
