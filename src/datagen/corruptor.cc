#include "datagen/corruptor.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace autoem {

namespace {

// Long-form -> abbreviation rewrites seen in the real benchmark datasets.
const std::pair<const char*, const char*> kAbbreviations[] = {
    {"street", "st."},        {"avenue", "ave."},
    {"boulevard", "blvd."},   {"road", "rd."},
    {"drive", "dr."},         {"lane", "ln."},
    {"place", "pl."},         {"north", "n."},
    {"south", "s."},          {"east", "e."},
    {"west", "w."},           {"delicatessen", "deli"},
    {"restaurant", ""},       {"corporation", "corp."},
    {"incorporated", "inc."}, {"limited", "ltd."},
    {"international", "intl"},{"professional", "pro"},
    {"conference", "conf."},  {"transactions", "trans."},
    {"journal", "j."},        {"proceedings", "proc."},
    {"brewing company", "brewing co."},
};

const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz";

}  // namespace

CorruptionProfile CorruptionProfile::Clean() {
  CorruptionProfile p;
  p.typo_rate = 0.003;
  p.abbreviate_rate = 0.05;
  p.numeric_jitter = 0.0;
  return p;
}

CorruptionProfile CorruptionProfile::Heavy() {
  CorruptionProfile p;
  p.typo_rate = 0.08;
  p.token_drop_rate = 0.30;
  p.token_swap_rate = 0.25;
  p.abbreviate_rate = 0.35;
  p.synonym_rate = 0.20;
  p.null_rate = 0.10;
  p.numeric_jitter = 0.12;
  p.extra_token_rate = 0.45;
  return p;
}

CorruptionProfile CorruptionProfile::FromSeverity(double t) {
  t = std::clamp(t, 0.0, 1.0);
  CorruptionProfile lo = Clean();
  CorruptionProfile hi = Heavy();
  auto mix = [t](double a, double b) { return a + t * (b - a); };
  CorruptionProfile p;
  p.typo_rate = mix(lo.typo_rate, hi.typo_rate);
  p.token_drop_rate = mix(lo.token_drop_rate, hi.token_drop_rate);
  p.token_swap_rate = mix(lo.token_swap_rate, hi.token_swap_rate);
  p.abbreviate_rate = mix(lo.abbreviate_rate, hi.abbreviate_rate);
  p.synonym_rate = mix(lo.synonym_rate, hi.synonym_rate);
  p.null_rate = mix(lo.null_rate, hi.null_rate);
  p.numeric_jitter = mix(lo.numeric_jitter, hi.numeric_jitter);
  p.extra_token_rate = mix(lo.extra_token_rate, hi.extra_token_rate);
  return p;
}

Corruptor::Corruptor(CorruptionProfile profile, Rng* rng)
    : profile_(profile), rng_(rng) {}

std::string Corruptor::Typo(const std::string& s) {
  if (s.empty()) return s;
  std::string out = s;
  // Expected edits = len * typo_rate; the fractional part is a coin flip so
  // short strings still get occasional edits.
  double expected = static_cast<double>(s.size()) * profile_.typo_rate;
  int n_edits = static_cast<int>(expected);
  if (rng_->Bernoulli(expected - n_edits)) ++n_edits;
  for (int e = 0; e < n_edits && !out.empty(); ++e) {
    size_t pos = rng_->UniformIndex(out.size());
    switch (rng_->UniformInt(0, 3)) {
      case 0:  // substitute
        out[pos] = kAlphabet[rng_->UniformIndex(26)];
        break;
      case 1:  // delete
        out.erase(pos, 1);
        break;
      case 2:  // insert
        out.insert(out.begin() + pos, kAlphabet[rng_->UniformIndex(26)]);
        break;
      default:  // transpose
        if (pos + 1 < out.size()) std::swap(out[pos], out[pos + 1]);
        break;
    }
  }
  return out;
}

std::string Corruptor::DropTokens(const std::string& s) {
  std::vector<std::string> tokens = SplitWhitespace(s);
  if (tokens.size() <= 1) return s;
  std::vector<std::string> kept;
  kept.push_back(tokens[0]);  // head token always survives
  for (size_t i = 1; i < tokens.size(); ++i) {
    if (!rng_->Bernoulli(profile_.token_drop_rate)) kept.push_back(tokens[i]);
  }
  return Join(kept, " ");
}

std::string Corruptor::SwapTokens(const std::string& s) {
  std::vector<std::string> tokens = SplitWhitespace(s);
  if (tokens.size() < 2) return s;
  size_t i = rng_->UniformIndex(tokens.size() - 1);
  std::swap(tokens[i], tokens[i + 1]);
  return Join(tokens, " ");
}

std::string Corruptor::Abbreviate(const std::string& s) {
  std::vector<std::string> tokens = SplitWhitespace(s);
  std::vector<std::string> out;
  for (auto& tok : tokens) {
    bool rewritten = false;
    for (const auto& [full, abbr] : kAbbreviations) {
      if (tok == full && rng_->Bernoulli(profile_.abbreviate_rate)) {
        if (abbr[0] != '\0') out.emplace_back(abbr);
        rewritten = true;
        break;
      }
    }
    if (rewritten) continue;
    // Occasionally truncate a long word: "hollywood" -> "hollyw."
    if (tok.size() > 6 &&
        rng_->Bernoulli(profile_.abbreviate_rate * 0.3)) {
      out.push_back(tok.substr(0, 4 + rng_->UniformIndex(3)) + ".");
    } else {
      out.push_back(std::move(tok));
    }
  }
  if (out.empty()) return s;
  return Join(out, " ");
}

std::string Corruptor::AddToken(const std::string& s,
                                const std::vector<std::string>& filler_pool) {
  if (filler_pool.empty()) return s;
  const std::string& extra =
      filler_pool[rng_->UniformIndex(filler_pool.size())];
  if (s.empty()) return extra;
  return rng_->Bernoulli(0.5) ? s + " " + extra : extra + " " + s;
}

std::string Corruptor::CorruptString(const std::string& s) {
  std::string out = Abbreviate(s);
  out = DropTokens(out);  // per-token drop probability inside
  if (rng_->Bernoulli(profile_.token_swap_rate)) out = SwapTokens(out);
  if (filler_pool_ != nullptr &&
      rng_->Bernoulli(profile_.extra_token_rate)) {
    out = AddToken(out, *filler_pool_);
  }
  out = Typo(out);        // length-scaled edit count inside
  return out;
}

double Corruptor::CorruptNumber(double v) {
  if (profile_.numeric_jitter <= 0.0) return v;
  return v * (1.0 + rng_->Normal(0.0, profile_.numeric_jitter));
}

Value Corruptor::Corrupt(const Value& v) {
  if (v.is_null()) return v;
  if (rng_->Bernoulli(profile_.null_rate)) return Value::Null();
  if (v.is_string()) return Value(CorruptString(v.AsString()));
  if (v.is_number()) return Value(CorruptNumber(v.AsNumber()));
  return v;  // booleans pass through (nulling already applied)
}

}  // namespace autoem
