#include "table/value.h"

#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace autoem {

std::string Value::ToString() const {
  if (is_null()) return "";
  if (is_bool()) return AsBool() ? "true" : "false";
  if (is_number()) {
    double d = AsNumber();
    if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
      return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", d);
    return buf;
  }
  return AsString();
}

Value Value::Parse(std::string_view raw) {
  if (raw.empty()) return Value::Null();
  if (raw == "true" || raw == "True" || raw == "TRUE") return Value(true);
  if (raw == "false" || raw == "False" || raw == "FALSE") return Value(false);
  double d;
  if (ParseCellNumber(raw, &d)) return Value(d);
  return Value(std::string(raw));
}

}  // namespace autoem
