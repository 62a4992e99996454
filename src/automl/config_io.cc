#include "automl/config_io.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "io/atomic_file.h"
#include "io/serialize.h"

namespace autoem {

namespace {

std::string RenderValue(const ParamValue& value) {
  if (value.is_bool()) return value.AsBool() ? "true" : "false";
  if (value.is_int()) return std::to_string(value.AsInt());
  if (value.is_double()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value.AsDouble());
    std::string out = buf;
    // Values like -0.0 or 2.0 render as "-0" / "2", which would reparse as
    // int64 and silently change the value's type. Keep doubles doubles.
    if (out.find_first_of(".eE") == std::string::npos &&
        std::isfinite(value.AsDouble())) {
      out += ".0";
    }
    return out;
  }
  // Single-quoted string; embedded quotes are doubled.
  std::string out = "'";
  for (char c : value.AsString()) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

Result<ParamValue> ReadValue(const std::string& raw, size_t line_no) {
  if (raw.empty()) {
    return Status::InvalidArgument(
        StrFormat("line %zu: empty value", line_no));
  }
  if (raw.front() == '\'') {
    if (raw.size() < 2 || raw.back() != '\'') {
      return Status::InvalidArgument(
          StrFormat("line %zu: unterminated string", line_no));
    }
    std::string out;
    for (size_t i = 1; i + 1 < raw.size(); ++i) {
      if (raw[i] == '\'' && i + 2 < raw.size() && raw[i + 1] == '\'') {
        out += '\'';
        ++i;
      } else if (raw[i] == '\'') {
        return Status::InvalidArgument(
            StrFormat("line %zu: stray quote", line_no));
      } else {
        out += raw[i];
      }
    }
    return ParamValue(out);
  }
  if (raw == "true") return ParamValue(true);
  if (raw == "false") return ParamValue(false);
  // Integer when it round-trips as one; double otherwise. Full-length
  // consumption is checked against raw.size(), not '\0', so values with an
  // embedded NUL ("1\0junk") are rejected instead of silently truncated.
  const char* raw_end = raw.c_str() + raw.size();
  char* end = nullptr;
  errno = 0;
  long long as_int = std::strtoll(raw.c_str(), &end, 10);
  if (end == raw_end && end != raw.c_str() && errno != ERANGE) {
    return ParamValue(static_cast<int64_t>(as_int));
  }
  // Out-of-range integers (ERANGE would have clamped to LLONG_MIN/MAX)
  // fall through and reparse as doubles.
  end = nullptr;
  errno = 0;
  double as_double = std::strtod(raw.c_str(), &end);
  if (end == raw_end && end != raw.c_str() && std::isfinite(as_double)) {
    return ParamValue(as_double);
  }
  return Status::InvalidArgument(
      StrFormat("line %zu: cannot parse value '%s'", line_no, raw.c_str()));
}

}  // namespace

std::string SerializeConfiguration(const Configuration& config) {
  std::string out;
  for (const auto& [key, value] : config) {  // std::map: sorted keys
    out += key;
    out += " = ";
    out += RenderValue(value);
    out += '\n';
  }
  return out;
}

Result<Configuration> ParseConfiguration(const std::string& text) {
  Configuration config;
  size_t line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find(" = ");
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected 'key = value'", line_no));
    }
    std::string key = Trim(line.substr(0, eq));
    if (key.empty()) {
      return Status::InvalidArgument(
          StrFormat("line %zu: empty key", line_no));
    }
    auto value = ReadValue(Trim(line.substr(eq + 3)), line_no);
    if (!value.ok()) return value.status();
    config[key] = *value;
  }
  return config;
}

Status SaveConfiguration(const Configuration& config,
                         const std::string& path) {
  return io::AtomicWriteFile(path, "# AutoEM pipeline configuration\n" +
                                       SerializeConfiguration(config));
}

Result<Configuration> LoadConfiguration(const std::string& path) {
  std::string text;
  AUTOEM_RETURN_IF_ERROR(io::ReadFileToString(path, &text));
  return ParseConfiguration(text);
}

namespace {

// Tagged ParamValue encoding for the binary codec below.
enum class ParamTag : uint8_t { kBool = 0, kInt = 1, kDouble = 2, kString = 3 };

void WriteParamValue(io::Writer* w, const ParamValue& v) {
  if (v.is_bool()) {
    w->U8(static_cast<uint8_t>(ParamTag::kBool));
    w->U8(v.AsBool() ? 1 : 0);
  } else if (v.is_int()) {
    w->U8(static_cast<uint8_t>(ParamTag::kInt));
    w->I64(v.AsInt());
  } else if (v.is_double()) {
    w->U8(static_cast<uint8_t>(ParamTag::kDouble));
    w->F64(v.AsDouble());
  } else {
    w->U8(static_cast<uint8_t>(ParamTag::kString));
    w->Str(v.AsString());
  }
}

Status ReadParamValue(io::Reader* r, ParamValue* v) {
  uint8_t tag;
  AUTOEM_RETURN_IF_ERROR(r->U8(&tag));
  switch (static_cast<ParamTag>(tag)) {
    case ParamTag::kBool: {
      uint8_t b;
      AUTOEM_RETURN_IF_ERROR(r->U8(&b));
      *v = ParamValue(b != 0);
      return Status::OK();
    }
    case ParamTag::kInt: {
      int64_t i;
      AUTOEM_RETURN_IF_ERROR(r->I64(&i));
      *v = ParamValue(i);
      return Status::OK();
    }
    case ParamTag::kDouble: {
      double d;
      AUTOEM_RETURN_IF_ERROR(r->F64(&d));
      // Hyperparameters are finite by construction (the text parser
      // enforces the same); NaN would also poison Configuration equality.
      if (!std::isfinite(d)) {
        return Status::InvalidArgument(
            "configuration: non-finite double parameter");
      }
      *v = ParamValue(d);
      return Status::OK();
    }
    case ParamTag::kString: {
      std::string s;
      AUTOEM_RETURN_IF_ERROR(r->Str(&s));
      *v = ParamValue(std::move(s));
      return Status::OK();
    }
  }
  return Status::InvalidArgument("configuration: unknown param tag");
}

}  // namespace

void WriteConfigurationBinary(io::Writer* w, const Configuration& config) {
  w->U64(config.size());
  for (const auto& [key, value] : config) {
    w->Str(key);
    WriteParamValue(w, value);
  }
}

Status ReadConfigurationBinary(io::Reader* r, Configuration* config) {
  config->clear();
  uint64_t count;
  // Each entry is at least a key length prefix plus a tag byte.
  AUTOEM_RETURN_IF_ERROR(r->Len(&count, 9));
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    ParamValue value;
    AUTOEM_RETURN_IF_ERROR(r->Str(&key));
    AUTOEM_RETURN_IF_ERROR(ReadParamValue(r, &value));
    (*config)[std::move(key)] = std::move(value);
  }
  return Status::OK();
}

uint64_t ConfigurationHash(const Configuration& config) {
  std::string text = SerializeConfiguration(config);
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

std::string SerializeTrajectoryCsv(const std::vector<EvalRecord>& trajectory) {
  // Telemetry columns ride after config_hash, so the original seven columns
  // keep their indices for downstream tooling; `failure` stays last.
  std::string out =
      "trial,elapsed_seconds,fit_seconds,valid_f1,test_f1,best_f1_so_far,"
      "config_hash";
  for (const TrialTelemetry::Column& column : TrialTelemetry::kColumns) {
    out += ',';
    out += column.name;
  }
  out += ",failure\n";
  double best = 0.0;
  for (const EvalRecord& r : trajectory) {
    best = std::max(best, r.valid_f1);
    out += StrFormat(
        "%d,%.6f,%.6f,%.17g,%.17g,%.17g,%016llx", r.trial, r.elapsed_seconds,
        r.fit_seconds, r.valid_f1, r.test_f1, best,
        static_cast<unsigned long long>(ConfigurationHash(r.config)));
    for (const TrialTelemetry::Column& column : TrialTelemetry::kColumns) {
      out += ',';
      out += column.cell(r.telemetry);
    }
    out += ',';
    out += TrialFailureName(r.failure);
    out += '\n';
  }
  return out;
}

Status SaveTrajectory(const std::vector<EvalRecord>& trajectory,
                      const std::string& path) {
  return io::AtomicWriteFile(path, SerializeTrajectoryCsv(trajectory));
}

}  // namespace autoem
