#include "obs/json.h"

#include <charconv>
#include <utility>

namespace autoem {
namespace obs {

namespace {

constexpr int kMaxJsonDepth = 64;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  Result<JsonValue> Document() {
    JsonValue value;
    AUTOEM_RETURN_IF_ERROR(Value(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  // `depth` counts the arrays and objects enclosing this value.
  Status Value(JsonValue* out, int depth) {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth >= kMaxJsonDepth) return Error("nesting too deep");
      return c == '{' ? Object(out, depth + 1) : Array(out, depth + 1);
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return String(&out->string);
    }
    if (c == '-' || IsDigit(c)) {
      out->type = JsonValue::Type::kNumber;
      return Number(&out->number);
    }
    if (Literal("true")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return Status::OK();
    }
    if (Literal("false")) {
      out->type = JsonValue::Type::kBool;
      return Status::OK();
    }
    if (Literal("null")) return Status::OK();
    return Error("unexpected character");
  }

  Status Object(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->type = JsonValue::Type::kObject;
    if (Consume('}')) return Status::OK();
    while (true) {
      std::string key;
      AUTOEM_RETURN_IF_ERROR(String(&key));
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      AUTOEM_RETURN_IF_ERROR(Value(&value, depth));
      out->object.insert_or_assign(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}'");
    }
  }

  Status Array(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->type = JsonValue::Type::kArray;
    if (Consume(']')) return Status::OK();
    while (true) {
      out->array.emplace_back();
      AUTOEM_RETURN_IF_ERROR(Value(&out->array.back(), depth));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']'");
    }
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — validated here, then
  // converted by from_chars, which accepts a superset of this grammar.
  Status Number(double* out) {
    size_t start = pos_;
    auto digits = [this] {
      size_t first = pos_;
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
      return pos_ > first;
    };
    if (text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      return Error("malformed number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return Error("malformed number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) return Error("malformed number");
    }
    auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, *out);
    if (ec != std::errc() || end != text_.data() + pos_) {
      pos_ = start;
      return Error("number out of range");
    }
    return Status::OK();
  }

  // Four hex digits of a \u escape.
  bool Hex4(unsigned* code) {
    if (text_.size() - pos_ < 4) return false;
    const char* first = text_.data() + pos_;
    pos_ += 4;
    auto [end, ec] = std::from_chars(first, first + 4, *code, 16);
    return ec == std::errc() && end == first + 4;
  }

  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status String(std::string* out) {
    if (!Consume('"')) return Error("expected string");
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      ++pos_;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      switch (text_[pos_++]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!Hex4(&code)) return Error("bad \\u escape");
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("lone low surrogate");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            unsigned low = 0;
            if (!Literal("\\u") || !Hex4(&low) || low < 0xDC00 ||
                low > 0xDFFF) {
              return Error("lone high surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(out, code);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonReader(text).Document();
}

}  // namespace obs
}  // namespace autoem
