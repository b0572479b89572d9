#ifndef TREESIM_TESTS_JSON_VALIDATOR_H_
#define TREESIM_TESTS_JSON_VALIDATOR_H_

// Minimal recursive-descent JSON parser for schema-validation tests.
// The library emits JSON by string-building (util/structured_log.h,
// MetricsSnapshot::ToJson); these tests must check
// that output with an INDEPENDENT implementation, so this parser shares no
// code with the emitters. Test-only: parses into a DOM of JsonValue nodes,
// keeps object key order, rejects trailing garbage. Not a library API.

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace treesim {
namespace test {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<JsonValue> array;
  // Key order preserved (the emitters append in call order).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_bool() const { return kind == Kind::kBool; }

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  bool Has(const std::string& key) const { return Find(key) != nullptr; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parses the whole input as one value; sets ok=false on any syntax
  /// error or trailing non-whitespace.
  bool Parse(JsonValue* out) {
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t n = std::string(literal).size();
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return ConsumeLiteral("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return ConsumeLiteral("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return ConsumeLiteral("null");
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    SkipSpace();
    if (Consume('}')) return true;
    while (true) {
      std::string key;
      SkipSpace();
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    SkipSpace();
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          const std::string hex = text_.substr(pos_, 4);
          for (const char h : hex) {
            if (!std::isxdigit(static_cast<unsigned char>(h))) return false;
          }
          const long code = std::strtol(hex.c_str(), nullptr, 16);
          pos_ += 4;
          // Tests only emit ASCII escapes; encode BMP as UTF-8 anyway.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_]))) digits = true;
      ++pos_;
    }
    if (!digits) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = std::strtod(text_.substr(start, pos_ - start).c_str(),
                                    nullptr);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

inline bool ParseJson(const std::string& text, JsonValue* out) {
  return JsonParser(text).Parse(out);
}

}  // namespace test
}  // namespace treesim

#endif  // TREESIM_TESTS_JSON_VALIDATOR_H_
