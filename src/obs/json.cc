#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace snapq::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  if (!std::isfinite(value)) return "null";  // JSON has no inf/nan
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

namespace {

/// Nesting deeper than this is rejected, guarding the recursion against
/// stack exhaustion on adversarial input.
constexpr int kMaxDepth = 64;

// Every Scan* helper starts at text[i], advances `i` past what it consumed
// and returns false on input outside the JSON grammar (RFC 8259).

void SkipSpace(std::string_view text, size_t& i) {
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t' ||
                             text[i] == '\n' || text[i] == '\r')) {
    ++i;
  }
}

bool Consume(std::string_view text, size_t& i, std::string_view token) {
  if (text.substr(i, token.size()) != token) return false;
  i += token.size();
  return true;
}

size_t SkipDigits(std::string_view text, size_t& i) {
  const size_t start = i;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
  return i - start;
}

int HexDigit(char h) {
  if (h >= '0' && h <= '9') return h - '0';
  if (h >= 'a' && h <= 'f') return h - 'a' + 10;
  if (h >= 'A' && h <= 'F') return h - 'A' + 10;
  return -1;
}

/// Scans a string literal, decoding it into `out` when non-null. Our
/// writers only escape control characters, so a \u escape outside ASCII
/// decodes to '?' to keep the reader simple.
bool ScanString(std::string_view text, size_t& i, std::string* out) {
  if (!Consume(text, i, "\"")) return false;
  if (out != nullptr) out->clear();
  while (i < text.size()) {
    char c = text[i++];
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
    if (c == '\\') {
      if (i >= text.size()) return false;
      switch (const char esc = text[i++]) {
        case '"':
        case '\\':
        case '/':
          c = esc;
          break;
        case 'b':
          c = '\b';
          break;
        case 'f':
          c = '\f';
          break;
        case 'n':
          c = '\n';
          break;
        case 'r':
          c = '\r';
          break;
        case 't':
          c = '\t';
          break;
        case 'u': {
          if (text.size() - i < 4) return false;
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const int h = HexDigit(text[i++]);
            if (h < 0) return false;
            code = (code << 4) | static_cast<unsigned>(h);
          }
          c = code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return false;
      }
    }
    if (out != nullptr) *out += c;
  }
  return false;  // unterminated
}

/// Scans a number (no '+', leading zeros, inf or nan), storing its value
/// in `out` when non-null.
bool ScanNumber(std::string_view text, size_t& i, double* out) {
  const size_t start = i;
  Consume(text, i, "-");
  const size_t int_start = i;
  const size_t digits = SkipDigits(text, i);
  if (digits == 0 || (digits > 1 && text[int_start] == '0')) return false;
  if (Consume(text, i, ".") && SkipDigits(text, i) == 0) return false;
  if (Consume(text, i, "e") || Consume(text, i, "E")) {
    if (!Consume(text, i, "+")) Consume(text, i, "-");
    if (SkipDigits(text, i) == 0) return false;
  }
  if (out != nullptr) {
    *out = std::strtod(std::string(text.substr(start, i - start)).c_str(),
                       nullptr);
  }
  return true;
}

/// Scans a string, number, bool or null, storing it in `out` when
/// non-null. Containers are rejected.
bool ScanScalar(std::string_view text, size_t& i, JsonValue* out) {
  JsonValue ignored;
  JsonValue& value = out != nullptr ? *out : ignored;
  if (i >= text.size()) return false;
  switch (text[i]) {
    case '"':
      value.kind = JsonValue::Kind::kString;
      return ScanString(text, i, out != nullptr ? &value.string : nullptr);
    case 't':
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      return Consume(text, i, "true");
    case 'f':
      value.kind = JsonValue::Kind::kBool;
      value.boolean = false;
      return Consume(text, i, "false");
    case 'n':
      value.kind = JsonValue::Kind::kNull;
      return Consume(text, i, "null");
    default:
      value.kind = JsonValue::Kind::kNumber;
      return ScanNumber(text, i, out != nullptr ? &value.number : nullptr);
  }
}

/// Scans an object, decoding each key into `key` when non-null and then
/// calling `scan_value()` to scan the member's value.
template <typename ScanMemberValue>
bool ScanObject(std::string_view text, size_t& i, std::string* key,
                ScanMemberValue scan_value) {
  if (!Consume(text, i, "{")) return false;
  SkipSpace(text, i);
  if (Consume(text, i, "}")) return true;
  while (true) {
    SkipSpace(text, i);
    if (!ScanString(text, i, key)) return false;
    SkipSpace(text, i);
    if (!Consume(text, i, ":")) return false;
    SkipSpace(text, i);
    if (!scan_value()) return false;
    SkipSpace(text, i);
    if (Consume(text, i, "}")) return true;
    if (!Consume(text, i, ",")) return false;
  }
}

/// Syntax check of any value, containers included.
bool ScanValue(std::string_view text, size_t& i, int depth) {
  if (depth > kMaxDepth) return false;
  SkipSpace(text, i);
  if (i >= text.size()) return false;
  if (text[i] == '{') {
    return ScanObject(text, i, nullptr,
                      [&] { return ScanValue(text, i, depth + 1); });
  }
  if (!Consume(text, i, "[")) return ScanScalar(text, i, nullptr);
  SkipSpace(text, i);
  if (Consume(text, i, "]")) return true;
  while (true) {
    if (!ScanValue(text, i, depth + 1)) return false;
    SkipSpace(text, i);
    if (Consume(text, i, "]")) return true;
    if (!Consume(text, i, ",")) return false;
  }
}

}  // namespace

std::optional<std::map<std::string, JsonValue>> ParseFlatJsonObject(
    std::string_view text) {
  std::map<std::string, JsonValue> out;
  std::string key;
  size_t i = 0;
  SkipSpace(text, i);
  const bool ok = ScanObject(text, i, &key, [&] {
    JsonValue value;
    if (!ScanScalar(text, i, &value)) return false;
    out[key] = std::move(value);
    return true;
  });
  SkipSpace(text, i);
  if (!ok || i != text.size()) return std::nullopt;
  return out;
}

bool ValidateJson(std::string_view text) {
  size_t i = 0;
  if (!ScanValue(text, i, 0)) return false;
  SkipSpace(text, i);
  return i == text.size();
}

}  // namespace snapq::obs
