// Minimal flat-JSON-object reader for the observability layer's own line
// formats (trace fragments, heartbeats, status lines). It understands one
// top-level object whose values are strings, numbers, booleans, null, or a
// single level of nested object/array (captured as raw text) — exactly what
// our emitters produce. Not a general JSON parser; unknown shapes fail the
// parse rather than mis-read, and a numeric getter takes the whole value
// token or fails (no "12abc" read as 12, no overflow clamped to a limit).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace obd::obs::minijson {

struct Field {
  std::string key;
  std::string raw;        ///< value text with string quotes/escapes resolved
  bool was_string = false;
};

namespace detail {

inline void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
    ++i;
  }
}

inline bool parse_string(std::string_view s, std::size_t& i,
                         std::string& out) {
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  out.clear();
  while (i < s.size()) {
    char c = s[i++];
    if (c == '"') return true;
    if (c == '\\') {
      if (i >= s.size()) return false;
      char e = s[i++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (i + 4 > s.size()) return false;
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            char h = s[i++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // Our emitters only escape ASCII control chars; anything wider is
          // preserved as '?' rather than implementing full UTF-16 pairing.
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default: return false;
      }
    } else {
      out += c;
    }
  }
  return false;  // unterminated
}

/// Captures a balanced {...} or [...] as raw text (strings respected).
inline bool capture_nested(std::string_view s, std::size_t& i,
                           std::string& out) {
  const char open = s[i];
  const char close = open == '{' ? '}' : ']';
  int depth = 0;
  const std::size_t start = i;
  while (i < s.size()) {
    char c = s[i];
    if (c == '"') {
      std::string tmp;
      if (!parse_string(s, i, tmp)) return false;
      continue;
    }
    if (c == open) ++depth;
    if (c == close) {
      --depth;
      if (depth == 0) {
        ++i;
        out.assign(s.substr(start, i - start));
        return true;
      }
    }
    ++i;
  }
  return false;
}

}  // namespace detail

/// Whole-token decimal integer: an optional '-' and digits, nothing else,
/// inside the int64 range. "12abc", "1e3" and "9223372036854775808" fail.
inline bool to_i64(std::string_view s, std::int64_t& out) {
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  out = v;
  return true;
}

/// Whole-token finite decimal number: overflow, underflow, NaN and inf
/// fail, and so does any trailing text.
inline bool to_f64(std::string_view s, double& out) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || !std::isfinite(v))
    return false;
  out = v;
  return true;
}

/// Parses one flat JSON object. Returns false on any syntax surprise.
inline bool parse_object(std::string_view s, std::vector<Field>& out) {
  out.clear();
  std::size_t i = 0;
  detail::skip_ws(s, i);
  if (i >= s.size() || s[i] != '{') return false;
  ++i;
  detail::skip_ws(s, i);
  if (i < s.size() && s[i] == '}') {
    ++i;
    detail::skip_ws(s, i);
    return i == s.size();
  }
  while (true) {
    Field f;
    detail::skip_ws(s, i);
    if (!detail::parse_string(s, i, f.key)) return false;
    detail::skip_ws(s, i);
    if (i >= s.size() || s[i] != ':') return false;
    ++i;
    detail::skip_ws(s, i);
    if (i >= s.size()) return false;
    if (s[i] == '"') {
      if (!detail::parse_string(s, i, f.raw)) return false;
      f.was_string = true;
    } else if (s[i] == '{' || s[i] == '[') {
      if (!detail::capture_nested(s, i, f.raw)) return false;
    } else {
      const std::size_t start = i;
      while (i < s.size() && s[i] != ',' && s[i] != '}') ++i;
      f.raw.assign(s.substr(start, i - start));
      while (!f.raw.empty() &&
             (f.raw.back() == ' ' || f.raw.back() == '\t')) {
        f.raw.pop_back();
      }
      if (f.raw.empty()) return false;
    }
    out.push_back(std::move(f));
    detail::skip_ws(s, i);
    if (i >= s.size()) return false;
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] == '}') {
      ++i;
      detail::skip_ws(s, i);
      return i == s.size();
    }
    return false;
  }
}

inline const Field* find(const std::vector<Field>& fields,
                         std::string_view key) {
  for (const Field& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

/// Integer field (see to_i64); false when missing or not strict.
inline bool get_i64(const std::vector<Field>& fields, std::string_view key,
                    std::int64_t& out) {
  const Field* f = find(fields, key);
  return f && !f->was_string && to_i64(f->raw, out);
}

/// Finite number field (see to_f64); false when missing or not strict.
inline bool get_f64(const std::vector<Field>& fields, std::string_view key,
                    double& out) {
  const Field* f = find(fields, key);
  return f && !f->was_string && to_f64(f->raw, out);
}

inline bool get_str(const std::vector<Field>& fields, std::string_view key,
                    std::string& out) {
  const Field* f = find(fields, key);
  if (!f || !f->was_string) return false;
  out = f->raw;
  return true;
}

/// Escapes `s` for a JSON string body; parse_object reads it back
/// byte for byte.
inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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

}  // namespace obd::obs::minijson
