// Strict JSON syntax check (RFC 8259 grammar, no extensions) for tests
// that round-trip exported files. Validates only; builds no document.
#pragma once

#include <cctype>
#include <string_view>

namespace brew {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  bool valid() {
    skipSpace();
    if (!value()) return false;
    skipSpace();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (++depth_ > 256) return false;
    bool ok = false;
    switch (peek()) {
      case '{': ok = object(); break;
      case '[': ok = array(); break;
      case '"': ok = string(); break;
      case 't': ok = literal("true"); break;
      case 'f': ok = literal("false"); break;
      case 'n': ok = literal("null"); break;
      default: ok = number(); break;
    }
    --depth_;
    return ok;
  }

  bool object() {
    ++pos_;  // '{'
    skipSpace();
    if (eat('}')) return true;
    do {
      skipSpace();
      if (peek() != '"' || !string()) return false;
      skipSpace();
      if (!eat(':')) return false;
      skipSpace();
      if (!value()) return false;
      skipSpace();
    } while (eat(','));
    return eat('}');
  }

  bool array() {
    ++pos_;  // '['
    skipSpace();
    if (eat(']')) return true;
    do {
      skipSpace();
      if (!value()) return false;
      skipSpace();
    } while (eat(','));
    return eat(']');
  }

  bool string() {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      if (esc == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_)
          if (pos_ >= s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
            return false;
      } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                 std::string_view::npos) {
        return false;
      }
    }
    return false;
  }

  bool number() {
    eat('-');
    if (!eat('0') && !digits()) return false;  // no leading zeros
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    return true;
  }

  bool digits() {
    const size_t start = pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  void skipSpace() {
    while (peek() == ' ' || peek() == '\t' || peek() == '\r' || peek() == '\n')
      ++pos_;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool eat(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

inline bool isValidJson(std::string_view text) {
  return JsonChecker(text).valid();
}

}  // namespace brew
