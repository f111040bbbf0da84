#include "json.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

const Json* Json::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class Reader {
 public:
  Reader(std::string_view text, std::string* error) : text_(text), error_(error) {}

  bool Document(Json* out) {
    if (!Value(out, 0)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing bytes");
    return true;
  }

 private:
  bool Fail(const char* what) {
    *error_ = std::string(what) + " at offset " + std::to_string(pos_);
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool Value(Json* out, int depth) {
    if (depth > 64) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end");
    char c = text_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (c == 't') {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->type = Json::Type::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->type = Json::Type::kNull;
      return Literal("null");
    }
    return Number(out);
  }

  bool Number(Json* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [this] {
      size_t begin = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      return pos_ > begin;
    };
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      return Fail("bad number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return Fail("bad fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digits()) return Fail("bad exponent");
    }
    std::string token(text_.substr(start, pos_ - start));
    out->type = Json::Type::kNumber;
    out->number = std::strtod(token.c_str(), nullptr);
    return true;
  }

  static void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool Hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("bad \\u escape");
      }
    }
    *out = v;
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // Opening quote.
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return Fail("control byte in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!Hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            unsigned low = 0;
            if (text_.substr(pos_, 2) != "\\u") return Fail("lone surrogate");
            pos_ += 2;
            if (!Hex4(&low) || low < 0xDC00 || low > 0xDFFF) return Fail("bad surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("lone surrogate");
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Array(Json* out, int depth) {
    ++pos_;
    out->type = Json::Type::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out->array.emplace_back();
      if (!Value(&out->array.back(), depth + 1)) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') return Fail("expected , or ]");
    }
  }

  bool Object(Json* out, int depth) {
    ++pos_;
    out->type = Json::Type::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected key");
      std::string key;
      if (!String(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected :");
      ++pos_;
      out->object.emplace_back(std::move(key), Json());
      if (!Value(&out->object.back().second, depth + 1)) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') return Fail("expected , or }");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

bool ParseJson(std::string_view text, Json* out, std::string* error) {
  *out = Json();
  Reader reader(text, error);
  return reader.Document(out);
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace perfbench
