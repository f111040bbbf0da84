#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// A parsed JSON value. The benchmark parses the program's responses with its
/// own reader rather than the program's codec, so a codec fault cannot hide
/// itself from the checks.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member `key` of an object, or nullptr.
  const Json* Find(std::string_view key) const;
  bool IsNumber() const { return type == Type::kNumber; }
  bool IsString() const { return type == Type::kString; }
  bool IsBool() const { return type == Type::kBool; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsObject() const { return type == Type::kObject; }
};

/// Parses exactly one JSON document (RFC 8259, \u escapes decoded to UTF-8).
/// Returns false and sets *error on malformed input or trailing bytes.
bool ParseJson(std::string_view text, Json* out, std::string* error);

/// Appends `s` as a JSON string literal.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
