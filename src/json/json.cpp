#include "json/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/strings.hpp"

namespace gts::json {

const Value& Value::at(const std::string& key) const noexcept {
  static const Value kNull;
  if (!is_object()) return kNull;
  const auto it = object_.find(key);
  return it == object_.end() ? kNull : it->second;
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  util::Expected<Value> parse_document() {
    skip_whitespace();
    auto value = parse_value();
    if (!value) return value;
    skip_whitespace();
    if (pos_ != text_.size()) {
      return error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  util::Error too_deep() const {
    return error(
        util::fmt("nesting deeper than {} levels", kMaxParseDepth));
  }

  util::Error error(const std::string& message) const {
    int line = 1;
    int column = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    return util::Error{
        util::fmt("json: line {}: column {}: {}", line, column, message)};
  }

  bool at_end() const noexcept { return pos_ >= text_.size(); }
  char peek() const noexcept { return at_end() ? '\0' : text_[pos_]; }
  char advance() noexcept { return at_end() ? '\0' : text_[pos_++]; }

  void skip_whitespace() noexcept {
    while (!at_end()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view literal) noexcept {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  util::Expected<Value> parse_value() {
    if (at_end()) return error("unexpected end of input");
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string().map([](const std::string& s) { return Value(s); });
      case 't':
        if (consume_literal("true")) return Value(true);
        return error("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        return error("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        return error("invalid literal");
      default:
        return parse_number();
    }
  }

  util::Expected<Value> parse_object() {
    if (depth_ >= kMaxParseDepth) return too_deep();
    ++depth_;
    auto result = parse_object_body();
    --depth_;
    return result;
  }

  util::Expected<Value> parse_object_body() {
    advance();  // '{'
    Object object;
    skip_whitespace();
    if (peek() == '}') {
      advance();
      return Value(std::move(object));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') return error("expected string key");
      auto key = parse_string();
      if (!key) return key.error();
      skip_whitespace();
      if (advance() != ':') return error("expected ':' after key");
      skip_whitespace();
      auto value = parse_value();
      if (!value) return value;
      object[*key] = std::move(*value);
      skip_whitespace();
      const char c = advance();
      if (c == '}') return Value(std::move(object));
      if (c != ',') return error("expected ',' or '}' in object");
    }
  }

  util::Expected<Value> parse_array() {
    if (depth_ >= kMaxParseDepth) return too_deep();
    ++depth_;
    auto result = parse_array_body();
    --depth_;
    return result;
  }

  util::Expected<Value> parse_array_body() {
    advance();  // '['
    Array array;
    skip_whitespace();
    if (peek() == ']') {
      advance();
      return Value(std::move(array));
    }
    while (true) {
      skip_whitespace();
      auto value = parse_value();
      if (!value) return value;
      array.push_back(std::move(*value));
      skip_whitespace();
      const char c = advance();
      if (c == ']') return Value(std::move(array));
      if (c != ',') return error("expected ',' or ']' in array");
    }
  }

  util::Expected<std::string> parse_string() {
    advance();  // '"'
    std::string out;
    while (true) {
      if (at_end()) return error("unterminated string");
      const char c = advance();
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          return error("raw control character in string");
        }
        out.push_back(c);
        continue;
      }
      const char esc = advance();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = advance();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return error("invalid \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDFFF) {
            // Surrogate range: either half of a non-BMP pair or a lone
            // surrogate. The library is BMP-only; reject cleanly rather
            // than emit CESU-8 / invalid UTF-8.
            return error(
                "surrogate \\u escape (non-BMP or unpaired) unsupported");
          }
          append_utf8(out, code);
          break;
        }
        default:
          return error("invalid escape sequence");
      }
    }
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  util::Expected<Value> parse_number() {
    const size_t start = pos_;
    if (peek() == '-') advance();
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      return error("invalid number");
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    if (peek() == '.') {
      advance();
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return error("digit required after decimal point");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    }
    if (peek() == 'e' || peek() == 'E') {
      advance();
      if (peek() == '+' || peek() == '-') advance();
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return error("digit required in exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    }
    const auto parsed =
        util::parse_double(text_.substr(start, pos_ - start));
    if (!parsed) return error("unparseable number");
    return Value(*parsed);
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

void write_escaped(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          os << buffer;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_number(std::ostringstream& os, double n) {
  if (std::isnan(n) || std::isinf(n)) {
    os << "null";  // JSON has no NaN/Inf; null is the safest degradation.
    return;
  }
  if (n == static_cast<double>(static_cast<long long>(n)) &&
      std::fabs(n) < 1e15) {
    os << static_cast<long long>(n);
    return;
  }
  // The shortest text that parses back to the same bits.
  char buffer[32];
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof(buffer), n);
  os << std::string_view(buffer, static_cast<size_t>(end.ptr - buffer));
}

void write_value(std::ostringstream& os, const Value& value, int indent,
                 int depth) {
  const std::string pad =
      indent > 0 ? std::string(static_cast<size_t>(indent) * (depth + 1), ' ')
                 : std::string();
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<size_t>(indent) * depth, ' ')
                 : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  const char* space = indent > 0 ? " " : "";
  switch (value.type()) {
    case Type::kNull:
      os << "null";
      break;
    case Type::kBool:
      os << (value.as_bool() ? "true" : "false");
      break;
    case Type::kNumber:
      write_number(os, value.as_number());
      break;
    case Type::kString:
      write_escaped(os, value.as_string());
      break;
    case Type::kArray: {
      const Array& array = value.as_array();
      if (array.empty()) {
        os << "[]";
        break;
      }
      os << '[' << nl;
      for (size_t i = 0; i < array.size(); ++i) {
        os << pad;
        write_value(os, array[i], indent, depth + 1);
        if (i + 1 < array.size()) os << ',';
        os << nl;
      }
      os << close_pad << ']';
      break;
    }
    case Type::kObject: {
      const Object& object = value.as_object();
      if (object.empty()) {
        os << "{}";
        break;
      }
      os << '{' << nl;
      size_t i = 0;
      for (const auto& [key, member] : object) {
        os << pad;
        write_escaped(os, key);
        os << ':' << space;
        write_value(os, member, indent, depth + 1);
        if (++i < object.size()) os << ',';
        os << nl;
      }
      os << close_pad << '}';
      break;
    }
  }
}

}  // namespace

util::Expected<Value> parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string write(const Value& value, const WriteOptions& options) {
  std::ostringstream os;
  write_value(os, value, options.indent, 0);
  return os.str();
}

util::Expected<Value> parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Error{util::fmt("cannot open {}", path)};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto result = parse(buffer.str());
  if (!result) return result.error().with_context(path);
  return result;
}

util::Status write_file(const Value& value, const std::string& path,
                        const WriteOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return util::Error{util::fmt("cannot open {} for writing", path)};
  out << write(value, options) << '\n';
  return out.good() ? util::Status::ok()
                    : util::Status(util::Error{util::fmt("write to {} failed", path)});
}

}  // namespace gts::json
