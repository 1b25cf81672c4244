#include "common/json.hpp"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>

namespace pasta::json {

namespace {

/// True when a (grammar-valid) number token has no fraction or exponent.
bool
integral_token(const std::string& token)
{
    return token.find_first_of(".eE") == std::string::npos;
}

template <class T>
bool
parse_whole(const std::string& token, T& out)
{
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, out);
    return ec == std::errc() && ptr == end;
}

void
append_quoted(std::string& out, std::string_view s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
append_utf8(std::string& out, std::uint32_t cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
        out += static_cast<char>(0xE0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
        out += static_cast<char>(0xF0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// Reader

/// Recursive-descent parser over one document; recursion depth is bounded
/// by kMaxDepth.
class Parser {
  public:
    explicit Parser(std::string_view text)
        : p_(text.data()), end_(text.data() + text.size())
    {
    }

    bool document(Value& out)
    {
        ws();
        if (!value(out, 0))
            return false;
        ws();
        return p_ == end_;
    }

  private:
    void ws()
    {
        while (p_ < end_ &&
               (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
            ++p_;
    }

    bool eat(char c)
    {
        if (p_ == end_ || *p_ != c)
            return false;
        ++p_;
        return true;
    }

    bool digits()
    {
        const char* start = p_;
        while (p_ < end_ && *p_ >= '0' && *p_ <= '9')
            ++p_;
        return p_ != start;
    }

    bool literal(std::string_view word)
    {
        if (static_cast<std::size_t>(end_ - p_) < word.size() ||
            std::string_view(p_, word.size()) != word)
            return false;
        p_ += word.size();
        return true;
    }

    bool value(Value& out, std::size_t depth)
    {
        if (p_ == end_)
            return false;
        switch (*p_) {
          case '{': return object(out, depth + 1);
          case '[': return array(out, depth + 1);
          case '"':
            out.type_ = Value::Type::kString;
            return string(out.text_);
          case 't':
            out.type_ = Value::Type::kBool;
            out.bool_ = true;
            return literal("true");
          case 'f':
            out.type_ = Value::Type::kBool;
            out.bool_ = false;
            return literal("false");
          case 'n':
            out.type_ = Value::Type::kNull;
            return literal("null");
          default:
            out.type_ = Value::Type::kNumber;
            return number(out.text_);
        }
    }

    bool object(Value& out, std::size_t depth)
    {
        if (depth > kMaxDepth)
            return false;
        ++p_;  // '{'
        out.type_ = Value::Type::kObject;
        ws();
        if (eat('}'))
            return true;
        for (;;) {
            Member m;
            ws();
            if (!string(m.key))
                return false;
            ws();
            if (!eat(':'))
                return false;
            ws();
            if (!value(m.value, depth))
                return false;
            out.members_.push_back(std::move(m));
            ws();
            if (!eat(','))
                return eat('}');
        }
    }

    bool array(Value& out, std::size_t depth)
    {
        if (depth > kMaxDepth)
            return false;
        ++p_;  // '['
        out.type_ = Value::Type::kArray;
        ws();
        if (eat(']'))
            return true;
        for (;;) {
            ws();
            out.items_.emplace_back();
            if (!value(out.items_.back(), depth))
                return false;
            ws();
            if (!eat(','))
                return eat(']');
        }
    }

    /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, kept verbatim.
    bool number(std::string& out)
    {
        const char* start = p_;
        eat('-');
        if (!eat('0') && !digits())
            return false;
        if (eat('.') && !digits())
            return false;
        if (eat('e') || eat('E')) {
            if (!eat('+'))
                eat('-');
            if (!digits())
                return false;
        }
        out.assign(start, p_);
        return true;
    }

    bool hex4(std::uint32_t& v)
    {
        if (end_ - p_ < 4)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            v <<= 4;
            if (h >= '0' && h <= '9')
                v |= static_cast<std::uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f')
                v |= static_cast<std::uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                v |= static_cast<std::uint32_t>(h - 'A' + 10);
            else
                return false;
        }
        return true;
    }

    /// The code point after "\u", surrogate pairs combined, as UTF-8.
    bool unicode_escape(std::string& out)
    {
        std::uint32_t cp;
        if (!hex4(cp) || (cp >= 0xDC00 && cp <= 0xDFFF))
            return false;  // malformed, or a lone low surrogate
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            std::uint32_t low;
            if (!eat('\\') || !eat('u') || !hex4(low) || low < 0xDC00 ||
                low > 0xDFFF)
                return false;  // a high surrogate must start a pair
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(out, cp);
        return true;
    }

    bool string(std::string& out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        while (p_ < end_) {
            const char c = *p_++;
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (p_ == end_)
                return false;
            switch (*p_++) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u':
                if (!unicode_escape(out))
                    return false;
                break;
              default: return false;
            }
        }
        return false;  // unterminated
    }

    const char* p_;
    const char* end_;
};

bool
parse(std::string_view text, Value& out)
{
    out = Value();
    return Parser(text).document(out);
}

const Value*
Value::find(std::string_view key) const
{
    for (auto it = members_.rbegin(); it != members_.rend(); ++it)
        if (it->key == key)
            return &it->value;
    return nullptr;
}

bool
Value::get(bool& out) const
{
    if (type_ != Type::kBool)
        return false;
    out = bool_;
    return true;
}

bool
Value::get(double& out) const
{
    double v;
    if (!is_number() || !parse_whole(text_, v) || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

bool
Value::get(std::uint64_t& out) const
{
    if (!is_number())
        return false;
    if (integral_token(text_) && text_[0] != '-')
        return parse_whole(text_, out);
    double d;
    if (!get(d) || !(d >= 0.0 && d < 18446744073709551616.0))
        return false;
    out = static_cast<std::uint64_t>(d);
    return true;
}

bool
Value::get(std::int64_t& out) const
{
    if (!is_number())
        return false;
    if (integral_token(text_))
        return parse_whole(text_, out);
    double d;
    if (!get(d) ||
        !(d >= -9223372036854775808.0 && d < 9223372036854775808.0))
        return false;
    out = static_cast<std::int64_t>(d);
    return true;
}

bool
Value::get(int& out) const
{
    std::int64_t v;
    if (!get(v) || v < INT_MIN || v > INT_MAX)
        return false;
    out = static_cast<int>(v);
    return true;
}

bool
Value::get(std::string& out) const
{
    if (!is_string())
        return false;
    out = text_;
    return true;
}

// ---------------------------------------------------------------------------
// Writer

void
Writer::separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!has_element_.empty()) {
        if (has_element_.back())
            out_ += ',';
        has_element_.back() = true;
    }
}

Writer&
Writer::open(char bracket)
{
    separate();
    out_ += bracket;
    has_element_.push_back(false);
    return *this;
}

Writer&
Writer::close(char bracket)
{
    has_element_.pop_back();
    out_ += bracket;
    return *this;
}

Writer&
Writer::key(std::string_view k)
{
    separate();
    append_quoted(out_, k);
    out_ += ':';
    after_key_ = true;
    return *this;
}

Writer&
Writer::str(std::string_view v)
{
    separate();
    append_quoted(out_, v);
    return *this;
}

Writer&
Writer::boolean(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

Writer&
Writer::num(double v)
{
    separate();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
    return *this;
}

Writer&
Writer::u64(std::uint64_t v)
{
    separate();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
}

Writer&
Writer::i64(std::int64_t v)
{
    separate();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
}

Writer&
Writer::fixed(double v, int decimals)
{
    separate();
    if (!std::isfinite(v))
        v = 0.0;
    const int n = std::snprintf(nullptr, 0, "%.*f", decimals, v);
    const std::size_t at = out_.size();
    out_.resize(at + static_cast<std::size_t>(n) + 1);
    std::snprintf(out_.data() + at, static_cast<std::size_t>(n) + 1, "%.*f",
                  decimals, v);
    out_.pop_back();  // snprintf's terminator
    return *this;
}

Writer&
Writer::value(const Value& v)
{
    switch (v.type()) {
      case Value::Type::kNull:
        separate();
        out_ += "null";
        break;
      case Value::Type::kBool: {
        bool b = false;
        v.get(b);
        boolean(b);
        break;
      }
      case Value::Type::kNumber:
        separate();
        out_ += v.text();
        break;
      case Value::Type::kString: str(v.text()); break;
      case Value::Type::kArray:
        begin_array();
        for (const Value& item : v.items())
            value(item);
        end_array();
        break;
      case Value::Type::kObject:
        begin_object();
        for (const Member& m : v.members())
            key(m.key).value(m.value);
        end_object();
        break;
    }
    return *this;
}

}  // namespace pasta::json
