/// \file
/// The suite's one JSON codec: every JSON file it writes or reads back
/// (run journals, metrics heartbeats, Chrome traces and their merge) goes
/// through this writer and this reader.
///
/// Writer rules — byte-stable, the journal and heartbeat formats depend on
/// them:
///   - strings escape '"' and '\\', write \n \r \t for those three control
///     bytes and \u00XX for every other byte below 0x20; all other bytes
///     (UTF-8 included) pass through unchanged;
///   - num() prints doubles as %.17g (exact round trip); a non-finite
///     double prints as 0, since JSON has no inf or nan;
///   - u64()/i64() print integers in decimal, fixed() as %.<n>f;
///   - no whitespace is emitted; commas are placed automatically.
///
/// Reader rules — strict RFC 8259, so a torn or hostile file is rejected
/// rather than half-trusted:
///   - numbers follow the JSON grammar only (no nan, inf, hex, '+' sign
///     or leading zeros); the token is kept verbatim and converted on
///     demand, with range checks;
///   - strings must be terminated and hold no raw control bytes; \u
///     escapes decode to UTF-8, surrogate pairs combine, and a lone
///     surrogate is an error;
///   - nesting deeper than kMaxDepth is an error, so no input can
///     exhaust the stack;
///   - the whole input must be consumed (surrounding whitespace aside).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pasta::json {

/// Deepest array/object nesting parse() accepts.
inline constexpr std::size_t kMaxDepth = 64;

struct Member;

/// One parsed JSON value.  Objects keep their members in input order.
class Value {
  public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Type type() const { return type_; }
    bool is_number() const { return type_ == Type::kNumber; }
    bool is_string() const { return type_ == Type::kString; }
    bool is_array() const { return type_ == Type::kArray; }
    bool is_object() const { return type_ == Type::kObject; }

    /// String contents, or a number's token as written.
    const std::string& text() const { return text_; }
    const std::vector<Value>& items() const { return items_; }
    const std::vector<Member>& members() const { return members_; }

    /// The object member named `key` (the last one if repeated), or
    /// nullptr when absent or this is not an object.
    const Value* find(std::string_view key) const;

    /// Typed conversions: true and `out` set when this value has the
    /// type and fits the range.  Doubles must be finite.  Integers accept
    /// a fractional or exponent token and truncate it, like a C cast, but
    /// only when the value is inside the target's range.
    bool get(bool& out) const;
    bool get(double& out) const;
    bool get(std::uint64_t& out) const;
    bool get(std::int64_t& out) const;
    bool get(int& out) const;
    bool get(std::string& out) const;

    /// Required member: false when `key` is absent or does not convert.
    template <class T>
    bool get(std::string_view key, T& out) const
    {
        const Value* v = find(key);
        return v != nullptr && v->get(out);
    }

    /// Optional member: true (and `out` untouched) when `key` is absent;
    /// false only when it is present and does not convert.
    template <class T>
    bool get_optional(std::string_view key, T& out) const
    {
        const Value* v = find(key);
        return v == nullptr || v->get(out);
    }

  private:
    friend class Parser;

    Type type_ = Type::kNull;
    bool bool_ = false;
    std::string text_;
    std::vector<Value> items_;
    std::vector<Member> members_;
};

struct Member {
    std::string key;
    Value value;
};

/// Parses `text` as one JSON document.  On failure returns false and
/// leaves `out` unspecified.
bool parse(std::string_view text, Value& out);

/// Appends JSON to a caller-owned string.  Calls chain:
///   Writer(line).begin_object().key("ok").boolean(true).end_object();
class Writer {
  public:
    explicit Writer(std::string& out) : out_(out) {}

    Writer& begin_object() { return open('{'); }
    Writer& end_object() { return close('}'); }
    Writer& begin_array() { return open('['); }
    Writer& end_array() { return close(']'); }
    Writer& key(std::string_view k);

    Writer& str(std::string_view v);
    Writer& boolean(bool v);
    Writer& num(double v);
    Writer& u64(std::uint64_t v);
    Writer& i64(std::int64_t v);
    Writer& fixed(double v, int decimals);
    /// Re-serializes a parsed value (numbers keep their original token).
    Writer& value(const Value& v);

  private:
    Writer& open(char bracket);
    Writer& close(char bracket);
    void separate();

    std::string& out_;
    std::vector<bool> has_element_;  ///< one flag per open container
    bool after_key_ = false;
};

}  // namespace pasta::json
