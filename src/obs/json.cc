#include "obs/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

namespace menda::obs::json
{

namespace
{

const Value nullValue;

[[noreturn]] void
fail(const std::string &text, std::size_t pos, const std::string &what)
{
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos) + " of " +
                             std::to_string(text.size()) + " bytes");
}

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail(text, pos, "unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(text, pos,
                 std::string("expected '") + c + "', got '" + text[pos] +
                     "'");
        ++pos;
    }

    bool
    consume(const std::string &word)
    {
        if (text.compare(pos, word.size(), word) != 0)
            return false;
        pos += word.size();
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail(text, pos, "unterminated string");
            char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail(text, pos, "dangling escape");
            char e = text[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    fail(text, pos, "truncated \\u escape");
                const std::string hex = text.substr(pos, 4);
                char *end = nullptr;
                const long code = std::strtol(hex.c_str(), &end, 16);
                if (end != hex.c_str() + 4)
                    fail(text, pos, "bad \\u escape");
                pos += 4;
                // ASCII only; anything else is passed through as '?'
                // (the observability layer never emits non-ASCII).
                out += code < 0x80 ? static_cast<char>(code) : '?';
                break;
              }
              default:
                fail(text, pos, "unknown escape");
            }
        }
    }

    /**
     * A number token is an optional '-' and the run of characters after
     * it that a number may hold; std::from_chars must read all of it in
     * place. So a leading '+' is malformed, and so is a magnitude that
     * overflows a double or underflows it to zero.
     */
    Value
    parseNumber()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                text[pos] == '+' || text[pos] == '-'))
            ++pos;
        const char *const first = text.data() + start;
        const char *const last = text.data() + pos;
        double d = 0.0;
        const auto [end, ec] = std::from_chars(first, last, d);
        if (ec != std::errc() || end != last)
            fail(text, start,
                 std::string(ec == std::errc::result_out_of_range
                                 ? "number out of double range '"
                                 : "malformed number '") +
                     std::string(first, last) + "'");
        return Value(d);
    }

    Value
    parseValue()
    {
        skipSpace();
        const char c = peek();
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return parseNumber();
        if (c == '{') {
            ++pos;
            Object obj;
            skipSpace();
            if (peek() == '}') {
                ++pos;
                return Value(std::move(obj));
            }
            while (true) {
                skipSpace();
                std::string key = parseString();
                skipSpace();
                expect(':');
                obj.emplace(std::move(key), parseValue());
                skipSpace();
                if (peek() == ',') {
                    ++pos;
                    continue;
                }
                expect('}');
                return Value(std::move(obj));
            }
        }
        if (c == '[') {
            ++pos;
            Array arr;
            skipSpace();
            if (peek() == ']') {
                ++pos;
                return Value(std::move(arr));
            }
            while (true) {
                arr.push_back(parseValue());
                skipSpace();
                if (peek() == ',') {
                    ++pos;
                    continue;
                }
                expect(']');
                return Value(std::move(arr));
            }
        }
        if (c == '"')
            return Value(parseString());
        if (consume("true"))
            return Value(true);
        if (consume("false"))
            return Value(false);
        if (consume("null"))
            return Value();
        return parseNumber(); // rejects what no value starts with
    }
};

/** Room for the longest canonical number, "-2.2250738585072014e-308". */
constexpr std::size_t kNumberChars = 32;

/**
 * Write @p d canonically into @p buf (kNumberChars bytes) and return
 * the end: what "%.0f" prints for an integer below 1e15, else what the
 * shortest "%.{p}g" that reads back as @p d prints, 17 digits at most.
 */
char *
writeNumber(double d, char *buf)
{
    char *const end = buf + kNumberChars;
    if (!std::isfinite(d)) {
        *buf = '0'; // JSON has no inf/nan; clamp rather than corrupt
        return buf + 1;
    }
    // Integers (the common case: counters and indices) print exactly.
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
        if (d == 0.0 && std::signbit(d))
            *buf++ = '-'; // "%.0f" keeps the sign of -0
        return std::to_chars(buf, end, static_cast<std::int64_t>(d)).ptr;
    }
    // The shortest form that reads back has P significant digits, so no
    // "%.{p}g" with p < P does. "%.{P}g" rounds d to its nearest P-digit
    // decimal, which can fall outside d's rounding interval where that
    // interval is lopsided (at a power of two); then P+1 digits are
    // tried, up to the 17 that always read back.
    char shortest[kNumberChars];
    const char *const shortestEnd =
        std::to_chars(shortest, shortest + kNumberChars, d,
                      std::chars_format::scientific)
            .ptr;
    int precision = 0;
    for (const char *c = shortest; c != shortestEnd && *c != 'e'; ++c)
        precision += std::isdigit(static_cast<unsigned char>(*c)) != 0;
    for (;; ++precision) {
        char *const out = std::to_chars(buf, end, d,
                                        std::chars_format::general,
                                        precision)
                              .ptr;
        double back = 0.0;
        if (precision >= 17 ||
            (std::from_chars(buf, out, back).ec == std::errc() &&
             back == d))
            return out;
    }
}

void
serializeInto(const Value &v, std::string &out)
{
    switch (v.kind()) {
      case Value::Kind::Null:
        out += "null";
        return;
      case Value::Kind::Bool:
        out += v.asBool() ? "true" : "false";
        return;
      case Value::Kind::Number: {
        char buf[kNumberChars];
        out.append(buf, writeNumber(v.asNumber(), buf));
        return;
      }
      case Value::Kind::String:
        out += '"';
        out += escape(v.asString());
        out += '"';
        return;
      case Value::Kind::Array: {
        out += '[';
        bool first = true;
        for (const Value &e : v.asArray()) {
            if (!first)
                out += ',';
            first = false;
            serializeInto(e, out);
        }
        out += ']';
        return;
      }
      case Value::Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &[key, e] : v.asObject()) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += escape(key);
            out += "\":";
            serializeInto(e, out);
        }
        out += '}';
        return;
      }
    }
}

} // namespace

const Value &
Value::at(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullValue;
    auto it = object_->find(key);
    return it == object_->end() ? nullValue : it->second;
}

bool
Value::has(const std::string &key) const
{
    return kind_ == Kind::Object && object_->count(key) != 0;
}

std::string
Value::serialize() const
{
    std::string out;
    serializeInto(*this, out);
    return out;
}

Value
parse(const std::string &text)
{
    Parser parser{text};
    Value v = parser.parseValue();
    parser.skipSpace();
    if (parser.pos != text.size())
        fail(text, parser.pos, "trailing garbage after document");
    return v;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatNumber(double d)
{
    char buf[kNumberChars];
    return std::string(buf, writeNumber(d, buf));
}

} // namespace menda::obs::json
