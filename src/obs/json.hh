/**
 * @file
 * Minimal JSON value model, parser, and serializer.
 *
 * Just enough JSON for the observability layer: RunReport round-trips,
 * the report-diff tool, and structural validation of emitted trace
 * files in tests. Numbers are doubles, objects preserve key order via
 * std::map (sorted), strings support the common escapes. Not a general
 * purpose library — no streaming, no comments, no unicode surrogate
 * pair handling beyond pass-through of \uXXXX escapes.
 *
 * Numbers on the wire: an integer below 1e15 prints as "%.0f" would, any
 * other finite double as the shortest "%.{p}g" (p <= 17) that reads back
 * bit-exactly, and inf/nan as 0. A parsed number is an optional '-' and
 * a decimal std::from_chars reads whole; a leading '+' and a magnitude
 * that overflows a double or underflows it to zero are malformed.
 */

#ifndef MENDA_OBS_JSON_HH
#define MENDA_OBS_JSON_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace menda::obs::json
{

class Value;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value
{
  public:
    enum class Kind : unsigned char
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Value() = default;
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double d) : kind_(Kind::Number), number_(d) {}
    Value(std::uint64_t u)
        : kind_(Kind::Number), number_(static_cast<double>(u))
    {}
    Value(int i) : kind_(Kind::Number), number_(i) {}
    Value(const char *s) : kind_(Kind::String), string_(s) {}
    Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
    Value(Array a)
        : kind_(Kind::Array),
          array_(std::make_shared<Array>(std::move(a)))
    {}
    Value(Object o)
        : kind_(Kind::Object),
          object_(std::make_shared<Object>(std::move(o)))
    {}

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return bool_; }
    double asNumber() const { return number_; }
    const std::string &asString() const { return string_; }
    const Array &asArray() const { return *array_; }
    const Object &asObject() const { return *object_; }

    /** Object member lookup; returns null Value when absent. */
    const Value &at(const std::string &key) const;

    /** True iff the object has @p key (false for non-objects). */
    bool has(const std::string &key) const;

    /** Serialize canonically (sorted keys, shortest-round-trip doubles). */
    std::string serialize() const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::shared_ptr<Array> array_;
    std::shared_ptr<Object> object_;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed).
 * Throws std::runtime_error with position info on malformed input.
 */
Value parse(const std::string &text);

/** Escape @p s as the contents of a JSON string literal (no quotes). */
std::string escape(const std::string &s);

/** Format @p d the way serialize() does (shortest round-trip form). */
std::string formatNumber(double d);

} // namespace menda::obs::json

#endif // MENDA_OBS_JSON_HH
