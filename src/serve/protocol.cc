#include "serve/protocol.hh"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace menda::serve
{

namespace
{

void
expect(bool ok, const char *what)
{
    if (!ok)
        throw std::runtime_error(std::string("menda.job/1: ") + what);
}

template <typename T>
obs::json::Value
numberArray(const std::vector<T> &v)
{
    obs::json::Array array;
    array.reserve(v.size());
    for (const T &x : v)
        array.push_back(obs::json::Value(static_cast<double>(x)));
    return obs::json::Value(std::move(array));
}

/**
 * The @p name array of @p v. Indices (integral T) must be exact integers
 * that fit T; float values must lie within the float range, so the
 * narrowing cast is exact or rounds, never overflows to infinity.
 */
template <typename T>
std::vector<T>
numbersFrom(const obs::json::Value &v, const char *name)
{
    const std::string bad = std::string("bad ") + name + " array";
    expect(v.isArray(), bad.c_str());
    std::vector<T> out;
    out.reserve(v.asArray().size());
    for (const obs::json::Value &x : v.asArray()) {
        if constexpr (std::is_integral_v<T>) {
            const std::optional<std::uint64_t> n =
                integerIn(x, 0, std::numeric_limits<T>::max());
            expect(n.has_value(), bad.c_str());
            out.push_back(static_cast<T>(*n));
        } else {
            expect(x.isNumber(), bad.c_str());
            const double d = x.asNumber();
            if constexpr (std::is_same_v<T, float>)
                if (std::fabs(d) > std::numeric_limits<float>::max())
                    throw std::runtime_error(
                        std::string("menda.job/1: ") + name +
                        " entry at offset " + std::to_string(out.size()) +
                        " is " + obs::json::formatNumber(d) +
                        ", beyond the float range");
            out.push_back(static_cast<T>(d));
        }
    }
    return out;
}

Index
indexField(const obs::json::Value &v, const char *key)
{
    const std::optional<std::uint64_t> n =
        integerIn(v.at(key), 0, std::numeric_limits<Index>::max());
    expect(n.has_value(), "matrix dimension is not an index");
    return static_cast<Index>(*n);
}

} // namespace

std::optional<std::uint64_t>
integerIn(const obs::json::Value &v, std::uint64_t lo, std::uint64_t hi)
{
    if (!v.isNumber())
        return std::nullopt;
    const double d = v.asNumber();
    if (!(d >= static_cast<double>(lo) && d <= static_cast<double>(hi)) ||
        d != std::floor(d))
        return std::nullopt;
    return static_cast<std::uint64_t>(d);
}

std::string
encodeFrame(const std::string &payload)
{
    const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
    std::string frame;
    frame.reserve(payload.size() + 4);
    frame.push_back(static_cast<char>(n & 0xff));
    frame.push_back(static_cast<char>((n >> 8) & 0xff));
    frame.push_back(static_cast<char>((n >> 16) & 0xff));
    frame.push_back(static_cast<char>((n >> 24) & 0xff));
    frame += payload;
    return frame;
}

FrameReader::Status
FrameReader::next(std::string *payload, std::string *error)
{
    if (poisoned_) {
        if (error)
            *error = "frame stream already poisoned";
        return Status::Error;
    }
    if (buf_.size() < 4)
        return Status::NeedMore;
    const auto b = [&](std::size_t i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(buf_[i]));
    };
    const std::uint32_t n = b(0) | (b(1) << 8) | (b(2) << 16) |
                            (b(3) << 24);
    if (n > maxFrame_) {
        poisoned_ = true;
        badLength_ = n;
        if (error)
            *error = "frame of " + std::to_string(n) +
                     " bytes exceeds the " + std::to_string(maxFrame_) +
                     " byte limit";
        return Status::Error;
    }
    if (buf_.size() < 4 + static_cast<std::size_t>(n))
        return Status::NeedMore;
    payload->assign(buf_, 4, n);
    buf_.erase(0, 4 + static_cast<std::size_t>(n));
    return Status::Frame;
}

obs::json::Value
csrToJson(const sparse::CsrMatrix &m)
{
    obs::json::Object o;
    o["rows"] = obs::json::Value(static_cast<double>(m.rows));
    o["cols"] = obs::json::Value(static_cast<double>(m.cols));
    o["ptr"] = numberArray(m.ptr);
    o["idx"] = numberArray(m.idx);
    o["val"] = numberArray(m.val);
    return obs::json::Value(std::move(o));
}

sparse::CsrMatrix
csrFromJson(const obs::json::Value &v)
{
    expect(v.isObject(), "matrix is not an object");
    sparse::CsrMatrix m;
    m.rows = indexField(v, "rows");
    m.cols = indexField(v, "cols");
    m.ptr = numbersFrom<std::uint32_t>(v.at("ptr"), "ptr");
    m.idx = numbersFrom<std::uint32_t>(v.at("idx"), "idx");
    m.val = numbersFrom<Value>(v.at("val"), "val");
    m.validate();
    return m;
}

obs::json::Value
cscToJson(const sparse::CscMatrix &m)
{
    obs::json::Object o;
    o["rows"] = obs::json::Value(static_cast<double>(m.rows));
    o["cols"] = obs::json::Value(static_cast<double>(m.cols));
    o["ptr"] = numberArray(m.ptr);
    o["idx"] = numberArray(m.idx);
    o["val"] = numberArray(m.val);
    return obs::json::Value(std::move(o));
}

sparse::CscMatrix
cscFromJson(const obs::json::Value &v)
{
    expect(v.isObject(), "matrix is not an object");
    sparse::CscMatrix m;
    m.rows = indexField(v, "rows");
    m.cols = indexField(v, "cols");
    m.ptr = numbersFrom<std::uint32_t>(v.at("ptr"), "ptr");
    m.idx = numbersFrom<std::uint32_t>(v.at("idx"), "idx");
    m.val = numbersFrom<Value>(v.at("val"), "val");
    m.validate();
    return m;
}

obs::json::Value
doubleVectorToJson(const std::vector<double> &v)
{
    obs::json::Array array;
    array.reserve(v.size());
    for (double x : v)
        array.push_back(obs::json::Value(x));
    return obs::json::Value(std::move(array));
}

std::vector<double>
doubleVectorFromJson(const obs::json::Value &v)
{
    return numbersFrom<double>(v, "y");
}

obs::json::Value
valueVectorToJson(const std::vector<Value> &v)
{
    return numberArray(v);
}

std::vector<Value>
valueVectorFromJson(const obs::json::Value &v)
{
    return numbersFrom<Value>(v, "x");
}

obs::json::Value
errorResponse(const std::string &code, const std::string &message)
{
    return errorResponse(code, message, obs::json::Object{});
}

obs::json::Value
errorResponse(const std::string &code, const std::string &message,
              obs::json::Object details)
{
    obs::json::Object o = std::move(details);
    o["schema"] = obs::json::Value(kSchema);
    o["type"] = obs::json::Value("error");
    o["code"] = obs::json::Value(code);
    o["message"] = obs::json::Value(message);
    return obs::json::Value(std::move(o));
}

bool
isError(const obs::json::Value &v, std::string *code, std::string *message)
{
    if (!v.isObject() || !v.at("type").isString() ||
        v.at("type").asString() != "error")
        return false;
    if (code && v.at("code").isString())
        *code = v.at("code").asString();
    if (message && v.at("message").isString())
        *message = v.at("message").asString();
    return true;
}

} // namespace menda::serve
