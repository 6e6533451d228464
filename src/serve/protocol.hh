/**
 * @file
 * Wire protocol of menda_serve (schema `menda.job/1`, DESIGN.md §13).
 *
 * Messages are length-prefixed JSON: a 4-byte little-endian payload
 * length followed by one UTF-8 JSON document. The prefix makes framing
 * trivial to validate — a frame longer than the negotiated maximum is
 * rejected before any allocation proportional to the claimed length,
 * and a truncated frame is simply an incomplete buffer, never a parse
 * of garbage.
 *
 * Requests are objects with a "type" field: "submit", "status",
 * "stats", "shutdown". Responses mirror with "submitted", "jobStatus",
 * "stats", "shuttingDown", or "error" (typed "code" + human "message").
 * Matrices travel as {"rows","cols","ptr","idx","val"} arrays; float
 * values round-trip exactly through the canonical JSON serializer.
 */

#ifndef MENDA_SERVE_PROTOCOL_HH
#define MENDA_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hh"
#include "obs/json.hh"
#include "sparse/format.hh"

namespace menda::serve
{

constexpr const char *kSchema = "menda.job/1";

/** Default ceiling on one frame's payload bytes. */
constexpr std::uint32_t kDefaultMaxFrameBytes = 64u << 20;

/** Prepend the 4-byte little-endian length prefix to @p payload. */
std::string encodeFrame(const std::string &payload);

/**
 * Incremental frame decoder for one connection. feed() appends raw
 * bytes; next() yields complete payloads. An oversized length prefix
 * poisons the stream (Error is sticky — close the connection).
 */
class FrameReader
{
  public:
    explicit FrameReader(std::uint32_t max_frame = kDefaultMaxFrameBytes)
        : maxFrame_(max_frame)
    {}

    void feed(const char *data, std::size_t n) { buf_.append(data, n); }

    enum class Status : std::uint8_t
    {
        NeedMore, ///< no complete frame buffered yet
        Frame,    ///< *payload holds the next frame
        Error,    ///< protocol violation; *error describes it
    };

    Status next(std::string *payload, std::string *error);

    /** Bytes buffered but not yet consumed (truncated-frame detection). */
    std::size_t pendingBytes() const { return buf_.size(); }

    /** The negotiated per-frame payload ceiling. */
    std::uint32_t maxFrameBytes() const { return maxFrame_; }

    /**
     * The length prefix that poisoned the stream (0 while healthy) —
     * surfaced in the typed "badFrame" error payload so the client can
     * tell an oversized submit from a corrupted prefix.
     */
    std::uint32_t badFrameLength() const { return badLength_; }

  private:
    std::uint32_t maxFrame_;
    std::string buf_;
    bool poisoned_ = false;
    std::uint32_t badLength_ = 0;
};

/**
 * @p v as an integer in [@p lo, @p hi]; nullopt when it is not a
 * number, has a fractional part, or lies outside the range (NaN and
 * infinities included), so converting it is always defined.
 */
std::optional<std::uint64_t> integerIn(const obs::json::Value &v,
                                       std::uint64_t lo, std::uint64_t hi);

// --- JSON codecs (throw std::runtime_error on malformed input; a
// decoded matrix is canonical: sorted, duplicate-free, in range; a
// matrix value or an SpMV x entry beyond the float range is rejected,
// naming its array and offset) ---

obs::json::Value csrToJson(const sparse::CsrMatrix &m);
sparse::CsrMatrix csrFromJson(const obs::json::Value &v);
obs::json::Value cscToJson(const sparse::CscMatrix &m);
sparse::CscMatrix cscFromJson(const obs::json::Value &v);
obs::json::Value doubleVectorToJson(const std::vector<double> &v);
std::vector<double> doubleVectorFromJson(const obs::json::Value &v); ///< y
obs::json::Value valueVectorToJson(const std::vector<Value> &v);
std::vector<Value> valueVectorFromJson(const obs::json::Value &v); ///< x

/** Build a typed error response (code e.g. "queueFull", "badRequest"). */
obs::json::Value errorResponse(const std::string &code,
                               const std::string &message);

/**
 * Error response with machine-readable context merged in next to
 * code/message (e.g. "badFrame" carries frameLength + maxFrameBytes).
 * @p details must not use the reserved envelope keys.
 */
obs::json::Value errorResponse(const std::string &code,
                               const std::string &message,
                               obs::json::Object details);

/** True iff @p v is an error response; fills code/message if non-null. */
bool isError(const obs::json::Value &v, std::string *code = nullptr,
             std::string *message = nullptr);

} // namespace menda::serve

#endif // MENDA_SERVE_PROTOCOL_HH
