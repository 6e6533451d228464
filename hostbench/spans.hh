/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Every call the benchmark makes into a MeNDA layer is wrapped in a
 * Scope. When recording is on, the scope appends one span (name, start,
 * end, parent, request id); when it is off the scope costs two branch
 * tests, so the untraced runs that produce the end-to-end metrics pay
 * nothing. Spans stay in memory until the run ends, then selfTimes()
 * folds them into per-layer self time and writeChromeTrace() dumps them.
 *
 * Single-threaded by design: the traced run drives every layer from the
 * main thread, so spans nest strictly and a layer's self time is its
 * span minus the spans opened directly inside it.
 */

#ifndef MENDA_HOSTBENCH_SPANS_HH
#define MENDA_HOSTBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace hostbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        int parent;          ///< index of the enclosing span, -1 at top
        std::uint64_t request;
    };

    /** RAII span; records nothing while the log is switched off. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, std::uint64_t request = 0)
            : log_(log.on_ ? &log : nullptr)
        {
            if (!log_)
                return;
            index_ = static_cast<int>(log_->spans_.size());
            log_->spans_.push_back(
                {name, nowNs(), 0, log_->open_, request});
            log_->open_ = index_;
        }
        ~Scope()
        {
            if (!log_)
                return;
            log_->spans_[static_cast<std::size_t>(index_)].endNs = nowNs();
            log_->open_ =
                log_->spans_[static_cast<std::size_t>(index_)].parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        int index_ = -1;
    };

    void setRecording(bool on) { on_ = on; }

    /** Self seconds per span name; the values sum to wallSeconds(). */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<std::int64_t> child(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] +=
                    s.endNs - s.startNs;
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[spans_[i].name] +=
                static_cast<double>(spans_[i].endNs - spans_[i].startNs -
                                    child[i]) *
                1e-9;
        return self;
    }

    /** Summed duration of the top-level spans: the traced wall time. */
    double
    wallSeconds() const
    {
        std::int64_t ns = 0;
        for (const Span &s : spans_)
            if (s.parent < 0)
                ns += s.endNs - s.startNs;
        return static_cast<double>(ns) * 1e-9;
    }

    /** Write the spans as Chrome trace "X" events; false on I/O error. */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::int64_t t0 = spans_.empty() ? 0 : spans_[0].startNs;
        std::fputs("{\"traceEvents\":[\n", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                "\"parent\":%d,\"request\":%llu}}\n",
                i ? "," : "", s.name,
                static_cast<double>(s.startNs - t0) * 1e-3,
                static_cast<double>(s.endNs - s.startNs) * 1e-3, i,
                s.parent, static_cast<unsigned long long>(s.request));
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    bool on_ = false;
    int open_ = -1;
    std::vector<Span> spans_;
};

} // namespace hostbench

#endif // MENDA_HOSTBENCH_SPANS_HH
