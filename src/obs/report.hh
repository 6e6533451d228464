/**
 * @file
 * Unified run report: one JSON schema for simulator and bench output.
 *
 * A RunReport carries scalar metrics, log-2 histograms, and periodic
 * time series from a run, serialized canonically (sorted keys,
 * shortest-round-trip numbers) so identical runs produce byte-identical
 * files. menda_sim emits one per --report run; bench harnesses emit one
 * per configuration; tools/menda_report_diff compares two reports with
 * per-metric relative tolerances and exits non-zero on regression —
 * which is what the CI perf gate runs against committed baselines.
 */

#ifndef MENDA_OBS_REPORT_HH
#define MENDA_OBS_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "obs/json.hh"

namespace menda::obs
{

class RunReport
{
  public:
    static constexpr const char *kSchema = "menda.runReport/1";

    RunReport() = default;
    explicit RunReport(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Free-form string annotations (kernel, matrix, flags, ...). */
    void setMeta(const std::string &key, const std::string &value)
    {
        meta_[key] = value;
    }
    const std::map<std::string, std::string> &meta() const { return meta_; }

    void setMetric(const std::string &metric_name, double value)
    {
        metrics_[metric_name] = value;
    }
    const std::map<std::string, double> &metrics() const
    {
        return metrics_;
    }
    bool hasMetric(const std::string &metric_name) const
    {
        return metrics_.count(metric_name) != 0;
    }
    double metric(const std::string &metric_name) const
    {
        auto it = metrics_.find(metric_name);
        return it == metrics_.end() ? 0.0 : it->second;
    }

    void addHistogram(const std::string &hist_name,
                      const Histogram &histogram);
    void addSeries(const std::string &series_name,
                   const IntervalSampler &sampler);

    struct HistogramData
    {
        std::vector<std::uint64_t> buckets; ///< trailing zeros trimmed
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t min = 0;
        std::uint64_t max = 0;
    };

    struct SeriesData
    {
        std::uint64_t period = 0;
        std::vector<std::uint64_t> cycles;
        std::vector<std::uint64_t> values;
    };

    const std::map<std::string, HistogramData> &histograms() const
    {
        return histograms_;
    }
    const std::map<std::string, SeriesData> &series() const
    {
        return series_;
    }

    /** The report as a JSON tree (what toJson() serializes). */
    json::Value toValue() const;

    /** Canonical JSON (byte-deterministic for identical content):
     *  toValue() serialized, plus a trailing newline. */
    std::string toJson() const;

    /**
     * Parse a report back from JSON. Throws std::runtime_error on
     * malformed input or a schema mismatch.
     */
    static RunReport fromJson(const std::string &text);

    /** Write toJson() to @p path; throws on I/O failure. */
    void write(const std::string &path) const;

    /** Read + parse a report file; throws on I/O or parse failure. */
    static RunReport read(const std::string &path);

  private:
    std::string name_;
    std::map<std::string, std::string> meta_;
    std::map<std::string, double> metrics_;
    std::map<std::string, HistogramData> histograms_;
    std::map<std::string, SeriesData> series_;
};

/** Controls for diffReports(). */
struct DiffOptions
{
    /** Allowed relative drift per metric, e.g. 0.10 = ±10%. */
    double tolerance = 0.10;

    /**
     * Metrics whose name contains any of these substrings
     * (case-insensitively) are reported but never fail the diff —
     * machine-dependent throughput and host configuration do not belong
     * in a regression gate.
     */
    std::vector<std::string> ignoreSubstrings = {
        "wall", "CyclesPerSec", "hostThreads", "hwConcurrency",
        "traceOverhead",
    };

    bool ignored(const std::string &metric_name) const;
};

/** Outcome of comparing a current report against a baseline. */
struct DiffResult
{
    struct Entry
    {
        std::string name;
        double baseline = 0.0;
        double current = 0.0;
        double relDelta = 0.0; ///< (current - baseline) / |baseline|
        bool ignored = false;
        bool withinTolerance = true;
    };

    std::vector<Entry> entries;          ///< metrics present in both
    std::vector<std::string> missing;    ///< in baseline, not in current
    std::vector<std::string> added;      ///< in current, not in baseline
    bool passed = true; ///< all checked metrics in tolerance, none missing
};

/** Compare @p current against @p baseline metric-by-metric. */
DiffResult diffReports(const RunReport &baseline, const RunReport &current,
                       const DiffOptions &options);

} // namespace menda::obs

#endif // MENDA_OBS_REPORT_HH
