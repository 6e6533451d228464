#include "obs/report.hh"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace menda::obs
{

void
RunReport::addHistogram(const std::string &hist_name,
                        const Histogram &histogram)
{
    HistogramData data;
    const unsigned used = histogram.usedBuckets();
    data.buckets.reserve(used);
    for (unsigned b = 0; b < used; ++b)
        data.buckets.push_back(histogram.bucket(b));
    data.count = histogram.count();
    data.sum = histogram.sum();
    data.min = histogram.min();
    data.max = histogram.max();
    histograms_[hist_name] = std::move(data);
}

void
RunReport::addSeries(const std::string &series_name,
                     const IntervalSampler &sampler)
{
    SeriesData data;
    data.period = sampler.period();
    data.cycles = sampler.cycles();
    data.values = sampler.values();
    series_[series_name] = std::move(data);
}

namespace
{

json::Array
toJsonArray(const std::vector<std::uint64_t> &values)
{
    json::Array arr;
    arr.reserve(values.size());
    for (std::uint64_t v : values)
        arr.emplace_back(v);
    return arr;
}

std::vector<std::uint64_t>
fromJsonArray(const json::Value &value)
{
    std::vector<std::uint64_t> out;
    if (!value.isArray())
        return out;
    out.reserve(value.asArray().size());
    for (const json::Value &v : value.asArray())
        out.push_back(static_cast<std::uint64_t>(v.asNumber()));
    return out;
}

} // namespace

json::Value
RunReport::toValue() const
{
    json::Object root;
    root.emplace("schema", kSchema);
    root.emplace("name", name_);

    json::Object meta;
    for (const auto &[key, value] : meta_)
        meta.emplace(key, value);
    root.emplace("meta", std::move(meta));

    json::Object metrics;
    for (const auto &[key, value] : metrics_)
        metrics.emplace(key, value);
    root.emplace("metrics", std::move(metrics));

    json::Object histograms;
    for (const auto &[key, data] : histograms_) {
        json::Object h;
        h.emplace("buckets", toJsonArray(data.buckets));
        h.emplace("count", data.count);
        h.emplace("sum", data.sum);
        h.emplace("min", data.min);
        h.emplace("max", data.max);
        histograms.emplace(key, std::move(h));
    }
    root.emplace("histograms", std::move(histograms));

    json::Object series;
    for (const auto &[key, data] : series_) {
        json::Object s;
        s.emplace("period", data.period);
        s.emplace("cycles", toJsonArray(data.cycles));
        s.emplace("values", toJsonArray(data.values));
        series.emplace(key, std::move(s));
    }
    root.emplace("series", std::move(series));
    return json::Value(std::move(root));
}

std::string
RunReport::toJson() const
{
    return toValue().serialize() + "\n";
}

RunReport
RunReport::fromJson(const std::string &text)
{
    const json::Value root = json::parse(text);
    if (!root.isObject())
        throw std::runtime_error("run report: top level is not an object");
    if (root.at("schema").asString() != kSchema)
        throw std::runtime_error(
            "run report: unsupported schema '" +
            root.at("schema").asString() + "' (want " + kSchema + ")");

    RunReport report(root.at("name").asString());
    if (root.at("meta").isObject())
        for (const auto &[key, value] : root.at("meta").asObject())
            report.meta_[key] = value.asString();
    if (root.at("metrics").isObject())
        for (const auto &[key, value] : root.at("metrics").asObject())
            report.metrics_[key] = value.asNumber();
    if (root.at("histograms").isObject()) {
        for (const auto &[key, value] : root.at("histograms").asObject()) {
            HistogramData data;
            data.buckets = fromJsonArray(value.at("buckets"));
            data.count =
                static_cast<std::uint64_t>(value.at("count").asNumber());
            data.sum =
                static_cast<std::uint64_t>(value.at("sum").asNumber());
            data.min =
                static_cast<std::uint64_t>(value.at("min").asNumber());
            data.max =
                static_cast<std::uint64_t>(value.at("max").asNumber());
            report.histograms_[key] = std::move(data);
        }
    }
    if (root.at("series").isObject()) {
        for (const auto &[key, value] : root.at("series").asObject()) {
            SeriesData data;
            data.period =
                static_cast<std::uint64_t>(value.at("period").asNumber());
            data.cycles = fromJsonArray(value.at("cycles"));
            data.values = fromJsonArray(value.at("values"));
            report.series_[key] = std::move(data);
        }
    }
    return report;
}

void
RunReport::write(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw std::runtime_error("run report: cannot open '" + path +
                                 "' for writing");
    os << toJson();
    if (!os)
        throw std::runtime_error("run report: write to '" + path +
                                 "' failed");
}

RunReport
RunReport::read(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("run report: cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return fromJson(buffer.str());
}

bool
DiffOptions::ignored(const std::string &metric_name) const
{
    // Case-insensitive: "wall" must catch wallSeconds, heapWallSeconds,
    // and speedupVsHeapWall alike.
    auto lower = [](std::string s) {
        for (char &c : s)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        return s;
    };
    const std::string haystack = lower(metric_name);
    for (const std::string &needle : ignoreSubstrings)
        if (haystack.find(lower(needle)) != std::string::npos)
            return true;
    return false;
}

DiffResult
diffReports(const RunReport &baseline, const RunReport &current,
            const DiffOptions &options)
{
    DiffResult result;

    for (const auto &[name, base_value] : baseline.metrics()) {
        if (!current.hasMetric(name)) {
            if (!options.ignored(name)) {
                result.missing.push_back(name);
                result.passed = false;
            }
            continue;
        }
        DiffResult::Entry entry;
        entry.name = name;
        entry.baseline = base_value;
        entry.current = current.metric(name);
        entry.ignored = options.ignored(name);
        if (base_value == 0.0) {
            // No meaningful relative delta; any non-zero drift from an
            // exactly-zero baseline counts as out of tolerance.
            entry.relDelta = entry.current == 0.0 ? 0.0 : INFINITY;
            entry.withinTolerance = entry.current == 0.0;
        } else {
            entry.relDelta =
                (entry.current - base_value) / std::fabs(base_value);
            entry.withinTolerance =
                std::fabs(entry.relDelta) <= options.tolerance;
        }
        if (!entry.ignored && !entry.withinTolerance)
            result.passed = false;
        result.entries.push_back(std::move(entry));
    }

    for (const auto &[name, value] : current.metrics()) {
        (void)value;
        if (!baseline.hasMetric(name))
            result.added.push_back(name);
    }

    return result;
}

} // namespace menda::obs
