#include "check/coverage.hh"

#include <set>
#include <sstream>

namespace menda::check
{

namespace
{

unsigned
log2Bucket(double value)
{
    if (value < 1.0)
        return 0;
    unsigned b = 0;
    while (value >= 2.0) {
        value /= 2.0;
        ++b;
    }
    return b + 1;
}

} // namespace

std::vector<std::string>
caseFeatures(const CaseSpec &spec, const obs::RunReport &report)
{
    std::vector<std::string> features;
    const std::string kernel = kernelName(spec.kernel);
    const std::string matrix = matrixKindName(spec.a.kind);
    features.push_back("kernel=" + kernel);
    features.push_back("matrix=" + matrix);
    features.push_back("case=" + kernel + "/" + matrix);
    if (spec.kernel == core::Kernel::Spgemm)
        features.push_back("matrixB=" +
                           std::string(matrixKindName(spec.b.kind)));
    features.push_back("pus=" + std::to_string(spec.pus));
    features.push_back("leaves=" + std::to_string(spec.leaves));
    features.push_back("fifo=" + std::to_string(spec.fifoEntries));
    features.push_back("buf=" +
                       std::to_string(spec.prefetchBufferEntries));
    features.push_back(std::string("prefetch=") +
                       (spec.stallReducingPrefetch ? "on" : "off"));
    features.push_back(std::string("coalesce=") +
                       (spec.requestCoalescing ? "on" : "off"));
    features.push_back(std::string("seamless=") +
                       (spec.seamlessMerge ? "on" : "off"));
    features.push_back(std::string("sampled=") +
                       (spec.samplePeriod != 0 ? "on" : "off"));

    // Event coverage: which observable behaviors actually fired. The
    // bool flags record that a path was taken at all; the buckets spread
    // intensity so "barely" and "saturated" count as different regions.
    const auto flag = [&](const char *name, double value) {
        features.push_back(std::string("event.") + name + "=" +
                           (value != 0.0 ? "yes" : "no"));
    };
    flag("rowConflicts", report.metric("rowConflicts"));
    flag("coalesced", report.metric("coalescedRequests"));
    flag("leafStalls", report.metric("leafPushStallCycles"));
    flag("outputStalls", report.metric("outputStallCycles"));
    flag("multiRound", report.metric("iterations") > 1.0 ? 1.0 : 0.0);
    features.push_back(
        "bucket.iterations=" +
        std::to_string(log2Bucket(report.metric("iterations"))));
    const double cycles = report.metric("puCycles");
    if (cycles > 0.0)
        features.push_back(
            "bucket.occupancy=" +
            std::to_string(log2Bucket(
                report.metric("treeOccupancyPacketCycles") / cycles)));
    features.push_back(
        "bucket.activates=" +
        std::to_string(log2Bucket(report.metric("activates"))));
    return features;
}

unsigned
Coverage::note(const CaseSpec &spec, const obs::RunReport &report)
{
    unsigned fresh = 0;
    for (const std::string &feature : caseFeatures(spec, report))
        if (hits_[feature]++ == 0)
            ++fresh;
    return fresh;
}

std::uint64_t
Coverage::hits(const std::string &feature) const
{
    auto it = hits_.find(feature);
    return it == hits_.end() ? 0 : it->second;
}

std::string
Coverage::summary() const
{
    std::set<std::string> event_names, events_fired;
    for (const auto &[feature, count] : hits_) {
        (void)count;
        if (feature.rfind("event.", 0) != 0)
            continue;
        const std::size_t eq = feature.find('=');
        event_names.insert(feature.substr(0, eq));
        if (feature.compare(eq, std::string::npos, "=yes") == 0)
            events_fired.insert(feature.substr(0, eq));
    }
    std::ostringstream os;
    os << hits_.size() << " features (" << events_fired.size() << "/"
       << event_names.size() << " event flags fired)";
    return os.str();
}

} // namespace menda::check
