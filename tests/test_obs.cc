/**
 * @file
 * Unit tests for the observability layer (src/obs): the JSON value
 * model, the event-trace ring buffers and their Chrome trace-event
 * serialization, the RunReport schema round-trip, and the report diff
 * that backs the CI perf gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hh"
#include "fuzz_seed.hh"
#include "menda/run_report.hh"
#include "menda/system.hh"
#include "obs/journal.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/trace.hh"

using namespace menda;
using namespace menda::obs;

// --- JSON -----------------------------------------------------------

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(json::parse("null").isNull());
    EXPECT_EQ(json::parse("true").asBool(), true);
    EXPECT_EQ(json::parse("false").asBool(), false);
    EXPECT_EQ(json::parse("42").asNumber(), 42.0);
    EXPECT_EQ(json::parse("-2.5e3").asNumber(), -2500.0);
    EXPECT_EQ(json::parse("\"hi\\n\\\"there\\\"\"").asString(),
              "hi\n\"there\"");
}

TEST(Json, ParsesNestedStructures)
{
    json::Value v = json::parse(
        "  {\"a\": [1, 2, {\"b\": true}], \"c\": \"x\"} ");
    ASSERT_TRUE(v.isObject());
    ASSERT_TRUE(v.at("a").isArray());
    EXPECT_EQ(v.at("a").asArray().size(), 3u);
    EXPECT_EQ(v.at("a").asArray()[2].at("b").asBool(), true);
    EXPECT_EQ(v.at("c").asString(), "x");
    EXPECT_TRUE(v.has("c"));
    EXPECT_FALSE(v.has("missing"));
    EXPECT_TRUE(v.at("missing").isNull());
}

TEST(Json, SerializeRoundTripsCanonically)
{
    const std::string text =
        "{\"arr\":[1,2.5,\"s\"],\"flag\":false,\"n\":null,"
        "\"nested\":{\"x\":3}}";
    json::Value v = json::parse(text);
    EXPECT_EQ(v.serialize(), text);
    // Key order in the input does not matter: std::map sorts.
    EXPECT_EQ(json::parse("{\"b\":1,\"a\":2}").serialize(),
              "{\"a\":2,\"b\":1}");
}

TEST(Json, NumbersRoundTripExactly)
{
    for (double d : {0.0, 1.0, -7.0, 1e15 - 1, 0.1, 1.0 / 3.0,
                     6.02214076e23, 5e-324}) {
        const std::string s = json::formatNumber(d);
        EXPECT_EQ(json::parse(s).asNumber(), d) << s;
    }
    EXPECT_EQ(json::formatNumber(123456789.0), "123456789");
}

TEST(Json, ParseErrorsCarryPosition)
{
    EXPECT_THROW(json::parse(""), std::runtime_error);
    EXPECT_THROW(json::parse("{"), std::runtime_error);
    EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(json::parse("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(json::parse("tru"), std::runtime_error);
    EXPECT_THROW(json::parse("{} trailing"), std::runtime_error);
}

TEST(Json, NumberGrammar)
{
    // A leading '+' and magnitudes a double cannot hold are malformed.
    for (const char *text : {"+1", "[0,+2]", "1e400", "-1e400", "1e-400"})
        EXPECT_THROW(json::parse(text), std::runtime_error) << text;
    // Every other form keeps the value strtod gives it.
    EXPECT_EQ(json::parse(".5").asNumber(), 0.5);
    EXPECT_EQ(json::parse("5.").asNumber(), 5.0);
    const double negativeZero = json::parse("-0").asNumber();
    EXPECT_EQ(negativeZero, 0.0);
    EXPECT_TRUE(std::signbit(negativeZero));
    EXPECT_EQ(json::parse("1E+5").asNumber(), 1e5);
    EXPECT_EQ(json::parse("-2.5e-3").asNumber(), -2.5e-3);
    EXPECT_EQ(json::parse("5e-324").asNumber(), 5e-324); // subnormal
    EXPECT_EQ(json::parse("1.7976931348623157e308").asNumber(), DBL_MAX);
}

// --- number formatting against the snprintf oracle ------------------

namespace
{

/**
 * Reference for the bytes json::formatNumber must produce: an integer
 * below 1e15 prints as "%.0f"; anything else tries "%.{p}g" for
 * p = 1..16 until strtod reads it back, else prints "%.17g".
 */
std::string
snprintfFormat(double d)
{
    if (!std::isfinite(d))
        return "0";
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    for (int precision = 1; precision < 17; ++precision) {
        char shorter[40];
        std::snprintf(shorter, sizeof(shorter), "%.*g", precision, d);
        if (std::strtod(shorter, nullptr) == d)
            return shorter;
    }
    return buf;
}

/** "" if formatNumber(@p d) equals the oracle, else what differs. */
std::string
formatMismatch(double d)
{
    const std::string want = snprintfFormat(d);
    const std::string got = json::formatNumber(d);
    if (got == want)
        return {};
    char hex[64];
    std::snprintf(hex, sizeof(hex), "%a", d);
    return std::string(hex) + ": got " + got + ", want " + want;
}

} // namespace

TEST(Json, FormatNumberMatchesOracleAtEdges)
{
    std::vector<double> edges = {
        0.0, 1e15 - 1, 1e15, 1e16, 1e21, 1e22, 1e23, // integer limits
        1e-5, 1e-4, 1e-3,          // where %g switches form
        5e-324, DBL_MIN, DBL_MAX, // extremes
        0.1, 1.0 / 3.0, 2.0 / 3.0, 0.5, 9.5, 123456.789, 6.02214076e23,
        HUGE_VAL, NAN, // clamped to 0
    };
    for (const double d : std::vector<double>(edges))
        for (const double toward : {0.0, HUGE_VAL})
            edges.push_back(std::nextafter(d, toward));
    for (int e = -1074; e <= 1023; ++e) // the lopsided rounding intervals
        edges.push_back(std::ldexp(1.0, e));
    for (const double d : std::vector<double>(edges))
        edges.push_back(-d);
    for (const double d : edges)
        EXPECT_EQ(formatMismatch(d), "");
}

TEST(Json, FormatNumberMatchesOracleOnGeneratorFloats)
{
    // Matrix values are floats widened to double: nearly all of them
    // need 17 digits.
    const std::uint64_t base = testutil::fuzzSeedBase(0xf10a7000u);
    SCOPED_TRACE(testutil::reproCommand(base, "test_obs"));
    Rng rng(base);
    for (int i = 0; i < (1 << 16); ++i) {
        const std::string why = formatMismatch(rng.value());
        ASSERT_EQ(why, "") << "value " << i;
    }
}

TEST(Json, FormatNumberMatchesOracleOnRandomBitPatterns)
{
    // 2^20 finite doubles in 16 seeded shards. The oracle costs tens of
    // microseconds a value, so the shards run on a few threads; which
    // values are checked does not depend on the thread count.
    const std::uint64_t base = testutil::fuzzSeedBase(0xb175000u);
    SCOPED_TRACE(testutil::reproCommand(base, "test_obs"));
    constexpr unsigned kShards = 16;
    constexpr std::size_t kPerShard = std::size_t(1) << 16;
    std::vector<std::string> mismatch(kShards);
    std::atomic<unsigned> nextShard{0};
    const auto work = [&] {
        for (unsigned s = nextShard++; s < kShards; s = nextShard++) {
            Rng rng(base + s);
            for (std::size_t n = 0; n < kPerShard && mismatch[s].empty();) {
                const std::uint64_t bits = rng.next();
                double d = 0.0;
                std::memcpy(&d, &bits, sizeof(d));
                if (!std::isfinite(d))
                    continue;
                ++n;
                mismatch[s] = formatMismatch(d);
            }
        }
    };
    const unsigned threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();
    for (unsigned s = 0; s < kShards; ++s)
        EXPECT_EQ(mismatch[s], "") << "shard " << s;
}

// --- event tracing --------------------------------------------------

TEST(Trace, RecordsAndSerializesAllEventKinds)
{
    Tracer tracer(64);
    tracer.ensureShards(1);
    TraceShard *shard = tracer.shard(0);
    const std::uint32_t spans =
        shard->addTrack("pu.phases", TrackKind::Span, 800);
    const std::uint32_t instants =
        shard->addTrack("pu.rounds", TrackKind::Instant, 800);
    const std::uint32_t counters =
        shard->addTrack("pu.occupancy", TrackKind::Counter, 800);
    const std::uint32_t iter0 = shard->internName("iter0");
    const std::uint32_t round = shard->internName("round");

    shard->span(spans, iter0, 0, 1600);
    shard->instant(instants, round, 800);
    shard->counter(counters, 800, 37);
    EXPECT_EQ(shard->eventCount(), 3u);
    EXPECT_EQ(shard->droppedEvents(), 0u);

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    json::Value doc = json::parse(os.str());
    ASSERT_TRUE(doc.at("traceEvents").isArray());
    const json::Array &events = doc.at("traceEvents").asArray();

    bool saw_span = false, saw_instant = false, saw_counter = false;
    for (const json::Value &e : events) {
        const std::string ph = e.at("ph").asString();
        if (ph == "X") {
            saw_span = true;
            EXPECT_EQ(e.at("name").asString(), "iter0");
            // 1600 cycles at 800 MHz = 2 us.
            EXPECT_EQ(e.at("dur").asNumber(), 2.0);
        } else if (ph == "i") {
            saw_instant = true;
            EXPECT_EQ(e.at("name").asString(), "round");
            EXPECT_EQ(e.at("ts").asNumber(), 1.0);
        } else if (ph == "C") {
            saw_counter = true;
            EXPECT_EQ(e.at("name").asString(), "pu.occupancy");
            EXPECT_EQ(e.at("args").at("value").asNumber(), 37.0);
        }
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_counter);
}

TEST(Trace, FullRingDropsAndCounts)
{
    TraceShard shard(4);
    const std::uint32_t t =
        shard.addTrack("x", TrackKind::Instant, 1000);
    const std::uint32_t n = shard.internName("e");
    for (Cycle c = 0; c < 10; ++c)
        shard.instant(t, n, c);
    EXPECT_EQ(shard.eventCount(), 4u); // earliest events kept
    EXPECT_EQ(shard.droppedEvents(), 6u);
}

TEST(Trace, InternedNamesAreStable)
{
    TraceShard shard(16);
    EXPECT_EQ(shard.internName("a"), shard.internName("a"));
    EXPECT_NE(shard.internName("a"), shard.internName("b"));
}

// --- run reports ----------------------------------------------------

namespace
{

RunReport
sampleReport()
{
    RunReport report("unit");
    report.setMeta("kernel", "transpose");
    report.setMetric("puCycles", 123456.0);
    report.setMetric("busUtilization", 0.57);
    Histogram h;
    h.record(0);
    h.record(9);
    h.record(1000);
    report.addHistogram("readLatency", h);
    IntervalSampler s;
    s.configure(100);
    s.sample(0, 5);
    s.sample(100, 7);
    report.addSeries("treeOccupancy", s);
    return report;
}

} // namespace

TEST(RunReport, JsonRoundTripIsLossless)
{
    RunReport report = sampleReport();
    const std::string text = report.toJson();
    RunReport back = RunReport::fromJson(text);

    EXPECT_EQ(back.name(), "unit");
    EXPECT_EQ(back.meta().at("kernel"), "transpose");
    EXPECT_EQ(back.metric("puCycles"), 123456.0);
    EXPECT_EQ(back.metric("busUtilization"), 0.57);
    ASSERT_EQ(back.histograms().count("readLatency"), 1u);
    const RunReport::HistogramData &h =
        back.histograms().at("readLatency");
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.sum, 1009u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 1000u);
    ASSERT_EQ(back.series().count("treeOccupancy"), 1u);
    const RunReport::SeriesData &s = back.series().at("treeOccupancy");
    EXPECT_EQ(s.period, 100u);
    EXPECT_EQ(s.cycles, (std::vector<std::uint64_t>{0, 100}));
    EXPECT_EQ(s.values, (std::vector<std::uint64_t>{5, 7}));

    // Canonical serialization: a round-trip is byte-stable.
    EXPECT_EQ(back.toJson(), text);
}

TEST(RunReport, RejectsWrongSchema)
{
    EXPECT_THROW(RunReport::fromJson("{\"schema\":\"other/9\"}"),
                 std::runtime_error);
    EXPECT_THROW(RunReport::fromJson("not json"), std::runtime_error);
}

TEST(RunReport, FileRoundTrip)
{
    const std::string path = "obs_report_roundtrip.json";
    RunReport report = sampleReport();
    report.write(path);
    RunReport back = RunReport::read(path);
    std::remove(path.c_str());
    EXPECT_EQ(back.toJson(), report.toJson());
    EXPECT_THROW(RunReport::read("/nonexistent/report.json"),
                 std::runtime_error);
}

TEST(RunReport, MakeRunReportFlattensResult)
{
    core::SystemConfig config;
    core::RunResult result;
    result.seconds = 1e-3;
    result.puCycles = 800000;
    result.iterations = 2;
    result.readBlocks = 1000;
    result.writeBlocks = 500;
    result.rankActivates = {10, 20};
    result.rankBursts = {30, 40};
    result.readLatency.record(25);

    RunReport report = core::makeRunReport("t", "transpose", config,
                                           result, 4096, 0.5);
    EXPECT_EQ(report.metric("puCycles"), 800000.0);
    EXPECT_EQ(report.metric("totalBlocks"), 1500.0);
    EXPECT_EQ(report.metric("rankActivatesTotal"), 30.0);
    EXPECT_EQ(report.metric("rankBurstsTotal"), 70.0);
    EXPECT_EQ(report.metric("nnz"), 4096.0);
    EXPECT_EQ(report.metric("wallSeconds"), 0.5);
    EXPECT_EQ(report.meta().at("kernel"), "transpose");
    EXPECT_EQ(report.histograms().count("readLatency"), 1u);
    // Disabled samplers are omitted rather than serialized empty.
    EXPECT_EQ(report.series().count("treeOccupancy"), 0u);
}

// --- report diff (the CI gate) --------------------------------------

TEST(ReportDiff, IdenticalReportsPass)
{
    RunReport report = sampleReport();
    DiffResult diff = diffReports(report, report, DiffOptions{});
    EXPECT_TRUE(diff.passed);
    EXPECT_TRUE(diff.missing.empty());
    EXPECT_TRUE(diff.added.empty());
    for (const auto &entry : diff.entries) {
        EXPECT_EQ(entry.relDelta, 0.0) << entry.name;
        EXPECT_TRUE(entry.withinTolerance) << entry.name;
    }
}

TEST(ReportDiff, TwentyPercentRegressionFails)
{
    RunReport baseline = sampleReport();
    RunReport current = sampleReport();
    current.setMetric("puCycles", baseline.metric("puCycles") * 1.2);
    DiffResult diff = diffReports(baseline, current, DiffOptions{});
    EXPECT_FALSE(diff.passed);
    bool flagged = false;
    for (const auto &entry : diff.entries) {
        if (entry.name == "puCycles") {
            flagged = !entry.withinTolerance;
            EXPECT_NEAR(entry.relDelta, 0.2, 1e-9);
        }
    }
    EXPECT_TRUE(flagged);
}

TEST(ReportDiff, DriftWithinToleranceDoesNotFail)
{
    RunReport baseline = sampleReport();
    RunReport current = sampleReport();
    current.setMetric("puCycles", baseline.metric("puCycles") * 1.05);
    EXPECT_TRUE(diffReports(baseline, current, DiffOptions{}).passed);

    DiffOptions tight;
    tight.tolerance = 0.01;
    EXPECT_FALSE(diffReports(baseline, current, tight).passed);
}

TEST(ReportDiff, HostDependentMetricsAreIgnored)
{
    RunReport baseline = sampleReport();
    RunReport current = sampleReport();
    baseline.setMetric("wallSeconds", 10.0);
    current.setMetric("wallSeconds", 99.0);
    baseline.setMetric("simCyclesPerSec", 1e6);
    current.setMetric("simCyclesPerSec", 5.0);
    baseline.setMetric("traceOverheadPct", 0.5);
    current.setMetric("traceOverheadPct", 80.0);
    DiffResult diff = diffReports(baseline, current, DiffOptions{});
    EXPECT_TRUE(diff.passed);
    for (const auto &entry : diff.entries) {
        if (entry.name == "wallSeconds") {
            EXPECT_TRUE(entry.ignored);
        }
    }
}

TEST(ReportDiff, MissingMetricFailsAddedIsInformational)
{
    RunReport baseline = sampleReport();
    RunReport current = sampleReport();
    baseline.setMetric("vanished", 1.0);
    current.setMetric("brandNew", 2.0);
    DiffResult diff = diffReports(baseline, current, DiffOptions{});
    EXPECT_FALSE(diff.passed);
    ASSERT_EQ(diff.missing.size(), 1u);
    EXPECT_EQ(diff.missing[0], "vanished");
    ASSERT_EQ(diff.added.size(), 1u);
    EXPECT_EQ(diff.added[0], "brandNew");

    // A missing *ignored* metric is fine (wall metrics come and go).
    RunReport base2 = sampleReport();
    base2.setMetric("wallSeconds", 3.0);
    EXPECT_TRUE(
        diffReports(base2, sampleReport(), DiffOptions{}).passed);
}

TEST(ReportDiff, ZeroBaselineToleratesOnlyZero)
{
    RunReport baseline = sampleReport();
    RunReport current = sampleReport();
    baseline.setMetric("stalls", 0.0);
    current.setMetric("stalls", 0.0);
    EXPECT_TRUE(diffReports(baseline, current, DiffOptions{}).passed);
    current.setMetric("stalls", 3.0);
    EXPECT_FALSE(diffReports(baseline, current, DiffOptions{}).passed);
}

// --- event journal -----------------------------------------------------

TEST(Journal, EmitsCanonicalLinesWithMonotoneSeq)
{
    EventJournal journal(8);
    json::Object fields;
    fields["tenant"] = json::Value("t0");
    fields["code"] = json::Value("queueFull");
    journal.emit(1200, "reject", std::move(fields));
    journal.emit(2400, "window", {});

    EXPECT_EQ(journal.size(), 2u);
    EXPECT_EQ(journal.emitted(), 2u);
    EXPECT_EQ(journal.droppedEvents(), 0u);
    EXPECT_EQ(journal.jsonl(),
              "{\"code\":\"queueFull\",\"cycle\":1200,\"seq\":0,"
              "\"tenant\":\"t0\",\"type\":\"reject\"}\n"
              "{\"cycle\":2400,\"seq\":1,\"type\":\"window\"}\n");
}

TEST(Journal, RingDropsOldestAndKeepsSeq)
{
    EventJournal journal(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        json::Object fields;
        fields["index"] = json::Value(i);
        journal.emit(i * 100, "window", std::move(fields));
    }
    EXPECT_EQ(journal.size(), 4u);
    EXPECT_EQ(journal.emitted(), 10u);
    EXPECT_EQ(journal.droppedEvents(), 6u);
    EXPECT_EQ(journal.oldestSeq(), 6u);
    // The surviving lines are the newest four, in emission order.
    EXPECT_EQ(journal.jsonl().find("\"seq\":6,"), 23u);
    EXPECT_EQ(journal.jsonlSince(9),
              "{\"cycle\":900,\"index\":9,\"seq\":9,"
              "\"type\":\"window\"}\n");
    EXPECT_TRUE(journal.jsonlSince(10).empty());
}

// --- metric families ---------------------------------------------------

namespace
{

std::vector<MetricFamily>
sampleFamilies()
{
    std::vector<MetricFamily> families;
    MetricFamily jobs;
    jobs.name = "menda_jobs_total";
    jobs.help = "Jobs by state";
    jobs.type = MetricFamily::Type::Counter;
    addSample(jobs, 41, {{"state", "completed"}});
    addSample(jobs, 1, {{"state", "failed"}});
    families.push_back(std::move(jobs));
    MetricFamily wait;
    wait.name = "menda_queue_wait_cycles";
    wait.type = MetricFamily::Type::Gauge;
    addSample(wait, 1536.5,
              {{"tenant", "t\"quoted\""}, {"quantile", "0.99"}});
    families.push_back(std::move(wait));
    return families;
}

} // namespace

TEST(Metrics, RendersPrometheusTextExposition)
{
    EXPECT_EQ(renderPrometheus(sampleFamilies()),
              "# HELP menda_jobs_total Jobs by state\n"
              "# TYPE menda_jobs_total counter\n"
              "menda_jobs_total{state=\"completed\"} 41\n"
              "menda_jobs_total{state=\"failed\"} 1\n"
              "# TYPE menda_queue_wait_cycles gauge\n"
              "menda_queue_wait_cycles{quantile=\"0.99\","
              "tenant=\"t\\\"quoted\\\"\"} 1536.5\n");
}

TEST(Metrics, JsonRoundTripIsLossless)
{
    const std::vector<MetricFamily> families = sampleFamilies();
    const json::Value encoded = metricsToJson(families);
    const std::vector<MetricFamily> back = metricsFromJson(encoded);
    ASSERT_EQ(back.size(), families.size());
    EXPECT_EQ(metricsToJson(back).serialize(), encoded.serialize());
    EXPECT_EQ(renderPrometheus(back), renderPrometheus(families));
    EXPECT_THROW(metricsFromJson(json::parse("[{\"bogus\":1}]")),
                 std::runtime_error);
}
