/**
 * @file
 * menda_serve robustness and behavior tests (DESIGN.md §13).
 *
 * Covers the wire framing (truncated and oversized frames, malformed
 * JSON), admission control (queue-full and per-tenant rejection with
 * typed error codes), the residency cache (hits are bitwise-identical,
 * evictions keep results correct), scheduler policy (fair preemption vs
 * FIFO head-of-line blocking on the virtual clock), mid-job client
 * disconnects, and determinism of the served latency metrics. Socket
 * tests drive a real SocketServer on a Unix socket from a second
 * thread; everything else exercises ServeCore in-process.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "baselines/spgemm_cpu.hh"
#include "common/random.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "serve/protocol.hh"
#include "serve/serve_core.hh"
#include "serve/socket_server.hh"
#include "sparse/format.hh"
#include "sparse/generate.hh"

namespace
{

using namespace menda;
namespace json = obs::json;
using serve::FrameReader;
using serve::ServeConfig;
using serve::ServeCore;

/** A small machine: @p ranks ranks on one DIMM, detailed fidelity. */
ServeConfig
smallConfig(unsigned ranks)
{
    ServeConfig config;
    config.system.channels = 1;
    config.system.dimmsPerChannel = 1;
    config.system.ranksPerDimm = ranks;
    config.system.hostThreads = 1;
    config.system.progressEveryCycles = 0;
    config.ranksPerJob = 1;
    config.sliceCycles = 2'000;
    return config;
}

json::Value
submitRequest(const std::string &kernel, const sparse::CsrMatrix &a,
              const std::string &tenant = "t0", unsigned pus = 1)
{
    json::Object o;
    o["schema"] = json::Value(serve::kSchema);
    o["type"] = json::Value("submit");
    o["tenant"] = json::Value(tenant);
    o["kernel"] = json::Value(kernel);
    o["pus"] = json::Value(std::uint64_t(pus));
    o["a"] = serve::csrToJson(a);
    if (kernel == "spmv") {
        std::vector<Value> x(a.cols);
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<Value>((i % 13) + 1) / 4.0f;
        o["x"] = serve::valueVectorToJson(x);
    }
    if (kernel == "spgemm")
        o["b"] = serve::csrToJson(
            sparse::generateUniform(a.cols, a.rows, a.nnz() / 2, 99));
    return json::Value(std::move(o));
}

/** Copy @p request with @p key set to @p value (Value is immutable). */
json::Value
withField(const json::Value &request, const std::string &key,
          json::Value value)
{
    json::Object o = request.asObject();
    o[key] = std::move(value);
    return json::Value(std::move(o));
}

json::Value
statusRequest(std::uint64_t id)
{
    json::Object o;
    o["type"] = json::Value("status");
    o["id"] = json::Value(id);
    return json::Value(std::move(o));
}

std::string
errorCode(const json::Value &response)
{
    std::string code;
    EXPECT_TRUE(serve::isError(response, &code));
    return code;
}

std::uint64_t
submittedId(const json::Value &response)
{
    EXPECT_EQ(response.at("type").asString(), "submitted")
        << response.serialize();
    return static_cast<std::uint64_t>(response.at("id").asNumber());
}

// --- framing -----------------------------------------------------------

TEST(FrameReader, TwoFramesInOneFeed)
{
    const std::string wire =
        serve::encodeFrame("alpha") + serve::encodeFrame("beta");
    FrameReader reader;
    reader.feed(wire.data(), wire.size());

    std::string payload, error;
    ASSERT_EQ(reader.next(&payload, &error), FrameReader::Status::Frame);
    EXPECT_EQ(payload, "alpha");
    ASSERT_EQ(reader.next(&payload, &error), FrameReader::Status::Frame);
    EXPECT_EQ(payload, "beta");
    EXPECT_EQ(reader.next(&payload, &error),
              FrameReader::Status::NeedMore);
    EXPECT_EQ(reader.pendingBytes(), 0u);
}

TEST(FrameReader, TruncatedFrameNeedsMore)
{
    const std::string wire = serve::encodeFrame("payload-body");
    FrameReader reader;
    // Header claims 12 bytes; only half the frame has arrived.
    reader.feed(wire.data(), 6);

    std::string payload, error;
    EXPECT_EQ(reader.next(&payload, &error),
              FrameReader::Status::NeedMore);
    EXPECT_GT(reader.pendingBytes(), 0u);

    reader.feed(wire.data() + 6, wire.size() - 6);
    ASSERT_EQ(reader.next(&payload, &error), FrameReader::Status::Frame);
    EXPECT_EQ(payload, "payload-body");
}

TEST(FrameReader, OversizedFramePoisonsStream)
{
    FrameReader reader(16);
    const std::string wire = serve::encodeFrame(std::string(64, 'x'));
    reader.feed(wire.data(), wire.size());

    std::string payload, error;
    EXPECT_EQ(reader.next(&payload, &error), FrameReader::Status::Error);
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(reader.badFrameLength(), 64u);
    EXPECT_EQ(reader.maxFrameBytes(), 16u);

    // Sticky: even a well-formed follow-up frame must not decode.
    const std::string ok = serve::encodeFrame("ok");
    reader.feed(ok.data(), ok.size());
    EXPECT_EQ(reader.next(&payload, &error), FrameReader::Status::Error);
}

/** Floats the codecs must carry bit-exactly through text. */
const std::vector<Value> kEdgeValues = {
    -0.0f, 1e-40f /* subnormal */, FLT_MAX, 1e-45f, -FLT_MAX, 0.1f, -1.5f,
};

/** Bitwise equality: tells -0 from 0 and compares every payload bit. */
template <typename T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                    std::uint64_t>;
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](T x, T y) {
                          return std::bit_cast<Bits>(x) ==
                                 std::bit_cast<Bits>(y);
                      });
}

/** @p encoded through its wire text and back. */
json::Value
throughText(const json::Value &encoded)
{
    return json::parse(encoded.serialize());
}

TEST(Protocol, CsrRoundTripIsExact)
{
    sparse::CsrMatrix a = sparse::generateUniform(17, 23, 91, 7);
    std::copy(kEdgeValues.begin(), kEdgeValues.end(), a.val.begin());
    const sparse::CsrMatrix back =
        serve::csrFromJson(throughText(serve::csrToJson(a)));
    EXPECT_TRUE(a == back);
    EXPECT_TRUE(sameBits(a.val, back.val));
}

TEST(Protocol, CscRoundTripIsExact)
{
    sparse::CsrMatrix a = sparse::generateUniform(23, 17, 91, 8);
    std::copy(kEdgeValues.begin(), kEdgeValues.end(), a.val.begin());
    const sparse::CscMatrix csc = sparse::transposeReference(a);
    const sparse::CscMatrix back =
        serve::cscFromJson(throughText(serve::cscToJson(csc)));
    EXPECT_TRUE(csc == back);
    EXPECT_TRUE(sameBits(csc.val, back.val));
}

TEST(Protocol, VectorRoundTripsAreExact)
{
    std::vector<Value> x = kEdgeValues;
    std::vector<double> y = {-0.0, 5e-324, DBL_MIN, DBL_MAX, -DBL_MAX,
                             0.1,  1.0 / 3.0, 1e15, 1e21};
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        x.push_back(rng.value());
        y.push_back(static_cast<double>(rng.value()) * rng.uniform());
    }
    for (const Value v : kEdgeValues)
        y.push_back(v);
    EXPECT_TRUE(sameBits(
        x, serve::valueVectorFromJson(
               throughText(serve::valueVectorToJson(x)))));
    EXPECT_TRUE(sameBits(
        y, serve::doubleVectorFromJson(
               throughText(serve::doubleVectorToJson(y)))));
}

// --- admission control -------------------------------------------------

TEST(Admission, MalformedRequestsGetTypedErrors)
{
    ServeCore core(smallConfig(2));

    EXPECT_EQ(errorCode(core.handle(json::parse("[1,2]"))), "badRequest");
    EXPECT_EQ(errorCode(core.handle(json::parse(
                  "{\"schema\":\"other/9\",\"type\":\"stats\"}"))),
              "badRequest");
    EXPECT_EQ(errorCode(core.handle(json::parse("{\"type\":\"nope\"}"))),
              "badRequest");
    EXPECT_EQ(errorCode(core.handle(json::parse(
                  "{\"type\":\"submit\",\"kernel\":\"lu\"}"))),
              "badRequest");
    EXPECT_EQ(errorCode(core.handle(statusRequest(404))), "unknownJob");

    // SpMV with a mis-sized x vector must bounce, not throw.
    std::vector<Value> shortX(3, 1.0f);
    const json::Value bad = withField(
        submitRequest("spmv", sparse::generateUniform(8, 8, 16, 1)),
        "x", serve::valueVectorToJson(shortX));
    EXPECT_EQ(errorCode(core.handle(bad)), "badRequest");

    // Integer fields must hold an integer in range: no truncation of a
    // fraction, no undefined cast of a huge or negative double.
    const json::Value transpose =
        submitRequest("transpose", sparse::generateUniform(8, 8, 16, 1));
    for (const double pus : {0.0, 2.5, -1.0, 1e30})
        EXPECT_EQ(errorCode(core.handle(
                      withField(transpose, "pus", json::Value(pus)))),
                  "badRequest")
            << "pus " << pus;
    for (const char *id : {"-1", "1.5", "1e300", "\"7\""})
        EXPECT_EQ(errorCode(core.handle(json::parse(
                      std::string("{\"type\":\"status\",\"id\":") + id +
                      "}"))),
                  "badRequest")
            << "id " << id;
    for (const char *seq : {"-1", "0.5", "1e300"})
        EXPECT_EQ(errorCode(core.handle(json::parse(
                      std::string("{\"type\":\"stats.stream\","
                                  "\"afterSeq\":") +
                      seq + "}"))),
                  "badRequest")
            << "afterSeq " << seq;

    // Matrices must be canonical CSR: a row's columns out of order (this
    // probe once came back as a wrong CSC marked done), a duplicate
    // column, or an index that is not a 32-bit unsigned integer.
    const auto submitCsr = [&](const char *ptr, const char *idx,
                               const char *val) {
        return core.handle(json::parse(
            std::string("{\"type\":\"submit\",\"kernel\":\"transpose\","
                        "\"a\":{\"rows\":2,\"cols\":4,\"ptr\":") +
            ptr + ",\"idx\":" + idx + ",\"val\":" + val + "}}"));
    };
    const json::Value unsorted = submitCsr("[0,2,3]", "[3,1,2]", "[1,2,3]");
    EXPECT_EQ(errorCode(unsorted), "badRequest") << "unsorted row";
    EXPECT_NE(unsorted.at("message").asString().find("line 0 at offset 1"),
              std::string::npos)
        << unsorted.serialize();
    EXPECT_EQ(errorCode(submitCsr("[0,2,3]", "[1,1,2]", "[1,2,3]")),
              "badRequest")
        << "duplicate index";
    EXPECT_EQ(errorCode(submitCsr("[0,2,3]", "[-1,1,2]", "[1,2,3]")),
              "badRequest")
        << "negative index";
    EXPECT_EQ(errorCode(submitCsr("[0,1.5,3]", "[1,3,2]", "[1,2,3]")),
              "badRequest")
        << "fractional ptr";
    EXPECT_EQ(errorCode(submitCsr("[0,2,3]", "[1,4294967296,2]",
                                  "[1,2,3]")),
              "badRequest")
        << "index above UINT32_MAX";

    // A value beyond the float range has no float to narrow to (the
    // reply would print the resulting inf as 0): rejected, naming the
    // array and the offset. FLT_MAX itself round-trips (Protocol.*).
    const json::Value hugeVal = submitCsr("[0,2,3]", "[1,3,2]", "[1,1e39,3]");
    EXPECT_EQ(errorCode(hugeVal), "badRequest") << "val beyond FLT_MAX";
    EXPECT_NE(hugeVal.at("message").asString().find("val entry at offset 1"),
              std::string::npos)
        << hugeVal.serialize();
    const json::Value hugeX = core.handle(withField(
        submitRequest("spmv", sparse::generateUniform(8, 8, 16, 1)), "x",
        json::parse("[1,1,-1e39,1,1,1,1,1]")));
    EXPECT_EQ(errorCode(hugeX), "badRequest") << "x beyond -FLT_MAX";
    EXPECT_NE(hugeX.at("message").asString().find("x entry at offset 2"),
              std::string::npos)
        << hugeX.serialize();

    EXPECT_TRUE(core.idle()); // nothing was admitted
}

TEST(Admission, QueueFullRejectsWithReason)
{
    ServeConfig config = smallConfig(1);
    config.queueDepth = 2;
    config.tenantInFlight = 100;
    ServeCore core(config);

    const sparse::CsrMatrix a = sparse::generateUniform(12, 12, 40, 3);
    submittedId(core.handle(submitRequest("transpose", a, "t0")));
    submittedId(core.handle(submitRequest("transpose", a, "t1")));
    const json::Value third =
        core.handle(submitRequest("transpose", a, "t2"));
    EXPECT_EQ(errorCode(third), "queueFull");

    const json::Value stats = core.handle(json::parse(
        "{\"type\":\"stats\"}"));
    EXPECT_EQ(stats.at("jobs").at("rejected").asNumber(), 1.0);
    core.runUntilIdle();
}

TEST(Admission, TenantCapIsPerTenant)
{
    ServeConfig config = smallConfig(1);
    config.tenantInFlight = 2;
    ServeCore core(config);

    const sparse::CsrMatrix a = sparse::generateUniform(12, 12, 40, 3);
    submittedId(core.handle(submitRequest("transpose", a, "hog")));
    submittedId(core.handle(submitRequest("transpose", a, "hog")));
    EXPECT_EQ(errorCode(core.handle(submitRequest("transpose", a, "hog"))),
              "tenantBusy");
    // Another tenant is unaffected by the hog's cap.
    submittedId(core.handle(submitRequest("transpose", a, "polite")));
    core.runUntilIdle();
}

// --- residency cache ---------------------------------------------------

TEST(Cache, RepeatHitIsBitwiseIdentical)
{
    ServeCore core(smallConfig(2));
    const sparse::CsrMatrix a = sparse::generateUniform(24, 20, 120, 11);

    const json::Value first = core.handle(submitRequest("transpose", a));
    const std::uint64_t id1 = submittedId(first);
    EXPECT_FALSE(first.at("cacheHit").asBool());
    core.runUntilIdle();

    const json::Value second = core.handle(submitRequest("transpose", a));
    const std::uint64_t id2 = submittedId(second);
    EXPECT_TRUE(second.at("cacheHit").asBool());
    core.runUntilIdle();

    const json::Value r1 = core.jobResponse(id1);
    const json::Value r2 = core.jobResponse(id2);
    EXPECT_EQ(r1.at("state").asString(), "done");
    EXPECT_EQ(r1.at("csc").serialize(), r2.at("csc").serialize());

    EXPECT_EQ(core.cacheStats().hits, 1u);
    EXPECT_EQ(core.cacheStats().misses, 1u);

    // And the output is the true transpose.
    const sparse::CscMatrix got = serve::cscFromJson(r1.at("csc"));
    EXPECT_TRUE(got == sparse::transposeReference(a));
}

TEST(Cache, TinyBudgetEvictsButStaysCorrect)
{
    ServeConfig config = smallConfig(2);
    config.cacheBudgetBytes = 1; // nothing fits; every plan evicts
    ServeCore core(config);

    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const sparse::CsrMatrix a =
            sparse::generateUniform(16, 16, 64, 100 + seed);
        const std::uint64_t id =
            submittedId(core.handle(submitRequest("transpose", a)));
        core.runUntilIdle();
        const json::Value r = core.jobResponse(id);
        ASSERT_EQ(r.at("state").asString(), "done");
        EXPECT_TRUE(serve::cscFromJson(r.at("csc")) ==
                    sparse::transposeReference(a));
    }
    EXPECT_GE(core.cacheStats().evictions, 3u);
    EXPECT_EQ(core.cacheStats().hits, 0u);
}

// --- kernels end to end ------------------------------------------------

TEST(Jobs, AllKernelsMatchCpuReferences)
{
    ServeCore core(smallConfig(2));
    const sparse::CsrMatrix a = sparse::generateUniform(20, 16, 100, 21);

    const std::uint64_t tid =
        submittedId(core.handle(submitRequest("transpose", a)));
    const json::Value spmvReq = submitRequest("spmv", a);
    const std::uint64_t sid = submittedId(core.handle(spmvReq));
    const json::Value spgemmReq = submitRequest("spgemm", a);
    const std::uint64_t gid = submittedId(core.handle(spgemmReq));
    core.runUntilIdle();

    const json::Value tr = core.jobResponse(tid);
    ASSERT_EQ(tr.at("state").asString(), "done");
    EXPECT_TRUE(serve::cscFromJson(tr.at("csc")) ==
                sparse::transposeReference(a));

    const json::Value sr = core.jobResponse(sid);
    ASSERT_EQ(sr.at("state").asString(), "done");
    const std::vector<double> y =
        serve::doubleVectorFromJson(sr.at("y"));
    const std::vector<double> want = sparse::spmvReference(
        a, serve::valueVectorFromJson(spmvReq.at("x")));
    ASSERT_EQ(y.size(), want.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], want[i], 1e-3 * (std::abs(want[i]) + 1.0));

    const json::Value gr = core.jobResponse(gid);
    ASSERT_EQ(gr.at("state").asString(), "done");
    EXPECT_TRUE(serve::csrFromJson(gr.at("c")) ==
                baselines::spgemmHeapMerge(
                    a, serve::csrFromJson(spgemmReq.at("b"))));
}

TEST(Jobs, FastTiersHoldRanksForTheirEstimatedCycles)
{
    // A functional or sampled job occupies its rank for the slices that
    // cover its estimated puCycles, at least one; a detailed job queued
    // behind it on a one-rank fifo machine waits exactly that long.
    const sparse::CsrMatrix a = sparse::generateUniform(64, 48, 1500, 23);
    for (const std::string mode : {"functional", "sampled"}) {
        for (const std::string kernel : {"transpose", "spmv"}) {
            SCOPED_TRACE(mode + " " + kernel);
            ServeConfig config = smallConfig(1);
            config.policy = serve::SchedPolicy::Fifo;
            ServeCore core(config);
            const json::Value request = withField(
                submitRequest(kernel, a, "fast"), "simMode",
                json::Value(mode));
            const std::uint64_t fastId = submittedId(core.handle(request));
            const std::uint64_t nextId = submittedId(
                core.handle(submitRequest("transpose", a, "next")));
            core.runUntilIdle();

            const json::Value r = core.jobResponse(fastId);
            ASSERT_EQ(r.at("state").asString(), "done");
            if (kernel == "transpose") {
                EXPECT_TRUE(serve::cscFromJson(r.at("csc")) ==
                            sparse::transposeReference(a));
            } else {
                const std::vector<double> y =
                    serve::doubleVectorFromJson(r.at("y"));
                const std::vector<double> want = sparse::spmvReference(
                    a, serve::valueVectorFromJson(request.at("x")));
                ASSERT_EQ(y.size(), want.size());
                for (std::size_t i = 0; i < y.size(); ++i)
                    EXPECT_NEAR(y[i], want[i],
                                1e-3 * (std::abs(want[i]) + 1.0));
            }

            const Cycle slice = config.sliceCycles;
            const auto pu_cycles = static_cast<Cycle>(
                r.at("report").at("metrics").at("puCycles").asNumber());
            EXPECT_GT(pu_cycles, slice); // spans several slices
            const Cycle held =
                std::max<Cycle>(1, (pu_cycles + slice - 1) / slice) *
                slice;
            EXPECT_EQ(r.at("totalCycles").asNumber() -
                          r.at("queueWaitCycles").asNumber(),
                      static_cast<double>(held));

            const json::Value next = core.jobResponse(nextId);
            ASSERT_EQ(next.at("state").asString(), "done");
            EXPECT_EQ(next.at("queueWaitCycles").asNumber(),
                      static_cast<double>(held));
        }
    }
}

TEST(Jobs, NonFiniteOutputFailsTheJob)
{
    // SpGEMM multiplies in float, so finite inputs can overflow: 1e30 *
    // 1e30 is inf, which the wire cannot carry (it would print 0). The
    // job ends failed, naming the offset, and answers no output.
    ServeCore core(smallConfig(1));
    const std::string m =
        "{\"rows\":1,\"cols\":1,\"ptr\":[0,1],\"idx\":[0],\"val\":[1e30]}";
    const std::uint64_t id = submittedId(core.handle(json::parse(
        "{\"type\":\"submit\",\"kernel\":\"spgemm\",\"a\":" + m +
        ",\"b\":" + m + "}")));
    core.runUntilIdle();

    const json::Value r = core.jobResponse(id);
    EXPECT_EQ(r.at("state").asString(), "failed");
    EXPECT_FALSE(r.has("c"));
    EXPECT_FALSE(r.has("report"));
    EXPECT_NE(r.at("error").asString().find("c.val"), std::string::npos)
        << r.serialize();
    EXPECT_NE(r.at("error").asString().find("offset 0"), std::string::npos)
        << r.serialize();
    const json::Value stats = core.handle(json::parse("{\"type\":\"stats\"}"));
    EXPECT_EQ(stats.at("jobs").at("failed").asNumber(), 1.0);
    EXPECT_EQ(stats.at("jobs").at("completed").asNumber(), 0.0);
}

// --- scheduling --------------------------------------------------------

/** Submit one long then one short job; return (long, short) total
 *  latency in virtual cycles under @p policy. */
std::pair<Cycle, Cycle>
longShortLatencies(serve::SchedPolicy policy)
{
    ServeConfig config = smallConfig(1);
    config.policy = policy;
    ServeCore core(config);

    const sparse::CsrMatrix big = sparse::generateUniform(64, 64, 2048, 5);
    const sparse::CsrMatrix small = sparse::generateUniform(8, 8, 16, 6);
    const std::uint64_t longId =
        submittedId(core.handle(submitRequest("transpose", big, "a")));
    const std::uint64_t shortId =
        submittedId(core.handle(submitRequest("transpose", small, "b")));
    core.runUntilIdle();

    const auto total = [&](std::uint64_t id) {
        const json::Value r = core.jobResponse(id);
        EXPECT_EQ(r.at("state").asString(), "done");
        return static_cast<Cycle>(r.at("totalCycles").asNumber());
    };
    return {total(longId), total(shortId)};
}

TEST(Scheduler, FairPreemptsFifoBlocks)
{
    const auto [fairLong, fairShort] =
        longShortLatencies(serve::SchedPolicy::Fair);
    const auto [fifoLong, fifoShort] =
        longShortLatencies(serve::SchedPolicy::Fifo);

    // FIFO: the short job sits behind the long one, so its total
    // latency exceeds the long job's service time. Fair: the short job
    // interleaves and finishes well before the long job.
    EXPECT_GE(fifoShort, fifoLong);
    EXPECT_LT(fairShort, fairLong);
    EXPECT_LT(fairShort, fifoShort);
}

TEST(Scheduler, VirtualLatenciesAreDeterministic)
{
    const auto run = [] {
        ServeConfig config = smallConfig(2);
        ServeCore core(config);
        const sparse::CsrMatrix a =
            sparse::generateUniform(24, 24, 160, 77);
        for (int i = 0; i < 4; ++i)
            core.handle(submitRequest(
                i % 2 ? "spmv" : "transpose", a, i % 2 ? "t1" : "t0"));
        core.runUntilIdle();
        return core.statsJson().serialize();
    };
    EXPECT_EQ(run(), run());
}

// --- observability -----------------------------------------------------

/** One run's observability artifacts, for byte-level comparison. */
struct ObsArtifacts
{
    std::string journal;
    std::string trace;
    std::string prometheus;
    std::string stats;
};

/**
 * A deterministic mixed workload that touches every journal event
 * type: a tenant-cap rejection, cache evictions under a tiny budget, a
 * mid-flight cancellation, and several SLO-window rollovers.
 */
ObsArtifacts
observedWorkload(serve::SchedPolicy policy, unsigned host_threads,
                 bool observability = true)
{
    ServeConfig config = smallConfig(2);
    config.system.hostThreads = host_threads;
    config.policy = policy;
    config.tenantInFlight = 2;
    config.windowCycles = 4'000; // two slices: several rollovers
    config.cacheBudgetBytes = 1 << 12; // tiny: every plan evicts
    config.observability = observability;
    ServeCore core(config);

    const sparse::CsrMatrix small =
        sparse::generateUniform(24, 24, 160, 5);
    const sparse::CsrMatrix big =
        sparse::generateUniform(64, 64, 2048, 6);

    submittedId(core.handle(submitRequest("transpose", big, "t0")));
    submittedId(core.handle(submitRequest("spmv", small, "t0")));
    // Third in-flight job for t0 trips the tenant cap -> "reject".
    EXPECT_EQ(errorCode(core.handle(submitRequest("transpose", small,
                                                  "t0"))),
              "tenantBusy");
    submittedId(core.handle(submitRequest("transpose", small, "t1")));
    // Owner 5's job is cancelled mid-flight -> "cancel".
    submittedId(
        core.handle(submitRequest("spgemm", small, "t1"), /*owner=*/5));
    core.pump();
    core.cancelOwner(5);
    core.runUntilIdle();

    ObsArtifacts artifacts;
    artifacts.journal = core.journalJsonl();
    artifacts.trace = core.jobTraceJson();
    artifacts.prometheus = core.prometheusText();
    artifacts.stats = core.statsJson().serialize();
    return artifacts;
}

TEST(Observability, ArtifactsAreByteIdenticalAcrossThreadsAndReruns)
{
    for (const auto policy :
         {serve::SchedPolicy::Fair, serve::SchedPolicy::Fifo}) {
        const ObsArtifacts one = observedWorkload(policy, 1);
        const ObsArtifacts rerun = observedWorkload(policy, 1);
        const ObsArtifacts threaded = observedWorkload(policy, 4);

        // The workload must actually exercise the journal...
        EXPECT_NE(one.journal.find("\"type\":\"reject\""),
                  std::string::npos);
        EXPECT_NE(one.journal.find("\"type\":\"evict\""),
                  std::string::npos);
        EXPECT_NE(one.journal.find("\"type\":\"cancel\""),
                  std::string::npos);
        EXPECT_NE(one.journal.find("\"type\":\"window\""),
                  std::string::npos);
        EXPECT_FALSE(one.trace.empty());

        // ...and every artifact must be byte-stable across re-runs and
        // host thread counts (all timestamps are virtual cycles).
        EXPECT_EQ(one.journal, rerun.journal);
        EXPECT_EQ(one.trace, rerun.trace);
        EXPECT_EQ(one.prometheus, rerun.prometheus);
        EXPECT_EQ(one.stats, rerun.stats);
        EXPECT_EQ(one.journal, threaded.journal);
        EXPECT_EQ(one.trace, threaded.trace);
        EXPECT_EQ(one.prometheus, threaded.prometheus);
        EXPECT_EQ(one.stats, threaded.stats);
    }
}

TEST(Observability, DisablingItNeverChangesTheSchedule)
{
    for (const auto policy :
         {serve::SchedPolicy::Fair, serve::SchedPolicy::Fifo}) {
        const ObsArtifacts on = observedWorkload(policy, 1, true);
        const ObsArtifacts off = observedWorkload(policy, 1, false);
        EXPECT_EQ(on.stats, off.stats);
        EXPECT_TRUE(off.journal.empty());
        EXPECT_TRUE(off.trace.empty());
    }
}

TEST(Observability, MetricsVerbExposesRollingPercentiles)
{
    ServeConfig config = smallConfig(2);
    config.windowCycles = 10'000;
    ServeCore core(config);
    const sparse::CsrMatrix a = sparse::generateUniform(24, 24, 160, 7);
    for (int i = 0; i < 4; ++i)
        core.handle(submitRequest("transpose", a, "t0"));
    core.runUntilIdle();

    const json::Value r =
        core.handle(json::parse("{\"type\":\"metrics\"}"));
    ASSERT_EQ(r.at("type").asString(), "metrics");
    const std::vector<obs::MetricFamily> families =
        obs::metricsFromJson(r.at("families"));

    bool sawQuantile = false;
    for (const obs::MetricFamily &family : families) {
        if (family.name != "menda_serve_queue_wait_cycles")
            continue;
        for (const obs::MetricSample &s : family.samples) {
            EXPECT_EQ(s.labels.at("tenant"), "t0");
            if (s.labels.at("quantile") == "0.99")
                sawQuantile = true;
        }
    }
    EXPECT_TRUE(sawQuantile);

    // format=prometheus returns the rendered text instead.
    const json::Value p = core.handle(json::parse(
        "{\"type\":\"metrics\",\"format\":\"prometheus\"}"));
    EXPECT_NE(p.at("text").asString().find(
                  "menda_serve_queue_wait_cycles{"),
              std::string::npos);
    EXPECT_EQ(p.at("text").asString(), core.prometheusText());
}

TEST(Observability, StatsStreamDrainsIncrementally)
{
    ServeConfig config = smallConfig(1);
    config.tenantInFlight = 1;
    ServeCore core(config);
    const sparse::CsrMatrix a = sparse::generateUniform(16, 16, 64, 3);

    submittedId(core.handle(submitRequest("transpose", a, "t0")));
    EXPECT_EQ(errorCode(core.handle(submitRequest("transpose", a,
                                                  "t0"))),
              "tenantBusy");

    const json::Value first = core.handle(
        json::parse("{\"type\":\"stats.stream\",\"afterSeq\":0}"));
    ASSERT_EQ(first.at("type").asString(), "journal");
    EXPECT_EQ(first.at("dropped").asNumber(), 0.0);
    const std::uint64_t next = static_cast<std::uint64_t>(
        first.at("nextSeq").asNumber());
    EXPECT_GE(next, 1u);
    EXPECT_NE(first.at("jsonl").asString().find("\"type\":\"reject\""),
              std::string::npos);

    // A drain from the cursor returns nothing new...
    json::Object q;
    q["type"] = json::Value("stats.stream");
    q["afterSeq"] = json::Value(next);
    const json::Value empty = core.handle(json::Value(q));
    EXPECT_TRUE(empty.at("jsonl").asString().empty());

    // ...until another event lands; then only the new event comes back.
    EXPECT_EQ(errorCode(core.handle(submitRequest("transpose", a,
                                                  "t0"))),
              "tenantBusy");
    const json::Value delta = core.handle(json::Value(std::move(q)));
    const std::string &jsonl = delta.at("jsonl").asString();
    EXPECT_NE(jsonl.find("\"seq\":" + std::to_string(next)),
              std::string::npos);
    EXPECT_EQ(jsonl.find("\"seq\":0,"), std::string::npos);
}

// --- cancellation ------------------------------------------------------

TEST(Cancel, OwnerDisconnectCancelsOnlyTheirJobs)
{
    ServeConfig config = smallConfig(2);
    config.sliceCycles = 100; // keep the jobs mid-flight across pumps
    ServeCore core(config);
    const sparse::CsrMatrix a = sparse::generateUniform(32, 32, 512, 9);

    const std::uint64_t mine =
        submittedId(core.handle(submitRequest("transpose", a, "t0"), 7));
    const std::uint64_t theirs =
        submittedId(core.handle(submitRequest("transpose", a, "t1"), 8));
    core.pump(); // both mid-flight

    core.cancelOwner(7);
    const json::Value r = core.jobResponse(mine);
    EXPECT_EQ(r.at("state").asString(), "cancelled");
    EXPECT_NE(r.at("error").asString().find("disconnected"),
              std::string::npos);

    core.runUntilIdle();
    EXPECT_EQ(core.jobResponse(theirs).at("state").asString(), "done");
}

// --- socket transport --------------------------------------------------

/** A SocketServer on a Unix socket in the CWD, served from a thread. */
class ServerFixture
{
  public:
    explicit ServerFixture(ServeConfig config = smallConfig(2),
                           std::uint32_t max_frame =
                               serve::kDefaultMaxFrameBytes)
        : core_(config)
    {
        path_ = "menda_serve_test_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter_++) + ".sock";
        serve::ServerOptions options;
        options.unixPath = path_;
        options.maxFrameBytes = max_frame;
        server_ = std::make_unique<serve::SocketServer>(core_, options);
        thread_ = std::thread([this] { server_->run(); });
    }

    ~ServerFixture()
    {
        if (thread_.joinable()) {
            shutdown();
            thread_.join();
        }
        std::remove(path_.c_str());
    }

    serve::Client connect() { return serve::Client::connectUnix(path_); }

    void
    shutdown()
    {
        try {
            serve::Client client = connect();
            client.call(json::parse("{\"type\":\"shutdown\"}"));
        } catch (const std::exception &) {
            // Server already stopping; run() still exits on its own.
        }
    }

  private:
    static int counter_;
    ServeCore core_;
    std::string path_;
    std::unique_ptr<serve::SocketServer> server_;
    std::thread thread_;
};

int ServerFixture::counter_ = 0;

TEST(Socket, WaitSubmitReturnsFinishedJob)
{
    ServerFixture fixture;
    serve::Client client = fixture.connect();

    const sparse::CsrMatrix a = sparse::generateUniform(16, 12, 60, 31);
    const json::Value request = withField(
        submitRequest("transpose", a), "wait", json::Value(true));
    const json::Value response = client.call(request);
    ASSERT_EQ(response.at("type").asString(), "jobStatus")
        << response.serialize();
    EXPECT_EQ(response.at("state").asString(), "done");
    EXPECT_TRUE(serve::cscFromJson(response.at("csc")) ==
                sparse::transposeReference(a));

    const json::Value stats =
        client.call(json::parse("{\"type\":\"stats\"}"));
    EXPECT_EQ(stats.at("jobs").at("completed").asNumber(), 1.0);
}

TEST(Socket, TruncatedFrameThenDisconnectIsHarmless)
{
    ServerFixture fixture;
    {
        serve::Client rude = fixture.connect();
        // Header promises 1000 bytes; send 10 and vanish.
        std::string wire = serve::encodeFrame(std::string(1000, 'z'));
        rude.sendRaw(wire.substr(0, 14));
        rude.closeNow();
    }
    // The server must still serve a well-behaved client.
    serve::Client client = fixture.connect();
    const json::Value stats =
        client.call(json::parse("{\"type\":\"stats\"}"));
    EXPECT_EQ(stats.at("type").asString(), "stats");
}

TEST(Socket, OversizedFrameGetsTypedErrorThenClose)
{
    ServerFixture fixture(smallConfig(2), /*max_frame=*/256);
    serve::Client client = fixture.connect();

    client.sendRaw(serve::encodeFrame(std::string(4096, 'x')));
    const json::Value response = client.recv();
    std::string code;
    ASSERT_TRUE(serve::isError(response, &code));
    EXPECT_EQ(code, "badFrame");
    // The typed payload names the offending length so a client can log
    // which frame blew the limit without parsing the prose message.
    EXPECT_EQ(response.at("frameLength").asNumber(), 4096.0);
    EXPECT_EQ(response.at("maxFrameBytes").asNumber(), 256.0);
    // The poisoned connection is closed after the error drains.
    EXPECT_THROW(client.recv(), std::exception);

    serve::Client fresh = fixture.connect();
    EXPECT_EQ(fresh.call(json::parse("{\"type\":\"stats\"}"))
                  .at("type")
                  .asString(),
              "stats");
}

TEST(Socket, MalformedJsonKeepsConnectionUsable)
{
    ServerFixture fixture;
    serve::Client client = fixture.connect();

    client.sendRaw(serve::encodeFrame("{this is not json"));
    std::string code;
    ASSERT_TRUE(serve::isError(client.recv(), &code));
    EXPECT_EQ(code, "badJson");

    // Same connection, valid request: still served.
    EXPECT_EQ(client.call(json::parse("{\"type\":\"stats\"}"))
                  .at("type")
                  .asString(),
              "stats");
}

TEST(Socket, MidJobDisconnectCancelsJob)
{
    ServerFixture fixture;
    {
        serve::Client client = fixture.connect();
        const json::Value request = withField(
            submitRequest("spgemm",
                          sparse::generateUniform(48, 48, 1024, 41)),
            "wait", json::Value(true));
        client.send(request);
        client.closeNow(); // never reads the response
    }

    serve::Client observer = fixture.connect();
    double cancelled = 0;
    for (int attempt = 0; attempt < 200 && cancelled < 1; ++attempt) {
        const json::Value stats =
            observer.call(json::parse("{\"type\":\"stats\"}"));
        cancelled = stats.at("jobs").at("cancelled").asNumber();
    }
    EXPECT_EQ(cancelled, 1.0);
}

} // namespace
