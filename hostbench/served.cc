/**
 * @file
 * The served workload: an in-process menda_serve daemon (ServeCore +
 * SocketServer on a Unix socket, one poll thread as shipped) and a
 * closed loop of three client connections, each waiting for its reply
 * before sending the next request.
 *
 *  - tenant etl: functional-tier transposes of two P-series power-law
 *    matrices (24 k nnz each), alternating;
 *  - tenants svc0, svc1: detailed-tier SpMVs over a hot set of four
 *    small uniform matrices.
 *
 * The traced run cannot time the daemon's calls through the socket, so
 * it replays the same request rounds in-process through json::parse ->
 * ServeCore::handle -> pump -> jobResponse -> serialize, alternating
 * traced and untraced rounds with untraced socket rounds.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include <unistd.h>

#include "bench.hh"
#include "serve/protocol.hh"
#include "serve/serve_core.hh"
#include "serve/socket_server.hh"
#include "sparse/generate.hh"

namespace hostbench
{

namespace
{

namespace json = obs::json;

constexpr unsigned kEtlRanks = 2;
constexpr unsigned kSvcRanks = 1;

/**
 * peak_rss_mb is read when the etl client has this many replies:
 * ServeCore keeps every finished job's result, so the process keeps
 * growing with completed jobs, and a fixed amount of served work keeps
 * the figure comparable between runs of different host speed.
 */
constexpr std::size_t kRssAfterTransposes = 16;

/** One distinct request of the stream, with its golden output. */
struct Request
{
    Kernel kernel;
    std::string simMode;
    unsigned ranks = 1;
    Reference ref;
};

struct ServedSet
{
    std::vector<std::unique_ptr<sparse::CsrMatrix>> matrices;
    std::vector<Request> etl; ///< 2 transposes, alternated
    std::vector<Request> hot; ///< 4 SpMVs, the svc hot set
};

ServedSet
servedSet(std::uint64_t seed, SpanLog &log)
{
    ServedSet set;
    {
        SpanLog::Scope s(log, "sparse.generate");
        for (std::uint64_t i = 0; i < 2; ++i)
            set.matrices.push_back(std::make_unique<sparse::CsrMatrix>(
                sparse::generateRmat(8192, 24576, 0.1, 0.2, 0.3,
                                     subSeed(seed, 21 + i))));
        for (std::uint64_t i = 0; i < 4; ++i)
            set.matrices.push_back(std::make_unique<sparse::CsrMatrix>(
                sparse::generateUniform(1024, 1024, 8192,
                                        subSeed(seed, 31 + i))));
    }
    for (std::size_t i = 0; i < 2; ++i)
        set.etl.push_back({{"transpose:etl" + std::to_string(i),
                            core::KernelJob::Kind::Transpose,
                            set.matrices[i].get(), nullptr, {}},
                           "functional", kEtlRanks, {}});
    for (std::size_t i = 0; i < 4; ++i) {
        const sparse::CsrMatrix *a = set.matrices[2 + i].get();
        set.hot.push_back({{"spmv:hot" + std::to_string(i),
                            core::KernelJob::Kind::Spmv, a, nullptr,
                            inputVector(a->cols, seed + i)},
                           "detailed", kSvcRanks, {}});
    }
    SpanLog::Scope s(log, "baselines.verify");
    for (std::vector<Request> *group : {&set.etl, &set.hot})
        for (Request &r : *group)
            r.ref = reference(r.kernel);
    return set;
}

json::Value
encodeRequest(const Request &r, const std::string &tenant)
{
    json::Object o;
    o["schema"] = json::Value(serve::kSchema);
    o["type"] = json::Value("submit");
    o["tenant"] = json::Value(tenant);
    o["kernel"] = json::Value(r.kernel.kind ==
                                      core::KernelJob::Kind::Transpose
                                  ? "transpose"
                                  : "spmv");
    o["pus"] = json::Value(std::uint64_t(r.ranks));
    o["simMode"] = json::Value(r.simMode);
    o["wait"] = json::Value(true);
    o["a"] = serve::csrToJson(*r.kernel.a);
    if (r.kernel.kind == core::KernelJob::Kind::Spmv)
        o["x"] = serve::valueVectorToJson(r.kernel.x);
    return json::Value(std::move(o));
}

/** A reply decoded into the kernel's output type. */
struct Decoded
{
    std::string error; ///< typed error or non-done state
    KernelRun out;
    double puCycles = 0.0;
    double queueWait = 0.0;
};

Decoded
decodeReply(const Request &r, const json::Value &reply)
{
    Decoded d;
    std::string code, message;
    if (serve::isError(reply, &code, &message)) {
        d.error = "typed error " + code + ": " + message;
        return d;
    }
    if (reply.at("state").asString() != "done") {
        d.error = "job ended " + reply.at("state").asString();
        return d;
    }
    if (r.kernel.kind == core::KernelJob::Kind::Transpose)
        d.out.csc = serve::cscFromJson(reply.at("csc"));
    else
        d.out.y = serve::doubleVectorFromJson(reply.at("y"));
    d.puCycles = reply.at("report").at("metrics").at("puCycles").asNumber();
    d.queueWait = reply.at("queueWaitCycles").asNumber();
    return d;
}

std::string
checkDecoded(const Request &r, const Decoded &d)
{
    if (!d.error.empty())
        return d.error;
    return checkOutput(r.kernel, r.ref, d.out);
}

serve::ServeConfig
serveConfig()
{
    serve::ServeConfig config;
    config.system = defaultMachine();
    return config;
}

/** The daemon: ServeCore + SocketServer driven by one poll thread. */
class Daemon
{
  public:
    Daemon(const serve::ServeConfig &config, const std::string &path)
        : core_(config),
          server_(std::make_unique<serve::SocketServer>(core_,
                                                        options(path))),
          thread_([this] { loop(); })
    {}
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Stop and join the poll thread; returns its failure, if any. */
    std::string
    stop()
    {
        stop_ = true;
        if (thread_.joinable())
            thread_.join();
        return error_;
    }

  private:
    static serve::ServerOptions
    options(const std::string &path)
    {
        serve::ServerOptions o;
        o.unixPath = path;
        return o;
    }
    void
    loop()
    {
        try {
            while (!stop_)
                server_->iterate(core_.idle() ? 50 : 0);
        } catch (const std::exception &e) {
            error_ = e.what();
            server_.reset(); // close every connection: clients see EOF
        }
    }

    serve::ServeCore core_;
    std::unique_ptr<serve::SocketServer> server_;
    std::atomic<bool> stop_{false};
    std::string error_;
    std::thread thread_;
};

/** What one closed-loop client saw. */
struct ClientLog
{
    std::vector<double> ms;
    std::vector<std::int64_t> midNs; ///< when each reply's request ran
    std::uint64_t attempted = 0, nnz = 0;
    std::vector<std::string> failures;
    std::map<std::string, double> puCycles; ///< per distinct request
    double rssMb = 0.0; ///< peak RSS at kRssAfterTransposes replies
};

/**
 * Calibration samples taken at known times while the clients run, so
 * a host time can be corrected by the host speed at the moment it was
 * measured rather than by the run's median speed alone.
 */
struct SpeedTrack
{
    std::vector<std::int64_t> at; ///< sample midpoints, ascending
    std::vector<double> ms;

    void
    sample()
    {
        const std::int64_t t0 = nowNs();
        ms.push_back(calibrationMs());
        at.push_back(t0 + (nowNs() - t0) / 2);
    }
    /** Speed at @p t relative to the run: run median / nearest sample. */
    double
    local(std::int64_t t) const
    {
        std::size_t i = static_cast<std::size_t>(
            std::lower_bound(at.begin(), at.end(), t) - at.begin());
        if (i == at.size() || (i > 0 && t - at[i - 1] < at[i] - t))
            --i;
        return median(ms) / ms[i];
    }
    /** Seconds in [from, to], each instant weighted by local(). */
    double
    weightedSeconds(std::int64_t from, std::int64_t to) const
    {
        const double run = median(ms);
        double seconds = 0.0;
        for (std::size_t i = 0; i < at.size(); ++i) {
            const std::int64_t lo =
                std::max(from, i == 0 ? from : (at[i - 1] + at[i]) / 2);
            const std::int64_t hi = std::min(
                to, i + 1 == at.size() ? to : (at[i] + at[i + 1]) / 2);
            if (hi > lo)
                seconds += static_cast<double>(hi - lo) * 1e-9 * run /
                           ms[i];
        }
        return seconds;
    }
};

/** One closed-loop connection: send, wait for the decoded reply, repeat
 *  until the deadline (and at least once per distinct request). */
void
clientLoop(const std::string &path, const std::string &tenant,
           const std::vector<const Request *> &cycle,
           std::int64_t deadline, ClientLog &log)
{
    try {
        serve::Client client = serve::Client::connectUnix(path);
        for (std::size_t i = 0; i < cycle.size() || nowNs() < deadline;
             ++i) {
            const Request &r = *cycle[i % cycle.size()];
            ++log.attempted;
            const std::int64_t t0 = nowNs();
            client.sendRaw(serve::encodeFrame(
                encodeRequest(r, tenant).serialize()));
            const Decoded d = decodeReply(r, client.recv());
            const std::int64_t t1 = nowNs();
            const std::string why = checkDecoded(r, d);
            if (!why.empty()) {
                log.failures.push_back(r.kernel.name + ": " + why);
                continue;
            }
            log.ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
            log.midNs.push_back(t0 + (t1 - t0) / 2);
            log.nnz += r.kernel.a->nnz();
            log.puCycles[r.kernel.name] = d.puCycles;
            if (log.ms.size() == kRssAfterTransposes)
                log.rssMb = peakRssMb();
        }
    } catch (const std::exception &e) {
        log.failures.push_back(tenant + " client: " + e.what());
    }
}

/** The request rounds both the socket and the replay send: one etl
 *  transpose and one SpMV per svc tenant. */
std::vector<std::pair<std::string, const Request *>>
roundRequests(const ServedSet &set, std::size_t r)
{
    return {{"etl", &set.etl[r % 2]},
            {"svc0", &set.hot[(2 * r) % 4]},
            {"svc1", &set.hot[(2 * r + 1) % 4]}};
}

struct ReplayStats
{
    std::uint64_t submits = 0, hits = 0;
    double responseBytes = 0, nnz = 0;
    std::vector<double> queueWait;
};

/** One replay round in-process; returns its host seconds. */
double
replayRound(serve::ServeCore &core, const ServedSet &set, std::size_t r,
            SpanLog &log, Outcome &out, ReplayStats *stats)
{
    const std::int64_t t0 = nowNs();
    SpanLog::Scope roundSpan(log, "bench.round", r);
    std::map<std::uint64_t, const Request *> pending;
    for (const auto &[tenant, req] : roundRequests(set, r)) {
        ++out.attempted;
        std::string payload;
        {
            SpanLog::Scope s(log, "wire.encode");
            payload = encodeRequest(*req, tenant).serialize();
        }
        json::Value request;
        {
            SpanLog::Scope s(log, "wire.decode");
            request = json::parse(payload);
        }
        json::Value response;
        {
            SpanLog::Scope s(log, "serve.handle");
            response = core.handle(request, 1);
        }
        std::string code, message;
        if (serve::isError(response, &code, &message)) {
            out.fail(req->kernel.name + " replay: typed error " + code +
                     ": " + message);
            continue;
        }
        pending[static_cast<std::uint64_t>(
            response.at("id").asNumber())] = req;
        if (stats) {
            ++stats->submits;
            stats->hits += response.at("cacheHit").asBool();
            stats->nnz += static_cast<double>(req->kernel.a->nnz());
        }
    }
    while (!pending.empty() && !core.idle()) {
        {
            SpanLog::Scope s(log, "serve.pump");
            core.pump();
        }
        for (std::uint64_t id : core.drainFinished()) {
            const auto it = pending.find(id);
            if (it == pending.end())
                continue;
            const Request &req = *it->second;
            pending.erase(it);
            json::Value reply;
            {
                SpanLog::Scope s(log, "serve.respond");
                reply = core.jobResponse(id);
            }
            std::string bytes;
            {
                SpanLog::Scope s(log, "wire.encode");
                bytes = reply.serialize();
            }
            Decoded d;
            {
                SpanLog::Scope s(log, "wire.decode");
                d = decodeReply(req, json::parse(bytes));
            }
            SpanLog::Scope s(log, "baselines.verify");
            const std::string why = checkDecoded(req, d);
            if (!why.empty())
                out.fail(req.kernel.name + " replay: " + why);
            if (stats) {
                stats->responseBytes += static_cast<double>(bytes.size());
                stats->queueWait.push_back(d.queueWait);
            }
        }
    }
    for (const auto &[id, req] : pending)
        out.fail(req->kernel.name + " replay: job " + std::to_string(id) +
                 " never finished");
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** One socket round on a single connection: the round's requests one
 *  at a time, each waiting for its decoded reply. Returns host seconds. */
double
socketRound(serve::Client &client, const ServedSet &set, std::size_t r,
            Outcome &out)
{
    const std::int64_t t0 = nowNs();
    for (const auto &[tenant, req] : roundRequests(set, r)) {
        ++out.attempted;
        client.sendRaw(
            serve::encodeFrame(encodeRequest(*req, tenant).serialize()));
        const std::string why =
            checkDecoded(*req, decodeReply(*req, client.recv()));
        if (!why.empty())
            out.fail(req->kernel.name + " socket: " + why);
    }
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

void
requestBytes(const ServedSet &set, Outcome &out)
{
    double bytes = 0, nnz = 0;
    for (std::size_t r = 0; r < 2; ++r)
        for (const auto &[tenant, req] : roundRequests(set, r)) {
            bytes += static_cast<double>(
                encodeRequest(*req, tenant).serialize().size());
            nnz += static_cast<double>(req->kernel.a->nnz());
        }
    out.counter("wire.request_bytes_per_nnz", bytes / nnz,
                "base " + std::to_string(static_cast<std::uint64_t>(nnz)) +
                    " nnz over the 6 distinct requests");
}

} // namespace

Outcome
runServed(const Options &opts)
{
    Outcome out;
    SpanLog log;
    log.setRecording(opts.trace);
    const std::string path = opts.workDir + "/serve-" +
                             std::to_string(::getpid()) + ".sock";
    const serve::ServeConfig config = serveConfig();

    // Set-up: generation + references + daemon start, repeated so
    // setup_s is a median; the last daemon serves the loop.
    std::vector<double> setup, setupCalibration;
    ServedSet set;
    std::unique_ptr<Daemon> daemon;
    for (int rep = 0; opts.trace ? rep < 1 : moreSetup(setup); ++rep) {
        if (daemon) {
            const std::string err = daemon->stop();
            if (!err.empty())
                out.fail("daemon: " + err);
            daemon.reset();
        }
        setupCalibration.push_back(calibrationMs());
        const std::int64_t t0 = nowNs();
        SpanLog::Scope s(log, "bench.setup");
        set = servedSet(opts.seed, log);
        daemon = std::make_unique<Daemon>(config, path);
        setup.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    requestBytes(set, out);

    const std::int64_t start = nowNs();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(opts.seconds * 1e9);
    if (!opts.trace) {
        std::vector<const Request *> etl{&set.etl[0], &set.etl[1]};
        std::vector<const Request *> svc0, svc1;
        for (std::size_t i = 0; i < 4; ++i) {
            svc0.push_back(&set.hot[i]);
            svc1.push_back(&set.hot[(i + 2) % 4]);
        }
        ClientLog etlLog, svc0Log, svc1Log;
        SpeedTrack speed;
        {
            std::thread a(clientLoop, path, "etl", std::cref(etl),
                          deadline, std::ref(etlLog));
            std::thread b(clientLoop, path, "svc0", std::cref(svc0),
                          deadline, std::ref(svc0Log));
            std::thread c(clientLoop, path, "svc1", std::cref(svc1),
                          deadline, std::ref(svc1Log));
            // The main thread samples host speed while the clients run.
            while (nowNs() < deadline) {
                speed.sample();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(250));
            }
            a.join();
            b.join();
            c.join();
        }
        const std::int64_t end = nowNs();
        speed.sample();
        out.calibration.insert(out.calibration.end(), speed.ms.begin(),
                               speed.ms.end());
        // Host times relative to the run's median speed; main.cc then
        // applies the run-level scale.
        const double wall = speed.weightedSeconds(start, end);
        for (ClientLog *l : {&etlLog, &svc0Log, &svc1Log})
            for (std::size_t i = 0; i < l->ms.size(); ++i)
                l->ms[i] *= speed.local(l->midNs[i]);
        const std::string err = daemon->stop();
        if (!err.empty())
            out.fail("daemon: " + err);

        std::map<std::string, double> puCycles;
        std::uint64_t nnz = 0, completed = 0;
        for (ClientLog *l : {&etlLog, &svc0Log, &svc1Log}) {
            out.attempted += l->attempted;
            for (const std::string &f : l->failures)
                out.fail(f);
            nnz += l->nnz;
            completed += l->ms.size();
            puCycles.insert(l->puCycles.begin(), l->puCycles.end());
        }
        std::vector<double> spmv = svc0Log.ms;
        spmv.insert(spmv.end(), svc1Log.ms.begin(), svc1Log.ms.end());
        double cycles = 0.0;
        for (const auto &[name, c] : puCycles)
            cycles += c;
        out.counter("sim_pu_cycles", cycles,
                    "sum over " + std::to_string(puCycles.size()) +
                        " distinct requests");
        std::string deciles = "spmv reply ms by decile:";
        for (int pct = 10; pct <= 100; pct += 10)
            deciles += " " + std::to_string(percentile(spmv, pct));
        out.info.push_back(deciles);
        out.info.push_back("replies: " + std::to_string(etlLog.ms.size()) +
                           " transpose, " + std::to_string(spmv.size()) +
                           " spmv");
        heldOutAccuracy(log, out);

        out.metrics["setup_s"] = calibratedMedian(
            setup, setupCalibration, median(out.calibration));
        out.metrics["host_knnz_per_s"] =
            static_cast<double>(nnz) / wall / 1e3;
        out.metrics["served_req_per_s"] =
            static_cast<double>(completed) / wall;
        out.metrics["transpose_req_p50_ms"] = percentile(etlLog.ms, 50);
        out.metrics["spmv_req_p50_ms"] = percentile(spmv, 50);
        out.metrics["spmv_req_p90_ms"] = percentile(spmv, 90);
        if (etlLog.rssMb > 0)
            out.metrics["peak_rss_mb"] = etlLog.rssMb;
        out.metrics["sim_pu_cycles"] = cycles;
        out.metrics["sampled_err_pct"] = out.counters["sampled_err_pct"]
                                             .first;
        return out;
    }

    // Traced run: the same request round three times over -- through
    // the socket, replayed traced, replayed untraced -- so neighbouring
    // rounds compare like with like. The replay core sees only replay
    // rounds, so its virtual schedule (and every serve counter) is
    // deterministic.
    serve::ServeCore replay(config);
    serve::Client client = serve::Client::connectUnix(path);
    std::vector<double> socketS, tracedS, plainS;
    ReplayStats stats; // over the first two iterations (4 replay rounds)
    for (std::size_t it = 0; it < 2 || nowNs() < deadline; ++it) {
        ReplayStats *counted = it < 2 ? &stats : nullptr;
        log.setRecording(false);
        out.calibration.push_back(calibrationMs());
        socketS.push_back(socketRound(client, set, it, out));
        log.setRecording(true);
        tracedS.push_back(replayRound(replay, set, it, log, out, counted));
        log.setRecording(false);
        plainS.push_back(replayRound(replay, set, it, log, out, counted));
    }
    log.setRecording(true);
    client.closeNow();
    const std::string err = daemon->stop();
    if (!err.empty())
        out.fail("daemon: " + err);
    const double heldOutCycles = heldOutAccuracy(log, out);

    out.counter("serve.cache_hit_pct",
                100.0 * static_cast<double>(stats.hits) /
                    static_cast<double>(stats.submits),
                "base " + std::to_string(stats.submits) +
                    " replayed submits");
    out.counter("serve.queue_wait_p90_cycles",
                percentile(stats.queueWait, 90),
                "simulated; base " +
                    std::to_string(stats.queueWait.size()) +
                    " replayed jobs");
    out.counter("wire.response_bytes_per_nnz",
                stats.responseBytes / stats.nnz,
                "base " +
                    std::to_string(static_cast<std::uint64_t>(stats.nnz)) +
                    " replayed input nnz");

    layerTimes(log, out);
    out.metrics["menda.host_ns_per_pu_cycle"] =
        out.metrics["menda.simulate_s"] * 1e9 / heldOutCycles;
    out.metrics["obs.trace_overhead_pct"] =
        pairedOverheadPct(tracedS, plainS);
    std::vector<double> socketMinusPlain;
    for (std::size_t i = 0; i < socketS.size(); ++i)
        socketMinusPlain.push_back(socketS[i] - plainS[i]);
    out.metrics["socket.overhead_s"] = median(socketMinusPlain);
    if (!log.writeChromeTrace(opts.workDir + "/trace-" + opts.workload +
                              ".json"))
        out.fail("cannot write the span trace");
    return out;
}

} // namespace hostbench
