/**
 * @file
 * The paper-detailed and paper-fast workloads: closed loops, one kernel
 * after another on one host thread, over matrices in the shapes of the
 * paper's Tab. 3 / Tab. 4 at reduced scale.
 */

#include <map>
#include <memory>
#include <string>

#include "bench.hh"
#include "sparse/generate.hh"

namespace hostbench
{

namespace
{

using Kind = core::KernelJob::Kind;


/** The matrices and kernels of one workload, with their references. */
struct PaperSet
{
    std::vector<std::unique_ptr<sparse::CsrMatrix>> matrices;
    std::vector<Kernel> kernels;
    std::vector<Reference> refs;
    /** paper-fast: the detailed-tier run of every kernel (set-up). */
    std::vector<KernelRun> detailed;

    const sparse::CsrMatrix *
    add(sparse::CsrMatrix m)
    {
        matrices.push_back(
            std::make_unique<sparse::CsrMatrix>(std::move(m)));
        return matrices.back().get();
    }
    void
    transposeAndSpmv(const std::string &name, const sparse::CsrMatrix *a,
                     std::uint64_t seed)
    {
        kernels.push_back(
            {"transpose:" + name, Kind::Transpose, a, nullptr, {}});
        kernels.push_back({"spmv:" + name, Kind::Spmv, a, nullptr,
                           inputVector(a->cols, seed)});
    }
};

sparse::CsrMatrix
rmat(Index rows, std::uint64_t nnz, std::uint64_t seed)
{
    return sparse::generateRmat(rows, nnz, 0.1, 0.2, 0.3, seed);
}

void
computeReferences(PaperSet &set, SpanLog &log)
{
    SpanLog::Scope s(log, "baselines.verify");
    for (const Kernel &k : set.kernels)
        set.refs.push_back(reference(k));
}

/**
 * paper-detailed: wiki-Talk/128 and P3/32 shaped R-MAT matrices (Tab. 3
 * generator, 0.1/0.2/0.3) for transpose and SpMV, plus an R-MAT SpGEMM
 * whose row fan-in exceeds the 256-leaf tree, so it spills.
 */
PaperSet
detailedSet(std::uint64_t seed, SpanLog &log, Outcome &)
{
    PaperSet set;
    const sparse::CsrMatrix *wiki, *p3, *g;
    {
        SpanLog::Scope s(log, "sparse.generate");
        wiki = set.add(rmat(32768, 39229, subSeed(seed, 1)));
        p3 = set.add(rmat(8192, 26843, subSeed(seed, 2)));
        g = set.add(rmat(512, 8192, subSeed(seed, 3)));
    }
    set.transposeAndSpmv("wiki-Talk", wiki, seed);
    set.transposeAndSpmv("P3", p3, seed);
    set.kernels.push_back({"spgemm:rmat512", Kind::Spgemm, g, g, {}});
    computeReferences(set, log);
    return set;
}

/**
 * paper-fast: Tab. 4 kinds that bench_sampled_accuracy does not tune on
 * (economic skewed rows, circuit, local graph, wiki-Talk R-MAT) at 1/64
 * scale, plus a circuit SpGEMM. The detailed run of every kernel is the
 * accuracy and output reference, computed here, outside the timed loop.
 */
PaperSet
fastSet(std::uint64_t seed, SpanLog &log, Outcome &out)
{
    PaperSet set;
    const sparse::CsrMatrix *econ, *circuit, *local, *wiki, *small;
    {
        SpanLog::Scope s(log, "sparse.generate");
        econ = set.add(sparse::generateSkewedRows(3226, 3226, 19896, 0.7,
                                                  subSeed(seed, 11)));
        circuit = set.add(
            sparse::generateCircuit(6432, 29312, subSeed(seed, 12)));
        local = set.add(sparse::generateLocalGraph(4095, 19294, 4095 / 30,
                                                   subSeed(seed, 13)));
        wiki = set.add(rmat(65536, 78459, subSeed(seed, 14)));
        small = set.add(
            sparse::generateCircuit(1024, 4096, subSeed(seed, 15)));
    }
    set.transposeAndSpmv("mac_econ", econ, seed);
    set.transposeAndSpmv("rajat21", circuit, seed);
    set.transposeAndSpmv("amazon", local, seed);
    set.transposeAndSpmv("wiki-Talk", wiki, seed);
    set.kernels.push_back({"spgemm:circuit1024", Kind::Spgemm, small,
                           small, {}});
    computeReferences(set, log);
    const core::SystemConfig config = defaultMachine();
    for (std::size_t i = 0; i < set.kernels.size(); ++i) {
        set.detailed.push_back(runKernel(set.kernels[i], config, log));
        ++out.attempted;
        SpanLog::Scope s(log, "baselines.verify");
        const std::string why =
            checkOutput(set.kernels[i], set.refs[i], set.detailed.back());
        if (!why.empty())
            out.fail(set.kernels[i].name + " detailed: " + why);
    }
    return set;
}

using Builder = PaperSet (*)(std::uint64_t, SpanLog &, Outcome &);

/** Per-round timings of the loop, and the runs of round 0. */
struct Loop
{
    std::vector<double> transposeMs, spmvMs; ///< per round
    std::vector<double> knnzPerS, kernelsPerS; ///< per round
    std::vector<double> calibration; ///< sampled just before each round
    std::vector<double> tracedRound, plainRound;
    double tracedPuCycles = 0.0; ///< detailed cycles simulated traced
    std::vector<KernelRun> first; ///< round 0, in (tier, kernel) order
    std::map<std::string, std::vector<double>> kernelMs;
};

Outcome
runPaper(const Options &opts, Builder build,
         const std::vector<core::SimMode> &tiers)
{
    Outcome out;
    SpanLog log;
    log.setRecording(opts.trace);

    // Set-up: generation + references (+ detailed references on
    // paper-fast). Repeated so setup_s is a median; the last set is used.
    std::vector<double> setup, setupCalibration;
    PaperSet set;
    for (int rep = 0; opts.trace ? rep < 1 : moreSetup(setup); ++rep) {
        setupCalibration.push_back(calibrationMs());
        out.calibration.push_back(setupCalibration.back());
        const std::int64_t t0 = nowNs();
        SpanLog::Scope s(log, "bench.setup");
        Outcome repeat; // later passes repeat the first one's checks
        set = build(opts.seed, log, rep == 0 ? out : repeat);
        setup.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }

    core::SystemConfig config = defaultMachine();
    Loop loop;
    const std::int64_t loopStart = nowNs();
    const std::int64_t budget =
        static_cast<std::int64_t>(opts.seconds * 1e9);
    const std::size_t minRounds = opts.trace ? 2 : 1;
    for (std::size_t round = 0;
         round < minRounds || nowNs() - loopStart < budget; ++round) {
        loop.calibration.push_back(calibrationMs());
        out.calibration.push_back(loop.calibration.back());
        const bool traced = opts.trace && round % 2 == 0;
        log.setRecording(traced);
        const std::int64_t r0 = nowNs();
        SpanLog::Scope roundSpan(log, "bench.round", round);
        double transposeMs = 0.0, spmvMs = 0.0, seconds = 0.0, nnz = 0.0;
        for (const core::SimMode tier : tiers) {
            config.simMode = tier;
            for (std::size_t i = 0; i < set.kernels.size(); ++i) {
                const Kernel &k = set.kernels[i];
                KernelRun run = runKernel(k, config, log);
                ++out.attempted;
                nnz += static_cast<double>(run.nnz);
                seconds += run.seconds;
                loop.kernelMs[k.name + " " + core::simModeName(tier)]
                    .push_back(run.seconds * 1e3);
                if (k.kind == Kind::Transpose)
                    transposeMs += run.seconds * 1e3;
                if (k.kind == Kind::Spmv)
                    spmvMs += run.seconds * 1e3;
                if (traced && tier == core::SimMode::Detailed)
                    loop.tracedPuCycles +=
                        static_cast<double>(run.run.puCycles);

                SpanLog::Scope v(log, "baselines.verify");
                const std::string why =
                    set.detailed.empty()
                        ? checkOutput(k, set.refs[i], run)
                        : (sameOutput(k, set.detailed[i], run)
                               ? ""
                               : "output differs from the detailed tier");
                if (!why.empty())
                    out.fail(k.name + " " + core::simModeName(tier) +
                             ": " + why);
                if (round == 0)
                    loop.first.push_back(std::move(run));
            }
        }
        loop.knnzPerS.push_back(nnz / seconds / 1e3);
        loop.kernelsPerS.push_back(
            static_cast<double>(tiers.size() * set.kernels.size()) /
            seconds);
        loop.transposeMs.push_back(transposeMs);
        loop.spmvMs.push_back(spmvMs);
        (traced ? loop.tracedRound : loop.plainRound)
            .push_back(static_cast<double>(nowNs() - r0) * 1e-9);
    }
    log.setRecording(opts.trace);

    // Work counters and held-out accuracy, outside the timed loop. The
    // detailed runs are paper-fast's set-up references or
    // paper-detailed's round 0.
    const std::vector<KernelRun> &detailed =
        set.detailed.empty() ? loop.first : set.detailed;
    const std::size_t n = set.kernels.size();
    double puCycles = 0.0, partials = 0.0;
    std::vector<const core::RunResult *> runs;
    for (std::size_t i = 0; i < n; ++i) {
        puCycles += static_cast<double>(detailed[i].run.puCycles);
        partials += static_cast<double>(detailed[i].partialProducts);
        runs.push_back(&detailed[i].run);
        out.counter("kernel." + set.kernels[i].name + ".pu_cycles",
                    static_cast<double>(detailed[i].run.puCycles),
                    "detailed");
    }
    simulatedCounters(runs, defaultMachine().totalPus(), out);
    out.counter("sim_pu_cycles", puCycles,
                "sum over " + std::to_string(n) + " detailed kernels");
    out.counter("spgemm.partial_products", partials, "detailed SpGEMM");
    std::uint64_t inputNnz = 0;
    for (const Kernel &k : set.kernels)
        inputNnz += k.a->nnz() + (k.b ? k.b->nnz() : 0);
    out.counter("round.input_nnz", static_cast<double>(inputNnz),
                "per tier, over " + std::to_string(n) + " kernels");
    const double heldOutCycles = heldOutAccuracy(log, out);

    if (!opts.trace) {
        // Round i is corrected by its own calibration sample relative to
        // the run's; main.cc then applies the run-level scale.
        const double runCalibration = median(out.calibration);
        for (std::size_t i = 0; i < loop.calibration.size(); ++i) {
            const double local = runCalibration / loop.calibration[i];
            loop.knnzPerS[i] /= local;
            loop.kernelsPerS[i] /= local;
            loop.transposeMs[i] *= local;
            loop.spmvMs[i] *= local;
        }
        out.metrics["setup_s"] =
            calibratedMedian(setup, setupCalibration, runCalibration);
        out.metrics["host_knnz_per_s"] = median(loop.knnzPerS);
        out.metrics["served_req_per_s"] = median(loop.kernelsPerS);
        out.metrics["transpose_req_p50_ms"] =
            percentile(loop.transposeMs, 50);
        out.metrics["spmv_req_p50_ms"] = percentile(loop.spmvMs, 50);
        out.metrics["spmv_req_p90_ms"] = percentile(loop.spmvMs, 90);
        out.metrics["sim_pu_cycles"] = puCycles;
        out.metrics["sampled_err_pct"] =
            out.counters["sampled_err_pct"].first;
        out.info.push_back("loop rounds " +
                           std::to_string(loop.transposeMs.size()));
        for (const auto &[name, ms] : loop.kernelMs)
            out.info.push_back("median ms " + name + " " +
                               std::to_string(median(ms)));
        return out;
    }

    layerTimes(log, out);
    // Detailed cycles simulated under the trace: the traced rounds on
    // paper-detailed, the set-up references on paper-fast, and the
    // held-out pass on both.
    const double tracedCycles =
        heldOutCycles + (set.detailed.empty() ? loop.tracedPuCycles
                                               : puCycles);
    out.metrics["menda.host_ns_per_pu_cycle"] =
        out.metrics["menda.simulate_s"] * 1e9 / tracedCycles;
    out.metrics["obs.trace_overhead_pct"] =
        pairedOverheadPct(loop.tracedRound, loop.plainRound);
    if (!log.writeChromeTrace(opts.workDir + "/trace-" + opts.workload +
                              ".json"))
        out.fail("cannot write the span trace");
    return out;
}

} // namespace

Outcome
runPaperDetailed(const Options &opts)
{
    return runPaper(opts, detailedSet, {core::SimMode::Detailed});
}

Outcome
runPaperFast(const Options &opts)
{
    return runPaper(opts, fastSet,
                    {core::SimMode::Functional, core::SimMode::Sampled});
}

} // namespace hostbench
