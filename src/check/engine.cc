#include "check/engine.hh"

#include <cmath>
#include <sstream>

#include "baselines/spgemm_cpu.hh"
#include "menda/run_report.hh"
#include "obs/trace.hh"
#include "serve/protocol.hh"
#include "serve/serve_core.hh"

namespace menda::check
{

std::vector<EngineVariant>
variantsFor(const CaseSpec &spec, bool inject_fault)
{
    std::vector<EngineVariant> variants;
    variants.push_back({"seq", 1, false, 0});
    EngineVariant threaded{"threads" + std::to_string(spec.threads),
                           spec.threads, false, 0};
    threaded.injectedFault = inject_fault;
    variants.push_back(threaded);
    if (spec.withTrace)
        variants.push_back({"traced", 1, true, 0});
    if (spec.samplePeriod != 0)
        variants.push_back({"sampled", 1, false, spec.samplePeriod});
    if (spec.withFunctional) {
        EngineVariant v;
        v.name = "functional";
        v.simMode = core::SimMode::Functional;
        variants.push_back(v);
    }
    if (spec.withSampledSim) {
        EngineVariant v;
        v.name = "sampledsim";
        v.simMode = core::SimMode::Sampled;
        variants.push_back(v);
    }
    if (spec.withServed) {
        EngineVariant v;
        v.name = "served";
        v.served = true;
        variants.push_back(v);
    }
    if (spec.kernel == core::Kernel::Spgemm && spec.withCondensed) {
        EngineVariant v;
        v.name = "condensed";
        v.condensed = true;
        variants.push_back(v);
        if (spec.withFunctional) {
            // The functional tier must mirror the Huffman schedule
            // too: same CSR, bitwise, through a very different engine.
            EngineVariant f;
            f.name = "condensed-functional";
            f.condensed = true;
            f.simMode = core::SimMode::Functional;
            variants.push_back(f);
        }
    }
    return variants;
}

namespace
{

/**
 * Execute @p spec through an in-process ServeCore: encode the inputs as
 * a `menda.job/1` submit, pump the scheduler until the job completes,
 * and decode outputs + report from the protocol response — the same
 * code path a daemon client exercises, minus the socket. Request and
 * response both pass through their wire text, so every input and
 * output number is formatted and parsed as on a socket.
 */
CaseOutcome
runServed(const CaseSpec &spec)
{
    obs::json::Object request_fields;
    request_fields["schema"] = obs::json::Value(serve::kSchema);
    request_fields["type"] = obs::json::Value("submit");
    request_fields["kernel"] =
        obs::json::Value(std::string(kernelName(spec.kernel)));
    const sparse::CsrMatrix a = buildMatrix(spec.a);
    request_fields["a"] = serve::csrToJson(a);
    if (spec.kernel == core::Kernel::Spmv)
        request_fields["x"] =
            serve::valueVectorToJson(spec.spmvInput(a.cols));
    else if (spec.kernel == core::Kernel::Spgemm)
        request_fields["b"] = serve::csrToJson(buildMatrix(spec.b));
    const obs::json::Value request = obs::json::parse(
        obs::json::Value(std::move(request_fields)).serialize());

    struct ServedRun
    {
        obs::json::Value response;
        std::string journal;
        std::string trace;
    };
    const auto run = [&](unsigned host_threads) -> ServedRun {
        serve::ServeConfig serve_config;
        serve_config.system = spec.systemConfig();
        serve_config.system.hostThreads = host_threads;
        serve_config.ranksPerJob = serve_config.system.totalPus();
        // A small slice forces many step()/yield rounds per job, which
        // is exactly the resumable execution this variant checks; a
        // window every few slices exercises the journal rollovers too.
        serve_config.sliceCycles = 1024;
        serve_config.windowCycles = 4096;
        serve::ServeCore core(serve_config);

        const obs::json::Value submitted = core.handle(request);
        std::string code, message;
        if (serve::isError(submitted, &code, &message))
            throw std::runtime_error("served submit rejected (" + code +
                                     "): " + message);
        const auto id =
            static_cast<std::uint64_t>(submitted.at("id").asNumber());
        core.runUntilIdle();
        return {obs::json::parse(core.jobResponse(id).serialize()),
                core.journalJsonl(), core.jobTraceJson()};
    };

    // Run twice at different host thread counts: outputs AND the
    // observability artifacts (journal, job-span trace) must be
    // byte-identical — every timestamp lives on the virtual clock.
    const ServedRun first = run(1);
    const ServedRun second = run(2);
    if (first.journal != second.journal)
        throw std::runtime_error(
            "served journal differs across host threads");
    if (first.trace != second.trace)
        throw std::runtime_error(
            "served job trace differs across host threads");
    if (first.response.serialize() != second.response.serialize())
        throw std::runtime_error(
            "served response differs across host threads");

    const obs::json::Value &response = first.response;
    if (response.at("state").asString() != "done")
        throw std::runtime_error(
            "served job ended in state '" +
            response.at("state").asString() + "'");

    CaseOutcome outcome;
    switch (spec.kernel) {
      case core::Kernel::Transpose:
        outcome.csc = serve::cscFromJson(response.at("csc"));
        break;
      case core::Kernel::Spmv:
        outcome.y = serve::doubleVectorFromJson(response.at("y"));
        break;
      case core::Kernel::Spgemm:
        outcome.c = serve::csrFromJson(response.at("c"));
        break;
    }
    // The served report differs from the direct path's only in its
    // name; after renaming, the bytes must match exactly.
    outcome.report = obs::RunReport::fromJson(
        response.at("report").serialize());
    outcome.report.setName(std::string("menda_check.") +
                           kernelName(spec.kernel));
    outcome.reportJson = outcome.report.toJson();
    return outcome;
}

} // namespace

CaseOutcome
runVariant(const CaseSpec &spec, const EngineVariant &variant)
{
    if (variant.served)
        return runServed(spec);

    core::SystemConfig config = spec.systemConfig();
    config.hostThreads = variant.hostThreads;
    if (variant.injectedFault)
        config.dram.tRRDL = config.dram.tRRDS;
    config.samplePeriod = variant.samplePeriod;
    config.simMode = variant.simMode;
    if (variant.condensed)
        config.pu.spgemm.scheduler = spgemm::SpgemmScheduler::Huffman;
    if (variant.simMode == core::SimMode::Sampled) {
        // Small windows so tiny fuzz cases still alternate between
        // fast-forward and measurement a few times.
        config.sampled.windowCycles = 512;
        config.sampled.periodCycles = 4096;
        config.sampled.warmupCycles = 128;
    }
    core::MendaSystem sys(config);

    // The traced variant keeps the trace in memory: what matters here is
    // that arming the tracer flips the system onto the sharded
    // simulation path, which must not change any result.
    obs::Tracer tracer(std::size_t{1} << 16);
    if (variant.traced)
        sys.setTracer(&tracer);

    CaseOutcome outcome;
    const sparse::CsrMatrix a = buildMatrix(spec.a);
    core::RunResult run;
    std::uint64_t nnz = a.nnz();
    switch (spec.kernel) {
      case core::Kernel::Transpose: {
        core::TransposeResult result = sys.transpose(a);
        outcome.csc = std::move(result.csc);
        run = std::move(result);
        break;
      }
      case core::Kernel::Spmv: {
        core::SpmvResult result = sys.spmv(a, spec.spmvInput(a.cols));
        outcome.y = std::move(result.y);
        run = std::move(result);
        break;
      }
      case core::Kernel::Spgemm: {
        const sparse::CsrMatrix b = buildMatrix(spec.b);
        core::SpgemmResult result = sys.spgemm(a, b);
        outcome.c = std::move(result.c);
        run = std::move(result);
        break;
      }
    }

    // wall_seconds = 0 keeps host-dependent metrics out entirely, so the
    // report is a pure function of the simulation.
    outcome.report = core::makeRunReport(
        std::string("menda_check.") + kernelName(spec.kernel),
        kernelName(spec.kernel), config, run, nnz, 0.0);
    outcome.reportJson = outcome.report.toJson();
    return outcome;
}

Mismatch
checkGolden(const CaseSpec &spec, const CaseOutcome &outcome)
{
    const sparse::CsrMatrix a = buildMatrix(spec.a);
    switch (spec.kernel) {
      case core::Kernel::Transpose: {
        const sparse::CscMatrix want = sparse::transposeReference(a);
        if (!(outcome.csc == want))
            return {true, "transpose output differs from the golden "
                          "CPU reference"};
        break;
      }
      case core::Kernel::Spmv: {
        const std::vector<double> want =
            sparse::spmvReference(a, spec.spmvInput(a.cols));
        if (outcome.y.size() != want.size())
            return {true, "spmv output length differs from reference"};
        for (std::size_t r = 0; r < want.size(); ++r)
            if (std::abs(outcome.y[r] - want[r]) >
                1e-3 * (std::abs(want[r]) + 1.0)) {
                std::ostringstream os;
                os << "spmv row " << r << " differs from reference: "
                   << outcome.y[r] << " vs " << want[r];
                return {true, os.str()};
            }
        break;
      }
      case core::Kernel::Spgemm: {
        const sparse::CsrMatrix b = buildMatrix(spec.b);
        // The heap merge is the bitwise oracle (identical FP order);
        // the hash accumulator cross-checks values in double precision.
        if (!(outcome.c == baselines::spgemmHeapMerge(a, b)))
            return {true, "spgemm output differs from the heap-merge "
                          "oracle"};
        break;
      }
    }
    return {};
}

namespace
{

Mismatch
mismatch(const EngineVariant &va, const EngineVariant &vb,
         const std::string &what)
{
    return {true, va.name + " vs " + vb.name + ": " + what};
}

} // namespace

Mismatch
diffOutcomes(const CaseSpec &spec, const EngineVariant &va,
             const CaseOutcome &oa, const EngineVariant &vb,
             const CaseOutcome &ob)
{
    switch (spec.kernel) {
      case core::Kernel::Transpose:
        if (!(oa.csc == ob.csc))
            return mismatch(va, vb, "transpose outputs differ");
        break;
      case core::Kernel::Spmv:
        // Identical simulation order in every variant means the FP sums
        // must agree bit-for-bit, not just within tolerance.
        if (oa.y != ob.y)
            return mismatch(va, vb, "spmv outputs differ bitwise");
        break;
      case core::Kernel::Spgemm:
        if (!(oa.c == ob.c))
            return mismatch(va, vb, "spgemm outputs differ");
        break;
    }

    // Fast-tier variants estimate timing: their kernel outputs must be
    // bitwise identical (checked above) but their reports are not
    // comparable against the cycle-accurate engine's. The same holds
    // across schedulers: the condensed variant executes a different
    // merge schedule, so cycles and traffic legitimately diverge while
    // the CSR may not.
    if (va.outputsOnly() || vb.outputsOnly() ||
        va.condensed != vb.condensed)
        return {};

    if (!va.metricsOnly() && !vb.metricsOnly()) {
        if (oa.reportJson != ob.reportJson)
            return mismatch(va, vb, "deterministic run reports are not "
                                    "byte-identical");
        return {};
    }

    // A sampled report additionally carries series; compare the metric
    // set with zero tolerance instead.
    obs::DiffOptions options;
    options.tolerance = 0.0;
    const obs::DiffResult diff =
        diffReports(oa.report, ob.report, options);
    if (!diff.passed) {
        std::ostringstream os;
        os << "metrics diverge:";
        for (const auto &entry : diff.entries)
            if (!entry.ignored && !entry.withinTolerance)
                os << " " << entry.name << " " << entry.baseline
                   << " -> " << entry.current;
        for (const auto &name : diff.missing)
            os << " missing:" << name;
        return mismatch(va, vb, os.str());
    }
    return {};
}

Mismatch
runCase(const CaseSpec &spec, unsigned *runs, unsigned *pairs,
        obs::RunReport *baseline_report, bool inject_fault)
{
    const std::vector<EngineVariant> variants =
        variantsFor(spec, inject_fault);
    std::vector<CaseOutcome> outcomes;
    outcomes.reserve(variants.size());
    for (const EngineVariant &variant : variants) {
        outcomes.push_back(runVariant(spec, variant));
        if (runs)
            ++*runs;
    }
    if (baseline_report)
        *baseline_report = outcomes.front().report;

    if (Mismatch golden = checkGolden(spec, outcomes.front())) {
        golden.what = variants.front().name + ": " + golden.what;
        return golden;
    }
    // Baseline-vs-each covers the equivalence classes; all variants are
    // expected equal, so any divergence shows up against the baseline.
    for (std::size_t i = 1; i < variants.size(); ++i) {
        if (pairs)
            ++*pairs;
        if (Mismatch diff =
                diffOutcomes(spec, variants[0], outcomes[0],
                             variants[i], outcomes[i]))
            return diff;
    }
    return {};
}

} // namespace menda::check
