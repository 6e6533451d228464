#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "baselines/spgemm_cpu.hh"
#include "common/stats.hh"
#include "sparse/workloads.hh"

namespace hostbench
{

namespace
{
volatile std::uint64_t calibrationSink; ///< keeps the kernel's work live
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
calibrationMs()
{
    const std::int64_t start = nowNs();
    std::vector<std::vector<std::uint32_t>> buckets(1 << 14);
    std::uint64_t z = 7;
    for (int i = 0; i < (1 << 19); ++i) {
        z = z * 6364136223846793005ull + 1442695040888963407ull;
        buckets[(z >> 40) & ((1 << 14) - 1)].push_back(
            static_cast<std::uint32_t>(z >> 20));
    }
    std::uint64_t sum = 0;
    for (std::vector<std::uint32_t> &b : buckets) {
        std::sort(b.begin(), b.end());
        sum += b.empty() ? 0 : b.front();
    }
    calibrationSink = sum;
    return static_cast<double>(nowNs() - start) * 1e-6;
}

double
calibratedMedian(const std::vector<double> &seconds,
                 const std::vector<double> &calibration,
                 double runCalibration)
{
    std::vector<double> scaled;
    for (std::size_t i = 0; i < seconds.size(); ++i)
        scaled.push_back(seconds[i] * runCalibration / calibration[i]);
    return median(scaled);
}

double
pairedOverheadPct(const std::vector<double> &traced,
                  const std::vector<double> &plain)
{
    std::vector<double> pct;
    for (std::size_t i = 0; i < std::min(traced.size(), plain.size()); ++i)
        pct.push_back(100.0 * (traced[i] - plain[i]) / plain[i]);
    return median(pct);
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer over (seed, salt).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

core::SystemConfig
defaultMachine()
{
    core::SystemConfig config;
    config.channels = 1;
    config.dimmsPerChannel = 2;
    config.ranksPerDimm = 2;
    config.pu.leaves = 256;
    config.hostThreads = 1;
    return config;
}

std::vector<Value>
inputVector(Index cols, std::uint64_t seed)
{
    std::vector<Value> x(cols);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<Value>((i * 7 + seed) % 64) / 16.0f;
    return x;
}

namespace
{

/** Span name of the execution step for a tier. */
const char *
simulateSpan(core::SimMode mode)
{
    switch (mode) {
      case core::SimMode::Detailed: return "menda.simulate";
      case core::SimMode::Functional: return "menda.fast.functional";
      case core::SimMode::Sampled: return "menda.fast.sampled";
    }
    return "menda.simulate";
}

} // namespace

KernelRun
runKernel(const Kernel &k, const core::SystemConfig &config, SpanLog &log)
{
    using Kind = core::KernelJob::Kind;
    KernelRun out;
    const std::int64_t start = nowNs();
    std::unique_ptr<core::KernelJob> job;
    switch (k.kind) {
      case Kind::Transpose: {
        std::shared_ptr<const core::TransposePlan> plan;
        {
            SpanLog::Scope s(log, "menda.plan");
            plan = core::planTranspose(*k.a, config);
        }
        SpanLog::Scope s(log, "menda.build");
        job = std::make_unique<core::KernelJob>(config, plan);
        break;
      }
      case Kind::Spmv: {
        std::shared_ptr<const core::SpmvPlan> plan;
        {
            SpanLog::Scope s(log, "menda.plan");
            plan = core::planSpmv(*k.a, config);
        }
        SpanLog::Scope s(log, "menda.build");
        job = std::make_unique<core::KernelJob>(config, plan, k.x);
        break;
      }
      case Kind::Spgemm: {
        std::shared_ptr<const core::SpgemmPlan> plan;
        {
            SpanLog::Scope s(log, "menda.plan");
            plan = core::planSpgemm(*k.a, *k.b, config);
        }
        SpanLog::Scope s(log, "menda.build");
        job = std::make_unique<core::KernelJob>(config, plan);
        break;
      }
    }
    {
        SpanLog::Scope s(log, simulateSpan(config.simMode));
        job->runToCompletion();
    }
    {
        SpanLog::Scope s(log, "menda.collect");
        out.nnz = job->nnz();
        switch (k.kind) {
          case Kind::Transpose: {
            core::TransposeResult r = job->takeTranspose();
            out.csc = std::move(r.csc);
            out.run = std::move(r);
            break;
          }
          case Kind::Spmv: {
            core::SpmvResult r = job->takeSpmv();
            out.y = std::move(r.y);
            out.run = std::move(r);
            break;
          }
          case Kind::Spgemm: {
            core::SpgemmResult r = job->takeSpgemm();
            out.c = std::move(r.c);
            out.partialProducts = r.partialProducts;
            out.run = std::move(r);
            break;
          }
        }
        job.reset(); // releasing the simulated components is kernel cost
    }
    out.seconds = static_cast<double>(nowNs() - start) * 1e-9;
    return out;
}

bool
sameOutput(const Kernel &k, const KernelRun &x, const KernelRun &y)
{
    switch (k.kind) {
      case core::KernelJob::Kind::Transpose: return x.csc == y.csc;
      case core::KernelJob::Kind::Spmv: return x.y == y.y;
      case core::KernelJob::Kind::Spgemm: return x.c == y.c;
    }
    return false;
}

Reference
reference(const Kernel &k)
{
    Reference ref;
    switch (k.kind) {
      case core::KernelJob::Kind::Transpose:
        ref.csc = sparse::transposeReference(*k.a);
        break;
      case core::KernelJob::Kind::Spmv:
        ref.y = sparse::spmvReference(*k.a, k.x);
        break;
      case core::KernelJob::Kind::Spgemm:
        ref.c = baselines::spgemmHeapMerge(*k.a, *k.b);
        break;
    }
    return ref;
}

namespace
{

/** SpMV within the tolerance the repo's PU tests use. */
std::string
checkSpmv(const std::vector<double> &want, const std::vector<double> &got)
{
    if (got.size() != want.size())
        return "y has " + std::to_string(got.size()) + " entries, want " +
               std::to_string(want.size());
    for (std::size_t r = 0; r < want.size(); ++r)
        if (!(std::abs(got[r] - want[r]) <=
              1e-3 * (std::abs(want[r]) + 1.0)))
            return "y[" + std::to_string(r) + "] differs from "
                   "spmvReference";
    return "";
}

} // namespace

std::string
checkOutput(const Kernel &k, const Reference &ref, const KernelRun &got)
{
    switch (k.kind) {
      case core::KernelJob::Kind::Transpose:
        return got.csc == ref.csc ? "" : "transpose differs from "
                                         "transposeReference";
      case core::KernelJob::Kind::Spmv:
        return checkSpmv(ref.y, got.y);
      case core::KernelJob::Kind::Spgemm:
        return got.c == ref.c ? "" : "spgemm differs from "
                                     "spgemmHeapMerge";
    }
    return "unknown kernel kind";
}

namespace
{

/** |sampled - detailed| / detailed puCycles, in percent. */
double
relErrPct(Cycle sampled, Cycle detailed)
{
    if (detailed == 0)
        return 0.0;
    return 100.0 *
           std::abs(static_cast<double>(sampled) -
                    static_cast<double>(detailed)) /
           static_cast<double>(detailed);
}

} // namespace

void
simulatedCounters(const std::vector<const core::RunResult *> &runs,
                  unsigned pus, Outcome &out)
{
    double leaf = 0, output = 0, occupancy = 0, tree_cycles = 0;
    double conflicts = 0, activates = 0, coalesced = 0, reads = 0;
    double busy = 0, cycles = 0, spilled = 0;
    Histogram latency;
    for (const core::RunResult *r : runs) {
        leaf += static_cast<double>(r->leafPushStallCycles);
        output += static_cast<double>(r->outputStallCycles);
        occupancy += static_cast<double>(r->treeOccupancyPacketCycles);
        tree_cycles += static_cast<double>(r->puCycles) * pus;
        conflicts += static_cast<double>(r->rowConflicts);
        activates += static_cast<double>(r->activates);
        coalesced += static_cast<double>(r->coalescedRequests);
        reads += static_cast<double>(r->readBlocks);
        busy += r->busUtilization * static_cast<double>(r->puCycles);
        cycles += static_cast<double>(r->puCycles);
        for (std::uint64_t b : r->spilledReadBlocks)
            spilled += static_cast<double>(b);
        for (std::uint64_t b : r->spilledWriteBlocks)
            spilled += static_cast<double>(b);
        latency.merge(r->readLatency);
    }
    const std::string n = std::to_string(runs.size()) + " detailed kernels";
    out.counter("pu.leaf_push_stall_cycles", leaf, "sum over " + n);
    out.counter("pu.output_stall_cycles", output, "sum over " + n);
    out.counter("pu.tree_occupancy_mean",
                tree_cycles > 0 ? occupancy / tree_cycles : 0.0,
                "packets per tree; base " +
                    std::to_string(static_cast<std::uint64_t>(
                        tree_cycles)) +
                    " tree-cycles");
    out.counter("dram.row_conflicts", conflicts, "sum over " + n);
    out.counter("dram.activates", activates, "sum over " + n);
    out.counter("dram.coalesced_pct",
                coalesced + reads > 0
                    ? 100.0 * coalesced / (coalesced + reads)
                    : 0.0,
                "base " +
                    std::to_string(static_cast<std::uint64_t>(
                        coalesced + reads)) +
                    " read requests");
    out.counter("dram.bus_util_pct",
                cycles > 0 ? 100.0 * busy / cycles : 0.0,
                "puCycles-weighted; base " +
                    std::to_string(static_cast<std::uint64_t>(cycles)) +
                    " cycles");
    out.counter("dram.read_latency_p50", latency.quantile(0.5),
                "mem cycles; base " + std::to_string(latency.count()) +
                    " reads");
    out.counter("dram.read_latency_p99", latency.quantile(0.99),
                "mem cycles; base " + std::to_string(latency.count()) +
                    " reads");
    out.counter("spgemm.spilled_blocks", spilled, "sum over " + n);
}

namespace
{

/** Sampled-tier counters (windows, fast-forwarded share) of @p runs. */
void
sampledCounters(const std::vector<const core::RunResult *> &runs,
                const core::SampledConfig &sampled, Outcome &out)
{
    double windows = 0, forwarded = 0;
    for (const core::RunResult *r : runs) {
        windows += r->sampledWindows;
        forwarded += static_cast<double>(r->fastForwardedCycles);
    }
    const double measured =
        windows * static_cast<double>(sampled.windowCycles);
    out.counter("menda.fast.sampled_windows", windows,
                "sum over " + std::to_string(runs.size()) +
                    " sampled kernels");
    out.counter("menda.fast.fast_forwarded_pct",
                forwarded + measured > 0
                    ? 100.0 * forwarded / (forwarded + measured)
                    : 0.0,
                "base " +
                    std::to_string(
                        static_cast<std::uint64_t>(forwarded + measured)) +
                    " forwarded + windowed cycles");
}

} // namespace

double
heldOutAccuracy(SpanLog &log, Outcome &out)
{
    SpanLog::Scope scope(log, "bench.accuracy");
    std::vector<sparse::CsrMatrix> matrices;
    const char *names[] = {"mac_econ", "rajat21", "amazon", "wiki-Talk"};
    {
        SpanLog::Scope s(log, "sparse.generate");
        for (const char *name : names)
            matrices.push_back(
                sparse::makeWorkload(sparse::findWorkload(name), 64));
    }
    core::SystemConfig config = defaultMachine();
    std::vector<KernelRun> sampled;
    double maxErr = 0.0, detailedCycles = 0.0;
    for (std::size_t m = 0; m < matrices.size(); ++m) {
        const sparse::CsrMatrix &a = matrices[m];
        for (const Kernel &k :
             {Kernel{std::string("transpose:") + names[m],
                     core::KernelJob::Kind::Transpose, &a, nullptr, {}},
              Kernel{std::string("spmv:") + names[m],
                     core::KernelJob::Kind::Spmv, &a, nullptr,
                     inputVector(a.cols, 0)}}) {
            config.simMode = core::SimMode::Detailed;
            const KernelRun detailed = runKernel(k, config, log);
            config.simMode = core::SimMode::Sampled;
            sampled.push_back(runKernel(k, config, log));
            out.attempted += 2;
            detailedCycles += static_cast<double>(detailed.run.puCycles);
            SpanLog::Scope s(log, "baselines.verify");
            const std::string why = checkOutput(k, reference(k), detailed);
            if (!why.empty())
                out.fail("held-out " + k.name + " detailed: " + why);
            if (!sameOutput(k, detailed, sampled.back()))
                out.fail("held-out " + k.name +
                         " sampled: output differs from the detailed tier");
            const double err = relErrPct(sampled.back().run.puCycles,
                                         detailed.run.puCycles);
            maxErr = std::max(maxErr, err);
            out.counter("heldout." + k.name + ".sampled_err_pct", err,
                        "sampled " +
                            std::to_string(sampled.back().run.puCycles) +
                            " vs detailed " +
                            std::to_string(detailed.run.puCycles) +
                            " cycles");
        }
    }
    std::vector<const core::RunResult *> runs;
    for (const KernelRun &r : sampled)
        runs.push_back(&r.run);
    sampledCounters(runs, config.sampled, out);
    out.counter("sampled_err_pct", maxErr,
                "max over " + std::to_string(sampled.size()) +
                    " held-out kernels");
    return detailedCycles;
}

void
layerTimes(const SpanLog &log, Outcome &out)
{
    double harness = 0.0;
    for (const auto &[name, seconds] : log.selfTimes()) {
        if (name.rfind("bench.", 0) == 0)
            harness += seconds;
        else
            out.metrics[name + "_s"] = seconds;
    }
    out.metrics["bench.harness_s"] = harness;
    out.metrics["trace.wall_s"] = log.wallSeconds();
}

} // namespace hostbench
