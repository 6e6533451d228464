/**
 * @file
 * Shared pieces of the host-time benchmark: run options, the result
 * record every workload fills, and the timed kernel driver built only on
 * MeNDA's public entry points (plan*, the KernelJob constructor,
 * runToCompletion, take*).
 */

#ifndef MENDA_HOSTBENCH_BENCH_HH
#define MENDA_HOSTBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "menda/job.hh"
#include "sparse/format.hh"
#include "spans.hh"

namespace hostbench
{

using namespace menda;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = "."; ///< trace output and the serve socket
};

/**
 * Whether to run another set-up pass: setup_s is the median of at least
 * 3 passes spanning at least 1 s (at most 20), so cheap set-ups get
 * enough samples to give a steady median.
 */
inline bool
moreSetup(const std::vector<double> &passes)
{
    double total = 0.0;
    for (double s : passes)
        total += s;
    return passes.size() < 3 || (total < 1.0 && passes.size() < 20);
}

/**
 * Host-speed calibration. A shared host's speed drifts by tens of
 * percent over tens of seconds, alike for all code on it.
 * calibrationMs() times a fixed allocate-append-sort kernel that shares
 * no code with MeNDA. The workloads sample it through the run and
 * correct each host time by the sample taken next to it, relative to
 * the run's median sample; main.cc then scales every host time by
 * kCalibrationRefMs over that median (rates inversely).
 */
constexpr double kCalibrationRefMs = 25.0;
double calibrationMs();

/**
 * Median of host times @p seconds, each scaled by @p runCalibration over
 * its own calibration sample @p calibration[i]: the local speed
 * correction applied before main.cc's run-level scale.
 */
double calibratedMedian(const std::vector<double> &seconds,
                        const std::vector<double> &calibration,
                        double runCalibration);

/** What one workload run measured. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< first few failure reasons
    std::vector<std::string> info;   ///< free-form lines for the log
    std::vector<double> calibration; ///< calibrationMs() samples

    /** Metric name -> value; units live in main.cc's metric table. */
    std::map<std::string, double> metrics;

    /** Deterministic work counters: name -> (value, base description). */
    std::map<std::string, std::pair<double, std::string>> counters;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 8)
            errors.push_back(why);
    }
    void
    counter(const std::string &name, double value, std::string base = "")
    {
        counters[name] = {value, std::move(base)};
    }
};

/** Peak resident set of this process so far, MB. */
double peakRssMb();

/** Nearest-rank percentile of @p v (pct in [0, 100]); 0 when empty. */
double percentile(std::vector<double> v, double pct);

/** Median, as statistics.median does (mean of the middle pair). */
double median(std::vector<double> v);

/**
 * Tracing overhead in percent: the median over adjacent (traced,
 * untraced) round pairs of (traced - untraced) / untraced. Pairing
 * neighbours cancels the host's slow drifts in speed.
 */
double pairedOverheadPct(const std::vector<double> &traced,
                         const std::vector<double> &plain);

/** Seed mixer: independent sub-seeds for the matrices of one run. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt);

/** The menda_sim default machine: 1 ch x 2 DIMM x 2 ranks, 256 leaves. */
core::SystemConfig defaultMachine();

/** Deterministic SpMV input vector for a matrix with @p cols columns. */
std::vector<Value> inputVector(Index cols, std::uint64_t seed);

/** One kernel to run: kind, operands, and (SpMV) the input vector. */
struct Kernel
{
    std::string name;
    core::KernelJob::Kind kind = core::KernelJob::Kind::Transpose;
    const sparse::CsrMatrix *a = nullptr;
    const sparse::CsrMatrix *b = nullptr; ///< SpGEMM only
    std::vector<Value> x;                 ///< SpMV only
};

/** A finished kernel: its output, run result, and host latency. */
struct KernelRun
{
    core::RunResult run;
    sparse::CscMatrix csc;   ///< transpose
    std::vector<double> y;   ///< SpMV
    sparse::CsrMatrix c;     ///< SpGEMM
    std::uint64_t partialProducts = 0; ///< SpGEMM
    std::uint64_t nnz = 0;   ///< KernelJob::nnz()
    double seconds = 0.0;    ///< plan + build + run + take, host
};

/** Plan, build, run to completion and collect @p k under @p config. */
KernelRun runKernel(const Kernel &k, const core::SystemConfig &config,
                    SpanLog &log);

/** True when two runs of one kernel produced bitwise-identical output. */
bool sameOutput(const Kernel &k, const KernelRun &x, const KernelRun &y);

/** Golden outputs of one kernel from the CPU references. */
struct Reference
{
    sparse::CscMatrix csc;
    std::vector<double> y;
    sparse::CsrMatrix c;
};

/** Compute the reference for @p k (transposeReference, spmvReference,
 *  spgemmHeapMerge). */
Reference reference(const Kernel &k);

/**
 * Check @p got against @p ref: transposes and SpGEMM bitwise, SpMV
 * within the tolerance the repo's PU tests use. Returns "" when correct,
 * else a reason.
 */
std::string checkOutput(const Kernel &k, const Reference &ref,
                        const KernelRun &got);

/**
 * Fold the simulated counters of @p runs (detailed-tier results) into
 * the pu.*, dram.* and spgemm.* counters of @p out.
 */
void simulatedCounters(const std::vector<const core::RunResult *> &runs,
                       unsigned pus, Outcome &out);

/**
 * Held-out sampled-tier accuracy: detailed and sampled transpose and
 * SpMV of the repo's canonical Tab. 4 stand-ins that
 * bench_sampled_accuracy does not tune on (mac_econ, rajat21, amazon,
 * wiki-Talk at 1/64 scale). They do not depend on the run's seed, so
 * sampled_err_pct is exact and comparable across commits. Checks every
 * output, sets sampled_err_pct and the sampled-tier counters, and
 * returns the detailed puCycles simulated.
 */
double heldOutAccuracy(SpanLog &log, Outcome &out);

/** Copy the traced run's per-layer self times into @p out. */
void layerTimes(const SpanLog &log, Outcome &out);

// Workloads. Each fills end-to-end metrics (untraced) or per-layer
// metrics (traced) plus the deterministic counters.
Outcome runPaperDetailed(const Options &opts);
Outcome runPaperFast(const Options &opts);
Outcome runServed(const Options &opts);

} // namespace hostbench

#endif // MENDA_HOSTBENCH_BENCH_HH
