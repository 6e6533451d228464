/**
 * @file
 * Accuracy-vs-speedup grid of the fast simulation tiers (DESIGN.md
 * Sec. 12): every case runs Detailed, Functional, and Sampled, asserts
 * the kernel outputs are bitwise identical across the tiers, and
 * reports the puCycles relative error plus the wall-clock speedup of
 * each fast tier against the cycle-accurate engine.
 *
 * CI gates the resulting BENCH_sampled_accuracy.json against
 * bench/baselines/ with a floor on summary.wallGeomeanSampledSpeedup
 * and ceilings on summary.sampledMaxRelErrPct.<kernel> (see
 * .github/workflows/ci.yml). Wall-named metrics are excluded from the
 * relative diff as usual; the floors/ceilings are absolute.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/log.hh"
#include "sparse/generate.hh"

namespace
{

using namespace menda;

struct BenchCase
{
    std::string name;
    core::Kernel kernel = core::Kernel::Transpose;
    sparse::CsrMatrix a;
};

struct ModeRun
{
    core::RunResult run;
    double wallSeconds = 0.0;
    sparse::CscMatrix csc;
    std::vector<double> y;
    sparse::CsrMatrix c;
};

ModeRun
runMode(const BenchCase &bc, core::SystemConfig config,
        core::SimMode mode)
{
    config.simMode = mode;
    core::MendaSystem sys(config);
    ModeRun out;
    const auto start = std::chrono::steady_clock::now();
    if (bc.kernel == core::Kernel::Transpose) {
        core::TransposeResult r = sys.transpose(bc.a);
        out.csc = std::move(r.csc);
        out.run = std::move(r);
    } else if (bc.kernel == core::Kernel::Spmv) {
        const std::vector<Value> x(bc.a.cols, 1.0f);
        core::SpmvResult r = sys.spmv(bc.a, x);
        out.y = std::move(r.y);
        out.run = std::move(r);
    } else {
        core::SpgemmResult r = sys.spgemm(bc.a, bc.a);
        out.c = std::move(r.c);
        out.run = std::move(r);
    }
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return out;
}

/** Bitwise output identity across tiers is the contract; enforce it. */
void
checkIdentical(const BenchCase &bc, const ModeRun &detailed,
               const ModeRun &fast, const char *mode)
{
    const bool same =
        bc.kernel == core::Kernel::Transpose ? detailed.csc == fast.csc
        : bc.kernel == core::Kernel::Spmv    ? detailed.y == fast.y
                                             : detailed.c == fast.c;
    if (!same)
        menda_fatal(bc.name, ": ", mode,
                    " outputs differ from detailed");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.parse(argc, argv);
    const std::uint64_t scale = opts.scale(8);

    bench::ReportWriter report(opts, "sampled_accuracy");
    bench::banner("Fast simulation tiers: accuracy vs speedup "
                  "(DESIGN.md Sec. 12)");

    // Sized so every Detailed run lands in the 0.5–2 Mcycle range at
    // the default scale: big enough that the Sampled tier alternates
    // through dozens of windows, small enough for CI.
    const Index dim = static_cast<Index>(16384 / scale);
    const std::uint64_t tnnz = (std::uint64_t{1} << 21) / scale;
    const std::uint64_t vnnz = (std::uint64_t{1} << 23) / scale;
    const Index gdim = static_cast<Index>(8192 / scale);

    std::vector<BenchCase> cases;
    cases.push_back({"transpose_uniform", core::Kernel::Transpose,
                     sparse::generateUniform(dim, dim, tnnz, 1)});
    cases.push_back({"transpose_rmat", core::Kernel::Transpose,
                     sparse::generateRmat(dim, tnnz, 0.1, 0.2, 0.3, 7)});
    cases.push_back({"spmv_uniform", core::Kernel::Spmv,
                     sparse::generateUniform(dim, dim, vnnz, 2)});
    cases.push_back({"spmv_rmat", core::Kernel::Spmv,
                     sparse::generateRmat(dim, vnnz, 0.1, 0.2, 0.3, 8)});
    cases.push_back({"spgemm_uniform", core::Kernel::Spgemm,
                     sparse::generateUniform(gdim, gdim, 16 * gdim, 3)});
    cases.push_back({"spgemm_rmat", core::Kernel::Spgemm,
                     sparse::generateRmat(gdim, 16 * gdim, 0.1, 0.2, 0.3,
                                          9)});

    // One PU keeps puCycles directly interpretable and puts all the
    // merge work on a single tree, the worst case for extrapolation.
    core::SystemConfig config;
    config.channels = 1;
    config.dimmsPerChannel = 1;
    config.ranksPerDimm = 1;
    config.pu.leaves = bench::scaledLeaves(1024, scale);

    std::printf("%-20s %12s %9s %9s %9s %9s %8s\n", "case",
                "detCycles", "funErr%", "funX", "smpErr%", "smpX",
                "windows");

    double fun_speedup_log = 0.0, smp_speedup_log = 0.0;
    std::map<std::string, double> max_err; // kernel -> sampled err %
    for (const BenchCase &bc : cases) {
        const ModeRun det =
            runMode(bc, config, core::SimMode::Detailed);
        const ModeRun fun =
            runMode(bc, config, core::SimMode::Functional);
        const ModeRun smp = runMode(bc, config, core::SimMode::Sampled);
        checkIdentical(bc, det, fun, "functional");
        checkIdentical(bc, det, smp, "sampled");

        const double det_cycles =
            static_cast<double>(det.run.puCycles);
        const auto rel_err = [&](const ModeRun &m) {
            return det_cycles > 0.0
                       ? 100.0 *
                             std::abs(static_cast<double>(m.run.puCycles) -
                                      det_cycles) /
                             det_cycles
                       : 0.0;
        };
        const auto speedup = [&](const ModeRun &m) {
            return m.wallSeconds > 0.0
                       ? det.wallSeconds / m.wallSeconds
                       : 1.0;
        };
        const double fun_err = rel_err(fun), smp_err = rel_err(smp);
        const double fun_x = speedup(fun), smp_x = speedup(smp);
        fun_speedup_log += std::log(fun_x);
        smp_speedup_log += std::log(smp_x);
        const std::string kernel = core::kernelName(bc.kernel);
        max_err[kernel] = std::max(max_err[kernel], smp_err);

        std::printf("%-20s %12.0f %9.2f %9.1f %9.2f %9.1f %8u\n",
                    bc.name.c_str(), det_cycles, fun_err, fun_x,
                    smp_err, smp_x, smp.run.sampledWindows);

        report.addRun(bc.name + ".detailed", config, det.run,
                      bc.a.nnz());
        report.report().setMetric(bc.name + ".functional.puCycles",
                                  static_cast<double>(fun.run.puCycles));
        report.report().setMetric(bc.name + ".functional.relErrPct",
                                  fun_err);
        report.report().setMetric(bc.name + ".functional.wallSpeedup",
                                  fun_x);
        report.report().setMetric(bc.name + ".sampled.puCycles",
                                  static_cast<double>(smp.run.puCycles));
        report.report().setMetric(bc.name + ".sampled.relErrPct",
                                  smp_err);
        report.report().setMetric(bc.name + ".sampled.wallSpeedup",
                                  smp_x);
        report.report().setMetric(bc.name + ".sampled.windows",
                                  smp.run.sampledWindows);
        report.report().setMetric(bc.name + ".sampled.errorBoundPct",
                                  smp.run.errorBoundPct);
    }

    const double n = static_cast<double>(cases.size());
    const double fun_geo = std::exp(fun_speedup_log / n);
    const double smp_geo = std::exp(smp_speedup_log / n);
    report.report().setMetric("summary.wallGeomeanFunctionalSpeedup",
                              fun_geo);
    report.report().setMetric("summary.wallGeomeanSampledSpeedup",
                              smp_geo);
    for (const auto &[kernel, err] : max_err)
        report.report().setMetric("summary.sampledMaxRelErrPct." + kernel,
                                  err);

    std::printf("\ngeomean wall speedup: functional %.1fx, sampled "
                "%.1fx\n", fun_geo, smp_geo);
    for (const auto &[kernel, err] : max_err)
        std::printf("max sampled puCycles error (%s): %.2f%%\n",
                    kernel.c_str(), err);
    return 0;
}
