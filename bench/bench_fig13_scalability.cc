/**
 * @file
 * Fig. 13: execution time and throughput of MeNDA transposing the
 * Tab. 3 uniform matrices N1-N8, sweeping the number of memory channels
 * (1 / 2 / 4; each channel is 2 DIMMs x 2 ranks = 4 PUs).
 *
 * Expected shape (Sec. 6.5): throughput scales ~linearly with channels;
 * execution time tracks NNZ (N1-N4) and stays flat for equal-NNZ
 * matrices (N5-N8) except where an extra merge iteration is needed.
 *
 * Host-side knobs: --threads=N runs the cycle simulation sharded per
 * rank on N host threads (0 = hardware concurrency; default 1 =
 * sequential). Simulated results are bit-identical either way; only
 * wall-clock changes. Every run also emits a menda.runReport/1 file
 * BENCH_fig13_scalability.json (--bench-json=PATH overrides) with the
 * per-configuration simulated metrics — what the CI perf gate diffs
 * against bench/baselines/ — plus a tracing-overhead A/B: the N4
 * 1-channel run repeated with and without a Tracer attached, reporting
 * the sim-cycles/sec cost of enabling event tracing.
 */

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.hh"
#include "obs/trace.hh"
#include "sparse/workloads.hh"

using namespace menda;
using namespace menda::bench;

namespace
{

double
wallSecondsSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * The A/B overhead run: transpose @p a on one channel, traced or not,
 * and return host sim-cycles/sec. Both arms simulate the same per-rank
 * shards, so the comparison isolates the cost of event emission.
 */
double
overheadArm(const sparse::CsrMatrix &a, unsigned leaves,
            unsigned threads, bool traced)
{
    core::SystemConfig config = channelSystem(1);
    config.pu.leaves = leaves;
    config.hostThreads = threads;
    core::MendaSystem sys(config);
    obs::Tracer tracer(std::size_t{1} << 20);
    if (traced)
        sys.setTracer(&tracer);
    const auto start = std::chrono::steady_clock::now();
    core::TransposeResult result = sys.transpose(a);
    const double wall = wallSecondsSince(start);
    return wall > 0.0 ? static_cast<double>(result.puCycles) / wall : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.parse(argc, argv);
    const std::uint64_t scale = opts.scale();
    const unsigned threads =
        static_cast<unsigned>(opts.getInt("threads", 1));

    banner("Figure 13: scalability with channels (scale 1/" +
           std::to_string(scale) + ", " + std::to_string(threads) +
           " host thread(s))");
    PlotWriter plot(opts, "fig13_scalability");
    std::printf("%-6s %10s | %12s %14s | %6s %9s | %10s\n", "Matrix",
                "Channels", "ExecTime(ms)", "Thrpt(MNNZ/s)", "Iters",
                "BusUtil", "Wall(ms)");

    ReportWriter writer(opts, "fig13_scalability");
    writer.report().setMeta("scale", std::to_string(scale));
    // Record the host parallelism actually available: wall-clock speedup
    // from --threads is bounded by it (a 1-core host can only show the
    // shards' early-termination win, not thread scaling).
    writer.report().setMeta("hostThreads", std::to_string(threads));
    writer.report().setMeta(
        "hwConcurrency",
        std::to_string(std::thread::hardware_concurrency()));
    double wall_total_ms = 0.0;

    for (const auto &spec : sparse::table3Uniform()) {
        sparse::CsrMatrix a = sparse::makeWorkload(spec, scale);
        plot.series(spec.name + " throughput (MNNZ/s)");
        for (unsigned channels : {1u, 2u, 4u}) {
            core::SystemConfig config = channelSystem(channels);
            config.pu.leaves = scaledLeaves(1024, scale);
            config.hostThreads = threads;
            core::MendaSystem sys(config);
            const auto wall_start = std::chrono::steady_clock::now();
            core::TransposeResult result = sys.transpose(a);
            const double wall = wallSecondsSince(wall_start);
            wall_total_ms += wall * 1e3;
            std::printf("%-6s %10u | %12.3f %14.1f | %6u %8.1f%% | "
                        "%10.1f\n",
                        spec.name.c_str(), channels,
                        result.seconds * 1e3,
                        result.throughputNnzPerSec(a.nnz()) / 1e6,
                        result.iterations,
                        result.busUtilization * 100.0, wall * 1e3);
            plot.point(channels,
                       result.throughputNnzPerSec(a.nnz()) / 1e6);
            writer.addRun(spec.name + ".c" +
                              std::to_string(channels),
                          config, result, a.nnz(), wall);
        }
    }
    writer.report().setMetric("wallTotalMs", wall_total_ms);

    // Tracing overhead A/B (N4, 1 channel): the `if (trace_)` emission
    // sites should be nearly free when no tracer is attached; this
    // records both rates so the report shows the actual cost. The
    // metrics carry "traceOverhead" in their names, so the diff gate
    // never fails on them (they are host-speed-dependent).
    {
        sparse::CsrMatrix a = sparse::makeWorkload(
            sparse::findWorkload("N4"), scale);
        const unsigned leaves = scaledLeaves(1024, scale);
        const double off = overheadArm(a, leaves, threads, false);
        const double on = overheadArm(a, leaves, threads, true);
        const double pct =
            off > 0.0 ? (off - on) / off * 100.0 : 0.0;
        writer.report().setMetric("traceOverheadOffSimCyclesPerSec", off);
        writer.report().setMetric("traceOverheadOnSimCyclesPerSec", on);
        writer.report().setMetric("traceOverheadPct", pct);
        std::printf("\nTracing overhead (N4, 1 channel): %.3g -> %.3g "
                    "sim-cycles/s with tracing on (%.1f%%)\n",
                    off, on, pct);
    }

    plot.script("Fig. 13: throughput vs channels",
                "set xlabel 'channels'\nset ylabel 'MNNZ/s'\n"
                "plot for [i=0:7] datafile index i with linespoints "
                "title columnheader(1)");
    std::printf("\nNote: a merge tree of %u leaves (nominal 1024 scaled "
                "with the matrices)\n", scaledLeaves(1024, scale));
    std::printf("Host wall-clock total: %.1f ms on %u thread(s) "
                "(%u hardware threads available)\n",
                wall_total_ms, threads,
                std::thread::hardware_concurrency());
    return 0;
}
