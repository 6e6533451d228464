/**
 * @file
 * `menda_sim` — the command-line driver for the simulator.
 *
 *   menda_sim inspect   <file.mtx | --workload=NAME> [--scale=N]
 *   menda_sim transpose <file.mtx | --workload=NAME> [system flags]
 *   menda_sim spmv      <file.mtx | --workload=NAME> [system flags]
 *   menda_sim spgemm    <file.mtx | --workload=NAME | --rmat=DIM>
 *                       [--nnz=N] [--seed=S] [--verify]
 *                       [--scheduler=uniform|huffman] [system flags]
 *                       (computes C = A x A on the merge dataflow;
 *                       huffman = condensed partial products + size-
 *                       aware merge scheduling, DESIGN.md Sec. 15)
 *   menda_sim sweep     <file.mtx | --workload=NAME> --param=channels|leaves|frequency
 *
 * System flags: --channels --dimms --ranks --leaves --freq
 *               --threads (host simulation threads; 1 = sequential,
 *               0 = all hardware threads; results are bit-identical)
 *               --no-prefetch --no-coalescing --no-seamless
 *               --row-partitioning --json
 *               --sim-mode=detailed|functional|sampled[:W,P]
 *               (fast tiers: same kernel outputs, estimated timing;
 *               W = window cycles, P = fast-forward period cycles)
 *
 * Observability flags (transpose/spmv/spgemm):
 *   --trace=FILE         write a Chrome trace-event JSON of the run
 *                        (open in Perfetto or chrome://tracing)
 *   --report=FILE        write a menda.runReport/1 JSON run report
 *                        (compare two with menda_report_diff)
 *   --sample-period=N    sample tree occupancy / queue depths every N
 *                        component cycles (series land in the report)
 *   --progress=N         stderr heartbeat every N million PU cycles
 *
 * Traced or sampled runs always use the sharded simulation path, so
 * trace bytes and every deterministic report metric are identical for
 * every --threads value (only the wall-clock metrics differ).
 *
 * Examples:
 *   menda_sim inspect --workload=wiki-Talk --scale=16
 *   menda_sim transpose my_matrix.mtx --channels=2 --leaves=512 --json
 *   menda_sim spgemm --rmat=4096 --trace=run.trace.json --report=run.json
 *   menda_sim sweep --workload=N5 --param=channels
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/spgemm_cpu.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "menda/kernel.hh"
#include "menda/run_report.hh"
#include "menda/system.hh"
#include "obs/trace.hh"
#include "sparse/generate.hh"
#include "power/power_model.hh"
#include "sparse/mmio.hh"
#include "sparse/stats.hh"
#include "sparse/workloads.hh"

namespace
{

using namespace menda;

sparse::CsrMatrix
loadMatrix(const Options &opts)
{
    // Positional argument after the subcommand = a Matrix Market file.
    for (const auto &[pos, arg] : opts.positional()) {
        if (pos >= 2)
            return sparse::readMatrixMarketFile(arg);
    }
    const std::string name = opts.get("workload", "N3");
    return sparse::makeWorkload(sparse::findWorkload(name),
                                opts.scale(8));
}

core::SystemConfig
systemFromFlags(const Options &opts)
{
    core::SystemConfig config;
    config.channels =
        static_cast<unsigned>(opts.getInt("channels", 1));
    config.dimmsPerChannel =
        static_cast<unsigned>(opts.getInt("dimms", 2));
    config.ranksPerDimm = static_cast<unsigned>(opts.getInt("ranks", 2));
    config.pu.leaves =
        static_cast<unsigned>(opts.getInt("leaves", 256));
    config.pu.freqMhz =
        static_cast<std::uint64_t>(opts.getInt("freq", 800));
    config.pu.stallReducingPrefetch = !opts.has("no-prefetch");
    config.pu.requestCoalescing = !opts.has("no-coalescing");
    config.pu.seamlessMerge = !opts.has("no-seamless");
    config.rowPartitioning = opts.has("row-partitioning");
    config.hostThreads =
        static_cast<unsigned>(opts.getInt("threads", 1));
    config.samplePeriod =
        static_cast<std::uint64_t>(opts.getInt("sample-period", 0));
    config.progressEveryCycles =
        static_cast<std::uint64_t>(opts.getInt("progress", 0)) *
        1'000'000;
    if (opts.has("sim-mode")) {
        const std::string spec = opts.get("sim-mode", "detailed");
        if (!core::parseSimMode(spec, config.simMode, config.sampled))
            menda_fatal("bad --sim-mode '", spec,
                        "' (detailed|functional|sampled[:W,P])");
    }
    return config;
}

/**
 * Arms tracing before a kernel run and writes the --trace/--report
 * outputs afterwards. Construct after the MendaSystem, call finish()
 * once with the run's result.
 */
class ObservedRun
{
  public:
    ObservedRun(core::MendaSystem &sys, const Options &opts) : opts_(opts)
    {
        if (opts_.has("trace")) {
            tracer_ = std::make_unique<obs::Tracer>(std::size_t{1} << 20);
            sys.setTracer(tracer_.get());
        }
        start_ = std::chrono::steady_clock::now();
    }

    void
    finish(core::Kernel kernel, const core::RunResult &result,
           const sparse::CsrMatrix &a, const core::SystemConfig &config)
    {
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        if (tracer_) {
            const std::string path = opts_.get("trace", "");
            std::ofstream out(path, std::ios::binary);
            if (!out)
                menda_fatal("cannot open trace file '", path, "'");
            tracer_->writeChromeTrace(out);
            std::fprintf(stderr,
                         "[menda] trace: %llu events (%llu dropped) "
                         "-> %s\n",
                         (unsigned long long)tracer_->eventCount(),
                         (unsigned long long)tracer_->droppedEvents(),
                         path.c_str());
        }
        if (opts_.has("report")) {
            const char *name = core::kernelName(kernel);
            obs::RunReport report = core::makeRunReport(
                std::string("menda_sim.") + name, name, config, result,
                a.nnz(), wall);
            report.write(opts_.get("report", ""));
        }
    }

  private:
    const Options &opts_;
    std::unique_ptr<obs::Tracer> tracer_;
    std::chrono::steady_clock::time_point start_;
};

void
printRunResult(core::Kernel kernel, const core::RunResult &result,
               const sparse::CsrMatrix &a,
               const core::SystemConfig &config, bool json)
{
    power::PuPowerModel power;
    const double watts =
        power.puWatts(config.pu, kernel == core::Kernel::Spmv) *
        config.totalPus();
    const char *name = core::kernelName(kernel);
    if (json) {
        std::printf("{\"kernel\":\"%s\",\"rows\":%u,\"cols\":%u,"
                    "\"nnz\":%lu,\"pus\":%u,\"leaves\":%u,"
                    "\"seconds\":%.9g,\"iterations\":%u,"
                    "\"readBlocks\":%lu,\"writeBlocks\":%lu,"
                    "\"coalesced\":%lu,\"busUtilization\":%.4f,"
                    "\"puWatts\":%.4f}\n",
                    name, a.rows, a.cols, (unsigned long)a.nnz(),
                    config.totalPus(), config.pu.leaves, result.seconds,
                    result.iterations, (unsigned long)result.readBlocks,
                    (unsigned long)result.writeBlocks,
                    (unsigned long)result.coalescedRequests,
                    result.busUtilization, watts);
        return;
    }
    std::printf("%s on %u PUs (%u leaves, %lu MHz):\n", name,
                config.totalPus(), config.pu.leaves,
                (unsigned long)config.pu.freqMhz);
    std::printf("  simulated time     %.3f ms (%u merge iterations)\n",
                result.seconds * 1e3, result.iterations);
    std::printf("  throughput         %.1f MNNZ/s\n",
                result.throughputNnzPerSec(a.nnz()) / 1e6);
    std::printf("  traffic            %.2f MB (%lu rd + %lu wr blocks, "
                "%lu coalesced)\n", result.totalBlocks() * 64.0 / 1e6,
                (unsigned long)result.readBlocks,
                (unsigned long)result.writeBlocks,
                (unsigned long)result.coalescedRequests);
    std::printf("  bus utilization    %.1f%%\n",
                result.busUtilization * 100.0);
    std::printf("  PU power           %.1f mW total\n", watts * 1e3);
}

int
cmdInspect(const Options &opts)
{
    sparse::CsrMatrix a = loadMatrix(opts);
    sparse::MatrixStats stats = sparse::analyze(a);
    if (opts.has("json")) {
        std::printf("{\"rows\":%u,\"cols\":%u,\"nnz\":%lu,"
                    "\"density\":%.8f,\"emptyRows\":%u,\"emptyCols\":%u,"
                    "\"rowMean\":%.3f,\"rowMax\":%u,\"rowSkew\":%.3f,"
                    "\"bandwidth\":%u,\"symmetry\":%.4f}\n",
                    stats.rows, stats.cols, (unsigned long)stats.nnz,
                    stats.density, stats.emptyRows, stats.emptyCols,
                    stats.rowLengths.mean, stats.rowLengths.max,
                    stats.rowLengths.skew, stats.bandwidth,
                    stats.structuralSymmetry);
        return 0;
    }
    std::printf("matrix: %u x %u, %lu non-zeros (density %.5f%%)\n",
                stats.rows, stats.cols, (unsigned long)stats.nnz,
                100.0 * stats.density);
    std::printf("rows:   mean %.2f, max %u, skew %.2f, %u empty\n",
                stats.rowLengths.mean, stats.rowLengths.max,
                stats.rowLengths.skew, stats.emptyRows);
    std::printf("cols:   mean %.2f, max %u, skew %.2f, %u empty\n",
                stats.colLengths.mean, stats.colLengths.max,
                stats.colLengths.skew, stats.emptyCols);
    std::printf("bandwidth %u, structural symmetry %.1f%%\n",
                stats.bandwidth, 100.0 * stats.structuralSymmetry);
    std::printf("row-length histogram (log2 buckets):");
    for (std::size_t b = 0; b < stats.rowLengths.log2Histogram.size();
         ++b)
        std::printf(" %lu",
                    (unsigned long)stats.rowLengths.log2Histogram[b]);
    std::printf("\nMeNDA iterations on one PU: %u (1024 leaves) / %u "
                "(256) / %u (64)\n", stats.mergeIterations(1024),
                stats.mergeIterations(256), stats.mergeIterations(64));
    return 0;
}

int
cmdTranspose(const Options &opts)
{
    sparse::CsrMatrix a = loadMatrix(opts);
    core::SystemConfig config = systemFromFlags(opts);
    core::MendaSystem sys(config);
    ObservedRun observed(sys, opts);
    core::TransposeResult result = sys.transpose(a);
    observed.finish(core::Kernel::Transpose, result, a, config);
    if (opts.has("verify")) {
        if (!(result.csc == sparse::transposeReference(a)))
            menda_fatal("verification FAILED");
        std::printf("verified against the golden reference\n");
    }
    printRunResult(core::Kernel::Transpose, result, a, config,
                   opts.has("json"));
    return 0;
}

int
cmdSpmv(const Options &opts)
{
    sparse::CsrMatrix a = loadMatrix(opts);
    core::SystemConfig config = systemFromFlags(opts);
    std::vector<Value> x(a.cols, 1.0f);
    core::MendaSystem sys(config);
    ObservedRun observed(sys, opts);
    core::SpmvResult result = sys.spmv(a, x);
    observed.finish(core::Kernel::Spmv, result, a, config);
    printRunResult(core::Kernel::Spmv, result, a, config,
                   opts.has("json"));
    return 0;
}

int
cmdSpgemm(const Options &opts)
{
    // `--rmat=DIM` runs the self-contained power-law demo; otherwise a
    // workload or .mtx file supplies A. Both compute C = A x A through
    // the outer-product merge engine (DESIGN.md Sec. 9).
    sparse::CsrMatrix a;
    if (opts.has("rmat")) {
        const Index dim =
            static_cast<Index>(opts.getInt("rmat", 256));
        const std::uint64_t nnz = static_cast<std::uint64_t>(
            opts.getInt("nnz", 8 * static_cast<std::int64_t>(dim)));
        a = sparse::generateRmat(
            dim, nnz, 0.1, 0.2, 0.3,
            static_cast<std::uint64_t>(opts.getInt("seed", 42)));
    } else {
        a = loadMatrix(opts);
    }
    if (a.rows != a.cols)
        menda_fatal("spgemm computes A x A and needs a square matrix "
                    "(got ", a.rows, " x ", a.cols, ")");
    core::SystemConfig config = systemFromFlags(opts);
    const std::string scheduler = opts.get("scheduler", "uniform");
    if (scheduler == "huffman")
        config.pu.spgemm.scheduler = spgemm::SpgemmScheduler::Huffman;
    else if (scheduler != "uniform")
        menda_fatal("bad --scheduler '", scheduler,
                    "' (uniform|huffman)");
    core::MendaSystem sys(config);
    ObservedRun observed(sys, opts);
    core::SpgemmResult result = sys.spgemm(a, a);
    observed.finish(core::Kernel::Spgemm, result, a, config);
    if (opts.has("verify")) {
        if (!(result.c == baselines::spgemmHeapMerge(a, a)))
            menda_fatal("verification FAILED");
        std::printf("verified against the heap-merge baseline\n");
    }
    if (!opts.has("json"))
        std::printf("C = A x A: %lu partial products -> %lu output "
                    "non-zeros\n",
                    (unsigned long)result.partialProducts,
                    (unsigned long)result.c.nnz());
    printRunResult(core::Kernel::Spgemm, result, a, config,
                   opts.has("json"));
    return 0;
}

int
cmdSweep(const Options &opts)
{
    sparse::CsrMatrix a = loadMatrix(opts);
    const std::string param = opts.get("param", "channels");
    std::vector<std::int64_t> values;
    if (param == "channels")
        values = {1, 2, 4};
    else if (param == "leaves")
        values = {16, 64, 256, 1024};
    else if (param == "frequency")
        values = {400, 600, 800, 1000, 1200};
    else
        menda_fatal("unknown sweep parameter '", param,
                    "' (channels|leaves|frequency)");

    std::printf("%-10s %12s %12s %8s %10s\n", param.c_str(), "time(ms)",
                "MNNZ/s", "iters", "busUtil");
    for (std::int64_t value : values) {
        core::SystemConfig config = systemFromFlags(opts);
        if (param == "channels")
            config.channels = static_cast<unsigned>(value);
        else if (param == "leaves")
            config.pu.leaves = static_cast<unsigned>(value);
        else
            config.pu.freqMhz = static_cast<std::uint64_t>(value);
        core::MendaSystem sys(config);
        core::TransposeResult result = sys.transpose(a);
        std::printf("%-10ld %12.3f %12.1f %8u %9.1f%%\n", (long)value,
                    result.seconds * 1e3,
                    result.throughputNnzPerSec(a.nnz()) / 1e6,
                    result.iterations, result.busUtilization * 100.0);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace menda;
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: menda_sim "
                     "<inspect|transpose|spmv|spgemm|sweep> "
                     "[matrix.mtx] [--workload=NAME] [flags]\n");
        return 2;
    }
    Options opts;
    opts.parse(argc, argv);
    const std::string cmd = argv[1];
    try {
        if (cmd == "inspect")
            return cmdInspect(opts);
        if (cmd == "transpose")
            return cmdTranspose(opts);
        if (cmd == "spmv")
            return cmdSpmv(opts);
        if (cmd == "spgemm")
            return cmdSpgemm(opts);
        if (cmd == "sweep")
            return cmdSweep(opts);
        std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
        return 2;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
