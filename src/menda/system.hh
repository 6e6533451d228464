/**
 * @file
 * A full MeNDA system: one PU beside every DRAM rank (Sec. 3).
 *
 * Throughput scales with the total rank count: a channel is populated
 * with MeNDA-enabled DIMMs, each rank gets a PU in the DIMM buffer chip,
 * and every PU works on its own NNZ-balanced horizontal slice of the
 * matrix with rank-private bandwidth — the "internal" bandwidth NMP
 * exposes. PUs never communicate (Sec. 3.5).
 */

#ifndef MENDA_MENDA_SYSTEM_HH
#define MENDA_MENDA_SYSTEM_HH

#include <vector>

#include "common/stats.hh"
#include "dram/controller.hh"
#include "dram/dram_config.hh"
#include "menda/pu.hh"
#include "menda/pu_config.hh"
#include "obs/trace.hh"
#include "sparse/format.hh"
#include "sparse/partition.hh"

namespace menda::core
{

struct SystemConfig
{
    unsigned channels = 1;
    unsigned dimmsPerChannel = 2;
    unsigned ranksPerDimm = 2;
    PuConfig pu;
    dram::DramConfig dram = dram::DramConfig::ddr4_2400r(1);

    /**
     * Use the naive equal-row-range split instead of NNZ-balanced
     * partitioning (Sec. 3.5 ablation). Execution time then tracks the
     * most loaded PU.
     */
    bool rowPartitioning = false;

    /**
     * Host worker threads for the cycle simulation itself. PUs never
     * communicate during a pass (Sec. 3.5), so every (PU, controller)
     * pair runs on its own TickScheduler shard, and a batch run spreads
     * the shards over a pool of this many threads, joined before the
     * merge/collect phase. 0 picks the hardware concurrency; 1 runs the
     * shards one after another on the calling thread. Results (outputs,
     * counters, simulated time, traces) are bit-identical for every
     * value.
     */
    unsigned hostThreads = 1;

    /**
     * Period, in component cycles, of the time-series samplers (merge
     * tree occupancy in PU cycles, RD/WR queue depth in memory cycles)
     * of every rank's PU and controller. 0 disables sampling. Sampling
     * is passive: it never moves a simulated cycle.
     */
    std::uint64_t samplePeriod = 0;

    /**
     * Emit a progress heartbeat line on stderr every this many
     * simulated PU cycles (per shard). 0 disables the heartbeat.
     */
    std::uint64_t progressEveryCycles = 0;

    /**
     * Simulation fidelity tier (DESIGN.md Sec. 12). Detailed is the
     * cycle-accurate engine; Functional advances the kernel semantics
     * directly with an analytical cycle model; Sampled interleaves
     * functional fast-forward with periodic cycle-accurate windows.
     * Kernel outputs are bitwise identical across all three tiers.
     */
    SimMode simMode = SimMode::Detailed;

    /** Window/period knobs of the Sampled tier. */
    SampledConfig sampled;

    /** One PU per rank. */
    unsigned
    totalPus() const
    {
        return channels * dimmsPerChannel * ranksPerDimm;
    }

    /** Aggregate internal (rank-level) peak bandwidth, bytes/sec. */
    double
    internalPeakBandwidth() const
    {
        return dram.peakBandwidth() * totalPus();
    }
};

/** Outcome of one offloaded kernel. */
struct RunResult
{
    double seconds = 0.0;           ///< simulated wall time (max over PUs)
    Cycle puCycles = 0;             ///< PU cycles of the slowest PU
    unsigned iterations = 0;        ///< merge iterations (max over PUs)
    std::uint64_t readBlocks = 0;   ///< total 64 B blocks loaded
    std::uint64_t writeBlocks = 0;  ///< total 64 B blocks stored
    std::uint64_t coalescedRequests = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t activates = 0;
    double busUtilization = 0.0;    ///< aggregate data-bus busy fraction

    // Merge-tree utilization (summed over PUs). Dividing the occupancy
    // integral by puCycles gives the mean packets buffered in a tree;
    // the stall counters separate input-side (leaf FIFO full) from
    // output-side (output unit back-pressure) bottlenecks.
    std::uint64_t treeOccupancyPacketCycles = 0;
    std::uint64_t leafPushStallCycles = 0;
    std::uint64_t outputStallCycles = 0;

    // Distributions, merged bucket-wise across all shards.
    Histogram readLatency;   ///< read round-trip, memory-clock cycles
    Histogram leafStallRuns; ///< leaf-push stall run lengths, PU cycles

    // Per-rank command counts, flattened in (controller, rank) order —
    // the inputs to power::DramPowerModel::energyJ.
    std::vector<std::uint64_t> rankActivates;
    std::vector<std::uint64_t> rankBursts;

    // SpGEMM only (empty otherwise): COO ping-pong spill traffic per
    // merge iteration, summed element-wise over PUs (shorter-running
    // PUs contribute zeros to the tail). Reads are the analytic block
    // spans of the runs each iteration consumes; writes the measured
    // store blocks of each non-final iteration. Both schedulers report
    // them, which is what the condensed-over-uniform bench ratio and
    // its CI gate are built from.
    std::vector<std::uint64_t> spilledReadBlocks;
    std::vector<std::uint64_t> spilledWriteBlocks;

    // Representative time series (PU 0 / controller 0); empty unless
    // SystemConfig::samplePeriod was set.
    IntervalSampler treeOccupancy;
    IntervalSampler readQueueDepth;

    // Fast-tier provenance (DESIGN.md Sec. 12). Defaults describe a
    // Detailed run; the extra fields are only meaningful otherwise.
    SimMode simMode = SimMode::Detailed;
    unsigned sampledWindows = 0;   ///< detailed windows run (Sampled)
    double errorBoundPct = 0.0;    ///< ~95% CI on extrapolated puCycles
    Cycle fastForwardedCycles = 0; ///< cycles charged outside windows

    std::uint64_t totalBlocks() const { return readBlocks + writeBlocks; }

    /** Bytes moved per second of execution. */
    double
    achievedBandwidth() const
    {
        return seconds > 0.0 ? totalBlocks() * 64.0 / seconds : 0.0;
    }

    /** Transposition throughput metric of the paper: NNZ/s. */
    double
    throughputNnzPerSec(std::uint64_t nnz) const
    {
        return seconds > 0.0 ? static_cast<double>(nnz) / seconds : 0.0;
    }
};

struct TransposeResult : RunResult
{
    sparse::CscMatrix csc; ///< merged full transpose (validation view)
    std::vector<sparse::RowSlice> slices; ///< per-PU partitions
};

struct SpmvResult : RunResult
{
    std::vector<double> y; ///< full result vector
};

struct SpgemmResult : RunResult
{
    sparse::CsrMatrix c;  ///< stitched product C = A x B
    std::vector<sparse::RowSlice> slices; ///< per-PU A partitions
    std::uint64_t partialProducts = 0;    ///< merge elements generated
};

class MendaSystem
{
  public:
    explicit MendaSystem(const SystemConfig &config) : config_(config) {}

    const SystemConfig &config() const { return config_; }

    /**
     * Trace the next run into @p tracer (one shard per rank). The
     * tracer must outlive the run; pass nullptr to stop tracing. Use a
     * fresh Tracer per run. Every rank simulates on its own shard, so
     * the idle-skip schedule, and with it the trace, is identical for
     * every host thread count.
     */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /** Transpose @p a (CSR -> CSC) across all PUs; cycle simulated. */
    TransposeResult transpose(const sparse::CsrMatrix &a);

    /**
     * SpMV y = A * x with A given in the partitioned CSC format MeNDA's
     * transposition produces (Sec. 3.6).
     */
    SpmvResult spmv(const sparse::CsrMatrix &a,
                    const std::vector<Value> &x);

    /**
     * SpGEMM C = A x B (CSR x CSR -> CSR) as an outer-product merge
     * dataflow: each PU merges the scaled-B-row partial products of its
     * merge-work-balanced A slice, spilling to DRAM and re-merging when
     * the fan-in exceeds the tree width (DESIGN.md Sec. 9). B is
     * replicated into every rank.
     */
    SpgemmResult spgemm(const sparse::CsrMatrix &a,
                        const sparse::CsrMatrix &b);

    /** Per-PU iteration stats of the last run (Fig. 12 analysis). */
    const std::vector<std::vector<IterationStats>> &
    lastIterationStats() const
    {
        return lastIterStats_;
    }

  private:
    SystemConfig config_;
    obs::Tracer *tracer_ = nullptr;
    std::vector<std::vector<IterationStats>> lastIterStats_;
};

} // namespace menda::core

#endif // MENDA_MENDA_SYSTEM_HH
