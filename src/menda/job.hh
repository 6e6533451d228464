/**
 * @file
 * Resumable kernel execution: plans + jobs (DESIGN.md §13).
 *
 * MendaSystem's kernel entry points used to be run-to-completion: build
 * the per-rank slices, construct one (PU, controller) pair per rank,
 * tick everything to done(), collect. menda_serve needs the same kernels
 * as *jobs* that interleave on one simulated machine, so the pipeline is
 * split in two:
 *
 *  - a *plan* is the host-side allocation + layout work for one matrix:
 *    the NNZ- (or merge-work-) balanced partitioning, the extracted
 *    per-rank slice arrays, and the page-coloring placement. Plans are
 *    immutable and shareable — the serve residency cache keeps them
 *    alive across jobs so a repeated matrix skips re-layout entirely;
 *  - a *job* owns the simulated components (PUs, controllers, one
 *    private TickScheduler per rank shard) and advances in bounded
 *    cycle slices via step(), so a scheduler can interleave many jobs
 *    on one machine and a long SpGEMM cannot starve short SpMVs.
 *
 * runToCompletion() runs the rank shards on the host thread pool;
 * outputs, counters, and reports are bit-identical between stepped and
 * batch execution because pausing runUntil() does not change the tick
 * sequence.
 */

#ifndef MENDA_MENDA_JOB_HH
#define MENDA_MENDA_JOB_HH

#include <chrono>
#include <memory>
#include <variant>
#include <vector>

#include "menda/kernel.hh"
#include "menda/page_coloring.hh"
#include "menda/system.hh"
#include "sim/clock.hh"

namespace menda::core
{

/** Host-side layout for a transposition run of one matrix. */
struct TransposePlan
{
    Index rows = 0, cols = 0;
    std::uint64_t nnz = 0;
    std::vector<sparse::RowSlice> slices;  ///< balanced row ranges
    std::vector<sparse::CsrMatrix> csr;    ///< extracted per-rank slices
    PageTable pages;                       ///< page-colored placement

    /** Simulated bytes this layout keeps resident (cache accounting). */
    std::uint64_t residentBytes() const;
};

/** Host-side layout for SpMV: slices stored in partitioned CSC. */
struct SpmvPlan
{
    Index rows = 0, cols = 0;
    std::uint64_t nnz = 0;
    std::vector<sparse::RowSlice> slices;
    std::vector<sparse::CscMatrix> csc;    ///< per-rank CSC partitions
    PageTable pages;

    std::uint64_t residentBytes() const;
};

/** Host-side layout for SpGEMM C = A x B (B replicated per rank). */
struct SpgemmPlan
{
    Index rows = 0, cols = 0;              ///< dimensions of C
    std::uint64_t nnz = 0;                 ///< nnz(A) + nnz(B)
    std::vector<sparse::RowSlice> slices;  ///< A split by merge work
    std::vector<sparse::CsrMatrix> csr;    ///< extracted A slices
    sparse::CsrMatrix b;                   ///< replicated second operand
    std::uint64_t partialProducts = 0;

    std::uint64_t residentBytes() const;
};

/** Build the layouts MendaSystem's kernels consume (config: rank count
 *  and the rowPartitioning ablation knob). */
std::shared_ptr<const TransposePlan>
planTranspose(const sparse::CsrMatrix &a, const SystemConfig &config);
std::shared_ptr<const SpmvPlan> planSpmv(const sparse::CsrMatrix &a,
                                         const SystemConfig &config);
std::shared_ptr<const SpgemmPlan> planSpgemm(const sparse::CsrMatrix &a,
                                             const sparse::CsrMatrix &b,
                                             const SystemConfig &config);

/** Any kernel's plan; the alternative's index is its Kernel. */
using KernelPlan = std::variant<std::shared_ptr<const TransposePlan>,
                                std::shared_ptr<const SpmvPlan>,
                                std::shared_ptr<const SpgemmPlan>>;

/**
 * One offloaded kernel with resumable execution.
 *
 * Detailed tier: every rank owns a private shard (TickScheduler + PU +
 * controller) that step() advances cycle by cycle. Fast tiers
 * (Functional/Sampled) run their semantics on the first step() and
 * then let simulated time pass until it covers the analytical
 * puCycles() estimate, so a fast job occupies a machine exactly as long
 * as it claims to.
 */
class KernelJob
{
  public:
    using Kind = Kernel;

    /** @p x is the SpMV input vector (cols entries); other kernels
     *  take none. */
    KernelJob(const SystemConfig &config, KernelPlan plan,
              std::vector<Value> x = {}, obs::Tracer *tracer = nullptr);
    ~KernelJob();

    KernelJob(const KernelJob &) = delete;
    KernelJob &operator=(const KernelJob &) = delete;

    Kernel kind() const { return static_cast<Kernel>(plan_.index()); }
    const SystemConfig &config() const { return config_; }
    bool done() const;

    /**
     * Let up to @p max_pu_cycles PU cycles of simulated time pass on
     * every unfinished rank. Returns true when the job has just
     * finished. A slice of 0 is a no-op.
     */
    bool step(Cycle max_pu_cycles);

    /** Run every rank to completion on a pool of config.hostThreads
     *  host threads. */
    void runToCompletion();

    /** PU cycles of the slowest rank so far (exact once done). */
    Cycle puCycles() const;

    /** Input non-zeros (throughput metric basis). */
    std::uint64_t nnz() const;

    // --- results; valid once done() ---
    TransposeResult takeTranspose();
    SpmvResult takeSpmv();
    SpgemmResult takeSpgemm();

    /** Per-PU iteration stats (Fig. 12 analysis). Valid once done. */
    const std::vector<std::vector<IterationStats>> &iterationStats() const
    {
        return iterStats_;
    }

  private:
    /** One rank's private simulation: scheduler + clock domains. */
    struct Shard
    {
        TickScheduler sched;
        ClockDomain *puClk = nullptr;
        ClockDomain *memClk = nullptr;
        bool finished = false;
        double seconds = 0.0;
        Cycle nextMark = 0; ///< next --progress heartbeat boundary
    };

    void runShardToCompletion(std::size_t i);
    void runFastRank(std::size_t i);
    /** Fast tiers: execute every rank's semantics (once). */
    void runFast();
    double finishSeconds() const;
    void collect(RunResult &result);

    SystemConfig config_;
    KernelPlan plan_;      ///< shared immutable input
    std::vector<Value> x_; ///< SpMV input vector (owned)

    std::vector<std::unique_ptr<dram::MemoryController>> mems_;
    std::vector<std::unique_ptr<Pu>> pus_;
    std::vector<std::unique_ptr<Shard>> shards_; ///< Detailed tier only
    std::vector<FastSimStats> fastStats_;        ///< fast tiers only
    bool fastRan_ = false;    ///< fast tiers: semantics executed
    Cycle grantedCycles_ = 0; ///< fast tiers: time passed, <= puCycles()

    std::chrono::steady_clock::time_point wallStart_;
    std::vector<std::vector<IterationStats>> iterStats_;
    bool finishedCollect_ = false;
};

} // namespace menda::core

#endif // MENDA_MENDA_JOB_HH
