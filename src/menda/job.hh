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
 *  - a *plan* is the host-side layout work for one matrix: the NNZ-
 *    (or merge-work-) balanced partitioning and the extracted per-rank
 *    slice arrays. Plans are immutable and shareable — the serve
 *    residency cache keeps them alive across jobs so a repeated matrix
 *    skips re-layout entirely;
 *  - a *job* owns the simulated components (one PU, controller and
 *    private TickScheduler per rank) and advances in bounded cycle
 *    slices via step(), so a scheduler can interleave many jobs on one
 *    machine and a long SpGEMM cannot starve short SpMVs.
 *
 * step() advances every rank on the host thread pool, and
 * runToCompletion() is step() with an unbounded slice. Outputs,
 * counters, and reports are bit-identical however a job is sliced
 * because pausing runUntil() does not change the tick sequence.
 */

#ifndef MENDA_MENDA_JOB_HH
#define MENDA_MENDA_JOB_HH

#include <chrono>
#include <memory>
#include <variant>
#include <vector>

#include "menda/kernel.hh"
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
 * Every rank is advanced independently (Sec. 3.5: PUs never communicate
 * during a pass). Detailed tier: a rank's private TickScheduler ticks
 * its PU and controller cycle by cycle. Fast tiers (Functional/Sampled)
 * run a rank's semantics on its first slice and then let simulated time
 * pass until it covers the rank's analytical cycle estimate, so a fast
 * job occupies a machine exactly as long as it claims to.
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
     * every unfinished rank, on a pool of config.hostThreads host
     * threads. Returns true when the job has just finished. A slice of
     * 0 is a no-op.
     */
    bool step(Cycle max_pu_cycles);

    /** step() with an unbounded slice. */
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
    /** One rank's private simulation and its progress. */
    struct Rank
    {
        std::unique_ptr<dram::MemoryController> mem;
        std::unique_ptr<Pu> pu;
        TickScheduler sched; ///< Detailed tier only
        FastSimStats fast;   ///< fast tiers only
        bool ran = false;    ///< fast tiers: semantics executed
        Cycle granted = 0;   ///< fast tiers: time passed, <= pu cycles
        bool finished = false;
        double seconds = 0.0; ///< simulated time, once finished
        Cycle nextMark = 0;   ///< next --progress heartbeat boundary
    };

    /** Let up to @p n PU cycles pass on rank @p i. */
    void advance(std::size_t i, Cycle n);
    void collect(RunResult &result);

    SystemConfig config_;
    KernelPlan plan_;      ///< shared immutable input
    std::vector<Value> x_; ///< SpMV input vector (owned)
    std::vector<Rank> ranks_;

    std::chrono::steady_clock::time_point wallStart_;
    std::vector<std::vector<IterationStats>> iterStats_;
};

} // namespace menda::core

#endif // MENDA_MENDA_JOB_HH
