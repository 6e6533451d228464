/**
 * @file
 * A MeNDA processing unit (Sec. 3.2).
 *
 * One PU lives in the buffer chip of a DIMM beside one DRAM rank and
 * transposes one horizontal slice of the sparse matrix (or, in SpMV mode,
 * merges one slice's column streams into a partition of the result
 * vector). It consists of:
 *
 *   - a hardware merge tree (merge_tree.hh),
 *   - one prefetch buffer per stream slot (prefetch_buffer.hh),
 *   - an output unit behind the root PE (output_unit.hh),
 *   - a controller FSM that walks pointer arrays, carves sorted streams,
 *     and assigns them to prefetch buffers round by round from one
 *     padded slot table per iteration (ordinal = round * leaves +
 *     slot), which the fast tiers and measurement windows read too,
 *   - a memory interface unit: the read queue (with request coalescing)
 *     and write queue in front of a rank-private DDR4 controller.
 *
 * The PU ticks at the PU clock (800 MHz nominal); its DRAM controller
 * ticks at the memory clock. One load request and one store request can
 * be enqueued per PU cycle, and one memory response is consumed per PU
 * cycle and broadcast to the prefetch buffers (Sec. 3.2).
 */

#ifndef MENDA_MENDA_PU_HH
#define MENDA_MENDA_PU_HH

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "dram/controller.hh"
#include "menda/kernel.hh"
#include "menda/memory_map.hh"
#include "menda/merge_tree.hh"
#include "menda/output_unit.hh"
#include "menda/prefetch_buffer.hh"
#include "menda/pu_config.hh"
#include "menda/sim_mode.hh"
#include "menda/stream.hh"
#include "obs/trace.hh"
#include "sparse/format.hh"
#include "spgemm/partial_products.hh"
#include "spgemm/plan.hh"
#include "sim/clock.hh"

namespace menda::core
{

/** Per-iteration measurements for the Fig. 12-style breakdowns. */
struct IterationStats
{
    Cycle cycles = 0;
    std::uint64_t readBlocks = 0;
    std::uint64_t writeBlocks = 0;
    std::uint64_t coalescedRequests = 0;
};

/** Per-PU results of a fast-tier run (DESIGN.md §12). */
struct FastSimStats
{
    unsigned sampledWindows = 0;   ///< detailed windows executed
    double errorBoundPct = 0.0;    ///< ~95% CI on the cycle extrapolation
    Cycle fastForwardedCycles = 0; ///< cycles charged outside windows
};

class Pu : public Ticked
{
  public:
    /**
     * Transposition PU.
     * @param slice      this PU's horizontal CSR partition
     * @param row_offset global index of the slice's first row
     * @param mem        rank-private memory controller (not owned)
     */
    Pu(std::string name, const PuConfig &config,
       const sparse::CsrMatrix *slice, Index row_offset,
       dram::MemoryController *mem);

    /**
     * SpMV PU: @p slice_csc is the horizontal partition stored in
     * partitioned CSC; @p x is the dense input vector (cols entries).
     */
    Pu(std::string name, const PuConfig &config,
       const sparse::CscMatrix *slice_csc, const std::vector<Value> *x,
       Index row_offset, dram::MemoryController *mem);

    /**
     * SpGEMM PU: computes the rows of C = A x B belonging to
     * @p a_slice. @p b is the second operand, replicated into this
     * PU's rank. Every non-zero of the slice becomes one scaled-B-row
     * partial-product stream; the tree merges them by (row, col) and
     * the root reduction accumulates duplicate keys (DESIGN.md Sec. 9).
     */
    Pu(std::string name, const PuConfig &config,
       const sparse::CsrMatrix *a_slice, const sparse::CsrMatrix *b,
       Index row_offset, dram::MemoryController *mem);

    /** Arm execution; the host writes the start MMIO register (Sec. 4). */
    void start();

    /** Fast-tier progress callback: (total PU cycles, fast-forwarded). */
    using ProgressHook = std::function<void(Cycle, Cycle)>;

    /**
     * Run the whole kernel in the Functional tier (DESIGN.md §12):
     * bitwise the same results as ticking to done(), with puCycles from
     * an analytical per-iteration model. Call INSTEAD of start()/tick();
     * done() holds on return.
     */
    FastSimStats runFunctional(const ProgressHook &progress = {});

    /**
     * Run the whole kernel in the Sampled tier (DESIGN.md §12):
     * functional fast-forward punctuated by cycle-accurate measurement
     * windows on throwaway PU/controller pairs; puCycles is
     * extrapolated from the per-window merge rates. Results are bitwise
     * the same as Detailed. Call INSTEAD of start()/tick().
     */
    FastSimStats runSampled(const SampledConfig &sampled,
                            const ProgressHook &progress = {});

    bool started() const { return phase_ != Phase::Idle; }
    bool done() const { return phase_ == Phase::Done; }

    void tick() override;

    /**
     * Idle-skip protocol: before start() and after completion tick() is
     * a pure no-op (the cycle counter does not advance either), so those
     * phases may be skipped indefinitely; a running or draining PU does
     * work every cycle and stays densely ticked. The default no-op
     * skipCycles() is exactly right for the skippable phases.
     */
    Cycle
    quiescentFor() const override
    {
        return phase_ == Phase::Idle || phase_ == Phase::Done ? ~Cycle(0)
                                                              : 0;
    }

    // --- results ---
    /** Transposed slice in CSC, row indices global. Valid once done. */
    const sparse::CscMatrix &resultCsc() const { return resultCsc_; }

    /** SpMV partition result y[row_offset ...]. Valid once done. */
    const std::vector<double> &resultVector() const { return resultVec_; }

    /** SpGEMM slice of C in CSR, rows LOCAL to the slice. Valid once
     *  done; the host stitches slices by row-range concatenation. */
    const sparse::CsrMatrix &resultCsr() const { return resultCsr_; }

    // --- observability ---
    Cycle cycles() const { return cycle_; }
    unsigned iterationsExecuted() const
    {
        return static_cast<unsigned>(iterStats_.size());
    }
    const std::vector<IterationStats> &iterationStats() const
    {
        return iterStats_;
    }

    /**
     * Per-iteration COO ping-pong spill traffic in 64 B blocks (SpGEMM
     * only; empty in other modes). Reads are analytic span counts of
     * the runs consumed by each iteration (3 arrays); writes are the
     * measured store blocks of each non-final iteration. Final
     * iterations read leaves/runs but spill nothing, so the last write
     * entry is always 0.
     */
    const std::vector<std::uint64_t> &spilledReadBlocks() const
    {
        return spilledReadBlocks_;
    }
    const std::vector<std::uint64_t> &spilledWriteBlocks() const
    {
        return spilledWriteBlocks_;
    }
    const MergeTree &tree() const { return tree_; }
    dram::MemoryController &mem() { return *mem_; }
    const PuMemoryMap &memoryMap() const { return map_; }
    const StatGroup &stats() const { return stats_; }
    std::uint64_t loadsIssued() const { return loads_.value(); }
    std::uint64_t retriesIssued() const { return retries_.value(); }

    /** Cycles the root had output but the output unit back-pressured. */
    std::uint64_t outputStallCycles() const { return output_.stallCycles(); }

    /** Buffer-cycles a ready packet was blocked on a full leaf FIFO. */
    std::uint64_t leafPushStallCycles() const { return pushStalls_.value(); }

    /** Lengths (in PU cycles) of contiguous leaf-push stall runs. */
    const Histogram &leafStallRuns() const { return leafStallRuns_; }

    /** Periodic merge-tree occupancy samples (setSamplePeriod). */
    const IntervalSampler &occupancySamples() const
    {
        return occupancySamples_;
    }

    /**
     * Sample merge-tree occupancy every @p period PU cycles (0, the
     * default, disables). Samples land on the first tick at or after
     * each period boundary, so idle-skip windows collapse to a single
     * post-skip catch-up sample, deterministically. Call before start().
     */
    void
    setSamplePeriod(std::uint64_t period)
    {
        occupancySamples_.configure(period);
    }

    /**
     * Emit phase spans, fetch-round instants, and occupancy counter
     * samples onto @p shard. Call from the owning thread before the
     * first tick.
     */
    void attachTrace(obs::TraceShard *shard);

  private:
    enum class Phase : std::uint8_t
    {
        Idle,
        Running,  ///< iterations in flight
        Draining, ///< last iteration: waiting for stores to land
        Done,
    };

    void setupIteration();
    void finishIteration();
    Packet readElement(const StreamDesc &desc, std::uint64_t element) const;
    void handleResponse(const mem::MemRequest &req);
    void markControllerArrival(Addr addr);
    void commonInit();
    void doAssignments();
    void doLoadPort();
    void doStorePort();
    void doPushQueue();
    void doRootPop();
    void pointerEngine();
    void noteBufferActivity(unsigned slot);

    /** Fill iterStreams_/roundsTotal_/finalIteration_ for iteration_:
     *  from mergePlan_ if the PU has one, else from streams_. */
    void buildIterationStreams();

    /** Pointer-phase assignment gate, keyed on the stream's source. */
    bool streamReady(const StreamDesc &desc) const;

    // --- SpGEMM merge plan (DESIGN.md §15) ---

    /** All metadata blocks of a condensed leaf's sub-streams arrived? */
    bool spgemmLeafReady(std::uint64_t leaf_index) const;

    /** CondensedChunkPlanner: map a virtual pack cursor to one
     *  sub-stream's share of one aligned B span. */
    std::uint64_t condensedChunk(const StreamDesc &desc,
                                 std::uint64_t cursor,
                                 std::vector<Addr> &blocks) const;

    // --- fast simulation tiers (pu_fastsim.cc) ---

    /**
     * Measurement-window PU: a throwaway clone that replays @p streams
     * (the parent's remaining work, slot-aligned) cycle-accurately
     * against a private controller. Reads COO intermediates out of the
     * PARENT's ping-pong buffers via cooSrc_.
     */
    Pu(const Pu &parent, std::vector<StreamDesc> streams, bool final_iter,
       dram::MemoryController *mem);

    /** start() for a window PU: no pointer walk, streams are explicit. */
    void startWindow();

    /**
     * Functional warming (DESIGN.md §12): hand out the first streams and
     * fill the prefetch buffers instantly to @p fill_frac of capacity
     * (staggered around it), opening the touched DRAM rows, as the
     * detailed engine mid-run would have. The fraction is fed back from
     * the previous window's avgBufferFill() so priming tracks the
     * workload's actual steady state. Not used for the run-start anchor
     * window, whose cold start is reality.
     */
    void primeWindow(double fill_frac);

    /** Mean prefetch-buffer occupancy over capacity, in [0, 1]. */
    double avgBufferFill() const;

    /** Fresh full clone of this PU (for the run-start anchor window). */
    std::unique_ptr<Pu> cloneFresh(dram::MemoryController *mem) const;

    /** Builds the slot-aligned remaining-work streams lazily. */
    using SuffixFn = std::function<std::vector<StreamDesc>()>;
    /** Called every checkpoint stride with total elements retired. */
    using CheckpointFn =
        std::function<void(std::uint64_t retired, const SuffixFn &)>;

    /**
     * Advance the current iteration's merge semantically (stable k-way
     * merge replicating the tree's slot-order tiebreak and the root
     * reduction), feeding output_ and draining its stores. Returns
     * elements retired; bumps @p write_blocks per store drained.
     */
    std::uint64_t functionalMergeRounds(std::uint64_t &write_blocks,
                                        const CheckpointFn &checkpoint);

    /** Feed one root packet to output_ and drain its stores. */
    void acceptFunctional(const Packet &packet,
                          std::uint64_t &write_blocks);

    /** Estimated read-block traffic of the current iteration. */
    std::uint64_t functionalReadBlockEstimate() const;

    /** Analytical cycle model of one iteration (Functional tier). */
    Cycle estimateIterationCycles(std::uint64_t elements,
                                  std::uint64_t read_blocks,
                                  std::uint64_t write_blocks) const;

    std::string name_;
    PuConfig config_;
    Kernel kernel_;

    // Functional inputs.
    const sparse::CsrMatrix *csr_ = nullptr; ///< transpose/SpGEMM A slice
    const sparse::CscMatrix *csc_ = nullptr; ///< SpMV input
    const std::vector<Value> *vecX_ = nullptr;
    const sparse::CsrMatrix *bMat_ = nullptr; ///< SpGEMM B (replicated)
    Index rowOffset_ = 0;

    PuMemoryMap map_;
    dram::MemoryController *mem_;

    MergeTree tree_;
    OutputUnit output_;
    std::vector<std::unique_ptr<PrefetchBuffer>> buffers_;

    // Controller FSM state.
    Phase phase_ = Phase::Idle;
    unsigned iteration_ = 0;
    bool finalIteration_ = false;
    int srcCoo_ = 0;
    /** Plan-less table source: iteration 0's line streams, the last
     *  iteration's runs, or a window's suffix (plan Runs index it). */
    std::vector<StreamDesc> streams_;
    /** Padded slot table: ordinal = round * leaves + slot. */
    std::vector<StreamDesc> iterStreams_;
    std::vector<std::uint64_t> bufferNextRound_;
    std::uint64_t roundsTotal_ = 0;
    std::uint64_t roundsBeforeIteration_ = 0; ///< root EOLs at setup
    MergedOutput coo_[2];               ///< functional ping-pong contents
    /** Where Coo stream reads resolve: own coo_ normally; the parent's
     *  buffers for a measurement-window PU. */
    const MergedOutput *cooSrc_[2] = {&coo_[0], &coo_[1]};
    bool windowMode_ = false;  ///< throwaway measurement-window PU
    bool windowFinal_ = false; ///< window replays a final iteration
    Packet reduction_;                  ///< SpMV root reduction register
    Packet pendingEmit_;                ///< spilled second reduction emit
    bool pendingEmitValid_ = false;

    // Pointer-walk engine (iteration 0).
    bool pointerPhase_ = false;
    std::uint64_t ptrBlocksTotal_ = 0;
    std::uint64_t ptrNextIssue_ = 0;    ///< index into neededPtrBlocks_
    std::uint64_t ptrOutstanding_ = 0;
    std::vector<bool> ptrArrived_;
    std::vector<std::uint64_t> neededPtrBlocks_;
    std::deque<Addr> pendingPtrLoads_;
    std::unordered_map<Addr, Cycle> ptrInFlight_; ///< for link retries

    // SpGEMM controller state (iteration 0): the stream table built from
    // the A slice, the ordered list of controller metadata block loads
    // (A row pointers, A indices/values, first-use B row pointers), and
    // arrival bitmaps gating stream assignment on the blocks that define
    // each stream's bounds and scale.
    std::vector<spgemm::PartialProductStream> spgemmStreams_;
    std::vector<Addr> ctrlLoads_;
    std::uint64_t ctrlNextIssue_ = 0;
    std::vector<bool> aIdxArrived_, aValArrived_, bPtrArrived_;

    // SpGEMM merge plan (either scheduler). streamElemPrefix_[t] =
    // cumulative elements of streams [0, t); a condensed leaf's virtual
    // element space is the prefix range of its packed streams. A
    // measurement window keeps the leaves, not the plan.
    std::vector<spgemm::CondensedLeaf> condensedLeaves_;
    std::vector<std::uint64_t> streamElemPrefix_;
    spgemm::MergeTreePlan mergePlan_;
    std::vector<StreamDesc> leafDescs_;

    // Per-iteration spill traffic (every SpGEMM plan).
    std::vector<std::uint64_t> spilledReadBlocks_, spilledWriteBlocks_;

    // Response path: DRAM-clock callback -> PU-clock consumption.
    std::deque<mem::MemRequest> responses_;

    /** Buffers awaiting a block, plus when its load was first issued
     *  (for the link-error retry path). */
    struct Waiters
    {
        std::vector<unsigned> buffers;
        Cycle issuedAt = 0;
    };
    std::unordered_map<Addr, Waiters> waiters_;

    // Load/store/push scheduling.
    std::deque<unsigned> issueQueue_;
    std::vector<bool> inIssueQueue_;
    std::deque<unsigned> pushQueue_;
    std::vector<bool> inPushQueue_;
    std::deque<unsigned> assignQueue_;
    std::vector<bool> inAssignQueue_;

    // Results.
    sparse::CscMatrix resultCsc_;
    std::vector<double> resultVec_;
    sparse::CsrMatrix resultCsr_;

    Cycle cycle_ = 0;
    Cycle iterStartCycle_ = 0;
    std::uint64_t iterStartReads_ = 0;
    std::uint64_t iterStartWrites_ = 0;
    std::uint64_t iterStartCoalesced_ = 0;
    std::vector<IterationStats> iterStats_;

    Counter loads_, stores_, responsesHandled_, assignments_, retries_;
    Counter pushStalls_;
    Histogram leafStallRuns_;
    std::vector<Cycle> stallStart_; ///< per slot; 0 = not stalled
    IntervalSampler occupancySamples_;

    // Event tracing (null when untraced; single-writer like the stats).
    obs::TraceShard *trace_ = nullptr;
    std::uint32_t tracePhases_ = 0, traceRounds_ = 0;
    std::uint32_t traceOccupancy_ = 0;
    std::uint32_t nameDrain_ = 0, nameRound_ = 0;
    std::uint64_t traceRoundsSeen_ = 0;
    Cycle drainStartCycle_ = 0;

    void sampleOccupancy();

    StatGroup stats_;
};

// Inline: called once per element on both the detailed engine's fetch
// path and the functional merge's hot loop.
inline Packet
Pu::readElement(const StreamDesc &desc, std::uint64_t element) const
{
    const bool last = element + 1 == desc.end;
    switch (desc.source) {
      case StreamSource::CsrRow:
        return Packet::data(desc.fixedIndex, csr_->idx[element],
                            csr_->val[element], last);
      case StreamSource::CscColumn: {
        // SpMV iteration 0: the vectorized multiplier scales the value
        // by the matching input-vector element as it is fetched.
        const Value scaled = csc_->val[element] *
                             (*vecX_)[desc.fixedIndex];
        return Packet::data(csc_->idx[element], desc.fixedIndex, scaled,
                            last);
      }
      case StreamSource::Coo: {
        const MergedOutput &coo = *cooSrc_[desc.cooBuffer];
        return Packet::data(coo.row[element], coo.col[element],
                            coo.val[element], last);
      }
      case StreamSource::ScaledBRow:
        // SpGEMM iteration 0: one partial product A(i, k) * B(k, j),
        // scaled by the multiplier latched in the stream descriptor as
        // the B element is fetched (the SpMV vectorized-multiply path).
        return Packet::data(desc.fixedIndex, bMat_->idx[element],
                            desc.scale * bMat_->val[element], last);
      case StreamSource::CondensedLeaf: {
        // A packed leaf addresses the concatenated element space of its
        // sub-streams; map the virtual offset back to the owning stream
        // (skipping empty ones) and on to B's arrays. Each sub-stream
        // keeps its own output row and scale.
        const spgemm::CondensedLeaf &leaf = condensedLeaves_[desc.auxIndex];
        const auto first = streamElemPrefix_.begin() + leaf.firstStream;
        const auto it = std::upper_bound(
            first, first + leaf.streamCount + 1, element);
        const std::uint64_t t = (it - streamElemPrefix_.begin()) - 1;
        const spgemm::PartialProductStream &s = spgemmStreams_[t];
        const std::uint64_t off = s.begin + (element - streamElemPrefix_[t]);
        return Packet::data(s.outRow, bMat_->idx[off],
                            s.scale * bMat_->val[off], last);
      }
    }
    menda_panic("unreachable stream source");
}

} // namespace menda::core

#endif // MENDA_MENDA_PU_HH
