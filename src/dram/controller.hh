/**
 * @file
 * Cycle-level DDR4 memory controller.
 *
 * Models the memory interface unit of Sec. 3.2: a request scheduler
 * (FRFCFS_PriorHit / "FCFS-FR" — oldest-first, but requests that are ready
 * to launch and DRAM row hits are prioritized), an address decoder, and a
 * command generator that emits ACT/PRE/RD/WR/REF commands subject to the
 * full DDR4 timing constraint table of Tab. 1.
 *
 * One controller instance drives one data/command bus. A MeNDA PU
 * instantiates a single-rank controller (the rank-internal bus that NMP
 * exposes); host-style simulations instantiate one controller per channel
 * with several ranks sharing the bus.
 *
 * The scheduler is indexed (see DESIGN.md §8): requests are bucketed per
 * flat bank at enqueue, per-bank open-row-hit counts are maintained
 * incrementally, and a ready-bank index keyed by each bank's earliest
 * next-eligible cycle lets pickAndIssue touch only banks that might accept
 * a command this cycle — a few integer compares per cycle instead of a
 * linear rescan of every queue entry and its DRAM timing state. The
 * original scan-based scheduler is the test oracle
 * (tests/reference_dram_controller.hh): on random traces and on replayed
 * PU traffic it must issue the same command stream, cycle for cycle.
 */

#ifndef MENDA_DRAM_CONTROLLER_HH
#define MENDA_DRAM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "dram/address.hh"
#include "dram/dram_config.hh"
#include "mem/request_queue.hh"
#include "obs/trace.hh"
#include "sim/clock.hh"

namespace menda::dram
{

/** DRAM command types emitted by the command generator. */
enum class CommandType : std::uint8_t
{
    Activate,
    Precharge,
    Read,
    Write,
    Refresh,
};

/** Observer hook for command-level verification and power counting. */
using CommandCallback =
    std::function<void(CommandType, const DramCoord &, Cycle)>;

class MemoryController : public Ticked
{
  public:
    /**
     * @param name       instance name for statistics
     * @param config     organization/timing parameters
     * @param coalesce   enable read-request coalescing (Sec. 3.4)
     */
    MemoryController(std::string name, const DramConfig &config,
                     bool coalesce);

    /** Deliver read completions here. May be empty (responses dropped). */
    void setResponseCallback(mem::ResponseCallback callback)
    {
        callback_ = std::move(callback);
    }

    /** Observe every ACT/PRE/RD/WR/REF command as it issues. */
    void setCommandCallback(CommandCallback callback)
    {
        commandCallback_ = std::move(callback);
    }

    /**
     * Emit command instants (one track per bank) and queue-depth
     * counter samples onto @p shard. Call from the owning thread before
     * the first tick; tracks are registered here, deterministically.
     */
    void attachTrace(obs::TraceShard *shard);

    /**
     * Fault-injection hook: called before each read response is
     * delivered; returning false drops the response (modeling a link
     * CRC error the requester must recover from via retry).
     */
    void setResponseFilter(std::function<bool(const mem::MemRequest &)>
                               filter)
    {
        responseFilter_ = std::move(filter);
    }

    /**
     * Try to enqueue a block request. Returns false when the matching
     * queue is full (caller must retry later — this is the back-pressure
     * the PU's prefetch logic respects).
     */
    bool enqueue(const mem::MemRequest &req);

    /** True when no request is queued, in flight, or awaiting response. */
    bool idle() const;

    void tick() override;

    /**
     * Idle-skip protocol: a tick is a guaranteed no-op until the
     * earliest of (a) the next read-response delivery, (b) the next
     * refresh deadline (tREFI epoch start, or tRFC completion while a
     * REF is in progress), and (c) the ready-bank index's earliest
     * next-eligible cycle for every queue the scheduler would consult —
     * so a controller with queued-but-ineligible requests (banks waiting
     * out tRCD, tRC, tRFC, ...) reports a non-zero skippable window
     * instead of rescanning every cycle. Bank/bus timing state is
     * untouched during such windows, which is what makes the O(1)
     * catch-up in skipCycles() exact.
     */
    Cycle quiescentFor() const override;
    void skipCycles(Cycle cycles) override { now_ += cycles; }

    /**
     * Window warming (DESIGN.md §12): mark the row containing @p addr
     * open in its bank, as a detailed run that just streamed the
     * preceding blocks of that span would have left it. Used when a
     * sampled measurement window enters on a throwaway controller, so
     * the window does not measure an artificially cold row-buffer
     * state. Timing deadlines stay at their construction values (long
     * satisfied), which is the correct post-steady-state view.
     */
    void
    warmPrime(Addr addr)
    {
        const DramCoord coord = decoder_.decode(addr);
        Bank &bank = bankAt(coord);
        bank.open = true;
        bank.openRow = coord.row;
    }

    /**
     * Account block traffic completed outside the cycle model: the
     * Functional tier services reads/writes semantically, so the
     * readsServed()/writesServed() totals (and the block counts derived
     * from them in reports) stay meaningful across tiers.
     */
    void
    noteFunctionalTraffic(std::uint64_t read_blocks,
                          std::uint64_t write_blocks)
    {
        reads_ += read_blocks;
        writes_ += write_blocks;
    }

    // --- observability ---
    Cycle curCycle() const { return now_; }
    const DramConfig &config() const { return config_; }

    std::uint64_t readsServed() const { return reads_.value(); }
    std::uint64_t writesServed() const { return writes_.value(); }
    /** Bursts that required no activate of their own. */
    std::uint64_t
    rowHits() const
    {
        const std::uint64_t bursts = readsServed() + writesServed();
        return bursts > activates() ? bursts - activates() : 0;
    }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }
    std::uint64_t rowConflicts() const { return rowConflicts_.value(); }
    std::uint64_t activates() const { return activates_.value(); }
    std::uint64_t refreshes() const { return refreshes_.value(); }
    std::uint64_t busBusyCycles() const { return busBusy_.value(); }

    /** Activates issued to rank @p r (input to the DRAM power model). */
    std::uint64_t rankActivates(unsigned r) const
    {
        return rankActivates_[r].value();
    }
    /** RD/WR bursts issued to rank @p r. */
    std::uint64_t rankBursts(unsigned r) const
    {
        return rankBursts_[r].value();
    }

    /** Round-trip latency of served reads, enqueue to data delivery. */
    const Histogram &readLatency() const { return readLatency_; }

    /** Periodic RD/WR queue-depth samples (setSamplePeriod). */
    const IntervalSampler &readDepthSamples() const { return readDepth_; }
    const IntervalSampler &writeDepthSamples() const
    {
        return writeDepth_;
    }

    /**
     * Sample RD/WR queue depth every @p period memory cycles (0, the
     * default, disables). Sampling is passive: it never changes what the
     * controller issues or when. Call before the first tick.
     */
    void
    setSamplePeriod(std::uint64_t period)
    {
        readDepth_.configure(period);
        writeDepth_.configure(period);
    }

    /** Bytes moved over the data bus so far. */
    std::uint64_t bytesTransferred() const
    {
        return (readsServed() + writesServed()) * blockBytes;
    }

    /** Achieved bandwidth over the first @p cycles cycles, bytes/sec. */
    double achievedBandwidth(Cycle cycles) const;

    /** Read queue (exposed for coalescing statistics). */
    const mem::RequestQueue &readQueue() const { return readQueue_; }
    const mem::RequestQueue &writeQueue() const { return writeQueue_; }

    const StatGroup &stats() const { return stats_; }

  private:
    struct Bank
    {
        bool open = false;
        unsigned openRow = 0;
        Cycle nextActivate = 0;
        Cycle nextRead = 0;
        Cycle nextWrite = 0;
        Cycle nextPrecharge = 0;
    };

    struct RankState
    {
        /**
         * Ring of the last (up to) four ACT times: tFAW constrains the
         * fifth activate against the fourth-most-recent, so nothing
         * older is ever consulted. Fixed-size, no per-ACT allocation.
         */
        Cycle actRing[4] = {0, 0, 0, 0};
        unsigned actCount = 0; ///< valid entries, saturates at 4
        unsigned actHead = 0;  ///< index of the oldest valid entry
        Cycle nextActAny = 0;  ///< tRRDS
        std::vector<Cycle> nextActGroup; ///< tRRDL, per bank group
        Cycle nextRefresh = 0;
        bool refreshing = false;
        Cycle refreshDone = 0;
    };

    /**
     * Per-scheduled-queue bank bookkeeping for the indexed scheduler:
     * an intrusive FIFO of queue slots per flat bank (age order within
     * the bank), a compact list of banks that hold requests, and one
     * earliest-next-eligible key per bank. Keys are lower bounds built
     * from monotonically non-decreasing timing state, updated in place
     * (O(1), no reordering cost): a stale key is only ever stale
     * *early*, so the scheduler re-evaluates that bank and tightens the
     * key, never misses it. The number of live banks is bounded by the
     * queue capacity, so the per-cycle ready scan is a handful of
     * integer compares instead of a linear walk over every queued
     * request and its DRAM state.
     */
    struct BankIndex
    {
        static constexpr Cycle kNoKey = ~Cycle(0);

        std::vector<std::uint32_t> head, tail; ///< per flat bank
        std::vector<std::uint32_t> next, prev; ///< per queue slot
        std::vector<Cycle> key;     ///< per flat bank; kNoKey when empty
        std::vector<unsigned> live; ///< banks holding >= 1 request
        std::vector<std::uint32_t> livePos; ///< fb -> index into live
    };

    // Scheduling.
    bool pickAndIssue(mem::RequestQueue &queue, bool is_write);
    bool tryIssueFor(const mem::MemRequest &req, bool is_write,
                     bool hits_only, bool &served);
    void issueActivate(const DramCoord &coord);
    void issuePrecharge(const DramCoord &coord);
    void issueBurst(const DramCoord &coord, const mem::MemRequest &req,
                    bool is_write);
    void maybeRefresh();

    void recountBankWaiters(unsigned fb);

    /** Per-flat-bank count of queued requests hitting the open row. */
    std::vector<std::uint32_t> &
    openRowWaiters(bool is_write)
    {
        return is_write ? openRowHitsWrite_ : openRowHitsRead_;
    }
    const std::vector<std::uint32_t> &
    openRowWaiters(bool is_write) const
    {
        return is_write ? openRowHitsWrite_ : openRowHitsRead_;
    }

    // Ready-bank index bookkeeping.
    BankIndex &bankIndex(bool is_write)
    {
        return is_write ? writeIndex_ : readIndex_;
    }
    const mem::RequestQueue &queueFor(bool is_write) const
    {
        return is_write ? writeQueue_ : readQueue_;
    }
    void linkSlot(BankIndex &index, unsigned fb, std::uint32_t slot);
    void unlinkSlot(BankIndex &index, unsigned fb, std::uint32_t slot);
    Cycle bankEligibleAt(bool is_write, unsigned fb) const;
    void rekeyBank(bool is_write, unsigned fb, Cycle floor);
    void rekeyRankBanks(unsigned rank);
    bool willDrainWrites() const;
    Cycle indexWindow(const BankIndex &index) const;

    unsigned rankOf(unsigned fb) const
    {
        return fb / (config_.bankGroups * config_.banksPerGroup);
    }
    /** Flattened (rank, bank group) index used by the tCCD_L tables. */
    unsigned groupIndexOf(unsigned fb) const
    {
        return fb / config_.banksPerGroup;
    }

    bool canActivateAt(unsigned fb) const;
    bool canPrecharge(const Bank &bank) const;
    bool canRead(const Bank &bank, unsigned group_index) const;
    bool canWrite(const Bank &bank, unsigned group_index) const;

    Bank &bankAt(const DramCoord &coord)
    {
        return banks_[coord.flatBank(config_)];
    }
    const Bank &bankAt(const DramCoord &coord) const
    {
        return banks_[coord.flatBank(config_)];
    }

    std::string name_;
    DramConfig config_;
    AddressDecoder decoder_;
    mem::ResponseCallback callback_;
    CommandCallback commandCallback_;
    std::function<bool(const mem::MemRequest &)> responseFilter_;

    Cycle now_ = 0;
    bool commandIssued_ = false; ///< at most one command per cycle

    mem::RequestQueue readQueue_;
    mem::RequestQueue writeQueue_;
    bool drainingWrites_ = false;

    std::vector<Bank> banks_;
    std::vector<RankState> ranks_;
    std::vector<std::uint32_t> openRowHitsRead_;
    std::vector<std::uint32_t> openRowHitsWrite_;

    BankIndex readIndex_;
    BankIndex writeIndex_;
    std::vector<unsigned> scratchBanks_;  ///< ready banks, this cycle
    std::vector<unsigned> scratchRekeys_; ///< timing-blocked, re-key late

    // Bus-level constraints (shared across ranks on this controller).
    Cycle nextReadCmd_ = 0;
    Cycle nextWriteCmd_ = 0;
    std::vector<Cycle> nextReadCmdGroup_;  ///< per (rank, group): tCCDL
    std::vector<Cycle> nextWriteCmdGroup_;
    Cycle busFreeAt_ = 0;

    /** In-flight reads ordered by completion cycle. */
    std::deque<std::pair<Cycle, mem::MemRequest>> pendingResponses_;

    Counter reads_, writes_, rowHits_, rowMisses_, rowConflicts_;
    Counter activates_, precharges_, refreshes_, busBusy_;
    Counter readQueueFullEvents_, writeQueueFullEvents_;
    std::vector<Counter> rankActivates_, rankBursts_;
    Histogram readLatency_;
    IntervalSampler readDepth_, writeDepth_;

    // Event tracing (null when untraced; single-writer like the stats).
    obs::TraceShard *trace_ = nullptr;
    std::vector<std::uint32_t> traceBankTracks_;
    std::uint32_t traceReadDepth_ = 0, traceWriteDepth_ = 0;
    std::uint32_t nameAct_ = 0, namePre_ = 0, nameRead_ = 0;
    std::uint32_t nameWrite_ = 0, nameRef_ = 0;

    void sampleDepths();

    StatGroup stats_;
};

} // namespace menda::dram

#endif // MENDA_DRAM_CONTROLLER_HH
