/**
 * @file
 * Reference DRAM scheduler: the original scan-based FRFCFS_PriorHit
 * controller, kept frozen as the cycle-exact oracle for
 * dram/controller.hh. Every cycle it walks the whole scheduled queue in
 * age order for the oldest ready row hit (FR), then the 16 oldest
 * entries for the first request any command can serve (FCFS). It keeps
 * its own bank, rank and bus timing state, recounts open-row waiters
 * over both full queues on every activate, and skips cycles only while
 * completely empty. The production controller must issue the same
 * command stream cycle for cycle (tests/test_dram_sched_diff.cc).
 */

#ifndef MENDA_TESTS_REFERENCE_DRAM_CONTROLLER_HH
#define MENDA_TESTS_REFERENCE_DRAM_CONTROLLER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "dram/address.hh"
#include "dram/controller.hh"
#include "dram/dram_config.hh"
#include "mem/request_queue.hh"
#include "sim/clock.hh"

namespace menda::reference
{

class MemoryController : public Ticked
{
  public:
    /**
     * @param flip_tie_break  test-only fault: the FR pass serves the
     *                        youngest ready row hit instead of the oldest
     */
    MemoryController(const dram::DramConfig &config, bool coalesce,
                     bool flip_tie_break = false)
        : config_(config),
          decoder_(config),
          flipTieBreak_(flip_tie_break),
          readQueue_(config.readQueueEntries, coalesce),
          writeQueue_(config.writeQueueEntries, false),
          banks_(config.totalBanks()),
          ranks_(config.ranks),
          openRowHitsRead_(config.totalBanks(), 0),
          openRowHitsWrite_(config.totalBanks(), 0),
          nextReadCmdGroup_(config.ranks * config.bankGroups, 0),
          nextWriteCmdGroup_(config.ranks * config.bankGroups, 0)
    {
        for (RankState &rank : ranks_) {
            rank.nextActGroup.assign(config.bankGroups, 0);
            rank.nextRefresh = config.tREFI;
        }
    }

    void setResponseCallback(mem::ResponseCallback callback)
    {
        callback_ = std::move(callback);
    }

    void setCommandCallback(dram::CommandCallback callback)
    {
        commandCallback_ = std::move(callback);
    }

    /** Enqueue like the production controller; false when full. */
    bool
    enqueue(const mem::MemRequest &req)
    {
        mem::MemRequest aligned = req;
        aligned.addr = blockAlign(req.addr) % config_.totalBytes();
        aligned.enqueuedAt = now_;
        const dram::DramCoord coord = decoder_.decode(aligned.addr);
        aligned.coord = coord.toDecoded(config_);
        mem::RequestQueue &queue =
            aligned.isWrite ? writeQueue_ : readQueue_;
        std::uint32_t slot = mem::RequestQueue::npos;
        const mem::RequestQueue::Insert outcome =
            queue.insert(aligned, slot);
        if (outcome == mem::RequestQueue::Insert::Fresh) {
            const Bank &bank = bankAt(coord);
            if (bank.open && bank.openRow == coord.row)
                ++openRowWaiters(aligned.isWrite)[aligned.coord.flatBank];
        }
        return outcome != mem::RequestQueue::Insert::Rejected;
    }

    bool
    idle() const
    {
        return readQueue_.empty() && writeQueue_.empty() &&
               pendingResponses_.empty();
    }

    void
    tick() override
    {
        while (!pendingResponses_.empty() &&
               pendingResponses_.front().first <= now_) {
            if (callback_)
                callback_(pendingResponses_.front().second);
            pendingResponses_.pop_front();
        }

        commandIssued_ = false;
        maybeRefresh();

        if (!commandIssued_ &&
            !(readQueue_.empty() && writeQueue_.empty())) {
            if (drainingWrites_) {
                if (writeQueue_.size() <= config_.writeLowWatermark)
                    drainingWrites_ = false;
            } else {
                if (writeQueue_.size() >= config_.writeHighWatermark ||
                    (readQueue_.empty() && !writeQueue_.empty()))
                    drainingWrites_ = true;
            }

            if (drainingWrites_) {
                if (!pickAndIssue(writeQueue_, true))
                    pickAndIssue(readQueue_, false);
            } else {
                pickAndIssue(readQueue_, false);
            }
        }

        ++now_;
    }

    /**
     * The scan rescans its queues every cycle, so only a controller with
     * nothing queued may skip: up to the next response delivery or
     * refresh deadline.
     */
    Cycle
    quiescentFor() const override
    {
        Cycle window = ~Cycle(0);
        if (!pendingResponses_.empty()) {
            const Cycle due = pendingResponses_.front().first;
            if (due <= now_)
                return 0;
            window = std::min(window, due - now_);
        }
        if (config_.refreshEnabled) {
            for (const RankState &rank : ranks_) {
                const Cycle deadline =
                    rank.refreshing ? rank.refreshDone : rank.nextRefresh;
                if (now_ >= deadline)
                    return 0;
                window = std::min(window, deadline - now_);
            }
        }
        if (!(readQueue_.empty() && writeQueue_.empty()))
            return 0;
        return window;
    }

    void skipCycles(Cycle cycles) override { now_ += cycles; }

    Cycle curCycle() const { return now_; }
    const mem::RequestQueue &readQueue() const { return readQueue_; }
    const mem::RequestQueue &writeQueue() const { return writeQueue_; }

    std::uint64_t readsServed() const { return reads_; }
    std::uint64_t writesServed() const { return writes_; }
    std::uint64_t rowMisses() const { return rowMisses_; }
    std::uint64_t rowConflicts() const { return rowConflicts_; }
    std::uint64_t activates() const { return activates_; }
    std::uint64_t refreshes() const { return refreshes_; }
    std::uint64_t busBusyCycles() const { return busBusy_; }

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
        Cycle actRing[4] = {0, 0, 0, 0}; ///< last four ACTs (tFAW)
        unsigned actCount = 0;
        unsigned actHead = 0;
        Cycle nextActAny = 0;
        std::vector<Cycle> nextActGroup;
        Cycle nextRefresh = 0;
        bool refreshing = false;
        Cycle refreshDone = 0;
    };

    std::vector<std::uint32_t> &
    openRowWaiters(bool is_write)
    {
        return is_write ? openRowHitsWrite_ : openRowHitsRead_;
    }

    Bank &bankAt(const dram::DramCoord &coord)
    {
        return banks_[coord.flatBank(config_)];
    }

    unsigned groupIndexOf(unsigned fb) const
    {
        return fb / config_.banksPerGroup;
    }

    bool
    rankBlocked(unsigned r) const
    {
        const RankState &rank = ranks_[r];
        return rank.refreshing ||
               (config_.refreshEnabled && now_ >= rank.nextRefresh);
    }

    /** A row hit whose burst could issue this cycle. */
    bool
    readyHit(const mem::MemRequest &req, bool is_write) const
    {
        const Bank &bank = banks_[req.coord.flatBank];
        if (rankBlocked(req.coord.rank) || !bank.open ||
            bank.openRow != req.coord.row)
            return false;
        const unsigned group = groupIndexOf(req.coord.flatBank);
        return is_write ? canWrite(bank, group) : canRead(bank, group);
    }

    bool
    pickAndIssue(mem::RequestQueue &queue, bool is_write)
    {
        if (queue.empty())
            return false;

        // Pass 1 — FR: oldest request that is a row hit and ready to
        // launch, skipped entirely until the bus tCCD/turnaround horizon.
        const Cycle burst_gate = is_write ? nextWriteCmd_ : nextReadCmd_;
        if (now_ >= burst_gate) {
            if (flipTieBreak_) {
                std::uint32_t youngest = mem::RequestQueue::npos;
                for (std::uint32_t s = queue.headSlot();
                     s != mem::RequestQueue::npos; s = queue.nextSlot(s))
                    if (readyHit(queue.slotAt(s), is_write))
                        youngest = s;
                if (youngest != mem::RequestQueue::npos) {
                    bool served = false;
                    tryIssueFor(queue.slotAt(youngest), is_write, true,
                                served);
                    queue.removeSlot(youngest);
                    return true;
                }
            } else {
                for (std::uint32_t s = queue.headSlot();
                     s != mem::RequestQueue::npos; s = queue.nextSlot(s)) {
                    bool served = false;
                    if (tryIssueFor(queue.slotAt(s), is_write, true,
                                    served)) {
                        if (served)
                            queue.removeSlot(s);
                        return true;
                    }
                }
            }
        }
        // Pass 2 — FCFS: oldest request for which any command can issue,
        // within a 16-entry window.
        std::size_t window = std::min<std::size_t>(queue.size(), 16);
        for (std::uint32_t s = queue.headSlot(); window-- > 0;
             s = queue.nextSlot(s)) {
            bool served = false;
            if (tryIssueFor(queue.slotAt(s), is_write, false, served)) {
                if (served)
                    queue.removeSlot(s);
                return true;
            }
        }
        return false;
    }

    bool
    tryIssueFor(const mem::MemRequest &req, bool is_write, bool hits_only,
                bool &served)
    {
        const dram::DramCoord coord = dram::DramCoord::fromDecoded(req.coord);
        const unsigned fb = req.coord.flatBank;
        if (rankBlocked(coord.rank))
            return false;

        Bank &bank = banks_[fb];
        if (bank.open && bank.openRow == coord.row) {
            if (is_write ? canWrite(bank, groupIndexOf(fb))
                         : canRead(bank, groupIndexOf(fb))) {
                --openRowWaiters(is_write)[fb];
                issueBurst(coord, req, is_write);
                served = true;
                return true;
            }
            return false;
        }
        if (hits_only)
            return false;

        if (!bank.open) {
            if (canActivate(fb)) {
                issueActivate(coord);
                ++rowMisses_;
                return true;
            }
            return false;
        }

        // Row conflict, PriorHit: the open row stays while any request
        // of the scheduled queue still hits it.
        if (openRowWaiters(is_write)[fb] > 0)
            return false;
        if (now_ >= bank.nextPrecharge) {
            issuePrecharge(coord);
            ++rowConflicts_;
            return true;
        }
        return false;
    }

    bool
    canActivate(unsigned fb) const
    {
        const Bank &bank = banks_[fb];
        const RankState &rank =
            ranks_[fb / (config_.bankGroups * config_.banksPerGroup)];
        if (bank.open)
            return false;
        if (now_ < bank.nextActivate || now_ < rank.nextActAny ||
            now_ < rank.nextActGroup[(fb / config_.banksPerGroup) %
                                     config_.bankGroups])
            return false;
        if (rank.actCount == 4 &&
            now_ < rank.actRing[rank.actHead] + config_.tFAW)
            return false;
        return true;
    }

    bool
    canRead(const Bank &bank, unsigned group_index) const
    {
        return now_ >= bank.nextRead && now_ >= nextReadCmd_ &&
               now_ >= nextReadCmdGroup_[group_index] &&
               now_ + config_.tCL >= busFreeAt_;
    }

    bool
    canWrite(const Bank &bank, unsigned group_index) const
    {
        return now_ >= bank.nextWrite && now_ >= nextWriteCmd_ &&
               now_ >= nextWriteCmdGroup_[group_index] &&
               now_ + config_.tCWL >= busFreeAt_;
    }

    void
    issueActivate(const dram::DramCoord &coord)
    {
        Bank &bank = bankAt(coord);
        RankState &rank = ranks_[coord.rank];
        bank.open = true;
        bank.openRow = coord.row;
        bank.nextRead = now_ + config_.tRCD;
        bank.nextWrite = now_ + config_.tRCD;
        bank.nextPrecharge =
            std::max<Cycle>(bank.nextPrecharge, now_ + config_.tRAS);
        bank.nextActivate = now_ + config_.tRC;
        rank.nextActAny =
            std::max<Cycle>(rank.nextActAny, now_ + config_.tRRDS);
        rank.nextActGroup[coord.bankGroup] = std::max<Cycle>(
            rank.nextActGroup[coord.bankGroup], now_ + config_.tRRDL);
        if (rank.actCount < 4) {
            rank.actRing[(rank.actHead + rank.actCount) & 3] = now_;
            ++rank.actCount;
        } else {
            rank.actRing[rank.actHead] = now_;
            rank.actHead = (rank.actHead + 1) & 3;
        }
        recountOpenRowWaiters(coord);
        ++activates_;
        commandIssued_ = true;
        if (commandCallback_)
            commandCallback_(dram::CommandType::Activate, coord, now_);
    }

    /** Full-queue recount of the requests hitting @p coord's open row. */
    void
    recountOpenRowWaiters(const dram::DramCoord &coord)
    {
        const unsigned fb = coord.flatBank(config_);
        const Bank &bank = bankAt(coord);
        openRowHitsRead_[fb] = 0;
        openRowHitsWrite_[fb] = 0;
        if (!bank.open)
            return;
        for (std::uint32_t s = readQueue_.headSlot();
             s != mem::RequestQueue::npos; s = readQueue_.nextSlot(s)) {
            const mem::DecodedCoord &other = readQueue_.slotAt(s).coord;
            if (other.flatBank == fb && other.row == bank.openRow)
                ++openRowHitsRead_[fb];
        }
        for (std::uint32_t s = writeQueue_.headSlot();
             s != mem::RequestQueue::npos; s = writeQueue_.nextSlot(s)) {
            const mem::DecodedCoord &other = writeQueue_.slotAt(s).coord;
            if (other.flatBank == fb && other.row == bank.openRow)
                ++openRowHitsWrite_[fb];
        }
    }

    void
    issuePrecharge(const dram::DramCoord &coord)
    {
        const unsigned fb = coord.flatBank(config_);
        Bank &bank = banks_[fb];
        bank.open = false;
        bank.nextActivate =
            std::max<Cycle>(bank.nextActivate, now_ + config_.tRP);
        openRowHitsRead_[fb] = 0;
        openRowHitsWrite_[fb] = 0;
        commandIssued_ = true;
        if (commandCallback_)
            commandCallback_(dram::CommandType::Precharge, coord, now_);
    }

    void
    issueBurst(const dram::DramCoord &coord, const mem::MemRequest &req,
               bool is_write)
    {
        Bank &bank = bankAt(coord);
        const unsigned group =
            coord.rank * config_.bankGroups + coord.bankGroup;
        busBusy_ += config_.tBL;
        if (is_write) {
            busFreeAt_ = now_ + config_.tCWL + config_.tBL;
            nextWriteCmd_ =
                std::max<Cycle>(nextWriteCmd_, now_ + config_.tCCDS);
            nextWriteCmdGroup_[group] = std::max<Cycle>(
                nextWriteCmdGroup_[group], now_ + config_.tCCDL);
            const Cycle wtr = now_ + config_.tCWL + config_.tBL;
            nextReadCmd_ =
                std::max<Cycle>(nextReadCmd_, wtr + config_.tWTRS);
            nextReadCmdGroup_[group] = std::max<Cycle>(
                nextReadCmdGroup_[group], wtr + config_.tWTRL);
            bank.nextPrecharge = std::max<Cycle>(
                bank.nextPrecharge,
                now_ + config_.tCWL + config_.tBL + config_.tWR);
            ++writes_;
        } else {
            busFreeAt_ = now_ + config_.tCL + config_.tBL;
            nextReadCmd_ =
                std::max<Cycle>(nextReadCmd_, now_ + config_.tCCDS);
            nextReadCmdGroup_[group] = std::max<Cycle>(
                nextReadCmdGroup_[group], now_ + config_.tCCDL);
            nextWriteCmd_ = std::max<Cycle>(
                nextWriteCmd_,
                now_ + config_.tCL + config_.tBL + 2 - config_.tCWL);
            bank.nextPrecharge =
                std::max<Cycle>(bank.nextPrecharge, now_ + config_.tRTP);
            pendingResponses_.emplace_back(now_ + config_.tCL + config_.tBL,
                                           req);
            ++reads_;
        }
        commandIssued_ = true;
        if (commandCallback_)
            commandCallback_(is_write ? dram::CommandType::Write
                                      : dram::CommandType::Read,
                             coord, now_);
    }

    void
    maybeRefresh()
    {
        if (!config_.refreshEnabled)
            return;
        for (unsigned r = 0; r < config_.ranks; ++r) {
            RankState &rank = ranks_[r];
            if (rank.refreshing) {
                if (now_ >= rank.refreshDone)
                    rank.refreshing = false;
                else
                    continue;
            }
            if (now_ < rank.nextRefresh || commandIssued_)
                continue;
            // Close all banks of this rank, one precharge per cycle.
            bool all_closed = true;
            for (unsigned g = 0;
                 g < config_.bankGroups && !commandIssued_; ++g) {
                for (unsigned b = 0; b < config_.banksPerGroup; ++b) {
                    const dram::DramCoord coord{r, g, b, 0, 0};
                    Bank &bank = bankAt(coord);
                    if (!bank.open)
                        continue;
                    all_closed = false;
                    if (now_ >= bank.nextPrecharge) {
                        issuePrecharge(coord);
                        break;
                    }
                }
            }
            if (!all_closed || commandIssued_)
                continue;
            rank.refreshing = true;
            rank.refreshDone = now_ + config_.tRFC;
            rank.nextRefresh += config_.tREFI;
            for (unsigned g = 0; g < config_.bankGroups; ++g)
                for (unsigned b = 0; b < config_.banksPerGroup; ++b)
                    bankAt(dram::DramCoord{r, g, b, 0, 0}).nextActivate =
                        rank.refreshDone;
            ++refreshes_;
            commandIssued_ = true;
            if (commandCallback_)
                commandCallback_(dram::CommandType::Refresh,
                                 dram::DramCoord{r, 0, 0, 0, 0}, now_);
        }
    }

    dram::DramConfig config_;
    dram::AddressDecoder decoder_;
    bool flipTieBreak_;
    mem::ResponseCallback callback_;
    dram::CommandCallback commandCallback_;

    Cycle now_ = 0;
    bool commandIssued_ = false;

    mem::RequestQueue readQueue_;
    mem::RequestQueue writeQueue_;
    bool drainingWrites_ = false;

    std::vector<Bank> banks_;
    std::vector<RankState> ranks_;
    std::vector<std::uint32_t> openRowHitsRead_;
    std::vector<std::uint32_t> openRowHitsWrite_;

    Cycle nextReadCmd_ = 0;
    Cycle nextWriteCmd_ = 0;
    std::vector<Cycle> nextReadCmdGroup_;
    std::vector<Cycle> nextWriteCmdGroup_;
    Cycle busFreeAt_ = 0;

    std::deque<std::pair<Cycle, mem::MemRequest>> pendingResponses_;

    std::uint64_t reads_ = 0, writes_ = 0, rowMisses_ = 0;
    std::uint64_t rowConflicts_ = 0, activates_ = 0, refreshes_ = 0;
    std::uint64_t busBusy_ = 0;
};

} // namespace menda::reference

#endif // MENDA_TESTS_REFERENCE_DRAM_CONTROLLER_HH
