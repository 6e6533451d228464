#include "dram/controller.hh"

#include <algorithm>
#include <cstdlib>

#include "common/log.hh"

namespace menda::dram
{

namespace
{

/**
 * Fault-injection hook for the conformance harness: when the
 * MENDA_TEST_FLIP_TIEBREAK environment variable is set (to anything),
 * the indexed scheduler's FR-pass tie-break picks the *youngest* request
 * among equally-ready banks instead of the oldest. The reference
 * scheduler is unaffected, so the divergence surfaces as a cross-variant
 * metric mismatch. Read once; never set outside the harness's own tests.
 */
bool
flipTieBreak()
{
    static const bool flip =
        std::getenv("MENDA_TEST_FLIP_TIEBREAK") != nullptr;
    return flip;
}

} // namespace

MemoryController::MemoryController(std::string name,
                                   const DramConfig &config, bool coalesce)
    : name_(std::move(name)),
      config_(config),
      decoder_(config),
      readQueue_(config.readQueueEntries, coalesce),
      writeQueue_(config.writeQueueEntries, false),
      banks_(config.totalBanks()),
      ranks_(config.ranks),
      nextReadCmdGroup_(config.ranks * config.bankGroups, 0),
      nextWriteCmdGroup_(config.ranks * config.bankGroups, 0),
      rankActivates_(config.ranks),
      rankBursts_(config.ranks),
      stats_(name_)
{
    for (auto &rank : ranks_) {
        rank.nextActGroup.assign(config.bankGroups, 0);
        rank.nextRefresh = config.tREFI;
    }
    openRowHitsRead_.assign(config.totalBanks(), 0);
    openRowHitsWrite_.assign(config.totalBanks(), 0);
    for (BankIndex *index : {&readIndex_, &writeIndex_}) {
        index->head.assign(config.totalBanks(), mem::RequestQueue::npos);
        index->tail.assign(config.totalBanks(), mem::RequestQueue::npos);
        index->key.assign(config.totalBanks(), BankIndex::kNoKey);
        index->livePos.assign(config.totalBanks(),
                              mem::RequestQueue::npos);
        index->live.reserve(config.totalBanks());
    }
    readIndex_.next.assign(config.readQueueEntries,
                           mem::RequestQueue::npos);
    readIndex_.prev.assign(config.readQueueEntries,
                           mem::RequestQueue::npos);
    writeIndex_.next.assign(config.writeQueueEntries,
                            mem::RequestQueue::npos);
    writeIndex_.prev.assign(config.writeQueueEntries,
                            mem::RequestQueue::npos);
    scratchBanks_.reserve(config.totalBanks());
    scratchRekeys_.reserve(config.totalBanks());
    stats_.add("reads", reads_);
    stats_.add("writes", writes_);
    stats_.add("rowHits", rowHits_);
    stats_.add("rowMisses", rowMisses_);
    stats_.add("rowConflicts", rowConflicts_);
    stats_.add("activates", activates_);
    stats_.add("precharges", precharges_);
    stats_.add("refreshes", refreshes_);
    stats_.add("busBusyCycles", busBusy_);
    stats_.add("readQueueFull", readQueueFullEvents_);
    stats_.add("writeQueueFull", writeQueueFullEvents_);
    for (unsigned r = 0; r < config_.ranks; ++r) {
        stats_.add("rank" + std::to_string(r) + ".activates",
                   rankActivates_[r]);
        stats_.add("rank" + std::to_string(r) + ".bursts",
                   rankBursts_[r]);
    }
    stats_.add("readLatency", readLatency_);
    stats_.add("readQueueDepth", readDepth_);
    stats_.add("writeQueueDepth", writeDepth_);
    readQueue_.registerStats(stats_, "readQueue");
    writeQueue_.registerStats(stats_, "writeQueue");
}

void
MemoryController::attachTrace(obs::TraceShard *shard)
{
    trace_ = shard;
    traceBankTracks_.clear();
    for (unsigned fb = 0; fb < config_.totalBanks(); ++fb)
        traceBankTracks_.push_back(
            shard->addTrack(name_ + ".bank" + std::to_string(fb),
                            obs::TrackKind::Instant, config_.freqMhz));
    traceReadDepth_ = shard->addTrack(name_ + ".readQueueDepth",
                                      obs::TrackKind::Counter,
                                      config_.freqMhz);
    traceWriteDepth_ = shard->addTrack(name_ + ".writeQueueDepth",
                                       obs::TrackKind::Counter,
                                       config_.freqMhz);
    nameAct_ = shard->internName("ACT");
    namePre_ = shard->internName("PRE");
    nameRead_ = shard->internName("RD");
    nameWrite_ = shard->internName("WR");
    nameRef_ = shard->internName("REF");
}

bool
MemoryController::enqueue(const mem::MemRequest &req)
{
    mem::MemRequest aligned = req;
    aligned.addr = blockAlign(req.addr) % config_.totalBytes();
    aligned.enqueuedAt = now_;
    const DramCoord coord = decoder_.decode(aligned.addr);
    aligned.coord = coord.toDecoded(config_);

    mem::RequestQueue &queue = aligned.isWrite ? writeQueue_ : readQueue_;
    std::uint32_t slot = mem::RequestQueue::npos;
    const mem::RequestQueue::Insert outcome = queue.insert(aligned, slot);
    if (outcome == mem::RequestQueue::Insert::Rejected) {
        ++(aligned.isWrite ? writeQueueFullEvents_
                           : readQueueFullEvents_);
        return false;
    }
    if (outcome == mem::RequestQueue::Insert::Fresh) {
        // A fresh slot (not a coalesced merge): track open-row hits.
        const unsigned fb = aligned.coord.flatBank;
        const Bank &bank = banks_[fb];
        if (bank.open && bank.openRow == coord.row)
            ++openRowWaiters(aligned.isWrite)[fb];
        if (!config_.referenceScheduler) {
            linkSlot(bankIndex(aligned.isWrite), fb, slot);
            rekeyBank(aligned.isWrite, fb, 0);
        }
    }
    return true;
}

bool
MemoryController::idle() const
{
    return readQueue_.empty() && writeQueue_.empty() &&
           pendingResponses_.empty();
}

bool
MemoryController::willDrainWrites() const
{
    if (drainingWrites_)
        return writeQueue_.size() > config_.writeLowWatermark;
    return writeQueue_.size() >= config_.writeHighWatermark ||
           (readQueue_.empty() && !writeQueue_.empty());
}

Cycle
MemoryController::indexWindow(const BankIndex &index) const
{
    // Keys are lower bounds: one that already lapsed (a bank that lost a
    // tie-break or sits outside the FCFS window keeps its old key) just
    // collapses the window to zero — never overshoots it.
    Cycle min_key = BankIndex::kNoKey;
    for (const unsigned fb : index.live)
        min_key = std::min(min_key, index.key[fb]);
    if (min_key == BankIndex::kNoKey)
        return ~Cycle(0);
    return min_key > now_ ? min_key - now_ : 0;
}

Cycle
MemoryController::quiescentFor() const
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
    if (config_.referenceScheduler) {
        // The oracle rescans its queues every cycle; only a fully idle
        // controller can skip.
        if (!(readQueue_.empty() && writeQueue_.empty()))
            return 0;
        return window;
    }
    // Indexed path. The write-drain hysteresis bit is real state: a tick
    // that flips it is not a no-op even when no command issues (with an
    // empty read queue and a write backlog at or below the low watermark
    // the dense schedule alternates off/on, issuing a write every other
    // cycle — skipping would lose the flip parity). Only skip while the
    // bit is stable; queue sizes cannot change inside a no-op window, so
    // stability holds across the whole window once it holds now.
    const bool draining_next = willDrainWrites();
    if (draining_next != drainingWrites_)
        return 0;
    // The scheduler consults the write index only while draining (with
    // reads as the drain fallback), otherwise only the read index.
    if (draining_next) {
        window = std::min(window, indexWindow(writeIndex_));
        window = std::min(window, indexWindow(readIndex_));
    } else if (!readQueue_.empty()) {
        window = std::min(window, indexWindow(readIndex_));
    }
    return window;
}

void
MemoryController::sampleDepths()
{
    const std::size_t before = readDepth_.values().size();
    readDepth_.sample(now_, readQueue_.size());
    writeDepth_.sample(now_, writeQueue_.size());
    if (trace_ && readDepth_.values().size() != before) {
        trace_->counter(traceReadDepth_, now_, readQueue_.size());
        trace_->counter(traceWriteDepth_, now_, writeQueue_.size());
    }
}

void
MemoryController::tick()
{
    if (readDepth_.enabled())
        sampleDepths();

    // Deliver read data whose burst completed.
    while (!pendingResponses_.empty() &&
           pendingResponses_.front().first <= now_) {
        const mem::MemRequest &resp = pendingResponses_.front().second;
        readLatency_.record(now_ - resp.enqueuedAt);
        if (callback_ && (!responseFilter_ || responseFilter_(resp)))
            callback_(resp);
        pendingResponses_.pop_front();
    }

    commandIssued_ = false;
    maybeRefresh();

    if (!commandIssued_ && !(readQueue_.empty() && writeQueue_.empty())) {
        // Write-drain hysteresis: start at the high watermark or when no
        // reads are pending; stop at the low watermark.
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

bool
MemoryController::pickAndIssue(mem::RequestQueue &queue, bool is_write)
{
    return config_.referenceScheduler
               ? pickAndIssueReference(queue, is_write)
               : pickAndIssueIndexed(queue, is_write);
}

bool
MemoryController::pickAndIssueReference(mem::RequestQueue &queue,
                                        bool is_write)
{
    if (queue.empty())
        return false;

    // Pass 1 — FR: oldest request that is a row hit and ready to launch.
    // Globally gated: no burst of this type can issue before the bus
    // tCCD/turnaround horizon, so skip the scan entirely until then.
    const Cycle burst_gate = is_write ? nextWriteCmd_ : nextReadCmd_;
    if (now_ >= burst_gate) {
        for (std::uint32_t s = queue.headSlot();
             s != mem::RequestQueue::npos; s = queue.nextSlot(s)) {
            bool served = false;
            if (tryIssueFor(queue.slotAt(s), is_write, true, served)) {
                if (served)
                    queue.removeSlot(s);
                return true;
            }
        }
    }
    // Pass 2 — FCFS: oldest request for which any command can issue.
    // The scan window is bounded, as in real schedulers.
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
MemoryController::pickAndIssueIndexed(mem::RequestQueue &queue,
                                      bool is_write)
{
    if (queue.empty())
        return false;
    BankIndex &index = bankIndex(is_write);

    // Gather every bank whose conservative eligibility key has arrived;
    // all others provably cannot accept any command this cycle. Keys are
    // read in place — no reordering cost for banks that stay put.
    scratchBanks_.clear();
    for (const unsigned fb : index.live)
        if (index.key[fb] <= now_)
            scratchBanks_.push_back(fb);
    if (scratchBanks_.empty())
        return false;

    // Banks whose evaluation fails on a *timing* constraint are re-keyed
    // after the issue, so the fresh key already reflects this cycle's
    // command and lands past it. Banks that merely lose the oldest-first
    // tie-break, sit outside the FCFS window, or wait on a refresh gate
    // keep their lapsed key: re-scanning them is one integer compare per
    // cycle, cheaper than any re-key discipline.
    scratchRekeys_.clear();
    bool issued = false;
    const std::vector<std::uint32_t> &waiters = openRowWaiters(is_write);

    // Pass 1 — FR: oldest request that is a row hit and ready to launch,
    // globally gated by the bus tCCD/turnaround horizon. Burst readiness
    // is uniform across one bank's requests (the group is a function of
    // the bank), so each eligible bank contributes its oldest open-row
    // hit and the winner is the lowest request id — exactly the request
    // the reference full-queue scan stops at.
    const Cycle burst_gate = is_write ? nextWriteCmd_ : nextReadCmd_;
    const bool fr_ran = now_ >= burst_gate;
    if (fr_ran) {
        std::uint32_t best = mem::RequestQueue::npos;
        unsigned best_fb = 0;
        std::uint64_t best_id = 0;
        for (unsigned fb : scratchBanks_) {
            if (waiters[fb] == 0)
                continue;
            const RankState &rank = ranks_[rankOf(fb)];
            if (rank.refreshing ||
                (config_.refreshEnabled && now_ >= rank.nextRefresh))
                continue;
            const Bank &bank = banks_[fb];
            if (!(is_write ? canWrite(bank, groupIndexOf(fb))
                           : canRead(bank, groupIndexOf(fb)))) {
                scratchRekeys_.push_back(fb);
                continue;
            }
            std::uint32_t s = index.head[fb];
            while (queue.slotAt(s).coord.row != bank.openRow)
                s = index.next[s];
            const std::uint64_t id = queue.slotAt(s).id;
            if (best == mem::RequestQueue::npos ||
                (flipTieBreak() ? id > best_id : id < best_id)) {
                best = s;
                best_fb = fb;
                best_id = id;
            }
        }
        if (best != mem::RequestQueue::npos) {
            bool served = false;
            const bool ok =
                tryIssueFor(queue.slotAt(best), is_write, true, served);
            menda_assert(ok && served,
                         "indexed FR pick failed to issue a burst");
            unlinkSlot(index, best_fb, best);
            queue.removeSlot(best);
            rekeyBank(is_write, best_fb, 0);
            issued = true;
        }
    }

    // Pass 2 — FCFS: oldest request within the 16-entry window for which
    // a command can issue. Ready hits are exclusively pass-1 material
    // (if the FR pass ran, no hit anywhere is ready; if it was gated,
    // the same gate blocks hits here), so each bank's candidate is its
    // oldest request: ACT when the bank is closed, or PRE on a conflict
    // when no scheduled-queue request still hits the open row.
    if (!issued) {
        // The window boundary (id of the 16th-oldest entry) costs a
        // 15-hop list walk, so resolve it lazily: only when some bank's
        // head actually reaches the id comparison.
        std::uint64_t window_max_id = ~std::uint64_t(0);
        bool window_known = queue.size() <= 16;
        std::uint32_t best = mem::RequestQueue::npos;
        std::uint64_t best_id = 0;
        for (unsigned fb : scratchBanks_) {
            const std::uint32_t s = index.head[fb];
            if (s == mem::RequestQueue::npos)
                continue;
            const Bank &bank = banks_[fb];
            if (bank.open && waiters[fb] > 0) {
                // PriorHit: the open row stays pinned, so this bank only
                // ever issues bursts. If the FR pass ran it already
                // queued the re-key; a gated pass leaves it to us.
                if (!fr_ran)
                    scratchRekeys_.push_back(fb);
                continue;
            }
            const mem::MemRequest &req = queue.slotAt(s);
            if (!window_known) {
                std::uint32_t w = queue.headSlot();
                for (unsigned i = 0; i < 15; ++i)
                    w = queue.nextSlot(w);
                window_max_id = queue.slotAt(w).id;
                window_known = true;
            }
            if (req.id > window_max_id)
                continue;
            const RankState &rank = ranks_[rankOf(fb)];
            if (rank.refreshing ||
                (config_.refreshEnabled && now_ >= rank.nextRefresh))
                continue;
            if (bank.open) {
                if (!canPrecharge(bank)) {
                    scratchRekeys_.push_back(fb);
                    continue;
                }
            } else if (!canActivateAt(fb)) {
                scratchRekeys_.push_back(fb);
                continue;
            }
            if (best == mem::RequestQueue::npos || req.id < best_id) {
                best = s;
                best_id = req.id;
            }
        }
        if (best != mem::RequestQueue::npos) {
            bool served = false;
            const bool ok =
                tryIssueFor(queue.slotAt(best), is_write, false, served);
            menda_assert(ok && !served,
                         "indexed FCFS pick failed to issue ACT/PRE");
            issued = true;
        }
    }

    // Re-key the timing-blocked banks against post-issue state. A bank
    // that could not accept a command during this cycle's evaluation
    // cannot become eligible again before the next cycle.
    for (unsigned fb : scratchRekeys_)
        rekeyBank(is_write, fb, now_ + 1);
    return issued;
}

void
MemoryController::linkSlot(BankIndex &index, unsigned fb,
                           std::uint32_t slot)
{
    if (index.head[fb] == mem::RequestQueue::npos) {
        index.livePos[fb] = static_cast<std::uint32_t>(index.live.size());
        index.live.push_back(fb);
    }
    index.next[slot] = mem::RequestQueue::npos;
    index.prev[slot] = index.tail[fb];
    if (index.tail[fb] != mem::RequestQueue::npos)
        index.next[index.tail[fb]] = slot;
    else
        index.head[fb] = slot;
    index.tail[fb] = slot;
}

void
MemoryController::unlinkSlot(BankIndex &index, unsigned fb,
                             std::uint32_t slot)
{
    if (index.prev[slot] != mem::RequestQueue::npos)
        index.next[index.prev[slot]] = index.next[slot];
    else
        index.head[fb] = index.next[slot];
    if (index.next[slot] != mem::RequestQueue::npos)
        index.prev[index.next[slot]] = index.prev[slot];
    else
        index.tail[fb] = index.prev[slot];
    if (index.head[fb] == mem::RequestQueue::npos) {
        // Bank emptied: O(1) swap-remove from the live-bank list.
        const std::uint32_t pos = index.livePos[fb];
        const unsigned moved = index.live.back();
        index.live[pos] = moved;
        index.livePos[moved] = pos;
        index.live.pop_back();
        index.livePos[fb] = mem::RequestQueue::npos;
        index.key[fb] = BankIndex::kNoKey;
    }
}

Cycle
MemoryController::bankEligibleAt(bool is_write, unsigned fb) const
{
    const Bank &bank = banks_[fb];
    const RankState &rank = ranks_[rankOf(fb)];
    Cycle key;
    if (bank.open) {
        if (openRowWaiters(is_write)[fb] > 0) {
            // Burst candidate: bank CAS readiness plus the bus-level
            // horizons. Every term is monotone non-decreasing, so the
            // key can go stale early but never late.
            const unsigned group = groupIndexOf(fb);
            if (is_write) {
                key = std::max(bank.nextWrite, nextWriteCmd_);
                key = std::max(key, nextWriteCmdGroup_[group]);
                if (busFreeAt_ > config_.tCWL)
                    key = std::max(key, busFreeAt_ - config_.tCWL);
            } else {
                key = std::max(bank.nextRead, nextReadCmd_);
                key = std::max(key, nextReadCmdGroup_[group]);
                if (busFreeAt_ > config_.tCL)
                    key = std::max(key, busFreeAt_ - config_.tCL);
            }
        } else {
            // All queued requests conflict with the open row: precharge.
            key = bank.nextPrecharge;
        }
    } else {
        // Activate candidate: bank tRC plus the rank-level ACT horizons
        // (tRRD, tFAW) — also all monotone.
        key = std::max(bank.nextActivate, rank.nextActAny);
        key = std::max(
            key, rank.nextActGroup[(fb / config_.banksPerGroup) %
                                   config_.bankGroups]);
        if (rank.actCount == 4)
            key = std::max(key,
                           rank.actRing[rank.actHead] + config_.tFAW);
    }
    if (rank.refreshing)
        key = std::max(key, rank.refreshDone);
    return key;
}

void
MemoryController::rekeyBank(bool is_write, unsigned fb, Cycle floor)
{
    BankIndex &index = bankIndex(is_write);
    if (index.head[fb] == mem::RequestQueue::npos) {
        index.key[fb] = BankIndex::kNoKey;
        return;
    }
    index.key[fb] = std::max(bankEligibleAt(is_write, fb), floor);
}

void
MemoryController::rekeyRankBanks(unsigned rank)
{
    if (config_.referenceScheduler)
        return;
    const unsigned per_rank = config_.bankGroups * config_.banksPerGroup;
    for (unsigned fb = rank * per_rank; fb < (rank + 1) * per_rank; ++fb) {
        rekeyBank(false, fb, 0);
        rekeyBank(true, fb, 0);
    }
}

bool
MemoryController::tryIssueFor(const mem::MemRequest &req, bool is_write,
                              bool hits_only, bool &served)
{
    const DramCoord coord = DramCoord::fromDecoded(req.coord);
    const unsigned fb = req.coord.flatBank;
    const RankState &rank = ranks_[coord.rank];
    if (rank.refreshing ||
        (config_.refreshEnabled && now_ >= rank.nextRefresh))
        return false; // rank is (about to be) refreshing

    Bank &bank = banks_[fb];
    const bool hit = bank.open && bank.openRow == coord.row;

    if (hit) {
        if (is_write ? canWrite(bank, groupIndexOf(fb))
                     : canRead(bank, groupIndexOf(fb))) {
            menda_assert(openRowWaiters(is_write)[fb] > 0,
                         "open-row waiter underflow");
            --openRowWaiters(is_write)[fb];
            issueBurst(coord, req, is_write);
            served = true;
            return true;
        }
        return false; // ready soon; don't waste the slot elsewhere
    }
    if (hits_only)
        return false;

    if (!bank.open) {
        if (canActivateAt(fb)) {
            issueActivate(coord);
            ++rowMisses_;
            return true;
        }
        return false;
    }

    // Row conflict. PriorHit: keep the open row while a request in the
    // queue being scheduled still hits it; otherwise precharge. Only the
    // scheduled queue counts — a write hit must not pin a row against
    // conflicting reads while write draining is far away (and vice
    // versa), or the conflicting side stalls for a whole drain period.
    if (openRowWaiters(is_write)[fb] > 0)
        return false;
    if (canPrecharge(bank)) {
        issuePrecharge(coord);
        ++rowConflicts_;
        return true;
    }
    return false;
}

bool
MemoryController::canActivateAt(unsigned fb) const
{
    const Bank &bank = banks_[fb];
    const RankState &rank = ranks_[rankOf(fb)];
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
MemoryController::canActivate(const DramCoord &coord) const
{
    return canActivateAt(coord.flatBank(config_));
}

bool
MemoryController::canPrecharge(const Bank &bank) const
{
    return bank.open && now_ >= bank.nextPrecharge;
}

bool
MemoryController::canRead(const Bank &bank, unsigned group_index) const
{
    return now_ >= bank.nextRead && now_ >= nextReadCmd_ &&
           now_ >= nextReadCmdGroup_[group_index] &&
           now_ + config_.tCL >= busFreeAt_;
}

bool
MemoryController::canWrite(const Bank &bank, unsigned group_index) const
{
    return now_ >= bank.nextWrite && now_ >= nextWriteCmd_ &&
           now_ >= nextWriteCmdGroup_[group_index] &&
           now_ + config_.tCWL >= busFreeAt_;
}

void
MemoryController::issueActivate(const DramCoord &coord)
{
    const unsigned fb = coord.flatBank(config_);
    Bank &bank = banks_[fb];
    RankState &rank = ranks_[coord.rank];
    bank.open = true;
    bank.openRow = coord.row;
    bank.nextRead = now_ + config_.tRCD;
    bank.nextWrite = now_ + config_.tRCD;
    bank.nextPrecharge = std::max<Cycle>(bank.nextPrecharge,
                                         now_ + config_.tRAS);
    bank.nextActivate = now_ + config_.tRC;
    rank.nextActAny = std::max<Cycle>(rank.nextActAny, now_ + config_.tRRDS);
    rank.nextActGroup[coord.bankGroup] =
        std::max<Cycle>(rank.nextActGroup[coord.bankGroup],
                        now_ + config_.tRRDL);
    if (rank.actCount < 4) {
        rank.actRing[(rank.actHead + rank.actCount) & 3] = now_;
        ++rank.actCount;
    } else {
        rank.actRing[rank.actHead] = now_;
        rank.actHead = (rank.actHead + 1) & 3;
    }
    if (config_.referenceScheduler) {
        recountOpenRowWaiters(coord);
    } else {
        recountBankWaiters(fb);
        rekeyBank(false, fb, 0);
        rekeyBank(true, fb, 0);
    }
    ++activates_;
    ++rankActivates_[coord.rank];
    commandIssued_ = true;
    if (trace_)
        trace_->instant(traceBankTracks_[fb], nameAct_, now_);
    if (commandCallback_)
        commandCallback_(CommandType::Activate, coord, now_);
}

void
MemoryController::recountOpenRowWaiters(const DramCoord &coord)
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
MemoryController::recountBankWaiters(unsigned fb)
{
    // Bank-local replacement for the reference full-queue recount: only
    // requests bucketed under this bank can hit its open row, and they
    // are exactly the members of the two per-bank FIFOs.
    const Bank &bank = banks_[fb];
    std::uint32_t read_hits = 0, write_hits = 0;
    for (std::uint32_t s = readIndex_.head[fb];
         s != mem::RequestQueue::npos; s = readIndex_.next[s])
        read_hits += readQueue_.slotAt(s).coord.row == bank.openRow;
    for (std::uint32_t s = writeIndex_.head[fb];
         s != mem::RequestQueue::npos; s = writeIndex_.next[s])
        write_hits += writeQueue_.slotAt(s).coord.row == bank.openRow;
    openRowHitsRead_[fb] = read_hits;
    openRowHitsWrite_[fb] = write_hits;
}

void
MemoryController::issuePrecharge(const DramCoord &coord)
{
    const unsigned fb = coord.flatBank(config_);
    Bank &bank = banks_[fb];
    bank.open = false;
    bank.nextActivate = std::max<Cycle>(bank.nextActivate,
                                        now_ + config_.tRP);
    openRowHitsRead_[fb] = 0;
    openRowHitsWrite_[fb] = 0;
    if (!config_.referenceScheduler) {
        rekeyBank(false, fb, 0);
        rekeyBank(true, fb, 0);
    }
    ++precharges_;
    commandIssued_ = true;
    if (trace_)
        trace_->instant(traceBankTracks_[fb], namePre_, now_);
    if (commandCallback_)
        commandCallback_(CommandType::Precharge, coord, now_);
}

void
MemoryController::issueBurst(const DramCoord &coord,
                             const mem::MemRequest &req, bool is_write)
{
    Bank &bank = bankAt(coord);
    const unsigned group = coord.rank * config_.bankGroups + coord.bankGroup;
    busBusy_ += config_.tBL;
    if (is_write) {
        busFreeAt_ = now_ + config_.tCWL + config_.tBL;
        nextWriteCmd_ = std::max<Cycle>(nextWriteCmd_, now_ + config_.tCCDS);
        nextWriteCmdGroup_[group] =
            std::max<Cycle>(nextWriteCmdGroup_[group], now_ + config_.tCCDL);
        // Write-to-read turnaround.
        const Cycle wtr = now_ + config_.tCWL + config_.tBL;
        nextReadCmd_ = std::max<Cycle>(nextReadCmd_, wtr + config_.tWTRS);
        nextReadCmdGroup_[group] =
            std::max<Cycle>(nextReadCmdGroup_[group], wtr + config_.tWTRL);
        bank.nextPrecharge = std::max<Cycle>(
            bank.nextPrecharge, now_ + config_.tCWL + config_.tBL +
                                    config_.tWR);
        ++writes_;
    } else {
        busFreeAt_ = now_ + config_.tCL + config_.tBL;
        nextReadCmd_ = std::max<Cycle>(nextReadCmd_, now_ + config_.tCCDS);
        nextReadCmdGroup_[group] =
            std::max<Cycle>(nextReadCmdGroup_[group], now_ + config_.tCCDL);
        // Read-to-write turnaround: write burst must not collide.
        nextWriteCmd_ = std::max<Cycle>(
            nextWriteCmd_,
            now_ + config_.tCL + config_.tBL + 2 - config_.tCWL);
        bank.nextPrecharge = std::max<Cycle>(bank.nextPrecharge,
                                             now_ + config_.tRTP);
        pendingResponses_.emplace_back(now_ + config_.tCL + config_.tBL,
                                       req);
        ++reads_;
    }
    ++rankBursts_[coord.rank];
    commandIssued_ = true;
    if (trace_)
        trace_->instant(traceBankTracks_[coord.flatBank(config_)],
                        is_write ? nameWrite_ : nameRead_, now_);
    if (commandCallback_)
        commandCallback_(is_write ? CommandType::Write
                                  : CommandType::Read,
                         coord, now_);
}

void
MemoryController::maybeRefresh()
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
        for (unsigned g = 0; g < config_.bankGroups && !commandIssued_;
             ++g) {
            for (unsigned b = 0; b < config_.banksPerGroup; ++b) {
                DramCoord coord{r, g, b, 0, 0};
                Bank &bank = bankAt(coord);
                if (!bank.open)
                    continue;
                all_closed = false;
                if (canPrecharge(bank)) {
                    issuePrecharge(coord);
                    break;
                }
            }
        }
        if (!all_closed || commandIssued_)
            continue;
        // All banks precharged: issue REF.
        rank.refreshing = true;
        rank.refreshDone = now_ + config_.tRFC;
        rank.nextRefresh += config_.tREFI;
        for (unsigned g = 0; g < config_.bankGroups; ++g) {
            for (unsigned b = 0; b < config_.banksPerGroup; ++b) {
                DramCoord coord{r, g, b, 0, 0};
                bankAt(coord).nextActivate = rank.refreshDone;
            }
        }
        // Push the rank's queued banks out to the refresh horizon so the
        // quiescence window can swallow the whole tRFC in one skip.
        rekeyRankBanks(r);
        ++refreshes_;
        commandIssued_ = true;
        if (trace_)
            trace_->instant(
                traceBankTracks_[r * config_.bankGroups *
                                 config_.banksPerGroup],
                nameRef_, now_);
        if (commandCallback_)
            commandCallback_(CommandType::Refresh, DramCoord{r, 0, 0, 0, 0},
                             now_);
    }
}

double
MemoryController::achievedBandwidth(Cycle cycles) const
{
    if (cycles == 0)
        return 0.0;
    const double seconds =
        static_cast<double>(cycles) / (config_.freqMhz * 1e6);
    return static_cast<double>(bytesTransferred()) / seconds;
}

} // namespace menda::dram
