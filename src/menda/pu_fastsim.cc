/**
 * @file
 * The fast simulation tiers of a PU (DESIGN.md §12).
 *
 * Functional: the kernel's semantics are advanced directly — a stable
 * k-way software merge that replicates the hardware tree's slot-order
 * tiebreak, round structure, and root reduction, feeding the same
 * OutputUnit the detailed engine feeds — so COO/CSR/vector outputs are
 * bitwise identical to a ticked run. puCycles comes from an analytical
 * per-iteration model (merge throughput vs block-transfer bounds).
 *
 * Sampled: SMARTS-style interleaving. The kernel still advances
 * functionally, but every periodCycles of estimated time a
 * windowCycles-long cycle-accurate window runs on a THROWAWAY PU and
 * controller pair seeded with the live stream cursors (prefetch buffers
 * filled, DRAM rows opened — functional warming). The fast-forwarded
 * gaps are charged at the measured per-window merge rates, and the
 * spread of those rates yields errorBoundPct.
 */

#include "menda/pu.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "menda/sampled_stats.hh"
#include "sim/clock.hh"

namespace menda::core
{

namespace
{

constexpr std::uint64_t elemsPerBlock = blockBytes / 4;

/** Aligned 64 B spans of a 4-byte-element array covering [begin, end). */
std::uint64_t
spanBlocks(std::uint64_t begin, std::uint64_t end)
{
    if (begin >= end)
        return 0;
    return (end - 1) / elemsPerBlock - begin / elemsPerBlock + 1;
}

/** Elements retired between checkpoint calls (amortizes the hook). */
constexpr std::uint64_t checkpointStride = 1024;

} // namespace

Pu::Pu(const Pu &parent, std::vector<StreamDesc> streams, bool final_iter,
       dram::MemoryController *mem)
    : name_(parent.name_ + ".window"),
      config_(parent.config_),
      kernel_(parent.kernel_),
      csr_(parent.csr_),
      csc_(parent.csc_),
      vecX_(parent.vecX_),
      bMat_(parent.bMat_),
      rowOffset_(parent.rowOffset_),
      map_(parent.map_),
      mem_(mem),
      tree_(parent.config_, mergeKeyFor(parent.kernel_)),
      output_(config_, &map_),
      stats_(name_)
{
    // Throwaway measurement clone: never sampled, never traced; COO
    // stream reads resolve against the PARENT's ping-pong buffers.
    windowMode_ = true;
    windowFinal_ = final_iter;
    cooSrc_[0] = &parent.coo_[0];
    cooSrc_[1] = &parent.coo_[1];
    streams_ = std::move(streams);
    // SpGEMM suffixes may carry CondensedLeaf descriptors; their
    // virtual-to-physical mapping rides along. The merge plan does not:
    // a window's slot table is its explicit streams.
    spgemmStreams_ = parent.spgemmStreams_;
    streamElemPrefix_ = parent.streamElemPrefix_;
    condensedLeaves_ = parent.condensedLeaves_;
    commonInit();
}

void
Pu::startWindow()
{
    menda_assert(windowMode_ && phase_ == Phase::Idle,
                 "startWindow: not an idle window PU");
    phase_ = Phase::Running;
    // Window streams are explicit suffix descriptors: skip the pointer
    // walk (iteration 0's stream bounds are already baked into them).
    iteration_ = 1;
    srcCoo_ = 0;
    setupIteration();
}

void
Pu::primeWindow(double fill_frac)
{
    // Hand out the first streams the way the mid-run FSM already had.
    // Each doAssignments() pass makes at most two assignments, so drive
    // the queue a bounded number of passes; non-seamless configs keep
    // requeueing future rounds — those stay for the window proper.
    for (unsigned pass = 0;
         pass < config_.leaves * 2 && !assignQueue_.empty(); ++pass)
        doAssignments();

    // Fill the prefetch buffers instantly and open the DRAM rows those
    // blocks live in. Fill levels matter: priming every buffer to the
    // brim hands the window a synchronized stall-free honeymoon
    // (~bufferEntries*leaves pops) that inflates the measured rate,
    // while underfilling starves it. Both biases showed up as multi-%
    // puCycles errors, with opposite signs on uniform vs RMAT inputs —
    // so the target is the PREVIOUS window's observed mean occupancy,
    // staggered across slots to avoid lockstep drain. Partially-filled
    // chunks are fine: the window issues the remaining blocks itself,
    // exactly like in-flight loads.
    fill_frac = std::min(std::max(fill_frac, 0.05), 1.0);
    for (unsigned b = 0; b < config_.leaves; ++b) {
        PrefetchBuffer &buf = *buffers_[b];
        static constexpr double kStagger[4] = {0.6, 0.9, 1.1, 1.4};
        const double frac =
            std::min(fill_frac * kStagger[b % 4], 1.0);
        const unsigned target = static_cast<unsigned>(
            frac * config_.prefetchBufferEntries + 0.5);
        Addr addr;
        while (buf.occupancy() < target &&
               (addr = buf.pendingBlock()) != 0) {
            buf.issuedBlock();
            mem_->warmPrime(addr);
            buf.fillFromResponse(addr);
        }
        noteBufferActivity(b);
    }
}

double
Pu::avgBufferFill() const
{
    std::uint64_t held = 0;
    for (unsigned b = 0; b < config_.leaves; ++b)
        held += buffers_[b]->occupancy();
    const double cap = static_cast<double>(config_.leaves) *
                       config_.prefetchBufferEntries;
    return cap > 0.0 ? static_cast<double>(held) / cap : 0.0;
}

std::unique_ptr<Pu>
Pu::cloneFresh(dram::MemoryController *mem) const
{
    switch (kernel_) {
      case Kernel::Transpose:
        return std::make_unique<Pu>(name_ + ".anchor", config_, csr_,
                                    rowOffset_, mem);
      case Kernel::Spmv:
        return std::make_unique<Pu>(name_ + ".anchor", config_, csc_,
                                    vecX_, rowOffset_, mem);
      case Kernel::Spgemm:
        return std::make_unique<Pu>(name_ + ".anchor", config_, csr_,
                                    bMat_, rowOffset_, mem);
    }
    menda_panic("unreachable PU mode");
}

void
Pu::acceptFunctional(const Packet &packet, std::uint64_t &write_blocks)
{
    // Stores drain immediately, so canAccept() never back-pressures and
    // the store sequence matches the detailed engine's block order.
    output_.accept(packet);
    while (output_.hasPendingStore()) {
        output_.storeIssued();
        ++stores_;
        ++write_blocks;
    }
}

std::uint64_t
Pu::functionalMergeRounds(std::uint64_t &write_blocks,
                          const CheckpointFn &checkpoint)
{
    const unsigned leaves = config_.leaves;
    const MergeKey key = mergeKeyFor(kernel_);
    // SpMV reduces in every iteration; SpGEMM only in the final one; a
    // transposition never does — exactly doRootPop's dispatch.
    const bool reduce = kernel_ == Kernel::Spmv ||
                        (kernel_ == Kernel::Spgemm && finalIteration_);

    struct Slot
    {
        StreamDesc desc;
        std::uint64_t cursor = 0; ///< element currently held in cur
        Packet cur;
    };
    std::vector<Slot> slots(leaves);

    // Pre-size the merged arrays: vector growth inside the per-element
    // accept path is pure overhead at this tier.
    std::uint64_t total = 0;
    for (const StreamDesc &d : iterStreams_)
        total += d.length();
    output_.reserveMerged(total);

    // Tournament (loser) tree on (merge key, slot index): a PE tie pops
    // its LEFT child, which composes across the tree to lowest-slot-wins
    // — the stability that makes the merge timing-independent. A loser
    // tree replays exactly log2(k) comparisons per element along a FIXED
    // leaf-to-root path (a binary heap's replace-top sift-down costs up
    // to 2·log2(k) on a data-dependent path), which is the difference
    // between the functional tier tracking memory bandwidth and tracking
    // branch mispredictions. Exhausted leaves become (max, max)
    // sentinels; a live entry always wins the tie on slot < UINT32_MAX.
    // An entry packs (key << 32 | slot) into one 128-bit integer, so the
    // ordering test is a single wide compare and the replay loop below
    // compiles branch-free — the keys are effectively random, and a
    // branchy compare costs a misprediction per tree level.
    using Entry = unsigned __int128;
    constexpr Entry kSentinel = ~Entry(0);
    const auto makeEntry = [](std::uint64_t k, unsigned slot) {
        return (Entry(k) << 32) | slot;
    };
    const auto entSlot = [](Entry e) {
        return unsigned(e & 0xffffffffu);
    };
    std::vector<Entry> ext;        // current entry per leaf position
    std::vector<unsigned> losers;  // internal nodes: losing leaf position
    std::vector<unsigned> winners; // build-time scratch
    ext.reserve(std::bit_ceil(std::uint64_t(leaves)));

    // SpMV dense-accumulator scratch: a round's reduction by row is a
    // scatter-add when the row domain is dense enough (see below).
    const Index dense_rows =
        kernel_ == Kernel::Spmv && csc_ ? csc_->rows : 0;
    std::vector<Value> dense_val;
    std::vector<Index> dense_col;
    std::vector<std::uint32_t> dense_stamp, dense_cnt;
    if (dense_rows != 0) {
        dense_val.resize(dense_rows);
        dense_col.resize(dense_rows);
        dense_cnt.resize(dense_rows);
        dense_stamp.assign(dense_rows, 0);
    }
    // Transpose counting-sort scratch: without a reduction the merge
    // output is exactly a stable sort of the round by (column, slot),
    // which a two-pass counting sort over the column domain reproduces.
    const Index sort_cols =
        kernel_ == Kernel::Transpose && csr_ ? csr_->cols : 0;
    std::vector<Packet> staged, placed;
    std::vector<std::uint16_t> staged_slot, placed_slot;
    std::vector<std::uint32_t> col_ofs;
    if (sort_cols != 0)
        col_ofs.resize(std::size_t(sort_cols) + 1);

    std::uint64_t retired = 0;
    std::uint64_t until_checkpoint = checkpointStride;
    for (std::uint64_t round = 0; round < roundsTotal_; ++round) {
        const std::uint64_t base = round * leaves;
        ext.clear();
        std::uint64_t round_elems = 0;
        for (unsigned s = 0; s < leaves; ++s) {
            Slot &slot = slots[s];
            slot.desc = iterStreams_[base + s];
            slot.cursor = slot.desc.begin;
            if (slot.cursor < slot.desc.end) {
                round_elems += slot.desc.end - slot.desc.begin;
                slot.cur = readElement(slot.desc, slot.cursor);
                ext.push_back(makeEntry(mergeKey(slot.cur, key), s));
            }
        }
        // Slot-aligned remaining work, the one suffix every checkpoint
        // hands a window: the slot table from this round on, each of
        // this round's slots resumed at begin_of(slot) (exhausted slots
        // become padding) and every later round untouched.
        const auto remaining = [&](const auto &begin_of) {
            std::vector<StreamDesc> out(iterStreams_.begin() + base,
                                        iterStreams_.end());
            for (unsigned t = 0; t < leaves; ++t) {
                out[t].begin = begin_of(t);
                if (out[t].begin >= out[t].end)
                    out[t] = StreamDesc{};
            }
            return out;
        };
        const SuffixFn suffix = [&] {
            return remaining([&](unsigned t) { return slots[t].cursor; });
        };
        // SpMV reduces on the row alone and every stream's rows
        // strictly increase, so for any output row the contributions
        // arrive in ascending slot order — the exact order the merge
        // tree's lowest-slot-wins tiebreak feeds the root reduction.
        // Walking the streams slot-major and scatter-adding into a
        // dense per-row accumulator therefore produces bitwise-equal
        // sums (same float additions, same order) without paying
        // log2(k) compares per element. Only worth it when the round
        // actually covers the row domain; sparse rounds keep the tree.
        if (dense_rows != 0 && round_elems >= dense_rows / 4) {
            const std::uint32_t epoch =
                static_cast<std::uint32_t>(round + 1);
            for (unsigned s = 0; s < leaves; ++s) {
                Slot &slot = slots[s];
                while (slot.cursor < slot.desc.end) {
                    const Packet p =
                        readElement(slot.desc, slot.cursor);
                    ++slot.cursor;
                    if (dense_stamp[p.row] != epoch) {
                        dense_stamp[p.row] = epoch;
                        dense_val[p.row] = p.val;
                        dense_col[p.row] = p.col;
                        dense_cnt[p.row] = 1;
                    } else {
                        dense_val[p.row] += p.val;
                        ++dense_cnt[p.row];
                    }
                }
            }
            // Ascending-row drain; the last touched row carries the
            // round's end-of-line token, as the tree's root would.
            // Checkpoints fire in OUTPUT order: emitting row r means
            // exactly the elements with row <= r are consumed from
            // every stream, so the (lazy) suffix replays each stream
            // to that frontier — the same state the tree would be in.
            Packet pend;
            for (Index r = 0; r < dense_rows; ++r) {
                if (dense_stamp[r] != epoch)
                    continue;
                if (pend.valid)
                    acceptFunctional(pend, write_blocks);
                pend = Packet::data(r, dense_col[r], dense_val[r]);
                const std::uint64_t consumed = dense_cnt[r];
                retired += consumed;
                if (checkpoint) {
                    if (consumed >= until_checkpoint) {
                        until_checkpoint = checkpointStride;
                        const SuffixFn frontier = [&, r] {
                            return remaining([&](unsigned t) {
                                const StreamDesc &d = slots[t].desc;
                                std::uint64_t at = d.begin;
                                while (at < d.end &&
                                       readElement(d, at).row <= r)
                                    ++at;
                                return at;
                            });
                        };
                        checkpoint(retired, frontier);
                    } else {
                        until_checkpoint -= consumed;
                    }
                }
            }
            if (pend.valid) {
                pend.eol = true;
                acceptFunctional(pend, write_blocks);
            } else {
                acceptFunctional(Packet::endOfLine(), write_blocks);
            }
            continue;
        }
        // Transposition keeps every element, so the round's output
        // sequence is its input stable-sorted by (column, slot): equal
        // columns pop lowest-slot-first, and within one slot the stream
        // is already column-ordered. Staging the round stream-major and
        // counting-sorting on the column reproduces that order in two
        // linear passes instead of log2(k) compares per element. Sparse
        // rounds (histogram would dwarf the data) keep the tree.
        if (sort_cols != 0 && round_elems >= sort_cols / 4) {
            staged.clear();
            staged_slot.clear();
            staged.reserve(round_elems);
            staged_slot.reserve(round_elems);
            for (unsigned s = 0; s < leaves; ++s) {
                Slot &slot = slots[s];
                while (slot.cursor < slot.desc.end) {
                    staged.push_back(
                        readElement(slot.desc, slot.cursor));
                    staged_slot.push_back(
                        static_cast<std::uint16_t>(s));
                    ++slot.cursor;
                }
            }
            std::fill(col_ofs.begin(), col_ofs.end(), 0u);
            for (const Packet &p : staged)
                ++col_ofs[std::size_t(p.col) + 1];
            for (std::size_t c = 1; c < col_ofs.size(); ++c)
                col_ofs[c] += col_ofs[c - 1];
            placed.resize(staged.size());
            placed_slot.resize(staged.size());
            for (std::size_t i = 0; i < staged.size(); ++i) {
                const std::uint32_t at = col_ofs[staged[i].col]++;
                placed[at] = staged[i];
                placed_slot[at] = staged_slot[i];
            }
            // Emission IS the merge order, so checkpoints fire exactly
            // as the tree's would; the (lazy) suffix counts how many
            // elements each slot contributed to the emitted prefix.
            for (std::size_t i = 0; i < placed.size(); ++i) {
                Packet p = placed[i];
                p.eol = false;
                acceptFunctional(p, write_blocks);
                ++retired;
                if (checkpoint && --until_checkpoint == 0) {
                    until_checkpoint = checkpointStride;
                    const SuffixFn frontier = [&, i] {
                        std::vector<std::uint64_t> consumed(leaves, 0);
                        for (std::size_t j = 0; j <= i; ++j)
                            ++consumed[placed_slot[j]];
                        return remaining([&](unsigned t) {
                            return slots[t].desc.begin + consumed[t];
                        });
                    };
                    checkpoint(retired, frontier);
                }
            }
            acceptFunctional(Packet::endOfLine(), write_blocks);
            continue;
        }
        unsigned live = ext.size();
        unsigned winner = 0;
        const unsigned m =
            live > 1 ? unsigned(std::bit_ceil(std::uint64_t(live))) : 1;
        if (live > 1) {
            ext.resize(m, kSentinel);
            losers.resize(m);
            winners.resize(2 * m);
            for (unsigned i = 0; i < m; ++i)
                winners[m + i] = i;
            for (unsigned p = m; p-- > 1;) {
                const unsigned a = winners[2 * p];
                const unsigned b = winners[2 * p + 1];
                const bool right = ext[b] < ext[a];
                losers[p] = right ? a : b;
                winners[p] = right ? b : a;
            }
            winner = winners[1];
        }
        Packet red; // round-local: doRootPop flushes it at every EOL
        const auto emit = [&](Packet p) {
            p.eol = false;
            if (!reduce) {
                acceptFunctional(p, write_blocks);
            } else {
                const bool same_key =
                    red.valid && red.row == p.row &&
                    (kernel_ == Kernel::Spmv || red.col == p.col);
                if (same_key) {
                    red.val += p.val;
                } else {
                    if (red.valid)
                        acceptFunctional(red, write_blocks);
                    red = p;
                }
            }
            ++retired;
            if (checkpoint && --until_checkpoint == 0) {
                until_checkpoint = checkpointStride;
                checkpoint(retired, suffix);
            }
        };
        while (live > 1) {
            const unsigned w = winner;
            const unsigned s = entSlot(ext[w]);
            Slot &slot = slots[s];
            const Packet p = slot.cur;
            ++slot.cursor;
            if (slot.cursor < slot.desc.end) {
                slot.cur = readElement(slot.desc, slot.cursor);
                ext[w] = makeEntry(mergeKey(slot.cur, key), s);
            } else {
                ext[w] = kSentinel;
                --live;
            }
            unsigned cur = w;
            Entry cur_ent = ext[w];
            for (unsigned node = (m + w) >> 1; node; node >>= 1) {
                const unsigned l = losers[node];
                const Entry lent = ext[l];
                const bool swap = lent < cur_ent;
                losers[node] = swap ? cur : l;
                cur = swap ? l : cur;
                cur_ent = swap ? lent : cur_ent;
            }
            winner = cur;
            emit(p);
        }
        if (live == 1) {
            // Solo drain: the round's last live stream needs no tree
            // maintenance. This is every round's tail — and for skewed
            // (RMAT) rounds, where one stream dwarfs the rest, it is
            // most of the round's elements.
            Slot &slot = slots[entSlot(ext[winner])];
            for (;;) {
                const Packet p = slot.cur;
                ++slot.cursor;
                if (slot.cursor >= slot.desc.end) {
                    emit(p);
                    break;
                }
                slot.cur = readElement(slot.desc, slot.cursor);
                emit(p);
            }
        }
        if (red.valid) {
            red.eol = true;
            acceptFunctional(red, write_blocks);
        } else {
            acceptFunctional(Packet::endOfLine(), write_blocks);
        }
    }
    return retired;
}

std::uint64_t
Pu::functionalReadBlockEstimate() const
{
    std::uint64_t blocks = 0;
    for (const StreamDesc &desc : iterStreams_) {
        if (desc.source == StreamSource::CondensedLeaf) {
            // Virtual pack: sum the physical B spans of every
            // sub-stream overlapping [begin, end) — a suffix may start
            // mid-pack. Empty sub-streams contribute nothing.
            const auto it = std::upper_bound(streamElemPrefix_.begin(),
                                             streamElemPrefix_.end(),
                                             desc.begin);
            for (std::uint64_t t = (it - streamElemPrefix_.begin()) - 1;
                 t < spgemmStreams_.size() &&
                 streamElemPrefix_[t] < desc.end;
                 ++t) {
                const spgemm::PartialProductStream &s = spgemmStreams_[t];
                const std::uint64_t lo =
                    std::max(desc.begin, streamElemPrefix_[t]);
                const std::uint64_t hi =
                    std::min(desc.end, streamElemPrefix_[t + 1]);
                if (lo < hi)
                    blocks += spanBlocks(s.begin + (lo - streamElemPrefix_[t]),
                                         s.begin + (hi - streamElemPrefix_[t])) *
                              2;
            }
            continue;
        }
        const std::uint64_t span = spanBlocks(desc.begin, desc.end);
        // COO runs load row/col/val; CSR/CSC/B-row streams idx/val.
        blocks += span * (desc.source == StreamSource::Coo ? 3 : 2);
    }
    // Controller metadata of the pointer walk (iteration 0 only).
    if (iteration_ == 0) {
        if (kernel_ == Kernel::Spgemm) {
            blocks += ctrlLoads_.size();
        } else if (kernel_ == Kernel::Transpose) {
            blocks += ptrBlocksTotal_;
        } else {
            blocks += (ptrBlocksTotal_ + 511) / 512; // aux bitmap
            blocks += neededPtrBlocks_.size() * 2;   // ptr + vec pairs
        }
    }
    // Coalescing is not modeled here; the counts are estimates.
    return blocks;
}

Cycle
Pu::estimateIterationCycles(std::uint64_t elements,
                            std::uint64_t read_blocks,
                            std::uint64_t write_blocks) const
{
    // The root retires at most one element per PU cycle; the rank bus
    // moves one 64 B block per blockBytes/peakBandwidth seconds. The
    // slower bound governs the iteration, degraded by an efficiency
    // factor covering scheduling gaps, row misses, and drain tails
    // (calibrated against Detailed on bench_sampled_accuracy).
    const double cycles_per_block =
        static_cast<double>(blockBytes) *
        (static_cast<double>(config_.freqMhz) * 1e6) /
        mem_->config().peakBandwidth();
    const double pu_bound = static_cast<double>(elements);
    const double mem_bound =
        static_cast<double>(read_blocks + write_blocks) * cycles_per_block;
    constexpr double efficiency = 0.85;
    constexpr Cycle overhead = 256; // ramp-up + pointer walk + drain
    return overhead +
           static_cast<Cycle>(
               std::ceil(std::max(pu_bound, mem_bound) / efficiency));
}

FastSimStats
Pu::runFunctional(const ProgressHook &progress)
{
    start();
    while (phase_ == Phase::Running) {
        std::uint64_t writes = 0;
        // Degenerate iterations flush their pointer array already at
        // beginIteration time; drain those stores first.
        while (output_.hasPendingStore()) {
            output_.storeIssued();
            ++stores_;
            ++writes;
        }
        const std::uint64_t elems = functionalMergeRounds(writes, {});
        const std::uint64_t reads = functionalReadBlockEstimate();
        cycle_ += estimateIterationCycles(elems, reads, writes);
        mem_->noteFunctionalTraffic(reads, writes);
        if (occupancySamples_.enabled())
            occupancySamples_.fillTo(cycle_, 0);
        if (progress)
            progress(cycle_, cycle_);
        finishIteration();
    }
    if (phase_ == Phase::Draining)
        phase_ = Phase::Done; // the controller never saw a request
    FastSimStats st;
    st.fastForwardedCycles = cycle_;
    return st;
}

FastSimStats
Pu::runSampled(const SampledConfig &sampled, const ProgressHook &progress)
{
    FastSimStats st;
    std::vector<double> rates;
    std::vector<double> iter_rates; ///< rates of the current iteration
    double rate = 0.0;         ///< extrapolation rate, elements/cycle
    double gap_mult = 1.0;     ///< cadence stretch earned by stability
    double buf_fill = 0.75;    ///< priming target for the next window
    std::uint64_t prepaid = 0; ///< elements already paid by window time
    Cycle last_window_end = 0;

    // Tick one measurement window against its private controller: run
    // to the first root pop (a window that starts inside a pointer walk
    // would dilute the merge rate to near zero), settle warmupCycles
    // more, then measure windowCycles. Charges the window's exact
    // cycles to this PU — the pre-pop span is real simulated head time,
    // not extrapolation.
    const auto measure = [&](Pu &win, dram::MemoryController &wmem) {
        TickScheduler sched;
        ClockDomain *pu_clk = sched.addDomain("pu", config_.freqMhz);
        ClockDomain *mem_clk =
            sched.addDomain("dram", wmem.config().freqMhz);
        mem_clk->attach(&wmem);
        pu_clk->attach(&win);
        sched.runUntil([&] {
            return win.tree().rootPops() != 0 || win.done();
        });
        // A stability-credited stretch (gap_mult > 1) is at steady
        // state by construction; its windows settle in half the time.
        const Cycle warmup = gap_mult > 1.0 ? sampled.warmupCycles / 2
                                            : sampled.warmupCycles;
        const Cycle settled = win.cycles() + warmup;
        sched.runUntil(
            [&] { return win.cycles() >= settled || win.done(); });
        const std::uint64_t pops_warm = win.tree().rootPops();
        const Cycle warm = win.cycles();
        sched.runUntil([&] {
            return win.cycles() >= warm + sampled.windowCycles ||
                   win.done();
        });
        const std::uint64_t pops = win.tree().rootPops();
        const Cycle cyc = win.cycles();
        const double r = sampled::windowRate(pops, cyc, pops_warm, warm);
        if (r > 0.0) {
            // Extrapolate at the LATEST window's rate, not a mean:
            // merge rates drift within an iteration, so the most recent
            // window is the best predictor for the gap that follows it.
            // The cross-window variance still feeds errorBoundPct.
            // (Adaptive periods were tried and rejected: reacting to
            // rate jumps concentrates windows in noisy stretches and
            // starves drifting ones — uniform cadence is unbiased.)
            rate = r;
            rates.push_back(r);
            iter_rates.push_back(r);
            // Variance-adaptive cadence: when the last few windows of
            // THIS iteration agree tightly, the rate is demonstrably
            // stable and the next gap stretches (4x for near-exact
            // agreement — e.g. a saturated merge popping every cycle —
            // 2x for merely tight). Any disagreement snaps back to the
            // base period. Unlike the rejected jump-reactive scheme,
            // this only ever LENGTHENS gaps on demonstrated stability,
            // so volatile stretches keep the unbiased uniform cadence.
            gap_mult = 1.0;
            if (iter_rates.size() >= 3) {
                double mean = 0.0, var = 0.0;
                const std::size_t k = 3;
                const std::size_t base0 = iter_rates.size() - k;
                for (std::size_t i = base0; i < iter_rates.size(); ++i)
                    mean += iter_rates[i];
                mean /= double(k);
                for (std::size_t i = base0; i < iter_rates.size(); ++i) {
                    const double d = iter_rates[i] - mean;
                    var += d * d;
                }
                const double cv =
                    mean > 0.0 ? std::sqrt(var / double(k)) / mean : 1.0;
                if (cv < 0.005)
                    gap_mult = 4.0;
                else if (cv < 0.04)
                    gap_mult = 2.0;
                else if (cv < 0.08)
                    gap_mult = 1.5;
            }
        }
        if (!win.done())
            buf_fill = win.avgBufferFill();
        prepaid += pops;
        cycle_ += cyc;
        ++st.sampledWindows;
        last_window_end = cycle_;
    };

    // Run-start anchor window: a fresh full clone replays the head of
    // the run — pointer walk and cold row buffers included. It is NOT
    // primed, because a cold start is reality there.
    {
        dram::MemoryController wmem(name_ + ".winmem", mem_->config(),
                                    config_.requestCoalescing);
        std::unique_ptr<Pu> anchor = cloneFresh(&wmem);
        anchor->start();
        measure(*anchor, wmem);
    }

    // Fast-forward accounting: elements the windows already simulated
    // are covered by the charged window cycles; the rest extrapolate at
    // the latest measured rate.
    const auto charge = [&](std::uint64_t batch) {
        const std::uint64_t paid = std::min(batch, prepaid);
        prepaid -= paid;
        batch -= paid;
        if (batch == 0)
            return;
        const Cycle c = sampled::chargeForElements(batch, rate);
        cycle_ += c;
        st.fastForwardedCycles += c;
    };

    start();
    // The anchor covered the head of iteration 0; every later iteration
    // forces one window at its first checkpoint, because merge rates
    // shift across iterations (short runs vs long runs, SpGEMM's gather
    // pass vs its final merge) and extrapolating a stale rate across an
    // iteration boundary was the dominant residual error.
    bool force_window = false;
    while (phase_ == Phase::Running) {
        std::uint64_t writes = 0;
        while (output_.hasPendingStore()) {
            output_.storeIssued();
            ++stores_;
            ++writes;
        }
        std::uint64_t last_retired = 0;
        const CheckpointFn checkpoint = [&](std::uint64_t retired,
                                            const SuffixFn &suffix) {
            charge(retired - last_retired);
            last_retired = retired;
            if (force_window ||
                cycle_ - last_window_end >=
                    Cycle(double(sampled.periodCycles) * gap_mult)) {
                force_window = false;
                dram::MemoryController wmem(name_ + ".winmem",
                                            mem_->config(),
                                            config_.requestCoalescing);
                Pu win(*this, suffix(), finalIteration_, &wmem);
                win.startWindow();
                win.primeWindow(buf_fill);
                measure(win, wmem);
            }
            if (progress)
                progress(cycle_, st.fastForwardedCycles);
        };
        const std::uint64_t elems =
            functionalMergeRounds(writes, checkpoint);
        charge(elems - last_retired);
        const std::uint64_t reads = functionalReadBlockEstimate();
        mem_->noteFunctionalTraffic(reads, writes);
        if (occupancySamples_.enabled())
            occupancySamples_.fillTo(cycle_, 0);
        if (progress)
            progress(cycle_, st.fastForwardedCycles);
        finishIteration();
        force_window = true;
        // Rates do not survive iteration boundaries (gather pass vs
        // final merge); neither does the stability credit.
        iter_rates.clear();
        gap_mult = 1.0;
    }
    if (phase_ == Phase::Draining)
        phase_ = Phase::Done;
    st.errorBoundPct = sampled::errorBoundPct(rates);
    return st;
}

} // namespace menda::core
