#include "menda/pu.hh"

#include <algorithm>

#include "common/log.hh"
#include "spgemm/plan.hh"

namespace menda::core
{

namespace
{

constexpr std::uint32_t controllerRequester = 0xffffffffu;

constexpr std::uint64_t elemsPerBlock = blockBytes / 4;

/** Aligned 64 B spans of a 4-byte-element array covering [begin, end). */
std::uint64_t
spanBlocks(std::uint64_t begin, std::uint64_t end)
{
    if (begin >= end)
        return 0;
    return (end - 1) / elemsPerBlock - begin / elemsPerBlock + 1;
}

} // namespace

void
Pu::commonInit()
{
    buffers_.reserve(config_.leaves);
    for (unsigned slot = 0; slot < config_.leaves; ++slot)
        buffers_.push_back(std::make_unique<PrefetchBuffer>(
            slot, config_, &map_,
            [this](const StreamDesc &desc, std::uint64_t element) {
                return readElement(desc, element);
            },
            [this](const StreamDesc &desc, std::uint64_t cursor,
                   std::vector<Addr> &blocks) {
                return condensedChunk(desc, cursor, blocks);
            }));
    inIssueQueue_.assign(config_.leaves, false);
    inPushQueue_.assign(config_.leaves, false);
    inAssignQueue_.assign(config_.leaves, false);
    mem_->setResponseCallback([this](const mem::MemRequest &req) {
        responses_.push_back(req);
    });
    stats_.add("loads", loads_);
    stats_.add("stores", stores_);
    stats_.add("responses", responsesHandled_);
    stats_.add("assignments", assignments_);
    stats_.add("retries", retries_);
    stats_.add("leafPushStalls", pushStalls_);
    stallStart_.assign(config_.leaves, 0);
    stats_.add("leafStallRun", leafStallRuns_);
    stats_.add("treeOccupancy", occupancySamples_);
    tree_.registerStats(stats_);
    output_.registerStats(stats_);
}

void
Pu::attachTrace(obs::TraceShard *shard)
{
    trace_ = shard;
    tracePhases_ = shard->addTrack(name_ + ".phases", obs::TrackKind::Span,
                                   config_.freqMhz);
    traceRounds_ = shard->addTrack(name_ + ".rounds",
                                   obs::TrackKind::Instant,
                                   config_.freqMhz);
    traceOccupancy_ = shard->addTrack(name_ + ".treeOccupancy",
                                      obs::TrackKind::Counter,
                                      config_.freqMhz);
    nameDrain_ = shard->internName("drain");
    nameRound_ = shard->internName("round");
}

void
Pu::sampleOccupancy()
{
    const std::size_t before = occupancySamples_.values().size();
    occupancySamples_.sample(cycle_, tree_.occupancy());
    if (trace_ && occupancySamples_.values().size() != before)
        trace_->counter(traceOccupancy_, cycle_, tree_.occupancy());
}

Pu::Pu(std::string name, const PuConfig &config,
       const sparse::CsrMatrix *slice, Index row_offset,
       dram::MemoryController *mem)
    : name_(std::move(name)),
      config_(config),
      kernel_(Kernel::Transpose),
      csr_(slice),
      rowOffset_(row_offset),
      map_(0, slice->rows, slice->cols, slice->nnz()),
      mem_(mem),
      tree_(config, mergeKeyFor(kernel_)),
      output_(config_, &map_),
      stats_(name_)
{
    for (Index r = 0; r < csr_->rows; ++r)
        if (csr_->ptr[r + 1] > csr_->ptr[r])
            neRows_.push_back(r);
    commonInit();
}

Pu::Pu(std::string name, const PuConfig &config,
       const sparse::CscMatrix *slice_csc, const std::vector<Value> *x,
       Index row_offset, dram::MemoryController *mem)
    : name_(std::move(name)),
      config_(config),
      kernel_(Kernel::Spmv),
      csc_(slice_csc),
      vecX_(x),
      rowOffset_(row_offset),
      // SpMV walks the *column* pointer array (cols + 1 entries) and
      // stores a dense vector of `rows` elements, so the pointer and
      // output regions are sized for whichever dimension is larger.
      map_(0, std::max(slice_csc->rows, slice_csc->cols),
           slice_csc->cols,
           std::max<std::uint64_t>(slice_csc->nnz(), slice_csc->rows)),
      mem_(mem),
      tree_(config, mergeKeyFor(kernel_)),
      output_(config_, &map_),
      stats_(name_)
{
    menda_assert(x->size() == csc_->cols, "SpMV vector length mismatch");
    for (Index c = 0; c < csc_->cols; ++c)
        if (csc_->ptr[c + 1] > csc_->ptr[c])
            neRows_.push_back(c); // non-empty columns in SpMV mode
    commonInit();
}

Pu::Pu(std::string name, const PuConfig &config,
       const sparse::CsrMatrix *a_slice, const sparse::CsrMatrix *b,
       Index row_offset, dram::MemoryController *mem)
    : name_(std::move(name)),
      config_(config),
      kernel_(Kernel::Spgemm),
      csr_(a_slice),
      bMat_(b),
      rowOffset_(row_offset),
      // The COO ping-pong buffers and output idx/val arrays hold the
      // slice's partial products (not A's non-zeros), and the output
      // pointer array covers the slice's LOCAL rows.
      map_(0, a_slice->rows,
           std::max<std::uint64_t>(a_slice->rows, b->cols),
           std::max<std::uint64_t>(
               {a_slice->nnz(),
                spgemm::partialProductCount(*a_slice, *b), 1}),
           b->rows, b->nnz()),
      mem_(mem),
      tree_(config, mergeKeyFor(kernel_)),
      output_(config_, &map_),
      stats_(name_)
{
    menda_assert(a_slice->cols == b->rows,
                 "SpGEMM inner dimensions must agree");
    // The controller programming step: one scaled-B-row stream per
    // non-zero of the A slice, in row-major order (exactness depends on
    // this ordinal order; DESIGN.md Sec. 9).
    spgemmStreams_ = spgemm::buildStreams(*a_slice, *b);
    huffman_ =
        config_.spgemm.scheduler == spgemm::SpgemmScheduler::Huffman;
    if (huffman_) {
        condensedLeaves_ = spgemm::condenseStreams(
            spgemmStreams_, config_.spgemm.condenseCap);
        streamElemPrefix_.resize(spgemmStreams_.size() + 1, 0);
        for (std::size_t t = 0; t < spgemmStreams_.size(); ++t)
            streamElemPrefix_[t + 1] =
                streamElemPrefix_[t] + spgemmStreams_[t].elements();
        std::vector<std::uint64_t> leaf_sizes;
        leaf_sizes.reserve(condensedLeaves_.size());
        for (const spgemm::CondensedLeaf &leaf : condensedLeaves_)
            leaf_sizes.push_back(leaf.elements);
        mergePlan_ = spgemm::planMergeTree(leaf_sizes, config_.leaves);
        // One pre-carved descriptor per condensed leaf. Single-stream
        // leaves keep the plain scaled-B-row fetch path; packs fetch
        // through the virtual concatenated element space. Either way
        // auxIndex names the leaf, for assignment gating.
        leafDescs_.reserve(condensedLeaves_.size());
        for (std::size_t i = 0; i < condensedLeaves_.size(); ++i) {
            const spgemm::CondensedLeaf &leaf = condensedLeaves_[i];
            StreamDesc desc;
            if (leaf.streamCount == 1) {
                const spgemm::PartialProductStream &s =
                    spgemmStreams_[leaf.firstStream];
                desc.source = StreamSource::ScaledBRow;
                desc.begin = s.begin;
                desc.end = s.end;
                desc.fixedIndex = s.outRow;
                desc.scale = s.scale;
            } else {
                desc.source = StreamSource::CondensedLeaf;
                desc.begin = streamElemPrefix_[leaf.firstStream];
                desc.end =
                    streamElemPrefix_[leaf.firstStream + leaf.streamCount];
            }
            desc.auxIndex = static_cast<Index>(i);
            leafDescs_.push_back(desc);
        }
    }
    commonInit();
}

bool
Pu::spgemmLeafReady(std::uint64_t leaf_index) const
{
    const spgemm::CondensedLeaf &leaf = condensedLeaves_[leaf_index];
    for (std::uint64_t t = leaf.firstStream;
         t < leaf.firstStream + leaf.streamCount; ++t) {
        const spgemm::PartialProductStream &s = spgemmStreams_[t];
        const Index r = s.outRow;
        const Index k = s.bRow;
        if (!(ptrArrived_[r / 16] && ptrArrived_[(r + 1) / 16] &&
              aIdxArrived_[t / 16] && aValArrived_[t / 16] &&
              bPtrArrived_[k / 16] && bPtrArrived_[(k + 1) / 16]))
            return false;
    }
    return true;
}

std::uint64_t
Pu::condensedChunk(const StreamDesc &desc, std::uint64_t cursor,
                   std::vector<Addr> &blocks) const
{
    // One chunk = the elements of ONE packed sub-stream that share one
    // aligned 64 B span of B's arrays — the same granularity a plain
    // scaled-B-row stream fetches at, just with the sub-stream found by
    // a prefix search on the virtual cursor.
    const spgemm::CondensedLeaf &leaf = condensedLeaves_[desc.auxIndex];
    const auto first = streamElemPrefix_.begin() + leaf.firstStream;
    const auto it =
        std::upper_bound(first, first + leaf.streamCount + 1, cursor);
    const std::uint64_t t = (it - streamElemPrefix_.begin()) - 1;
    const spgemm::PartialProductStream &s = spgemmStreams_[t];
    const std::uint64_t phys = s.begin + (cursor - streamElemPrefix_[t]);
    const std::uint64_t span_end =
        (phys / elemsPerBlock + 1) * elemsPerBlock;
    const std::uint64_t phys_end = std::min(s.end, span_end);
    blocks.push_back(map_.blockOf(Region::BColIdx, phys));
    blocks.push_back(map_.blockOf(Region::BNzVal, phys));
    return cursor + (phys_end - phys);
}

void
Pu::buildIterationStreams()
{
    const spgemm::MergeIteration &it = mergePlan_.iterations[iteration_];
    roundsTotal_ = it.rounds.size();
    finalIteration_ = iteration_ + 1 == mergePlan_.iterations.size();
    iterStreams_.assign(roundsTotal_ * config_.leaves, StreamDesc{});
    for (std::size_t r = 0; r < it.rounds.size(); ++r) {
        const spgemm::MergeRound &round = it.rounds[r];
        menda_assert(round.inputs.size() <= config_.leaves,
                     "merge-tree round fan-in exceeds tree width");
        for (std::size_t s = 0; s < round.inputs.size(); ++s) {
            const spgemm::StreamRef &ref = round.inputs[s];
            iterStreams_[r * config_.leaves + s] =
                ref.kind == spgemm::StreamRef::Kind::Leaf
                    ? leafDescs_[ref.index]
                    : streams_[ref.index];
        }
    }
}

void
Pu::start()
{
    menda_assert(phase_ == Phase::Idle, "PU already started");
    phase_ = Phase::Running;
    iteration_ = 0;
    srcCoo_ = 0;
    setupIteration();
}

StreamDesc
Pu::streamForOrdinal(std::uint64_t ordinal) const
{
    StreamDesc desc;
    if (kernel_ == Kernel::Spgemm && huffman_ && !windowMode_) {
        // Huffman: every iteration's slot table is pre-built from the
        // merge-tree plan, padding included, so the shared
        // ordinal = round * leaves + slot contract holds unchanged.
        return iterStreams_[ordinal];
    }
    if (iteration_ == 0) {
        if (kernel_ == Kernel::Spgemm) {
            const spgemm::PartialProductStream &s =
                spgemmStreams_[ordinal];
            desc.source = StreamSource::ScaledBRow;
            desc.begin = s.begin;
            desc.end = s.end;
            desc.fixedIndex = s.outRow; // local output row
            desc.scale = s.scale;
            desc.auxIndex = s.bRow;
            return desc;
        }
        const Index line = neRows_[ordinal];
        if (kernel_ == Kernel::Transpose) {
            desc.source = StreamSource::CsrRow;
            desc.begin = csr_->ptr[line];
            desc.end = csr_->ptr[line + 1];
            desc.fixedIndex = rowOffset_ + line;
        } else {
            desc.source = StreamSource::CscColumn;
            desc.begin = csc_->ptr[line];
            desc.end = csc_->ptr[line + 1];
            desc.fixedIndex = line;
        }
    } else {
        desc = streams_[ordinal];
    }
    return desc;
}

std::uint64_t
Pu::streamCount() const
{
    if (kernel_ == Kernel::Spgemm && huffman_ && !windowMode_)
        return iterStreams_.size();
    if (iteration_ != 0)
        return streams_.size();
    return kernel_ == Kernel::Spgemm ? spgemmStreams_.size()
                                     : neRows_.size();
}

void
Pu::setupIteration()
{
    if (kernel_ == Kernel::Spgemm && huffman_ && !windowMode_) {
        // Non-uniform rounds come from the merge-tree plan; the slot
        // table is padded so the shared ordinal contract still holds.
        buildIterationStreams();
    } else {
        const std::uint64_t n = streamCount();
        roundsTotal_ = (n + config_.leaves - 1) / config_.leaves;
        finalIteration_ = roundsTotal_ <= 1;
    }
    if (windowMode_) {
        // A measurement window replays a SUFFIX of the parent's
        // iteration; whether the output/reduction path runs in final
        // mode is the parent's call, not a round-count property.
        finalIteration_ = windowFinal_;
    }

    OutputMode out_mode;
    Index total_cols = 0;
    if (kernel_ == Kernel::Transpose) {
        out_mode = finalIteration_ ? OutputMode::CscFinal
                                   : OutputMode::CooIntermediate;
        total_cols = csr_->cols;
    } else if (kernel_ == Kernel::Spgemm) {
        // Final iteration synthesizes the slice's LOCAL row pointers.
        out_mode = finalIteration_ ? OutputMode::CsrFinal
                                   : OutputMode::CooIntermediate;
        total_cols = csr_->rows;
    } else {
        out_mode = finalIteration_ ? OutputMode::DenseFinal
                                   : OutputMode::PairIntermediate;
        total_cols = csc_->rows;
    }
    output_.beginIteration(out_mode, 1 - srcCoo_, roundsTotal_, total_cols);

    bufferNextRound_.assign(config_.leaves, 0);
    roundsBeforeIteration_ = tree_.roundsCompleted();
    reduction_ = Packet{};
    pendingEmitValid_ = false;

    // Pointer walk: only iteration 0 reads a pointer array; COO
    // intermediates carry explicit bounds (Sec. 3.1).
    pointerPhase_ = iteration_ == 0;
    pendingPtrLoads_.clear();
    ptrInFlight_.clear();
    neededPtrBlocks_.clear();
    ptrNextIssue_ = 0;
    ptrOutstanding_ = 0;
    ctrlLoads_.clear();
    ctrlNextIssue_ = 0;
    if (pointerPhase_) {
        const std::uint64_t entries =
            (kernel_ == Kernel::Spmv ? csc_->cols : csr_->rows) + 1;
        ptrBlocksTotal_ = (entries + 15) / 16;
        ptrArrived_.assign(ptrBlocksTotal_, false);
        if (kernel_ == Kernel::Spgemm) {
            // The controller needs A's row pointers (stream grouping),
            // A's indices and values (each non-zero's B row and scale),
            // and the B row-pointer entries bounding every referenced
            // row. They are fetched in stream-ordinal order so early
            // streams unblock while later metadata is still in flight;
            // B pointer blocks are deduplicated at first use.
            aIdxArrived_.assign((csr_->nnz() + 15) / 16, false);
            aValArrived_.assign((csr_->nnz() + 15) / 16, false);
            bPtrArrived_.assign((bMat_->rows + 1 + 15) / 16, false);
            for (std::uint64_t b = 0; b < ptrBlocksTotal_; ++b)
                ctrlLoads_.push_back(map_.blockOf(Region::RowPtr, b * 16));
            std::vector<bool> b_seen(bPtrArrived_.size(), false);
            for (std::uint64_t t = 0; t < spgemmStreams_.size(); ++t) {
                if (t % 16 == 0) {
                    ctrlLoads_.push_back(
                        map_.blockOf(Region::ColIdx, t));
                    ctrlLoads_.push_back(
                        map_.blockOf(Region::NzVal, t));
                }
                const Index k = spgemmStreams_[t].bRow;
                for (std::uint64_t blk :
                     {std::uint64_t(k) / 16, std::uint64_t(k + 1) / 16}) {
                    if (!b_seen[blk]) {
                        b_seen[blk] = true;
                        ctrlLoads_.push_back(
                            map_.blockOf(Region::BRowPtr, blk * 16));
                    }
                }
            }
        } else if (kernel_ == Kernel::Transpose) {
            // The whole pointer array is walked front to back.
            neededPtrBlocks_.resize(ptrBlocksTotal_);
            for (std::uint64_t b = 0; b < ptrBlocksTotal_; ++b)
                neededPtrBlocks_[b] = b;
        } else {
            // SpMV: the auxiliary pointer array marks which pointer
            // blocks contain non-empty columns; only those are fetched
            // (Sec. 3.6). The aux array itself is read first.
            for (Index c : neRows_) {
                neededPtrBlocks_.push_back(c / 16);
                neededPtrBlocks_.push_back((c + 1) / 16);
            }
            std::sort(neededPtrBlocks_.begin(), neededPtrBlocks_.end());
            neededPtrBlocks_.erase(std::unique(neededPtrBlocks_.begin(),
                                               neededPtrBlocks_.end()),
                                   neededPtrBlocks_.end());
            const std::uint64_t aux_blocks =
                (ptrBlocksTotal_ + 511) / 512; // one bit per ptr block
            for (std::uint64_t b = 0; b < aux_blocks; ++b)
                pendingPtrLoads_.push_back(
                    map_.blockOf(Region::AuxPtr, b * 16));
        }
    }

    // Everyone starts wanting assignments.
    assignQueue_.clear();
    std::fill(inAssignQueue_.begin(), inAssignQueue_.end(),
              roundsTotal_ != 0);
    if (roundsTotal_ != 0)
        for (unsigned b = 0; b < config_.leaves; ++b)
            assignQueue_.push_back(b);

    // Spill-traffic ledger (SpGEMM, both schedulers): the COO runs this
    // iteration consumes were spilled by the previous one; their
    // read-back blocks are counted analytically (3 arrays per span) so
    // the metric is identical across simulation tiers and thread
    // counts. The write side lands in finishIteration.
    if (kernel_ == Kernel::Spgemm && !windowMode_) {
        std::uint64_t read_blocks = 0;
        const std::uint64_t count = streamCount();
        for (std::uint64_t i = 0; i < count; ++i) {
            const StreamDesc d = streamForOrdinal(i);
            if (d.source == StreamSource::Coo)
                read_blocks += spanBlocks(d.begin, d.end) * 3;
        }
        spilledReadBlocks_.push_back(read_blocks);
        spilledWriteBlocks_.push_back(0);
    }

    iterStartCycle_ = cycle_;
    iterStartReads_ = mem_->readsServed();
    iterStartWrites_ = mem_->writesServed();
    iterStartCoalesced_ = mem_->readQueue().coalescedHits().value();
}

void
Pu::pointerEngine()
{
    if (!pointerPhase_)
        return;
    if (kernel_ == Kernel::Spgemm) {
        // Stream the prebuilt controller metadata load list under the
        // same outstanding-request cap as the pointer walk.
        while (ctrlNextIssue_ < ctrlLoads_.size() &&
               ptrOutstanding_ + pendingPtrLoads_.size() < 8)
            pendingPtrLoads_.push_back(ctrlLoads_[ctrlNextIssue_++]);
        return;
    }
    // Schedule pointer (and, for SpMV, matching vector) block loads.
    // The pointer array is streamed front to back with a small
    // outstanding-request cap: the FSM needs the bounds in assignment
    // order, so streaming is both sufficient and bandwidth-friendly.
    while (ptrNextIssue_ < neededPtrBlocks_.size() &&
           ptrOutstanding_ + pendingPtrLoads_.size() < 8) {
        const std::uint64_t block = neededPtrBlocks_[ptrNextIssue_];
        pendingPtrLoads_.push_back(map_.blockOf(Region::RowPtr,
                                                block * 16));
        if (kernel_ == Kernel::Spmv) {
            // The controller fetches the vector elements multiplied with
            // these columns together with the pointer block (Sec. 3.6).
            pendingPtrLoads_.push_back(map_.blockOf(Region::VecIn,
                                                    block * 16));
        }
        ++ptrNextIssue_;
    }
}

void
Pu::doLoadPort()
{
    // One load request can be enqueued per PU cycle (Sec. 3.2); the
    // controller's pointer walk takes priority over prefetch buffers.
    if (!pendingPtrLoads_.empty()) {
        mem::MemRequest req;
        req.addr = pendingPtrLoads_.front();
        req.requester = controllerRequester;
        const Addr rp_base = map_.base(Region::RowPtr);
        // In SpGEMM mode every controller metadata load (A pointers,
        // A indices/values, B pointers) is tracked for arrival gating
        // and link retries, so all of them travel as RowPointer.
        const bool is_ptr =
            kernel_ == Kernel::Spgemm ||
            (req.addr >= rp_base &&
             req.addr < rp_base + ptrBlocksTotal_ * 64);
        req.stream = is_ptr ? mem::Stream::RowPointer
                            : mem::Stream::ColumnIndex;
        if (mem_->enqueue(req)) {
            pendingPtrLoads_.pop_front();
            if (is_ptr) {
                ++ptrOutstanding_;
                ptrInFlight_[req.addr] = cycle_;
            }
            ++loads_;
        }
        return;
    }

    // Round-robin over prefetch buffers with pending chunk blocks.
    // Demand fetches (buffers with nothing left for their leaf) are
    // hoisted ahead of prefetch top-ups within a bounded scan window —
    // otherwise excessive prefetch requests block the critical reads
    // on demand (Sec. 6.4).
    for (std::size_t i = 1; i < issueQueue_.size() && i < 16; ++i) {
        if (buffers_[issueQueue_[i]]->starving() &&
            !buffers_[issueQueue_.front()]->starving()) {
            std::swap(issueQueue_[0], issueQueue_[i]);
            break;
        }
    }
    std::size_t examined = 0;
    const std::size_t limit = issueQueue_.size();
    while (!issueQueue_.empty() && examined < limit) {
        ++examined;
        const unsigned b = issueQueue_.front();
        PrefetchBuffer &buf = *buffers_[b];
        const Addr addr = buf.pendingBlock();
        if (addr == 0) {
            issueQueue_.pop_front();
            inIssueQueue_[b] = false;
            continue;
        }
        mem::MemRequest req;
        req.addr = addr;
        req.requester = b;
        req.stream = mem::Stream::ColumnIndex;
        if (!mem_->enqueue(req))
            return; // read queue full; retry next cycle
        buf.issuedBlock();
        auto &entry = waiters_[addr];
        if (entry.buffers.empty())
            entry.issuedAt = cycle_;
        entry.buffers.push_back(b);
        ++loads_;
        issueQueue_.pop_front();
        if (buf.pendingBlock() != 0) {
            issueQueue_.push_back(b); // more blocks of this chunk
        } else {
            inIssueQueue_[b] = false;
        }
        return;
    }
}

void
Pu::doStorePort()
{
    if (!output_.hasPendingStore())
        return;
    mem::MemRequest req;
    req.addr = output_.nextStore();
    req.isWrite = true;
    req.stream = mem::Stream::Output;
    if (mem_->enqueue(req)) {
        output_.storeIssued();
        ++stores_;
    }
}

void
Pu::handleResponse(const mem::MemRequest &req)
{
    ++responsesHandled_;
    if (req.stream == mem::Stream::RowPointer) {
        markControllerArrival(req.addr);
        ptrInFlight_.erase(req.addr);
        if (ptrOutstanding_ > 0)
            --ptrOutstanding_;
        // Fall through: if a prefetch-buffer load was coalesced into
        // this pointer request, the broadcast must still fill it.
    }
    auto it = waiters_.find(req.addr);
    if (it == waiters_.end())
        return; // vector/aux fetches carry no waiters
    // The response is broadcast: it fills every prefetch buffer waiting
    // on this block, coalesced or not (Sec. 3.4).
    std::vector<unsigned> list = std::move(it->second.buffers);
    waiters_.erase(it);
    for (unsigned b : list) {
        buffers_[b]->fillFromResponse(req.addr);
        noteBufferActivity(b);
    }
}

void
Pu::markControllerArrival(Addr addr)
{
    // Attribute a controller load response to its arrival bitmap. The
    // regions are laid out at ascending bases and each bitmap covers
    // only the block prefix its array actually uses (always less than
    // the page-rounded region span), so the first in-range match is the
    // owning region.
    auto mark = [this, addr](Region region,
                             std::vector<bool> &bits) -> bool {
        const Addr base = map_.base(region);
        if (addr < base)
            return false;
        const std::uint64_t block = (addr - base) / blockBytes;
        if (block >= bits.size())
            return false;
        bits[block] = true;
        return true;
    };
    if (mark(Region::RowPtr, ptrArrived_))
        return;
    if (kernel_ != Kernel::Spgemm)
        return;
    if (mark(Region::ColIdx, aIdxArrived_))
        return;
    if (mark(Region::NzVal, aValArrived_))
        return;
    mark(Region::BRowPtr, bPtrArrived_);
}

void
Pu::noteBufferActivity(unsigned slot)
{
    PrefetchBuffer &buf = *buffers_[slot];
    if (buf.hasPacket() && !inPushQueue_[slot]) {
        inPushQueue_[slot] = true;
        pushQueue_.push_back(slot);
    }
    if (buf.pendingBlock() != 0 && !inIssueQueue_[slot]) {
        inIssueQueue_[slot] = true;
        issueQueue_.push_back(slot);
    }
    if (buf.wantsAssignment() && bufferNextRound_[slot] < roundsTotal_ &&
        !inAssignQueue_[slot]) {
        inAssignQueue_[slot] = true;
        assignQueue_.push_back(slot);
    }
}

void
Pu::doAssignments()
{
    const std::uint64_t n = streamCount();
    unsigned made = 0;
    std::size_t examined = 0;
    while (!assignQueue_.empty() && made < 2 && examined < 8) {
        ++examined;
        const unsigned b = assignQueue_.front();
        if (!buffers_[b]->wantsAssignment() ||
            bufferNextRound_[b] >= roundsTotal_) {
            assignQueue_.pop_front();
            inAssignQueue_[b] = false;
            continue;
        }
        if (!config_.seamlessMerge &&
            bufferNextRound_[b] >
                tree_.roundsCompleted() - roundsBeforeIteration_) {
            // Non-seamless baseline: round j+1's streams are only handed
            // out once round j has fully drained from the root.
            assignQueue_.pop_front();
            assignQueue_.push_back(b);
            ++examined;
            continue;
        }
        const std::uint64_t ordinal =
            bufferNextRound_[b] * config_.leaves + b;
        StreamDesc desc;
        if (ordinal < n) {
            if (pointerPhase_) {
                bool bounds_ready;
                if (kernel_ == Kernel::Spgemm && huffman_ && !windowMode_) {
                    // Huffman: the slot's entry is a pre-carved leaf
                    // descriptor (or empty padding). A leaf becomes
                    // assignable once the metadata of every packed
                    // sub-stream has arrived; padding gates on nothing.
                    const StreamDesc &entry = iterStreams_[ordinal];
                    bounds_ready =
                        entry.source != StreamSource::ScaledBRow &&
                                entry.source != StreamSource::CondensedLeaf
                            ? true
                            : spgemmLeafReady(entry.auxIndex);
                } else if (kernel_ == Kernel::Spgemm) {
                    // A stream exists once the controller holds the A
                    // row-pointer blocks framing its row, the A index
                    // and value blocks carrying its B row and scale,
                    // and the B row-pointer blocks framing its bounds.
                    const spgemm::PartialProductStream &s =
                        spgemmStreams_[ordinal];
                    const Index r = s.outRow;
                    const Index k = s.bRow;
                    bounds_ready =
                        ptrArrived_[r / 16] &&
                        ptrArrived_[(r + 1) / 16] &&
                        aIdxArrived_[ordinal / 16] &&
                        aValArrived_[ordinal / 16] &&
                        bPtrArrived_[k / 16] &&
                        bPtrArrived_[(k + 1) / 16];
                } else {
                    const Index line = neRows_[ordinal];
                    bounds_ready = ptrArrived_[line / 16] &&
                                   ptrArrived_[(line + 1) / 16];
                }
                if (!bounds_ready) {
                    // Bounds not here yet; give others a chance.
                    assignQueue_.pop_front();
                    assignQueue_.push_back(b);
                    continue;
                }
            }
            desc = streamForOrdinal(ordinal);
        } else {
            desc.begin = desc.end = 0; // padding: empty stream
        }
        buffers_[b]->assign(desc);
        ++bufferNextRound_[b];
        ++assignments_;
        ++made;
        assignQueue_.pop_front();
        inAssignQueue_[b] = false;
        noteBufferActivity(b);
    }
}

void
Pu::doPushQueue()
{
    // Every buffer with a ready packet and leaf FIFO space pushes one
    // packet per cycle — all leaves move in parallel in hardware.
    std::size_t n = pushQueue_.size();
    while (n-- > 0) {
        const unsigned b = pushQueue_.front();
        pushQueue_.pop_front();
        inPushQueue_[b] = false;
        PrefetchBuffer &buf = *buffers_[b];
        if (!buf.hasPacket())
            continue;
        if (!tree_.canPush(b)) {
            ++pushStalls_;
            if (stallStart_[b] == 0)
                stallStart_[b] = cycle_; // cycle_ >= 1 while running
            continue; // leaf FIFO full; freedSlots() will wake us
        }
        if (stallStart_[b] != 0) {
            leafStallRuns_.record(cycle_ - stallStart_[b]);
            stallStart_[b] = 0;
        }
        tree_.push(b, buf.popPacket());
        noteBufferActivity(b);
    }
}

void
Pu::doRootPop()
{
    if (!output_.canAccept()) {
        if (tree_.canPop() || pendingEmitValid_)
            output_.noteStall();
        return;
    }
    // The SpMV reduction unit emits at most one element per cycle; when
    // a stream's last packet both closes the previous accumulation and
    // carries its own value, the second emission spills to this cycle.
    if (pendingEmitValid_) {
        output_.accept(pendingEmit_);
        pendingEmitValid_ = false;
        return;
    }
    if (!tree_.canPop())
        return;
    Packet p = tree_.pop();
    if (kernel_ == Kernel::Transpose ||
        (kernel_ == Kernel::Spgemm && !finalIteration_)) {
        // Transposition never accumulates; SpGEMM intermediate
        // iterations pass duplicates through untouched so the final
        // left-to-right accumulation order is independent of the round
        // decomposition (DESIGN.md Sec. 9).
        output_.accept(p);
        return;
    }
    // SpMV (and the SpGEMM final iteration): the reduction unit merges
    // consecutive packets with an equal merge key (Sec. 3.6's pipelined
    // FP adders, whose latency is not modeled). SpGEMM keys on
    // (row, col), SpMV on row.
    bool accepted = false;
    if (p.valid) {
        const bool same_key =
            reduction_.valid && reduction_.row == p.row &&
            (kernel_ == Kernel::Spmv || reduction_.col == p.col);
        if (same_key) {
            reduction_.val += p.val;
        } else {
            if (reduction_.valid) {
                Packet out = reduction_;
                out.eol = false;
                output_.accept(out);
                accepted = true;
            }
            reduction_ = p;
            reduction_.eol = false;
        }
    }
    if (p.eol) {
        Packet out;
        if (reduction_.valid) {
            out = reduction_;
            out.eol = true;
            reduction_ = Packet{};
        } else {
            out = Packet::endOfLine();
        }
        if (accepted) {
            pendingEmit_ = out;
            pendingEmitValid_ = true;
        } else {
            output_.accept(out);
        }
    }
}

void
Pu::finishIteration()
{
    IterationStats st;
    st.cycles = cycle_ - iterStartCycle_;
    st.readBlocks = mem_->readsServed() - iterStartReads_;
    st.writeBlocks = mem_->writesServed() - iterStartWrites_;
    st.coalescedRequests =
        mem_->readQueue().coalescedHits().value() - iterStartCoalesced_;
    iterStats_.push_back(st);

    // Non-final SpGEMM iterations store nothing but the COO ping-pong
    // spill, so the iteration's write blocks ARE its spill writes.
    if (kernel_ == Kernel::Spgemm && !windowMode_ && !finalIteration_ &&
        iteration_ < spilledWriteBlocks_.size())
        spilledWriteBlocks_[iteration_] = st.writeBlocks;

    if (trace_)
        trace_->span(
            tracePhases_,
            trace_->internName("iter" + std::to_string(iteration_)),
            iterStartCycle_, cycle_);

    menda_assert(tree_.drained(), "merge tree not drained at iteration end");

    if (windowMode_) {
        // A window never owns the kernel result and never arms another
        // iteration; park in Draining so the stores tick out and done()
        // latches for the measurement loop.
        drainStartCycle_ = cycle_;
        phase_ = Phase::Draining;
        return;
    }

    if (finalIteration_) {
        const MergedOutput &merged = output_.merged();
        if (kernel_ == Kernel::Transpose) {
            resultCsc_.rows = rowOffset_ + csr_->rows;
            resultCsc_.cols = csr_->cols;
            resultCsc_.ptr.assign(csr_->cols + 1, 0);
            resultCsc_.idx.assign(merged.row.begin(), merged.row.end());
            resultCsc_.val.assign(merged.val.begin(), merged.val.end());
            for (Index c : merged.col)
                ++resultCsc_.ptr[c + 1];
            for (std::size_t c = 0; c < csr_->cols; ++c)
                resultCsc_.ptr[c + 1] += resultCsc_.ptr[c];
        } else if (kernel_ == Kernel::Spgemm) {
            // Packets arrive in (row, col) order with duplicates already
            // accumulated; rows are local to the slice.
            resultCsr_.rows = csr_->rows;
            resultCsr_.cols = bMat_->cols;
            resultCsr_.ptr.assign(
                static_cast<std::size_t>(csr_->rows) + 1, 0);
            resultCsr_.idx.assign(merged.col.begin(), merged.col.end());
            resultCsr_.val.assign(merged.val.begin(), merged.val.end());
            for (Index r : merged.row)
                ++resultCsr_.ptr[r + 1];
            for (std::size_t r = 0; r < csr_->rows; ++r)
                resultCsr_.ptr[r + 1] += resultCsr_.ptr[r];
        } else {
            resultVec_.assign(csc_->rows, 0.0);
            for (std::size_t i = 0; i < merged.size(); ++i)
                resultVec_[merged.row[i]] = merged.val[i];
        }
        drainStartCycle_ = cycle_;
        phase_ = Phase::Draining;
        return;
    }

    // Arm the next iteration: this iteration's merged rounds become the
    // next iteration's sorted input streams, read from the COO (or pair)
    // ping-pong buffer just written.
    const int dst = 1 - srcCoo_;
    coo_[dst] = output_.merged();
    streams_.clear();
    for (const auto &[begin, end] : output_.roundBounds()) {
        StreamDesc desc;
        desc.source = StreamSource::Coo;
        desc.begin = begin;
        desc.end = end;
        desc.cooBuffer = dst;
        streams_.push_back(desc);
    }
    srcCoo_ = dst;
    ++iteration_;
    setupIteration();
}

void
Pu::tick()
{
    if (phase_ == Phase::Idle || phase_ == Phase::Done)
        return;
    ++cycle_;

    if (occupancySamples_.enabled())
        sampleOccupancy();

    if (phase_ == Phase::Draining) {
        if (mem_->idle()) {
            if (trace_)
                trace_->span(tracePhases_, nameDrain_, drainStartCycle_,
                             cycle_);
            phase_ = Phase::Done;
        }
        return;
    }

    // Consume one broadcast memory response (Sec. 3.2).
    if (!responses_.empty()) {
        mem::MemRequest req = responses_.front();
        responses_.pop_front();
        handleResponse(req);
    }

    // Link-error recovery: re-issue loads that have waited past the
    // retry timeout (their response was dropped on the bus).
    if (config_.retryTimeoutCycles != 0 && (cycle_ & 511) == 0) {
        for (auto &[addr, entry] : waiters_) {
            if (cycle_ - entry.issuedAt <= config_.retryTimeoutCycles)
                continue;
            mem::MemRequest req;
            req.addr = addr;
            req.stream = mem::Stream::ColumnIndex;
            if (mem_->enqueue(req)) {
                entry.issuedAt = cycle_;
                ++retries_;
            }
        }
        for (auto &[addr, issued_at] : ptrInFlight_) {
            if (cycle_ - issued_at <= config_.retryTimeoutCycles)
                continue;
            mem::MemRequest req;
            req.addr = addr;
            req.stream = mem::Stream::RowPointer;
            if (mem_->enqueue(req)) {
                issued_at = cycle_;
                ++retries_;
            }
        }
    }

    doRootPop();
    tree_.tick();
    if (trace_) {
        while (traceRoundsSeen_ < tree_.roundsCompleted()) {
            trace_->instant(traceRounds_, nameRound_, cycle_);
            ++traceRoundsSeen_;
        }
    }
    for (unsigned slot : tree_.freedSlots()) {
        if (buffers_[slot]->hasPacket() && !inPushQueue_[slot]) {
            inPushQueue_[slot] = true;
            pushQueue_.push_back(slot);
        }
    }
    doPushQueue();
    doAssignments();
    pointerEngine();
    doLoadPort();
    doStorePort();

    bool ctrl_drained = true;
    if (pointerPhase_ && kernel_ == Kernel::Spgemm && huffman_) {
        // Huffman defers leaves past iteration 0, but the controller
        // still owns every metadata fetch and later-iteration leaf
        // assignments do not re-check arrival — hold iteration 0 open
        // until the metadata stream has fully landed.
        ctrl_drained = ctrlNextIssue_ == ctrlLoads_.size() &&
                       pendingPtrLoads_.empty() && ptrOutstanding_ == 0;
    }
    if (ctrl_drained && output_.iterationDone() && responses_.empty() &&
        mem_->writeQueue().empty() && waiters_.empty())
        finishIteration();
}

} // namespace menda::core
