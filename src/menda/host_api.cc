#include "menda/host_api.hh"

#include <algorithm>

#include "common/log.hh"

namespace menda::nmp
{

Addr
SpanAllocator::alloc(Addr size)
{
    live_ += size;
    for (std::size_t i = 0; i < free_.size(); ++i) {
        Span &span = free_[i];
        if (span.end - span.base < size)
            continue;
        const Addr base = span.base;
        span.base += size;
        if (span.base == span.end)
            free_.erase(free_.begin() + i);
        return base;
    }
    const Addr base = top_;
    top_ += size;
    highWater_ = std::max(highWater_, top_);
    return base;
}

void
SpanAllocator::free(Addr base, Addr size)
{
    if (size == 0)
        return;
    menda_assert(live_ >= size, "SpanAllocator: double free");
    live_ -= size;
    Span span{base, base + size};
    auto it = std::lower_bound(free_.begin(), free_.end(), span,
                               [](const Span &a, const Span &b) {
                                   return a.base < b.base;
                               });
    // Coalesce with the successor, the predecessor, then top-of-heap.
    if (it != free_.end() && span.end == it->base) {
        span.end = it->end;
        it = free_.erase(it);
    }
    if (it != free_.begin()) {
        auto prev = std::prev(it);
        menda_assert(prev->end <= span.base,
                     "SpanAllocator: overlapping free");
        if (prev->end == span.base) {
            span.base = prev->base;
            it = free_.erase(prev);
        }
    }
    if (span.end == top_) {
        top_ = span.base;
        return;
    }
    free_.insert(it, span);
}

Context::Context(const core::SystemConfig &config)
    : config_(config), system_(config), mmio_(config.totalPus()),
      rankAlloc_(config.totalPus())
{
}

MatrixHandle
Context::allocSparseMatrix(const sparse::CsrMatrix &a)
{
    a.validate();
    MatrixHandle handle;
    handle.csr_ = &a;
    handle.slices_ = sparse::partitionByNnz(a, ranks());

    // Colored virtual pages: each live matrix gets a disjoint span, so
    // a second allocation cannot alias the first's page table.
    handle.pageSpan_ = core::coloredPageSpan(ranks(), a.rows, a.nnz());
    handle.pageBase_ = pageAlloc_.alloc(handle.pageSpan_);
    handle.pages_ = core::colorPages(handle.slices_, a.rows, a.nnz(),
                                     handle.pageBase_);

    // Rank-local physical spans: lay the slice out at each rank's next
    // free region instead of hard-coding base 0 (the single-use
    // assumption this replaces), and remember the map so wait() and
    // getAddr() report this handle's addresses, not the latest one's.
    // The allocation functions write the necessary metadata to the
    // memory-mapped registers (Sec. 4).
    handle.maps_.resize(ranks());
    handle.rankBase_.resize(ranks());
    handle.rankBytes_.resize(ranks());
    for (unsigned r = 0; r < ranks(); ++r) {
        const auto &slice = handle.slices_[r];
        const core::PuMemoryMap probe(0, slice.rows(), a.cols,
                                      slice.nnz());
        const Addr bytes =
            (probe.end() + pageBytes - 1) &
            ~static_cast<Addr>(pageBytes - 1);
        const Addr base = rankAlloc_[r].alloc(bytes);
        handle.rankBase_[r] = base;
        handle.rankBytes_[r] = bytes;
        handle.maps_[r] = core::PuMemoryMap(base, slice.rows(), a.cols,
                                            slice.nnz());
        mmio_[r].rowPtrAddr = handle.maps_[r].base(core::Region::RowPtr);
        mmio_[r].colIdxAddr = handle.maps_[r].base(core::Region::ColIdx);
        mmio_[r].valueAddr = handle.maps_[r].base(core::Region::NzVal);
        mmio_[r].rowBegin = slice.rowBegin;
        mmio_[r].rowEnd = slice.rowEnd;
        mmio_[r].start = false;
        mmio_[r].finish = false;
    }
    handle.alive_ = true;
    return handle;
}

void
Context::free(MatrixHandle &handle)
{
    menda_assert(handle.alive_, "free: handle not allocated");
    menda_assert(!pending_ || pendingHandle_ != &handle,
                 "free: offload in flight on this handle");
    for (unsigned r = 0; r < ranks(); ++r)
        rankAlloc_[r].free(handle.rankBase_[r], handle.rankBytes_[r]);
    pageAlloc_.free(handle.pageBase_, handle.pageSpan_);
    handle.alive_ = false;
}

void
Context::launch(core::Kernel kernel, MatrixHandle &handle)
{
    menda_assert(!pending_, "an offload is already in flight");
    for (auto &regs : mmio_) {
        regs.start = true;
        regs.finish = false;
    }
    pending_ = kernel;
    pendingHandle_ = &handle;
}

void
Context::transpose(MatrixHandle &handle)
{
    launch(core::Kernel::Transpose, handle);
}

void
Context::spmv(MatrixHandle &handle, const std::vector<Value> &x)
{
    launch(core::Kernel::Spmv, handle);
    pendingX_ = x;
}

void
Context::spgemm(MatrixHandle &handle, const sparse::CsrMatrix &b)
{
    menda_assert(handle.csr_->cols == b.rows,
                 "spgemm: inner dimension mismatch");
    launch(core::Kernel::Spgemm, handle);
    pendingB_ = &b;
}

void
Context::wait()
{
    if (!pending_)
        return;
    MatrixHandle &handle = *pendingHandle_;
    switch (*pending_) {
      case core::Kernel::Transpose: {
        core::TransposeResult result = system_.transpose(*handle.csr_);
        handle.result_ = std::move(result.csc);
        handle.transposed_ = true;
        handle.runStats_ = result;
        lastRun_ = result;
        // Each PU holds one partition; rebuild the per-rank views the
        // host reaches through NMP::getAddr.
        handle.partitions_.clear();
        for (unsigned r = 0; r < ranks(); ++r) {
            const auto &slice = handle.slices_[r];
            sparse::CsrMatrix part = sparse::extractSlice(*handle.csr_,
                                                          slice);
            handle.partitions_.push_back(
                sparse::transposeReference(part));
        }
        break;
      }
      case core::Kernel::Spmv: {
        core::SpmvResult result = system_.spmv(*handle.csr_, pendingX_);
        lastY_ = std::move(result.y);
        lastRun_ = result;
        break;
      }
      case core::Kernel::Spgemm: {
        core::SpgemmResult result =
            system_.spgemm(*handle.csr_, *pendingB_);
        lastC_ = std::move(result.c);
        lastRun_ = result;
        pendingB_ = nullptr;
        break;
      }
    }
    for (unsigned r = 0; r < ranks(); ++r) {
        mmio_[r].finish = true; // PU sets finish, updates output addrs
        mmio_[r].outPtrAddr = handle.maps_[r].base(core::Region::OutPtr);
        mmio_[r].outIdxAddr = handle.maps_[r].base(core::Region::OutIdx);
        mmio_[r].outValAddr = handle.maps_[r].base(core::Region::OutVal);
    }
    pending_.reset();
    pendingHandle_ = nullptr;
}

PartitionView
Context::getAddr(const MatrixHandle &handle, unsigned rank) const
{
    menda_assert(rank < ranks(), "rank out of range");
    menda_assert(handle.transposed_, "matrix not transposed yet");
    PartitionView view;
    view.csc = &handle.partitions_[rank];
    view.rowBegin = handle.slices_[rank].rowBegin;
    view.rowEnd = handle.slices_[rank].rowEnd;
    view.ptrAddr = mmio_[rank].outPtrAddr;
    view.idxAddr = mmio_[rank].outIdxAddr;
    view.valAddr = mmio_[rank].outValAddr;
    return view;
}

const sparse::CscMatrix &
Context::result(const MatrixHandle &handle) const
{
    menda_assert(handle.transposed_, "matrix not transposed yet");
    return handle.result_;
}

} // namespace menda::nmp
