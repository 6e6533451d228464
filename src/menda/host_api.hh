/**
 * @file
 * The heterogeneous programming model (Sec. 4).
 *
 * The host allocates and initializes data for offloaded tasks; PUs are
 * controlled through memory-mapped registers. Mirroring Fig. 8(a):
 *
 *   nmp::Context ctx(system_config);
 *   auto g = ctx.allocSparseMatrix(a);      // balanced alloc + coloring
 *   ctx.transpose(g);                       // non-blocking start
 *   ctx.wait();                             // block until finish signals
 *   auto view = ctx.getAddr(g, rank);       // partitioned CSC access
 *
 * The allocation call performs the NNZ-based workload balancing and
 * page-coloring placement of Sec. 3.5 and hides the virtual-to-physical
 * mapping; the host keeps using standard compressed formats.
 */

#ifndef MENDA_MENDA_HOST_API_HH
#define MENDA_MENDA_HOST_API_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "menda/kernel.hh"
#include "menda/memory_map.hh"
#include "menda/page_coloring.hh"
#include "menda/system.hh"
#include "sparse/format.hh"

namespace menda::nmp
{

/**
 * First-fit span allocator over a simulated address space. Frees
 * coalesce with both neighbors and the top-of-heap bump pointer, so
 * alloc/free cycles of a long-lived Context reuse space instead of
 * growing without bound.
 */
class SpanAllocator
{
  public:
    /** Reserve @p size units; returns the span's base. */
    Addr alloc(Addr size);

    /** Return a span obtained from alloc(). */
    void free(Addr base, Addr size);

    /** One past the highest unit ever live (leak diagnostics). */
    Addr highWater() const { return highWater_; }

    /** Units currently allocated. */
    Addr liveUnits() const { return live_; }

  private:
    struct Span
    {
        Addr base = 0, end = 0;
    };
    std::vector<Span> free_; ///< sorted by base, coalesced
    Addr top_ = 0;       ///< bump pointer; shrinks when the top frees
    Addr highWater_ = 0; ///< max top_ ever reached
    Addr live_ = 0;
};

/** Per-PU memory-mapped control/status registers (Sec. 4). */
struct MmioRegisters
{
    bool start = false;
    bool finish = false;
    Addr rowPtrAddr = 0;
    Addr colIdxAddr = 0;
    Addr valueAddr = 0;
    Addr outPtrAddr = 0;
    Addr outIdxAddr = 0;
    Addr outValAddr = 0;
    Index rowBegin = 0;
    Index rowEnd = 0;
};

/** Host view of one rank's partition after transposition. */
struct PartitionView
{
    const sparse::CscMatrix *csc = nullptr; ///< partitioned CSC data
    Index rowBegin = 0;                     ///< global row range
    Index rowEnd = 0;
    Addr ptrAddr = 0, idxAddr = 0, valAddr = 0;
};

/** Handle returned by allocSparseMatrix. */
class MatrixHandle
{
  public:
    const sparse::CsrMatrix &csr() const { return *csr_; }
    const std::vector<sparse::RowSlice> &slices() const { return slices_; }
    const core::PageTable &pageTable() const { return pages_; }

    /** Rank-local physical layout of rank @p r's slice. */
    const core::PuMemoryMap &memoryMap(unsigned r) const
    {
        return maps_[r];
    }

    /** First virtual page of this allocation's colored span. */
    Addr pageBase() const { return pageBase_; }

    /** Still allocated (Context::free not called). */
    bool alive() const { return alive_; }

  private:
    friend class Context;
    const sparse::CsrMatrix *csr_ = nullptr;
    std::vector<sparse::RowSlice> slices_;
    core::PageTable pages_;
    std::vector<core::PuMemoryMap> maps_; ///< per-rank physical layout
    std::vector<Addr> rankBase_;          ///< per-rank span base
    std::vector<Addr> rankBytes_;         ///< per-rank span size
    Addr pageBase_ = 0;                   ///< colored virtual page span
    Addr pageSpan_ = 0;
    bool alive_ = false;
    bool transposed_ = false;
    sparse::CscMatrix result_;
    std::vector<sparse::CscMatrix> partitions_;
    core::RunResult runStats_;
};

class Context
{
  public:
    explicit Context(const core::SystemConfig &config);

    unsigned ranks() const { return config_.totalPus(); }

    /**
     * NMP-aware allocation: NNZ-balanced partitioning plus page-colored
     * placement of each slice (and its row-pointer pages) in its rank.
     * Throws std::runtime_error, allocating nothing, unless @p a is
     * canonical CSR (CsrMatrix::validate(): column indices in range and
     * strictly increasing within each row).
     */
    MatrixHandle allocSparseMatrix(const sparse::CsrMatrix &a);

    /**
     * Release @p handle's simulated allocation (rank-local spans and
     * colored virtual pages) back to the Context's allocators. The
     * handle's result views stay readable; re-allocating reuses the
     * freed space. Must not be called while the handle's offload is in
     * flight.
     */
    void free(MatrixHandle &handle);

    /** Launch transposition; returns immediately (sets start signals). */
    void transpose(MatrixHandle &handle);

    /** Launch SpMV on the transposed (partitioned CSC) matrix. */
    void spmv(MatrixHandle &handle, const std::vector<Value> &x);

    /**
     * Launch SpGEMM C = handle x @p b through the outer-product merge
     * dataflow (DESIGN.md Sec. 9). @p b must outlive the wait() call;
     * it is replicated into every rank at offload time.
     */
    void spgemm(MatrixHandle &handle, const sparse::CsrMatrix &b);

    /** Block until every PU has set its finish signal. */
    void wait();

    /** True once all finish signals are set (non-blocking poll). */
    bool finished() const { return !pending_; }

    /** Partitioned output access: the NMP::getAddr(i) of Fig. 8(a). */
    PartitionView getAddr(const MatrixHandle &handle, unsigned rank) const;

    /** Whole-matrix transposition result (host-side convenience). */
    const sparse::CscMatrix &result(const MatrixHandle &handle) const;

    /** SpMV result vector. */
    const std::vector<double> &vectorResult() const { return lastY_; }

    /** SpGEMM result matrix (CSR). */
    const sparse::CsrMatrix &productResult() const { return lastC_; }

    /** Simulated statistics of the last completed offload. */
    const core::RunResult &lastRun() const { return lastRun_; }

    /** MMIO register file of PU @p rank (testing/diagnostics). */
    const MmioRegisters &mmio(unsigned rank) const { return mmio_[rank]; }

    /** Bytes currently allocated in rank @p r (leak diagnostics). */
    Addr rankLiveBytes(unsigned r) const
    {
        return rankAlloc_[r].liveUnits();
    }

    /** High-water mark of rank @p r's simulated heap, bytes. */
    Addr rankHighWater(unsigned r) const
    {
        return rankAlloc_[r].highWater();
    }

  private:
    /** Set the start signals and record the offload wait() executes. */
    void launch(core::Kernel kernel, MatrixHandle &handle);

    core::SystemConfig config_;
    core::MendaSystem system_;
    std::vector<MmioRegisters> mmio_;
    std::vector<SpanAllocator> rankAlloc_; ///< rank-local bytes, per rank
    SpanAllocator pageAlloc_;              ///< colored virtual pages

    // Simulation host: pending offload executed in wait().
    std::optional<core::Kernel> pending_;
    MatrixHandle *pendingHandle_ = nullptr;
    std::vector<Value> pendingX_;
    const sparse::CsrMatrix *pendingB_ = nullptr;

    core::RunResult lastRun_;
    std::vector<double> lastY_;
    sparse::CsrMatrix lastC_;
};

} // namespace menda::nmp

#endif // MENDA_MENDA_HOST_API_HH
