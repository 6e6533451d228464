/**
 * @file
 * Tests for the heterogeneous programming model (Sec. 4): allocation,
 * non-blocking launch, wait, MMIO register protocol, and per-rank
 * partition views.
 */

#include <gtest/gtest.h>

#include <set>

#include "baselines/spgemm_cpu.hh"
#include "menda/host_api.hh"
#include "sparse/generate.hh"

using namespace menda;

namespace
{

core::SystemConfig
apiConfig()
{
    core::SystemConfig config;
    config.channels = 1;
    config.dimmsPerChannel = 2;
    config.ranksPerDimm = 2;
    config.pu.leaves = 16;
    return config;
}

} // namespace

TEST(HostApi, TransposeFollowsTheFig8Protocol)
{
    sparse::CsrMatrix a = sparse::generateRmat(512, 4000, 0.1, 0.2, 0.3,
                                               71);
    nmp::Context ctx(apiConfig());
    EXPECT_EQ(ctx.ranks(), 4u);

    nmp::MatrixHandle g = ctx.allocSparseMatrix(a);
    EXPECT_EQ(g.slices().size(), 4u);
    EXPECT_FALSE(ctx.mmio(0).start);

    ctx.transpose(g);            // non-blocking launch
    EXPECT_TRUE(ctx.mmio(0).start);
    EXPECT_FALSE(ctx.finished());

    ctx.wait();                  // blocks until finish signals set
    EXPECT_TRUE(ctx.finished());
    for (unsigned r = 0; r < ctx.ranks(); ++r)
        EXPECT_TRUE(ctx.mmio(r).finish);

    EXPECT_EQ(ctx.result(g).ptr, sparse::transposeReference(a).ptr);
}

TEST(HostApi, AllocRejectsNonCanonicalCsr)
{
    // Row 0 lists columns {3, 1}: out of order. The host API used to
    // transpose it to idx [1,0,0], val [3,1,2]; the reference is
    // idx [0,1,0], val [2,3,1].
    sparse::CsrMatrix a;
    a.rows = 2;
    a.cols = 4;
    a.ptr = {0, 2, 3};
    a.idx = {3, 1, 2};
    a.val = {1.0f, 2.0f, 3.0f};
    nmp::Context ctx(apiConfig());
    EXPECT_THROW(ctx.allocSparseMatrix(a), std::runtime_error);

    a.idx = {1, 1, 2}; // a repeated column is not canonical either
    EXPECT_THROW(ctx.allocSparseMatrix(a), std::runtime_error);

    a.idx = {1, 3, 2};
    a.val = {2.0f, 1.0f, 3.0f};
    nmp::MatrixHandle g = ctx.allocSparseMatrix(a);
    ctx.transpose(g);
    ctx.wait();
    EXPECT_EQ(ctx.result(g).idx, (std::vector<Index>{0, 1, 0}));
    EXPECT_EQ(ctx.result(g).val, (std::vector<Value>{2.0f, 3.0f, 1.0f}));
}

TEST(HostApi, GetAddrExposesPartitionedCsc)
{
    sparse::CsrMatrix a = sparse::generateUniform(256, 256, 3000, 73);
    nmp::Context ctx(apiConfig());
    nmp::MatrixHandle g = ctx.allocSparseMatrix(a);
    ctx.transpose(g);
    ctx.wait();

    std::uint64_t nnz = 0;
    for (unsigned r = 0; r < ctx.ranks(); ++r) {
        nmp::PartitionView view = ctx.getAddr(g, r);
        ASSERT_NE(view.csc, nullptr);
        view.csc->validate();
        nnz += view.csc->nnz();
        EXPECT_EQ(view.rowBegin, g.slices()[r].rowBegin);
        // Output addresses published through MMIO registers.
        EXPECT_GT(view.idxAddr, 0u);
    }
    EXPECT_EQ(nnz, a.nnz());
}

TEST(HostApi, GetAddrBeforeTransposeIsAnError)
{
    sparse::CsrMatrix a = sparse::generateUniform(64, 64, 500, 75);
    nmp::Context ctx(apiConfig());
    nmp::MatrixHandle g = ctx.allocSparseMatrix(a);
    EXPECT_THROW(ctx.getAddr(g, 0), std::runtime_error);
}

TEST(HostApi, SpmvOffloadProducesReferenceResult)
{
    sparse::CsrMatrix a = sparse::generateUniform(300, 300, 4000, 77);
    std::vector<Value> x(a.cols, 0.5f);
    nmp::Context ctx(apiConfig());
    nmp::MatrixHandle g = ctx.allocSparseMatrix(a);
    ctx.spmv(g, x);
    ctx.wait();
    auto want = sparse::spmvReference(a, x);
    ASSERT_EQ(ctx.vectorResult().size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r)
        EXPECT_NEAR(ctx.vectorResult()[r], want[r],
                    1e-3 * (std::abs(want[r]) + 1.0));
}

TEST(HostApi, AllocationColorsPagesPerRank)
{
    sparse::CsrMatrix a = sparse::generateUniform(2048, 2048, 30000, 79);
    nmp::Context ctx(apiConfig());
    nmp::MatrixHandle g = ctx.allocSparseMatrix(a);
    for (unsigned r = 0; r < ctx.ranks(); ++r)
        EXPECT_GT(g.pageTable().pagesOfColor(r), 0u);
    EXPECT_LE(g.pageTable().duplicatedBytes, pageBytes * ctx.ranks());
}

TEST(HostApi, RunStatsArePopulated)
{
    sparse::CsrMatrix a = sparse::generateUniform(256, 256, 4000, 81);
    nmp::Context ctx(apiConfig());
    nmp::MatrixHandle g = ctx.allocSparseMatrix(a);
    ctx.transpose(g);
    ctx.wait();
    EXPECT_GT(ctx.lastRun().seconds, 0.0);
    EXPECT_GT(ctx.lastRun().readBlocks, 0u);
    EXPECT_GT(ctx.lastRun().writeBlocks, 0u);
}

TEST(HostApi, DoubleLaunchWithoutWaitIsAnError)
{
    sparse::CsrMatrix a = sparse::generateUniform(64, 64, 400, 83);
    nmp::Context ctx(apiConfig());
    nmp::MatrixHandle g = ctx.allocSparseMatrix(a);
    ctx.transpose(g);
    EXPECT_THROW(ctx.transpose(g), std::runtime_error)
        << "an offload is already in flight";
    ctx.wait();
    // After wait() a new offload is fine.
    ctx.transpose(g);
    ctx.wait();
    EXPECT_TRUE(ctx.finished());
}

TEST(HostApi, WaitWithoutLaunchIsANoOp)
{
    nmp::Context ctx(apiConfig());
    ctx.wait();
    EXPECT_TRUE(ctx.finished());
}

TEST(HostApi, MmioAddressesAreDistinctPerRegion)
{
    sparse::CsrMatrix a = sparse::generateUniform(256, 256, 2000, 87);
    nmp::Context ctx(apiConfig());
    nmp::MatrixHandle g = ctx.allocSparseMatrix(a);
    const nmp::MmioRegisters &regs = ctx.mmio(0);
    EXPECT_NE(regs.rowPtrAddr, regs.colIdxAddr);
    EXPECT_NE(regs.colIdxAddr, regs.valueAddr);
    EXPECT_EQ(regs.rowBegin, 0u);
    ctx.transpose(g);
    ctx.wait();
    EXPECT_NE(ctx.mmio(0).outPtrAddr, ctx.mmio(0).outIdxAddr);
}

TEST(HostApiMultiUse, ThreeBackToBackKernelsOnOneSystem)
{
    // Regression: the system and context used to assume one kernel per
    // process. Three different kernels back to back on one instance
    // must each produce the reference result.
    sparse::CsrMatrix a = sparse::generateUniform(256, 256, 3000, 89);
    sparse::CsrMatrix b = sparse::generateUniform(256, 256, 2500, 91);
    std::vector<Value> x(a.cols, 0.25f);
    nmp::Context ctx(apiConfig());
    nmp::MatrixHandle g = ctx.allocSparseMatrix(a);

    ctx.transpose(g);
    ctx.wait();
    EXPECT_EQ(ctx.result(g).ptr, sparse::transposeReference(a).ptr);

    ctx.spmv(g, x);
    ctx.wait();
    auto want = sparse::spmvReference(a, x);
    ASSERT_EQ(ctx.vectorResult().size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r)
        EXPECT_NEAR(ctx.vectorResult()[r], want[r],
                    1e-3 * (std::abs(want[r]) + 1.0));

    ctx.spgemm(g, b);
    ctx.wait();
    auto c_want = baselines::spgemmHeapMerge(a, b);
    EXPECT_EQ(ctx.productResult().ptr, c_want.ptr);
    EXPECT_EQ(ctx.productResult().idx, c_want.idx);
}

TEST(HostApiMultiUse, SecondAllocationDoesNotAliasTheFirst)
{
    // Regression: allocSparseMatrix used to lay every matrix out at
    // rank-local base 0 and virtual page 0, so a second live matrix
    // overlapped the first's pages and MMIO-published addresses.
    sparse::CsrMatrix a = sparse::generateUniform(512, 512, 8000, 93);
    sparse::CsrMatrix b = sparse::generateUniform(512, 512, 6000, 95);
    nmp::Context ctx(apiConfig());
    nmp::MatrixHandle ga = ctx.allocSparseMatrix(a);
    nmp::MatrixHandle gb = ctx.allocSparseMatrix(b);

    // Disjoint colored page tables.
    std::set<Addr> pages_a;
    for (const auto &entry : ga.pageTable().entries)
        pages_a.insert(entry.virtualPage);
    for (const auto &entry : gb.pageTable().entries)
        EXPECT_EQ(pages_a.count(entry.virtualPage), 0u)
            << "page " << entry.virtualPage << " allocated twice";

    // Disjoint rank-local physical spans.
    for (unsigned r = 0; r < ctx.ranks(); ++r) {
        EXPECT_NE(ga.memoryMap(r).base(core::Region::RowPtr),
                  gb.memoryMap(r).base(core::Region::RowPtr));
        EXPECT_LE(ga.memoryMap(r).end(),
                  gb.memoryMap(r).base(core::Region::RowPtr) + 1);
    }

    // Both handles still transpose correctly against their own data.
    ctx.transpose(ga);
    ctx.wait();
    EXPECT_EQ(ctx.result(ga).ptr, sparse::transposeReference(a).ptr);
    ctx.transpose(gb);
    ctx.wait();
    EXPECT_EQ(ctx.result(gb).ptr, sparse::transposeReference(b).ptr);
}

TEST(HostApiMultiUse, FreeReclaimsSpaceWithoutLeaking)
{
    sparse::CsrMatrix a = sparse::generateUniform(512, 512, 8000, 97);
    nmp::Context ctx(apiConfig());

    nmp::MatrixHandle g1 = ctx.allocSparseMatrix(a);
    const Addr high_water = ctx.rankHighWater(0);
    EXPECT_GT(ctx.rankLiveBytes(0), 0u);

    ctx.free(g1);
    EXPECT_FALSE(g1.alive());
    EXPECT_EQ(ctx.rankLiveBytes(0), 0u);

    // Alloc/free cycles reuse the freed spans: the simulated heap's
    // high-water mark must not grow.
    for (int i = 0; i < 8; ++i) {
        nmp::MatrixHandle g = ctx.allocSparseMatrix(a);
        EXPECT_EQ(g.memoryMap(0).base(core::Region::RowPtr),
                  g1.memoryMap(0).base(core::Region::RowPtr));
        EXPECT_EQ(g.pageBase(), g1.pageBase());
        ctx.free(g);
    }
    EXPECT_EQ(ctx.rankHighWater(0), high_water);

    EXPECT_THROW(ctx.free(g1), std::runtime_error) << "double free";
}
