/**
 * @file
 * Tests for the sparse substrate: formats, golden transpose, generators,
 * Matrix Market I/O, partitioning, and the Tab. 3/4 workload factory.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <sstream>

#include "sparse/format.hh"
#include "sparse/generate.hh"
#include "sparse/mmio.hh"
#include "sparse/partition.hh"
#include "sparse/workloads.hh"

using namespace menda;
using namespace menda::sparse;

TEST(Format, Fig1ExampleTransposesAsInPaper)
{
    // Fig. 1 checks that CSR(A) transposed equals the printed CSC(A).
    CooMatrix coo;
    coo.rows = 8;
    coo.cols = 7;
    coo.row = {0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6, 6};
    coo.col = {0, 2, 1, 4, 0, 4, 6, 3, 5, 0, 2, 5, 1, 3, 2, 5, 6};
    for (int i = 0; i < 17; ++i)
        coo.val.push_back(static_cast<float>('a' + i));
    CsrMatrix a = cooToCsr(coo);
    a.validate();
    EXPECT_EQ(a.ptr, (std::vector<std::uint32_t>{0, 2, 4, 7, 9, 12, 14,
                                                 17, 17}));

    CscMatrix t = transposeReference(a);
    t.validate();
    EXPECT_EQ(t.ptr,
              (std::vector<std::uint32_t>{0, 3, 5, 8, 10, 12, 15, 17}));
    EXPECT_EQ(t.idx, (std::vector<Index>{0, 2, 4, 1, 5, 0, 4, 6, 3, 5, 1,
                                         2, 3, 4, 6, 2, 6}));
}

TEST(Format, TransposeIsAnInvolution)
{
    CsrMatrix a = generateUniform(300, 200, 2500, 1);
    CscMatrix t = transposeReference(a);
    CsrMatrix back = transposeReference(t);
    EXPECT_EQ(a, back);
}

TEST(Format, CscOfAEqualsCsrOfATransposed)
{
    CsrMatrix a = generateUniform(128, 96, 700, 2);
    CscMatrix t = transposeReference(a);
    CsrMatrix at = asCsrOfTranspose(t);
    at.validate();
    EXPECT_EQ(at.rows, a.cols);
    EXPECT_EQ(at.cols, a.rows);
    // Transposing A-transpose must give A back.
    CscMatrix tt = transposeReference(at);
    EXPECT_EQ(tt.ptr, a.ptr);
    EXPECT_EQ(tt.idx, a.idx);
}

TEST(Format, CooRoundTrip)
{
    CsrMatrix a = generateRmat(128, 800, 0.1, 0.2, 0.3, 3);
    CooMatrix coo = csrToCoo(a);
    EXPECT_TRUE(coo.sortedByRowCol());
    CsrMatrix back = cooToCsr(coo);
    EXPECT_EQ(a, back);
}

TEST(Format, SpmvReferenceMatchesDense)
{
    CsrMatrix a = generateUniform(50, 40, 300, 4);
    std::vector<Value> x(40);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<Value>(i % 7) - 3.0f;
    auto y = spmvReference(a, x);
    // Dense recomputation.
    for (Index r = 0; r < a.rows; ++r) {
        double want = 0;
        for (std::uint32_t k = a.ptr[r]; k < a.ptr[r + 1]; ++k)
            want += double(a.val[k]) * double(x[a.idx[k]]);
        EXPECT_DOUBLE_EQ(y[r], want);
    }
}

TEST(Format, ValidateCatchesCorruption)
{
    CsrMatrix a = generateUniform(10, 10, 30, 5);
    a.validate();
    CsrMatrix bad = a;
    bad.idx[0] = 99; // out of bounds
    EXPECT_THROW(bad.validate(), std::runtime_error);
    bad = a;
    bad.ptr.back() += 1;
    EXPECT_THROW(bad.validate(), std::runtime_error);
}

TEST(Generate, UniformHitsExactNnz)
{
    CsrMatrix a = generateUniform(1000, 1000, 5000, 6);
    a.validate();
    EXPECT_EQ(a.nnz(), 5000u);
    EXPECT_EQ(a.rows, 1000u);
}

TEST(Generate, UniformIsDeterministic)
{
    CsrMatrix a = generateUniform(500, 500, 2000, 7);
    CsrMatrix b = generateUniform(500, 500, 2000, 7);
    EXPECT_EQ(a, b);
    CsrMatrix c = generateUniform(500, 500, 2000, 8);
    EXPECT_NE(a.idx, c.idx);
}

TEST(Generate, RmatIsSkewed)
{
    // Power-law matrices concentrate NZs in few rows: the max row degree
    // must far exceed the mean (uniform would stay within a few x).
    CsrMatrix p = generateRmat(4096, 40000, 0.1, 0.2, 0.3, 9);
    p.validate();
    std::uint32_t max_degree = 0;
    for (Index r = 0; r < p.rows; ++r)
        max_degree = std::max(max_degree, p.ptr[r + 1] - p.ptr[r]);
    const double mean = double(p.nnz()) / p.rows;
    EXPECT_GT(max_degree, 10 * mean);

    CsrMatrix u = generateUniform(4096, 4096, 40000, 9);
    std::uint32_t max_u = 0;
    for (Index r = 0; r < u.rows; ++r)
        max_u = std::max(max_u, u.ptr[r + 1] - u.ptr[r]);
    EXPECT_LT(max_u, 4 * mean);
}

TEST(Generate, RmatRejectsNonPowerOfTwo)
{
    EXPECT_THROW(generateRmat(100, 10, 0.1, 0.2, 0.3, 1),
                 std::runtime_error);
}

TEST(Generate, BandedStaysInBand)
{
    CsrMatrix a = generateBanded(200, 10, 0.5, 10);
    a.validate();
    for (Index r = 0; r < a.rows; ++r) {
        for (std::uint32_t k = a.ptr[r]; k < a.ptr[r + 1]; ++k) {
            const auto d = a.idx[k] > r ? a.idx[k] - r : r - a.idx[k];
            EXPECT_LE(d, 5u);
        }
    }
    // Diagonal always present.
    for (Index r = 0; r < a.rows; ++r) {
        bool diag = false;
        for (std::uint32_t k = a.ptr[r]; k < a.ptr[r + 1]; ++k)
            diag |= a.idx[k] == r;
        EXPECT_TRUE(diag);
    }
}

TEST(Mmio, RoundTripsThroughText)
{
    CsrMatrix a = generateUniform(40, 30, 200, 11);
    std::stringstream ss;
    writeMatrixMarket(ss, a);
    CsrMatrix b = readMatrixMarket(ss);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    EXPECT_EQ(a.ptr, b.ptr);
    EXPECT_EQ(a.idx, b.idx);
}

TEST(Mmio, ReadsSymmetricAndPattern)
{
    std::stringstream ss("%%MatrixMarket matrix coordinate pattern "
                         "symmetric\n% comment\n3 3 2\n2 1\n3 3\n");
    CsrMatrix a = readMatrixMarket(ss);
    EXPECT_EQ(a.nnz(), 3u); // (1,0), (0,1) mirrored, (2,2) diagonal
    a.validate();
}

TEST(Mmio, RejectsGarbage)
{
    std::stringstream ss("not a matrix\n");
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, RejectsRepeatedCoordinates)
{
    // cooToCsr would keep both entries, giving a row whose column
    // indices are not strictly increasing.
    std::stringstream general("%%MatrixMarket matrix coordinate real "
                              "general\n2 2 3\n1 1 1.0\n2 1 5.0\n"
                              "1 1 2.0\n");
    EXPECT_THROW(readMatrixMarket(general), std::runtime_error);
    // A symmetric file that also lists the upper triangle repeats each
    // off-diagonal entry once mirrored.
    std::stringstream mirrored("%%MatrixMarket matrix coordinate pattern "
                               "symmetric\n2 2 2\n2 1\n1 2\n");
    EXPECT_THROW(readMatrixMarket(mirrored), std::runtime_error);
}

TEST(Mmio, RejectsValuesBeyondTheFloatRange)
{
    // 1e39 used to load as inf. The error names the offending line.
    for (const char *value : {"1e39", "-1e39"}) {
        std::stringstream ss(std::string("%%MatrixMarket matrix coordinate "
                                         "real general\n% comment\n"
                                         "2 2 2\n1 1 1.0\n2 2 ") +
                             value + "\n");
        try {
            readMatrixMarket(ss);
            ADD_FAILURE() << value << " was accepted";
        } catch (const std::runtime_error &err) {
            EXPECT_NE(std::string(err.what()).find("line 5"),
                      std::string::npos)
                << err.what();
        }
    }
    std::stringstream ss("%%MatrixMarket matrix coordinate real general\n"
                         "1 1 1\n1 1 -3.4028234e38\n");
    EXPECT_EQ(readMatrixMarket(ss).val[0], -FLT_MAX);
}

TEST(Partition, BalancesNnzWithinOneRow)
{
    CsrMatrix a = generateRmat(2048, 30000, 0.1, 0.2, 0.3, 12);
    for (unsigned parts : {2u, 4u, 8u, 16u}) {
        auto slices = partitionByNnz(a, parts);
        ASSERT_EQ(slices.size(), parts);
        // Coverage: contiguous, complete.
        EXPECT_EQ(slices.front().rowBegin, 0u);
        EXPECT_EQ(slices.back().rowEnd, a.rows);
        std::uint64_t total = 0;
        std::uint32_t max_row = 0;
        for (Index r = 0; r < a.rows; ++r)
            max_row = std::max(max_row, a.ptr[r + 1] - a.ptr[r]);
        for (unsigned p = 0; p < parts; ++p) {
            if (p > 0) {
                EXPECT_EQ(slices[p].rowBegin, slices[p - 1].rowEnd);
            }
            total += slices[p].nnz();
            // Every slice within ideal +/- the longest row.
            EXPECT_LE(slices[p].nnz(),
                      a.nnz() / parts + max_row + 1);
        }
        EXPECT_EQ(total, a.nnz());
    }
}

TEST(Partition, ExtractSliceIsConsistent)
{
    CsrMatrix a = generateUniform(100, 60, 900, 13);
    auto slices = partitionByNnz(a, 4);
    std::uint64_t nnz = 0;
    for (const auto &slice : slices) {
        CsrMatrix sub = extractSlice(a, slice);
        sub.validate();
        EXPECT_EQ(sub.rows, slice.rows());
        EXPECT_EQ(sub.nnz(), slice.nnz());
        nnz += sub.nnz();
    }
    EXPECT_EQ(nnz, a.nnz());
}

TEST(Partition, ImbalanceNearOneForUniform)
{
    CsrMatrix a = generateUniform(4096, 4096, 65536, 14);
    auto slices = partitionByNnz(a, 8);
    EXPECT_LT(imbalance(a, slices), 1.05);
}

TEST(Workloads, TablesHaveTheRightEntries)
{
    EXPECT_EQ(table3Uniform().size(), 8u);
    EXPECT_EQ(table3PowerLaw().size(), 8u);
    EXPECT_EQ(table4().size(), 15u);
    EXPECT_EQ(findWorkload("N5").nnz, 8388608u);
    EXPECT_EQ(findWorkload("wiki-Talk").rows, 2394385u);
    EXPECT_THROW(findWorkload("nope"), std::runtime_error);
}

TEST(Workloads, ScaledGenerationApproximatesSpec)
{
    const WorkloadSpec &spec = findWorkload("N3");
    CsrMatrix a = makeWorkload(spec, 64);
    a.validate();
    EXPECT_EQ(a.rows, spec.rows / 64);
    EXPECT_EQ(a.nnz(), spec.nnz / 64);
}

TEST(Workloads, StandinsMatchKindStructure)
{
    // Graph stand-ins must be skewed; structural ones banded.
    CsrMatrix graph = makeWorkload(findWorkload("wiki-Talk"), 64);
    std::uint32_t max_degree = 0;
    for (Index r = 0; r < graph.rows; ++r)
        max_degree = std::max(max_degree, graph.ptr[r + 1] -
                                              graph.ptr[r]);
    EXPECT_GT(max_degree, 8 * graph.nnz() / graph.rows);

    CsrMatrix fem = makeWorkload(findWorkload("bcsstk32"), 16);
    fem.validate();
    EXPECT_GT(fem.nnz(), 0u);
}

TEST(Workloads, EveryTable4KindGeneratesAValidStandin)
{
    for (const auto &spec : table4()) {
        CsrMatrix a = makeWorkload(spec, 128);
        a.validate();
        EXPECT_GT(a.nnz(), 0u) << spec.name;
        EXPECT_GT(a.rows, 0u) << spec.name;
        // NNZ within 2x of the scaled target (structured generators
        // approximate it).
        const double target =
            std::max<double>(256.0, spec.nnz / 128.0);
        EXPECT_GT(double(a.nnz()), target * 0.4) << spec.name;
        EXPECT_LT(double(a.nnz()), target * 2.5) << spec.name;
    }
}

TEST(Generate, LocalGraphHasHighDiameterStructure)
{
    CsrMatrix g = generateLocalGraph(4096, 20000, 4096 / 30, 11);
    g.validate();
    // Every edge stays within the reach window (mod wrap-around).
    const Index reach = 4096 / 30;
    for (Index u = 0; u < g.rows; ++u) {
        for (std::uint32_t k = g.ptr[u]; k < g.ptr[u + 1]; ++k) {
            const Index v = g.idx[k];
            const Index fwd = v >= u ? v - u : v + g.rows - u;
            const Index bwd = u >= v ? u - v : u + g.rows - v;
            EXPECT_LE(std::min(fwd, bwd), reach) << u << "->" << v;
        }
    }
}

TEST(Partition, RowPartitionIsImbalancedOnSkew)
{
    CsrMatrix p = generateRmat(4096, 60000, 0.1, 0.2, 0.3, 13);
    EXPECT_GT(imbalance(p, partitionByRows(p, 8)), 1.5);
    EXPECT_LT(imbalance(p, partitionByNnz(p, 8)), 1.1);
}
