/**
 * @file
 * End-to-end tests of the merge-based SpGEMM dataflow (DESIGN.md
 * Sec. 9): the simulated PU must reproduce the CPU heap-merge baseline
 * VALUE-EXACTLY (same stable merge order, same float accumulation
 * order), across single-round and multi-round (fan-in > tree width)
 * merges, duplicate-key accumulation, multi-PU partitioning, the host
 * API, the solver route, and threaded host simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "baselines/spgemm_cpu.hh"
#include "common/random.hh"
#include "menda/host_api.hh"
#include "menda/system.hh"
#include "solver/spmm.hh"
#include "sparse/generate.hh"
#include "spgemm/partial_products.hh"
#include "spgemm/plan.hh"

using namespace menda;
using namespace menda::core;

namespace
{

SystemConfig
smallSystem(unsigned pus, unsigned leaves)
{
    SystemConfig config;
    config.channels = 1;
    config.dimmsPerChannel = 1;
    config.ranksPerDimm = pus;
    config.pu.leaves = leaves;
    return config;
}

void
expectExact(const sparse::CsrMatrix &got, const sparse::CsrMatrix &want)
{
    ASSERT_EQ(got.rows, want.rows);
    ASSERT_EQ(got.cols, want.cols);
    ASSERT_EQ(got.ptr, want.ptr);
    ASSERT_EQ(got.idx, want.idx);
    ASSERT_EQ(got.val, want.val);
}

/** The uniform schedule's counts for one rank's merge. */
struct UniformSchedule
{
    /** PU iterations, including the final (non-spilling) one. */
    unsigned iterations = 0;

    /** Merge rounds per iteration; the last entry is <= 1. */
    std::vector<std::uint64_t> roundsPerIteration;

    /**
     * COO elements written to the intermediate ping-pong buffer and
     * read back: every non-final iteration spills the slice's full
     * partial-product set once.
     */
    std::uint64_t spilledElements = 0;

    /** True if the fan-in does not fit one pass through the tree. */
    bool multiRound() const { return iterations > 1; }
};

/**
 * The independent count model of the uniform schedule (the oracle for
 * planMergeTree without deferral and for the PU's executed iterations):
 * each iteration merges n streams in ceil(n / leaves) rounds; if more
 * than one round was needed, the round outputs (each a sorted run of
 * the slice's full element set) become the next iteration's streams,
 * and the iteration whose fan-in fits a single round is final.
 */
UniformSchedule
uniformSchedule(std::uint64_t fan_in, unsigned leaves,
                std::uint64_t partial_products)
{
    UniformSchedule schedule;
    std::uint64_t n = fan_in;
    do {
        const std::uint64_t rounds = (n + leaves - 1) / leaves;
        schedule.roundsPerIteration.push_back(rounds);
        ++schedule.iterations;
        if (rounds <= 1)
            break;
        schedule.spilledElements += partial_products;
        n = rounds;
    } while (true);
    return schedule;
}

} // namespace

TEST(PuSpgemm, SingleRoundExactOnUniform)
{
    // 80 A non-zeros on a 128-leaf tree: the whole merge fits one round.
    sparse::CsrMatrix a = sparse::generateUniform(24, 20, 80, 901);
    sparse::CsrMatrix b = sparse::generateUniform(20, 30, 120, 903);
    MendaSystem sys(smallSystem(1, 128));
    SpgemmResult result = sys.spgemm(a, b);
    EXPECT_EQ(result.iterations, 1u);
    expectExact(result.c, baselines::spgemmHeapMerge(a, b));
    result.c.validate();
}

TEST(PuSpgemm, MultiRoundExactWithFanInOverTreeWidth)
{
    // ~600 partial-product streams on a 64-leaf tree: the ISSUE's
    // fan-in > 64 multi-round case, spilling through the COO ping-pong
    // buffers at least once.
    sparse::CsrMatrix a = sparse::generateUniform(48, 40, 600, 907);
    sparse::CsrMatrix b = sparse::generateUniform(40, 64, 500, 911);
    MendaSystem sys(smallSystem(1, 64));
    SpgemmResult result = sys.spgemm(a, b);
    EXPECT_GE(result.iterations, 2u);
    EXPECT_GT(a.nnz(), 64u);
    expectExact(result.c, baselines::spgemmHeapMerge(a, b));
}

TEST(PuSpgemm, DuplicateKeysAccumulateInStreamOrder)
{
    // Every row of A selects every row of B and all B rows share the
    // same columns, so each output (row, col) receives one partial
    // product per A non-zero: pure duplicate-key accumulation.
    sparse::CooMatrix ca;
    ca.rows = 4;
    ca.cols = 6;
    for (Index i = 0; i < 4; ++i)
        for (Index k = 0; k < 6; ++k) {
            ca.row.push_back(i);
            ca.col.push_back(k);
            ca.val.push_back(0.25f + 0.125f * static_cast<Value>(i + k));
        }
    sparse::CooMatrix cb;
    cb.rows = 6;
    cb.cols = 8;
    for (Index k = 0; k < 6; ++k)
        for (Index j = 0; j < 8; j += 2) {
            cb.row.push_back(k);
            cb.col.push_back(j);
            cb.val.push_back(1.0f / static_cast<Value>(k + j + 1));
        }
    sparse::CsrMatrix a = sparse::cooToCsr(ca);
    sparse::CsrMatrix b = sparse::cooToCsr(cb);

    MendaSystem sys(smallSystem(1, 8));
    SpgemmResult result = sys.spgemm(a, b);
    sparse::CsrMatrix want = baselines::spgemmHeapMerge(a, b);
    expectExact(result.c, want);
    // Each of the 4 rows collapses 24 partial products onto 4 columns.
    EXPECT_EQ(result.partialProducts, 4u * 6u * 4u);
    EXPECT_EQ(result.c.nnz(), 16u);

    // Independent numerical cross-check: the double-precision hash
    // baseline accumulates in a different order, so compare with a
    // tolerance instead of bitwise.
    sparse::CsrMatrix hash = baselines::spgemmHashAccumulate(a, b);
    ASSERT_EQ(hash.ptr, want.ptr);
    ASSERT_EQ(hash.idx, want.idx);
    for (std::size_t e = 0; e < want.val.size(); ++e)
        EXPECT_NEAR(hash.val[e], want.val[e],
                    1e-4 * (std::abs(want.val[e]) + 1.0));
}

TEST(PuSpgemm, RmatSquareProductAcrossFourPus)
{
    sparse::CsrMatrix a = sparse::generateRmat(128, 900, 0.1, 0.2, 0.3,
                                               919);
    MendaSystem sys(smallSystem(4, 16));
    SpgemmResult result = sys.spgemm(a, a);
    EXPECT_EQ(result.slices.size(), 4u);
    EXPECT_GE(result.iterations, 2u);
    expectExact(result.c, baselines::spgemmHeapMerge(a, a));
}

TEST(PuSpgemm, ScheduleMatchesExecutedIterations)
{
    sparse::CsrMatrix a = sparse::generateUniform(40, 32, 500, 929);
    sparse::CsrMatrix b = sparse::generateUniform(32, 32, 400, 937);
    for (unsigned leaves : {8u, 32u, 1024u}) {
        MendaSystem sys(smallSystem(1, leaves));
        SpgemmResult result = sys.spgemm(a, b);
        const UniformSchedule plan = uniformSchedule(
            a.nnz(), leaves, spgemm::partialProductCount(a, b));
        EXPECT_EQ(result.iterations, plan.iterations)
            << "leaves=" << leaves;
        EXPECT_EQ(plan.multiRound(), result.iterations > 1);
        if (!plan.multiRound()) {
            EXPECT_EQ(plan.spilledElements, 0u);
        }
    }
}

TEST(PuSpgemm, EmptyRowsAndEmptyBRows)
{
    // A has empty rows; some referenced B rows are empty too, so whole
    // streams vanish and output rows can end up with zero entries.
    sparse::CooMatrix ca;
    ca.rows = 8;
    ca.cols = 6;
    ca.row = {1, 1, 4, 6};
    ca.col = {0, 3, 5, 2};
    ca.val = {2.0f, -1.0f, 0.5f, 3.0f};
    sparse::CooMatrix cb;
    cb.rows = 6;
    cb.cols = 10;
    cb.row = {0, 0, 3, 3, 3};         // rows 2 and 5 of B stay empty
    cb.col = {1, 7, 2, 3, 9};
    cb.val = {1.5f, 2.5f, -0.5f, 4.0f, 1.0f};
    sparse::CsrMatrix a = sparse::cooToCsr(ca);
    sparse::CsrMatrix b = sparse::cooToCsr(cb);

    MendaSystem sys(smallSystem(2, 4));
    SpgemmResult result = sys.spgemm(a, b);
    expectExact(result.c, baselines::spgemmHeapMerge(a, b));
    EXPECT_EQ(result.c.rows, 8u);
    EXPECT_EQ(result.c.ptr[5] - result.c.ptr[4], 0u); // B row 5 empty
}

TEST(PuSpgemm, ZeroMatrixGivesEmptyProduct)
{
    sparse::CsrMatrix a;
    a.rows = 16;
    a.cols = 12;
    a.ptr.assign(17, 0);
    sparse::CsrMatrix b = sparse::generateUniform(12, 9, 40, 941);
    MendaSystem sys(smallSystem(2, 8));
    SpgemmResult result = sys.spgemm(a, b);
    EXPECT_EQ(result.c.nnz(), 0u);
    EXPECT_EQ(result.c.rows, 16u);
    EXPECT_EQ(result.c.cols, 9u);
    EXPECT_EQ(result.c.ptr, std::vector<std::uint32_t>(17, 0));
}

TEST(PuSpgemm, MergeWorkPartitioningBalancesPartialProducts)
{
    // Skewed A: NNZ-per-row varies wildly, so balancing on partial
    // products must differ from the naive equal-row split.
    sparse::CsrMatrix a =
        sparse::generateSkewedRows(256, 64, 3000, 1.6, 947);
    sparse::CsrMatrix b = sparse::generateUniform(64, 64, 800, 953);
    auto slices = spgemm::partitionByMergeWork(a, b, 4);
    ASSERT_EQ(slices.size(), 4u);
    spgemm::WorkProfile profile = spgemm::profileWork(a, b);
    std::uint64_t heaviest = 0;
    for (const auto &s : slices) {
        EXPECT_LE(s.rowBegin, s.rowEnd);
        heaviest = std::max(heaviest, profile.prefix[s.rowEnd] -
                                          profile.prefix[s.rowBegin]);
    }
    // Near-equal shares: the heaviest rank holds well under half the
    // work (a perfect split would hold a quarter).
    EXPECT_LT(heaviest, profile.total() / 2);

    MendaSystem sys(smallSystem(4, 32));
    SpgemmResult result = sys.spgemm(a, b);
    expectExact(result.c, baselines::spgemmHeapMerge(a, b));
}

TEST(PuSpgemm, HostApiSpgemmProtocol)
{
    sparse::CsrMatrix a = sparse::generateUniform(96, 64, 700, 967);
    sparse::CsrMatrix b = sparse::generateUniform(64, 80, 600, 971);
    nmp::Context ctx(smallSystem(2, 16));
    nmp::MatrixHandle g = ctx.allocSparseMatrix(a);

    ctx.spgemm(g, b); // non-blocking launch
    EXPECT_TRUE(ctx.mmio(0).start);
    EXPECT_FALSE(ctx.finished());
    ctx.wait();
    EXPECT_TRUE(ctx.finished());
    expectExact(ctx.productResult(), baselines::spgemmHeapMerge(a, b));
}

TEST(PuSpgemm, SolverRoutesThroughMergeEngine)
{
    sparse::CsrMatrix a = sparse::generateRmat(64, 500, 0.1, 0.2, 0.3,
                                               977);
    sparse::CsrMatrix b = sparse::generateUniform(64, 48, 400, 983);
    RunResult stats;
    sparse::CsrMatrix c = solver::spmm(a, b, smallSystem(2, 16), &stats);
    EXPECT_GT(stats.puCycles, 0u);
    EXPECT_GT(stats.seconds, 0.0);
    expectExact(c, baselines::spgemmHeapMerge(a, b));

    // Same structure and (within tolerance) the same values as the host
    // Gustavson kernel.
    sparse::CsrMatrix host = solver::spmm(a, b);
    ASSERT_EQ(c.ptr, host.ptr);
    ASSERT_EQ(c.idx, host.idx);
    for (std::size_t e = 0; e < c.val.size(); ++e)
        EXPECT_NEAR(c.val[e], host.val[e],
                    1e-3 * (std::abs(host.val[e]) + 1.0));
}

TEST(PuSpgemm, ThreadedShardsAreBitIdentical)
{
    sparse::CsrMatrix a = sparse::generateUniform(80, 64, 800, 991);
    sparse::CsrMatrix b = sparse::generateRmat(64, 700, 0.1, 0.2, 0.3,
                                               997);
    SystemConfig sequential = smallSystem(4, 16);
    SystemConfig threaded = sequential;
    threaded.hostThreads = 4;

    SpgemmResult want = MendaSystem(sequential).spgemm(a, b);
    SpgemmResult got = MendaSystem(threaded).spgemm(a, b);
    expectExact(got.c, want.c);
    EXPECT_EQ(got.puCycles, want.puCycles);
    EXPECT_EQ(got.readBlocks, want.readBlocks);
    EXPECT_EQ(got.writeBlocks, want.writeBlocks);
    EXPECT_EQ(got.treeOccupancyPacketCycles,
              want.treeOccupancyPacketCycles);
}

namespace
{

/**
 * Check @p plan is a valid merge forest over @p sizes.size() leaves:
 * every leaf consumed exactly once, every run consumed exactly once in
 * the very next iteration (the ping-pong lifetime), round fan-in
 * within [1, leaves], the final iteration a single round, and the
 * plan's spill ledger equal to an independent recount of the mass its
 * non-final rounds actually merge.
 */
void
expectValidMergeForest(const spgemm::MergeTreePlan &plan,
                       const std::vector<std::uint64_t> &sizes,
                       unsigned leaves)
{
    ASSERT_FALSE(plan.iterations.empty());
    std::vector<unsigned> leaf_uses(sizes.size(), 0);
    std::vector<std::uint64_t> prev_mass; // run masses of iteration t-1
    std::uint64_t recounted_spill = 0;
    for (std::size_t t = 0; t < plan.iterations.size(); ++t) {
        const spgemm::MergeIteration &iter = plan.iterations[t];
        const bool final = t + 1 == plan.iterations.size();
        if (final) {
            EXPECT_LE(iter.rounds.size(), 1u);
        }
        std::vector<unsigned> run_uses(prev_mass.size(), 0);
        std::vector<std::uint64_t> mass;
        for (const spgemm::MergeRound &round : iter.rounds) {
            EXPECT_GE(round.inputs.size(), 1u);
            EXPECT_LE(round.inputs.size(), leaves);
            std::uint64_t round_mass = 0;
            for (const spgemm::StreamRef &ref : round.inputs) {
                if (ref.kind == spgemm::StreamRef::Kind::Leaf) {
                    ASSERT_LT(ref.index, sizes.size());
                    ++leaf_uses[ref.index];
                    round_mass += sizes[ref.index];
                } else {
                    ASSERT_LT(ref.index, prev_mass.size());
                    ++run_uses[ref.index];
                    round_mass += prev_mass[ref.index];
                }
            }
            if (!final)
                recounted_spill += round_mass;
            mass.push_back(round_mass);
        }
        for (std::size_t r = 0; r < run_uses.size(); ++r)
            EXPECT_EQ(run_uses[r], 1u)
                << "run " << r << " of iteration " << t - 1
                << " not consumed exactly once by iteration " << t;
        prev_mass = std::move(mass);
    }
    EXPECT_LE(prev_mass.size(), 1u);
    for (std::size_t i = 0; i < leaf_uses.size(); ++i)
        EXPECT_EQ(leaf_uses[i], 1u)
            << "leaf " << i << " consumed " << leaf_uses[i] << " times";
    EXPECT_EQ(plan.spilledElements, recounted_spill);
}

} // namespace

TEST(PlanMergeTree, FuzzedPlansAreValidForests)
{
    // Random skewed leaf profiles across tree widths. Without deferral
    // the plan must be a valid forest with exactly the count model's
    // iterations, rounds per iteration and (T - 1) * total spill. With
    // deferral it must be a valid forest, keep the iteration count, and
    // never spill more (the weighted-cost property).
    Rng rng(0x5ca1ab1e);
    for (unsigned trial = 0; trial < 300; ++trial) {
        const unsigned leaves = 2u << rng.below(6); // 2..64
        const std::uint64_t n = rng.below(400);
        std::vector<std::uint64_t> sizes(n);
        std::uint64_t total = 0;
        for (std::uint64_t &s : sizes) {
            // Mostly tiny streams with occasional giants — the shape
            // condensing and deferral are built for.
            s = rng.below(4) == 0 ? rng.below(2000) : rng.below(8);
            total += s;
        }
        SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" +
                     std::to_string(n) + " leaves=" +
                     std::to_string(leaves));
        const UniformSchedule count = uniformSchedule(n, leaves, total);

        const spgemm::MergeTreePlan uniform =
            spgemm::planMergeTree(sizes, leaves, /*defer=*/false);
        expectValidMergeForest(uniform, sizes, leaves);
        ASSERT_EQ(uniform.iterations.size(), count.iterations);
        for (unsigned t = 0; t < count.iterations; ++t)
            EXPECT_EQ(uniform.iterations[t].rounds.size(),
                      count.roundsPerIteration[t])
                << "iteration " << t;
        EXPECT_EQ(uniform.spilledElements,
                  (count.iterations - 1) * total);
        EXPECT_EQ(uniform.spilledElements, count.spilledElements);

        const spgemm::MergeTreePlan plan =
            spgemm::planMergeTree(sizes, leaves, /*defer=*/true);
        expectValidMergeForest(plan, sizes, leaves);
        EXPECT_EQ(plan.iterations.size(), count.iterations);
        EXPECT_LE(plan.spilledElements, count.spilledElements);
    }
}

TEST(PlanMergeTree, EdgeProfiles)
{
    for (const unsigned leaves : {2u, 4u, 64u}) {
        for (const std::uint64_t n :
             {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{leaves},
              std::uint64_t{leaves} + 1,
              std::uint64_t{leaves} * leaves + 1}) {
            std::vector<std::uint64_t> sizes(n, 3);
            for (const bool defer : {false, true}) {
                SCOPED_TRACE("n=" + std::to_string(n) + " leaves=" +
                             std::to_string(leaves) +
                             " defer=" + std::to_string(defer));
                const spgemm::MergeTreePlan plan =
                    spgemm::planMergeTree(sizes, leaves, defer);
                expectValidMergeForest(plan, sizes, leaves);
                EXPECT_EQ(plan.iterations.size(),
                          uniformSchedule(n, leaves, 3 * n).iterations);
            }
        }
    }
}

TEST(PlanMergeTree, CondenseStreamsCoversEveryStreamInOrder)
{
    sparse::CsrMatrix a =
        sparse::generateSkewedRows(128, 96, 1200, 2.0, 515);
    sparse::CsrMatrix b = sparse::generateUniform(96, 80, 300, 516);
    const std::vector<spgemm::PartialProductStream> streams =
        spgemm::buildStreams(a, b);
    ASSERT_EQ(streams.size(), a.nnz());
    for (const unsigned cap : {0u, 1u, 2u, 7u, 64u}) {
        const unsigned effective_cap = std::max(cap, 1u);
        const std::vector<spgemm::CondensedLeaf> packs =
            spgemm::condenseStreams(streams, cap);
        std::uint64_t s = 0;
        for (const spgemm::CondensedLeaf &pack : packs) {
            ASSERT_EQ(pack.firstStream, s) << "cap=" << cap;
            ASSERT_GE(pack.streamCount, 1u);
            ASSERT_LE(pack.streamCount, effective_cap);
            std::uint64_t elements = 0;
            for (std::uint64_t t = pack.firstStream;
                 t < pack.firstStream + pack.streamCount; ++t) {
                if (t > pack.firstStream) {
                    ASSERT_GT(streams[t].outRow, streams[t - 1].outRow)
                        << "pack at " << pack.firstStream
                        << " concatenates out-of-order streams";
                }
                elements += streams[t].elements();
            }
            ASSERT_EQ(pack.elements, elements);
            s += pack.streamCount;
            // Greedy maximality: a pack only ends below its cap when
            // the next stream would break the sorted concatenation.
            if (pack.streamCount < effective_cap && s < streams.size()) {
                ASSERT_LE(streams[s].outRow, streams[s - 1].outRow);
            }
        }
        ASSERT_EQ(s, streams.size()) << "cap=" << cap;
    }
}

TEST(PuSpgemm, CondensedSchedulerSpillsLessAndStaysBitIdentical)
{
    // Deterministic R-MAT regression for the condensed scheduler: same
    // CSR bytes as uniform (and the heap oracle) at every host thread
    // count, strictly less COO ping-pong traffic.
    sparse::CsrMatrix a =
        sparse::generateRmat(256, 2048, 0.1, 0.2, 0.3, 4242);
    SystemConfig uniform = smallSystem(2, 16);
    SystemConfig huffman = uniform;
    huffman.pu.spgemm.scheduler = spgemm::SpgemmScheduler::Huffman;

    const auto spilled = [](const RunResult &r) {
        std::uint64_t total = 0;
        for (std::uint64_t blocks : r.spilledReadBlocks)
            total += blocks;
        for (std::uint64_t blocks : r.spilledWriteBlocks)
            total += blocks;
        return total;
    };

    SpgemmResult uni = MendaSystem(uniform).spgemm(a, a);
    SpgemmResult huf = MendaSystem(huffman).spgemm(a, a);
    const sparse::CsrMatrix want = baselines::spgemmHeapMerge(a, a);
    expectExact(uni.c, want);
    expectExact(huf.c, want);

    // Both schedulers go multi-round on a 16-leaf tree and the
    // condensed plan strictly reduces the spilled blocks.
    EXPECT_GE(uni.iterations, 3u);
    EXPECT_GE(huf.iterations, 2u);
    ASSERT_GT(spilled(uni), 0u);
    ASSERT_GT(spilled(huf), 0u);
    EXPECT_LT(spilled(huf), spilled(uni));

    // Sharded simulation must not move a single byte or block: CSR,
    // cycles, and the per-iteration spill ledgers all bit-identical
    // between --threads 1 and 4.
    SystemConfig threaded = huffman;
    threaded.hostThreads = 4;
    SpgemmResult huf4 = MendaSystem(threaded).spgemm(a, a);
    expectExact(huf4.c, huf.c);
    EXPECT_EQ(huf4.puCycles, huf.puCycles);
    EXPECT_EQ(huf4.readBlocks, huf.readBlocks);
    EXPECT_EQ(huf4.writeBlocks, huf.writeBlocks);
    EXPECT_EQ(huf4.spilledReadBlocks, huf.spilledReadBlocks);
    EXPECT_EQ(huf4.spilledWriteBlocks, huf.spilledWriteBlocks);
}

TEST(PuSpgemm, StatsExposeOccupancyAndStalls)
{
    sparse::CsrMatrix a = sparse::generateUniform(60, 50, 500, 1009);
    sparse::CsrMatrix b = sparse::generateUniform(50, 40, 400, 1013);
    MendaSystem sys(smallSystem(1, 8));
    SpgemmResult result = sys.spgemm(a, b);
    // A busy multi-round merge keeps packets resident in the tree for
    // many cycles and hits leaf back-pressure at least occasionally.
    EXPECT_GT(result.treeOccupancyPacketCycles, result.puCycles);
    EXPECT_GT(result.leafPushStallCycles, 0u);
    const double mean_occupancy =
        static_cast<double>(result.treeOccupancyPacketCycles) /
        static_cast<double>(result.puCycles);
    // Bounded by total FIFO capacity: (2 * leaves - 1) nodes x 2 slots.
    EXPECT_LE(mean_occupancy, (2.0 * 8 - 1) * 2);
}
