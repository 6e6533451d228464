/**
 * @file
 * Host-side planning for the outer-product SpGEMM dataflow (C = A x B)
 * on the MeNDA PU.
 *
 * SpGEMM reduces to exactly the primitive MeNDA accelerates: every
 * non-zero A(i,k) selects row k of B, scaled by A(i,k), as one sorted
 * partial-product stream of output row i, and all streams of a rank's
 * row slice are merged by (row, col) with duplicate keys accumulated
 * (the SpArch observation). Two planning problems are solved here:
 *
 *  - Work partitioning: PU execution time tracks the number of partial
 *    products it merges, not A's NNZ, so the Sec. 3.5 balancing
 *    algorithm (sparse::partitionByWeight) runs on the per-row
 *    partial-product prefix instead of the row pointer array.
 *  - Round decomposition: a slice's merge fan-in (its A non-zero count)
 *    routinely exceeds the hardware tree width l. The merge is then
 *    decomposed into hierarchical rounds: each round merges up to l
 *    streams into one sorted run spilled to the DRAM-resident COO
 *    ping-pong buffer, and the runs are re-fed through the prefetch
 *    buffers as the next iteration's streams until one run remains.
 *    Both schedulers are a MergeTreePlan (planMergeTree): the uniform
 *    one is the no-deferral plan over one leaf per stream.
 */

#ifndef MENDA_SPGEMM_PLAN_HH
#define MENDA_SPGEMM_PLAN_HH

#include <cstdint>
#include <vector>

#include "sparse/format.hh"
#include "sparse/partition.hh"

namespace menda::spgemm
{

/** Scheduler for the multi-round SpGEMM merge decomposition. */
enum class SpgemmScheduler : std::uint8_t
{
    /** One leaf per stream, ceil(n / l) rounds per iteration. */
    Uniform,
    /** Condensed leaves + size-aware deferral. */
    Huffman,
};

/** Host-side SpGEMM planning knobs (lives in PuConfig::spgemm). */
struct SpgemmConfig
{
    SpgemmScheduler scheduler = SpgemmScheduler::Uniform;

    /**
     * Maximum partial-product streams condensed into one packed leaf
     * (Huffman scheduler only). Streams pack while their output rows
     * stay strictly increasing, so concatenation is already sorted.
     */
    unsigned condenseCap = 64;
};

/** Per-row merge-work profile of C = A x B. */
struct WorkProfile
{
    /** rows + 1 entries: cumulative partial products up to each row. */
    std::vector<std::uint64_t> prefix;

    /**
     * Per-stream NNZ: one entry per A non-zero in row-major order (==
     * the length of the B row it selects). This is exactly the stream
     * size profile the Huffman scheduler condenses and orders by.
     */
    std::vector<std::uint64_t> streamElements;

    /** Total partial products (merge elements) of the product. */
    std::uint64_t
    total() const
    {
        return prefix.empty() ? 0 : prefix.back();
    }
};

/** Count the partial products each row of A x B generates. */
WorkProfile profileWork(const sparse::CsrMatrix &a,
                        const sparse::CsrMatrix &b);

/** Partial products of the whole product (== profileWork().total()). */
std::uint64_t partialProductCount(const sparse::CsrMatrix &a,
                                  const sparse::CsrMatrix &b);

/**
 * Split A's rows into @p parts contiguous slices so every rank merges a
 * near-equal share of the partial products (Sec. 3.5 balancing on the
 * work prefix). nnzBegin/nnzEnd are rebuilt against A's row pointers so
 * the slices drive sparse::extractSlice directly.
 */
std::vector<sparse::RowSlice> partitionByMergeWork(
    const sparse::CsrMatrix &a, const sparse::CsrMatrix &b,
    unsigned parts);

/**
 * A packed leaf: @p streamCount consecutive partial-product streams
 * starting at @p firstStream whose output rows strictly increase, so
 * their concatenation is one already-sorted stream of @p elements
 * merge elements. Single-stream leaves (streamCount == 1) keep their
 * original fetch path.
 */
struct CondensedLeaf
{
    std::uint64_t firstStream = 0;
    std::uint32_t streamCount = 0;
    std::uint64_t elements = 0;
};

/**
 * Greedily pack runs of consecutive streams with strictly increasing
 * output rows (up to @p cap streams per pack) into condensed leaves.
 * Streams sharing an output row — a multi-NNZ A row — never pack,
 * because their key ranges interleave. Covers every stream exactly
 * once, in order.
 */
struct PartialProductStream;

std::vector<CondensedLeaf>
condenseStreams(const std::vector<PartialProductStream> &streams,
                unsigned cap);

/** One merge-tree input: a condensed leaf or a prior-iteration run. */
struct StreamRef
{
    enum class Kind : std::uint8_t
    {
        Leaf, ///< index = condensed-leaf ordinal
        Run,  ///< index = round ordinal within the previous iteration
    };
    Kind kind = Kind::Leaf;
    std::uint32_t index = 0;
};

/** One merge round: up to `leaves` inputs folded into one sorted run. */
struct MergeRound
{
    std::vector<StreamRef> inputs;
};

struct MergeIteration
{
    std::vector<MergeRound> rounds;
};

/**
 * A merge schedule, under either scheduler. Inputs stay in
 * stream-ordinal order — every round merges a *contiguous* ordinal
 * window, which is what keeps equal-key FP accumulation order, and so
 * the CSR bytes, identical across schedules and to spgemmHeapMerge.
 */
struct MergeTreePlan
{
    unsigned leaves = 0;
    std::vector<MergeIteration> iterations;

    /** COO elements written to the ping-pong across all iterations. */
    std::uint64_t spilledElements = 0;
};

/**
 * Plan a merge of @p leaf_sizes.size() condensed leaves on an
 * @p leaves-way tree. Every iteration merges its items in ceil(m / l)
 * contiguous rounds until at most l remain; without @p defer that is
 * the whole plan (SpgemmScheduler::Uniform), and every non-final
 * iteration spills every element. With @p defer (Huffman), within each
 * non-final iteration the largest leaves that can still be deferred
 * without adding an iteration are pushed to later rounds, so their
 * elements never transit the spill buffer. Runs (prior-iteration
 * outputs) are always consumed the very next iteration — the ping-pong
 * only holds two buffers. The iteration count is the same either way,
 * and deferral never spills more.
 */
MergeTreePlan planMergeTree(const std::vector<std::uint64_t> &leaf_sizes,
                            unsigned leaves, bool defer);

} // namespace menda::spgemm

#endif // MENDA_SPGEMM_PLAN_HH
