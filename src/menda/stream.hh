/**
 * @file
 * Sorted-stream descriptors handed from the PU controller to prefetch
 * buffers (the "start and end addresses of the corresponding sorted
 * streams", Sec. 3.2).
 */

#ifndef MENDA_MENDA_STREAM_HH
#define MENDA_MENDA_STREAM_HH

#include "common/types.hh"

namespace menda::core
{

/** Where a stream's elements live. */
enum class StreamSource : std::uint8_t
{
    CsrRow,    ///< iteration 0: one row of the input CSR slice
    Coo,       ///< iteration >= 1: a COO run from the ping-pong buffer
    CscColumn, ///< SpMV iteration 0: one column of the input CSC slice
    ScaledBRow,///< SpGEMM iteration 0: row of B scaled by one A non-zero
    /**
     * SpGEMM Huffman plan: a pack of >= 2 consecutive scaled-B-row
     * streams with strictly increasing output rows, fetched as one
     * virtual stream. [begin, end) addresses the pack's concatenated
     * element space; the PU maps virtual offsets back to B's arrays
     * through its per-stream element prefix.
     */
    CondensedLeaf,
};

/** A contiguous run of non-zeros, sorted by the iteration's merge key. */
struct StreamDesc
{
    StreamSource source = StreamSource::CsrRow;
    std::uint64_t begin = 0; ///< first element offset in the source arrays
    std::uint64_t end = 0;   ///< one past the last element
    Index fixedIndex = 0;    ///< CsrRow: row id; CscColumn: col id;
                             ///< ScaledBRow: the LOCAL output row
    int cooBuffer = 0;       ///< Coo: which ping-pong buffer (0/1)
    Value scale = 1.0f;      ///< ScaledBRow: the A(i, k) multiplier
    Index auxIndex = 0;      ///< CsrRow/CscColumn: the LOCAL line whose
                             ///< pointer blocks gate assignment;
                             ///< ScaledBRow/CondensedLeaf: the
                             ///< condensed-leaf index

    std::uint64_t length() const { return end - begin; }
    bool empty() const { return begin == end; }
};

} // namespace menda::core

#endif // MENDA_MENDA_STREAM_HH
