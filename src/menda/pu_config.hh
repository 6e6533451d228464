/**
 * @file
 * MeNDA processing-unit parameters (Tab. 1) and optimization switches.
 */

#ifndef MENDA_MENDA_PU_CONFIG_HH
#define MENDA_MENDA_PU_CONFIG_HH

#include <cstdint>

#include "common/types.hh"
#include "spgemm/plan.hh"

namespace menda::core
{

struct PuConfig
{
    /** PU clock (Tab. 1 nominal: 800 MHz; Fig. 15 sweeps 400-1200). */
    std::uint64_t freqMhz = 800;

    /**
     * Number of merge-tree leaves = sorted streams merged per round
     * (Tab. 1 nominal: 1024; Fig. 15 sweeps 64/256/1024).
     * Must be a power of two >= 2.
     */
    unsigned leaves = 1024;

    /** Entries per inter-PE FIFO (Tab. 1: 2). */
    unsigned fifoEntries = 2;

    /** NZ capacity of each prefetch buffer (Tab. 1: 32; Fig. 12 sweeps). */
    unsigned prefetchBufferEntries = 32;

    /** Stall-reducing prefetching (Sec. 3.4); Fig. 12 ablates this. */
    bool stallReducingPrefetch = true;

    /**
     * Seamless back-to-back merge sort (Sec. 3.3): prefetch buffers are
     * assigned (and fetch) the next round's streams as soon as they set
     * the end-of-line signal. Disabled, a new round of merge sort only
     * starts after the current one has fully drained from the root —
     * the baseline the Fig. 6 discussion compares against.
     */
    bool seamlessMerge = true;

    /** Request coalescing in the read queue (Sec. 3.4); Fig. 12 ablates. */
    bool requestCoalescing = true;

    /**
     * Pending-store slots in the output unit before the root back-
     * pressures (covers pointer-block flushes at stream boundaries).
     */
    unsigned outputPendingStores = 8;

    /**
     * Cycles a prefetch-buffer load may stay unanswered before the PU
     * re-issues it — recovery from dropped/corrupted link transfers
     * (CRC retry on the DDR4 bus). 0 disables retries.
     */
    unsigned retryTimeoutCycles = 8192;

    /**
     * SpGEMM merge scheduling (SpGEMM only): uniform ceil(n/l) rounds
     * or condensed leaves with Huffman-style deferral. Read once, by
     * the SpGEMM Pu constructor, to build its spgemm::planMergeTree
     * plan. Outputs are bitwise identical either way.
     */
    spgemm::SpgemmConfig spgemm;
};

} // namespace menda::core

#endif // MENDA_MENDA_PU_CONFIG_HH
