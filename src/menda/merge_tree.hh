/**
 * @file
 * The hardware multi-way merge tree (Sec. 3.2, 3.3).
 *
 * An l-leaf tree has l-1 PEs in log2(l) levels. Each PE is connected to
 * its two children through 2-entry FIFOs, so every PE can move one packet
 * per cycle with no root-to-leaf critical path. A PE forwards the child
 * packet whose merge index (column for transposition, row for SpMV) is
 * smaller; ties pop the left child, keeping the merge stable. End-of-line
 * bits delimit sorted streams and let consecutive rounds of merge sort
 * flow through back-to-back with no drain/refill stalls (Sec. 3.3).
 *
 * Storage: the FIFOs are heap-numbered lanes, each a ring of
 * `fifoEntries` packets in one contiguous vector. Lane 0 is the root
 * output; lane i >= 1 is the output of node i and an input of PE
 * (i-1)/2. So PE p reads lanes 2p+1 (left) and 2p+2 (right) and writes
 * lane p, and stream slot s is lane l-1+s.
 *
 * Timing (the worklist): a tick evaluates only the PEs on its
 * worklist, in ascending index, so parents go before children and a
 * packet climbs one level per cycle. A PE is on the worklist of a tick
 * if, since the previous tick, a packet was pushed into one of its
 * stream slots, the root was popped (PE 0), or on the previous tick it,
 * its parent or one of its children changed state. This rule is part
 * of the timing model, not a shortcut of a sweep over every PE: a PE
 * that is not on the worklist stays put even when its parent freed its
 * output slot earlier in the same tick, so changing who is scheduled
 * (for example, not scheduling the child that was not popped) changes
 * simulated cycles. It also keeps the cost per popped element at
 * O(log l) instead of O(l).
 */

#ifndef MENDA_MENDA_MERGE_TREE_HH
#define MENDA_MENDA_MERGE_TREE_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "menda/packet.hh"
#include "menda/pu_config.hh"

namespace menda::core
{

class MergeTree
{
  public:
    MergeTree(const PuConfig &config, MergeKey key);

    unsigned leaves() const { return leaves_; }
    unsigned peCount() const { return leaves_ - 1; }
    unsigned levels() const { return levels_; }

    /** Stream slots (== leaves); slot s is lane leaves()-1+s. */
    unsigned streamSlots() const { return leaves_; }

    /** True if stream slot @p slot can accept a packet this cycle. */
    bool canPush(unsigned slot) const;

    /** Push a packet into stream slot @p slot (prefetch buffer side). */
    void push(unsigned slot, const Packet &packet);

    /** True if the root has produced a packet that can be popped. */
    bool canPop() const { return lanes_[0].count != 0; }

    /** Peek the root output. */
    const Packet &
    front() const
    {
        menda_assert(canPop(), "front() on an empty merge tree");
        return peek(0);
    }

    /** Pop the root output (output buffer side). */
    Packet pop();

    /** Advance every PE on the worklist by one cycle. */
    void tick();

    /**
     * Stream slots whose leaf FIFO gained space during the last tick().
     * The PU uses this to wake prefetch buffers that were blocked on a
     * full leaf FIFO. Cleared at the start of every tick.
     */
    const std::vector<unsigned> &freedSlots() const { return freedSlots_; }

    /** True when no packet is buffered anywhere in the tree. */
    bool drained() const;

    /** Number of data packets popped from the root so far. */
    std::uint64_t rootPops() const { return rootPops_.value(); }

    /** Root-side end-of-line tokens emitted (== rounds completed). */
    std::uint64_t roundsCompleted() const { return roundsDone_.value(); }

    /** Cycles on which the root FIFO had no packet ready. */
    std::uint64_t rootIdleCycles() const { return rootIdle_.value(); }

    /**
     * Sum over ticks of the packets buffered anywhere in the tree
     * (every lane, the root's included). Divided by the PU cycle count
     * this gives the mean tree occupancy in packets — the utilization
     * figure the Fig. 12 ablation bench reports next to the stall
     * counters.
     */
    std::uint64_t occupancyPacketCycles() const
    {
        return occupancyCycles_.value();
    }

    /** Packets currently buffered anywhere in the tree. */
    std::uint64_t occupancy() const { return buffered_; }

    void
    registerStats(StatGroup &group) const
    {
        group.add("tree.rootPops", rootPops_);
        group.add("tree.rounds", roundsDone_);
        group.add("tree.rootIdleCycles", rootIdle_);
        group.add("tree.peMoves", peMoves_);
        group.add("tree.occupancyPacketCycles", occupancyCycles_);
    }

  private:
    /** One FIFO: a ring of depth_ packets at ring_[index * depth_]. */
    struct Lane
    {
        unsigned head = 0;       ///< ring position of the oldest packet
        unsigned count = 0;      ///< packets buffered
        bool terminated = false; ///< EOL taken this round (PE inputs)
    };

    bool full(unsigned lane) const { return lanes_[lane].count == depth_; }

    const Packet &
    peek(unsigned lane) const
    {
        return ring_[lane * depth_ + lanes_[lane].head];
    }

    /** Append @p packet to @p lane, which must not be full. */
    void put(unsigned lane, const Packet &packet);

    /** Remove the oldest packet of non-empty @p lane; a stream slot's
     *  lane also lists the slot in freedSlots_. */
    Packet take(unsigned lane);

    /** Evaluate PE @p pe; returns true if any state changed. */
    bool evaluate(unsigned pe);

    void
    schedule(unsigned pe)
    {
        next_[pe / 64] |= std::uint64_t(1) << (pe % 64);
    }

    void scheduleNeighbours(unsigned pe);

    unsigned leaves_;
    unsigned levels_;
    unsigned depth_; ///< packets per lane (PuConfig::fifoEntries)
    MergeKey key_;

    std::vector<Lane> lanes_;  ///< 2 * leaves_ - 1 lanes, heap-numbered
    std::vector<Packet> ring_; ///< lanes_.size() * depth_ packets
    std::vector<unsigned> freedSlots_;

    // Worklist bitsets over PE indices: this tick's and the next one's.
    std::vector<std::uint64_t> current_;
    std::vector<std::uint64_t> next_;

    Counter rootPops_, roundsDone_, rootIdle_, peMoves_, occupancyCycles_;
    std::uint64_t buffered_ = 0; ///< packets currently in any lane

#ifdef MENDA_CHECKS
    // Invariant-checker state: the last merge key each PE (and the root
    // consumer) emitted in the current round. Every output stream of a
    // correct merge is non-decreasing between end-of-line tokens.
    std::vector<std::uint64_t> lastPeKey_;
    std::vector<bool> peHasLast_;
    std::uint64_t lastRootKey_ = 0;
    bool rootHasLast_ = false;
#endif
};

} // namespace menda::core

#endif // MENDA_MENDA_MERGE_TREE_HH
