/**
 * @file
 * Reference merge tree: the earlier MergeTree, kept as the cycle-exact
 * oracle for menda/merge_tree.hh. Each PE owns a pair of Fifo objects,
 * the worklist is a vector deduplicated through an epoch array and
 * sorted every tick. The production tree must match it move for move:
 * same canPush/canPop/front, same freed slots in the same order, same
 * counters after every tick (tests/test_merge_tree.cc).
 */

#ifndef MENDA_TESTS_REFERENCE_MERGE_TREE_HH
#define MENDA_TESTS_REFERENCE_MERGE_TREE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "menda/packet.hh"
#include "menda/pu_config.hh"

namespace menda::reference
{

/** Fixed-capacity FIFO modeling the hardware queues between PEs. */
template <typename T>
class Fifo
{
  public:
    explicit Fifo(std::size_t capacity) : capacity_(capacity)
    {
        menda_assert(capacity > 0, "FIFO capacity must be positive");
        slots_.resize(capacity);
    }

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity_; }

    /** Reference to the oldest element. FIFO must be non-empty. */
    const T &
    front() const
    {
        menda_assert(size_ > 0, "front() on empty FIFO");
        return slots_[head_];
    }

    /** Append @p item; FIFO must not be full. */
    void
    push(const T &item)
    {
        menda_assert(size_ < capacity_, "push() on full FIFO");
        slots_[(head_ + size_) % capacity_] = item;
        ++size_;
    }

    /** Remove and return the oldest element; FIFO must be non-empty. */
    T
    pop()
    {
        menda_assert(size_ > 0, "pop() on empty FIFO");
        T item = slots_[head_];
        head_ = (head_ + 1) % capacity_;
        --size_;
        return item;
    }

  private:
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::vector<T> slots_;
};

class MergeTree
{
  public:
    using Packet = core::Packet;

    MergeTree(const core::PuConfig &config, core::MergeKey key)
        : leaves_(config.leaves), key_(key), rootOut_(config.fifoEntries)
    {
        menda_assert(leaves_ >= 2 && std::has_single_bit(leaves_),
                     "bad leaf count");
        for (unsigned p = 0; p < peCount(); ++p)
            pes_.emplace_back(config.fifoEntries);
        scheduledEpoch_.assign(peCount(), 0);
    }

    unsigned peCount() const { return leaves_ - 1; }

    bool
    canPush(unsigned slot) const
    {
        const unsigned pe = leaves_ / 2 - 1 + slot / 2;
        return !pes_[pe].in[slot % 2].full();
    }

    void
    push(unsigned slot, const Packet &packet)
    {
        const unsigned pe = leaves_ / 2 - 1 + slot / 2;
        pes_[pe].in[slot % 2].push(packet);
        ++buffered_;
        schedule(pe);
    }

    bool canPop() const { return !rootOut_.empty(); }
    const Packet &front() const { return rootOut_.front(); }

    Packet
    pop()
    {
        Packet packet = rootOut_.pop();
        --buffered_;
        if (packet.eol)
            ++roundsDone_;
        schedule(0);
        return packet;
    }

    void
    tick()
    {
        freedSlots_.clear();
        if (rootOut_.empty())
            ++rootIdle_;
        ++epoch_;
        current_.swap(next_);
        next_.clear();
        // Parents before children: a packet advances one level per cycle.
        std::sort(current_.begin(), current_.end());
        for (unsigned pe : current_) {
            if (evaluate(pe))
                scheduleNeighbours(pe);
        }
        current_.clear();
    }

    const std::vector<unsigned> &freedSlots() const { return freedSlots_; }
    std::uint64_t roundsCompleted() const { return roundsDone_; }
    std::uint64_t rootIdleCycles() const { return rootIdle_; }
    std::uint64_t occupancy() const { return buffered_; }
    std::uint64_t peMoves() const { return peMoves_; }

  private:
    struct Pe
    {
        Fifo<Packet> in[2];      ///< FIFOs from the two children
        bool terminated[2] = {false, false}; ///< EOL seen this round

        explicit Pe(unsigned fifo_entries)
            : in{Fifo<Packet>(fifo_entries), Fifo<Packet>(fifo_entries)}
        {}
    };

    /** Output FIFO of PE @p pe: root FIFO for 0, else parent input. */
    Fifo<Packet> &
    outputOf(unsigned pe)
    {
        if (pe == 0)
            return rootOut_;
        return pes_[(pe - 1) / 2].in[(pe - 1) % 2];
    }

    void
    schedule(unsigned pe)
    {
        if (scheduledEpoch_[pe] == epoch_ + 1)
            return;
        scheduledEpoch_[pe] = epoch_ + 1;
        next_.push_back(pe);
    }

    void
    scheduleNeighbours(unsigned pe)
    {
        schedule(pe);
        if (pe != 0)
            schedule((pe - 1) / 2);
        const unsigned left = 2 * pe + 1;
        if (left < peCount())
            schedule(left);
        const unsigned right = 2 * pe + 2;
        if (right < peCount())
            schedule(right);
    }

    void
    noteLeafPop(unsigned pe, int side)
    {
        const unsigned first_leaf = leaves_ / 2 - 1;
        if (pe >= first_leaf)
            freedSlots_.push_back((pe - first_leaf) * 2 +
                                  static_cast<unsigned>(side));
    }

    bool
    evaluate(unsigned pe)
    {
        Pe &node = pes_[pe];
        bool changed = false;

        // Absorb empty-stream tokens: pure control, no data slot used.
        for (int side = 0; side < 2; ++side) {
            if (!node.terminated[side] && !node.in[side].empty() &&
                !node.in[side].front().valid) {
                node.in[side].pop();
                --buffered_;
                node.terminated[side] = true;
                noteLeafPop(pe, side);
                changed = true;
            }
        }

        Fifo<Packet> &out = outputOf(pe);
        if (out.full())
            return changed;

        const bool have[2] = {
            !node.terminated[0] && !node.in[0].empty(),
            !node.terminated[1] && !node.in[1].empty(),
        };

        if (node.terminated[0] && node.terminated[1]) {
            out.push(Packet::endOfLine());
            ++buffered_;
            node.terminated[0] = node.terminated[1] = false;
            return true;
        }

        if ((!have[0] && !node.terminated[0]) ||
            (!have[1] && !node.terminated[1]))
            return changed;

        int side;
        if (have[0] && have[1]) {
            side = core::mergeKey(node.in[0].front(), key_) <=
                           core::mergeKey(node.in[1].front(), key_)
                       ? 0
                       : 1;
        } else {
            side = have[0] ? 0 : 1;
        }

        Packet packet = node.in[side].pop();
        noteLeafPop(pe, side);
        if (packet.eol)
            node.terminated[side] = true;
        packet.eol = node.terminated[0] && node.terminated[1];
        if (packet.eol)
            node.terminated[0] = node.terminated[1] = false;
        out.push(packet);
        ++peMoves_;
        return true;
    }

    unsigned leaves_;
    core::MergeKey key_;
    std::vector<Pe> pes_;
    Fifo<Packet> rootOut_;
    std::vector<unsigned> freedSlots_;

    std::vector<unsigned> current_;
    std::vector<unsigned> next_;
    std::vector<std::uint64_t> scheduledEpoch_;
    std::uint64_t epoch_ = 1;

    std::uint64_t roundsDone_ = 0, rootIdle_ = 0, peMoves_ = 0;
    std::uint64_t buffered_ = 0;
};

} // namespace menda::reference

#endif // MENDA_TESTS_REFERENCE_MERGE_TREE_HH
