#include "menda/merge_tree.hh"

#include <bit>

namespace menda::core
{

MergeTree::MergeTree(const PuConfig &config, MergeKey key)
    : leaves_(config.leaves),
      depth_(config.fifoEntries),
      key_(key)
{
    if (leaves_ < 2 || (leaves_ & (leaves_ - 1)) != 0)
        menda_fatal("merge tree needs a power-of-two leaf count >= 2, got ",
                    leaves_);
    menda_assert(depth_ > 0, "FIFO capacity must be positive");
    levels_ = static_cast<unsigned>(std::countr_zero(leaves_));
    lanes_.resize(2 * std::size_t(leaves_) - 1);
    ring_.resize(lanes_.size() * depth_);
    current_.assign((peCount() + 63) / 64, 0);
    next_.assign(current_.size(), 0);
#ifdef MENDA_CHECKS
    lastPeKey_.assign(peCount(), 0);
    peHasLast_.assign(peCount(), false);
#endif
}

inline void
MergeTree::put(unsigned lane, const Packet &packet)
{
    Lane &l = lanes_[lane];
    unsigned tail = l.head + l.count;
    if (tail >= depth_)
        tail -= depth_;
    ring_[lane * depth_ + tail] = packet;
    ++l.count;
    ++buffered_;
}

inline Packet
MergeTree::take(unsigned lane)
{
    Lane &l = lanes_[lane];
    const Packet packet = ring_[lane * depth_ + l.head];
    if (++l.head == depth_)
        l.head = 0;
    --l.count;
    --buffered_;
    if (lane >= leaves_ - 1)
        freedSlots_.push_back(lane - (leaves_ - 1));
    return packet;
}

bool
MergeTree::canPush(unsigned slot) const
{
    menda_assert(slot < streamSlots(), "bad stream slot");
    return !full(leaves_ - 1 + slot);
}

void
MergeTree::push(unsigned slot, const Packet &packet)
{
    menda_assert(canPush(slot), "push to full stream slot");
    const unsigned lane = leaves_ - 1 + slot;
    put(lane, packet);
    schedule((lane - 1) / 2);
}

Packet
MergeTree::pop()
{
    menda_assert(canPop(), "pop() on an empty merge tree");
    Packet packet = take(0);
#ifdef MENDA_CHECKS
    if (packet.valid) {
        menda_assert(!rootHasLast_ ||
                         mergeKey(packet, key_) >= lastRootKey_,
                     "merge tree root emitted a decreasing key within "
                     "a round");
        rootHasLast_ = true;
        lastRootKey_ = mergeKey(packet, key_);
    }
    if (packet.eol)
        rootHasLast_ = false;
#endif
    if (packet.valid)
        ++rootPops_;
    if (packet.eol)
        ++roundsDone_;
    schedule(0);
    return packet;
}

inline void
MergeTree::scheduleNeighbours(unsigned pe)
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

inline bool
MergeTree::evaluate(unsigned pe)
{
    const unsigned left = 2 * pe + 1;
    Lane &in0 = lanes_[left];
    Lane &in1 = lanes_[left + 1];
    bool changed = false;

    // Absorb empty-stream tokens: pure control, no data slot consumed.
    for (unsigned lane = left; lane <= left + 1; ++lane) {
        Lane &in = lanes_[lane];
        if (!in.terminated && in.count != 0 && !peek(lane).valid) {
            menda_assert(peek(lane).eol, "invalid packet without EOL");
            take(lane);
            in.terminated = true;
            changed = true;
        }
    }

    if (full(pe))
        return changed;

    if (in0.terminated && in1.terminated) {
        // Both streams of this round were empty (or ended on absorbed
        // tokens): propagate a pure end-of-line and start the next round.
        put(pe, Packet::endOfLine());
        in0.terminated = in1.terminated = false;
#ifdef MENDA_CHECKS
        peHasLast_[pe] = false;
#endif
        return true;
    }

    const bool have0 = !in0.terminated && in0.count != 0;
    const bool have1 = !in1.terminated && in1.count != 0;

    // A PE only pops when each side has either supplied a packet or
    // finished its stream — otherwise a smaller index might still arrive.
    if ((!have0 && !in0.terminated) || (!have1 && !in1.terminated))
        return changed;

    unsigned lane;
    if (have0 && have1) {
        // Tie pops the LEFT child: stability keeps equal merge indices in
        // leaf order, i.e. ascending secondary index.
        lane = mergeKey(peek(left), key_) <= mergeKey(peek(left + 1), key_)
                   ? left
                   : left + 1;
    } else {
        lane = have0 ? left : left + 1;
    }

    Packet packet = take(lane);
    if (packet.eol)
        lanes_[lane].terminated = true;
    packet.eol = in0.terminated && in1.terminated;
    if (packet.eol) {
        // Last element of the merged stream: round completes here.
        in0.terminated = in1.terminated = false;
    }
#ifdef MENDA_CHECKS
    if (packet.valid) {
        menda_assert(!peHasLast_[pe] ||
                         mergeKey(packet, key_) >= lastPeKey_[pe],
                     "merge PE forwarded a decreasing key within a round");
        peHasLast_[pe] = true;
        lastPeKey_[pe] = mergeKey(packet, key_);
    }
    if (packet.eol)
        peHasLast_[pe] = false;
#endif
    put(pe, packet);
    ++peMoves_;
    return true;
}

void
MergeTree::tick()
{
    freedSlots_.clear();
    occupancyCycles_ += buffered_;
    if (!canPop())
        ++rootIdle_;
    // What was scheduled since the last tick is this tick's worklist;
    // PEs scheduled while it runs wait for the next tick. Ascending
    // index visits parents before children: a packet advances one level
    // per cycle.
    current_.swap(next_);
    for (std::size_t word = 0; word < current_.size(); ++word) {
        std::uint64_t bits = current_[word];
        current_[word] = 0;
        while (bits != 0) {
            const unsigned pe = static_cast<unsigned>(
                word * 64 + std::countr_zero(bits));
            bits &= bits - 1;
            if (evaluate(pe))
                scheduleNeighbours(pe);
        }
    }
}

bool
MergeTree::drained() const
{
    for (const Lane &lane : lanes_)
        if (lane.count != 0 || lane.terminated)
            return false;
    return true;
}

} // namespace menda::core
