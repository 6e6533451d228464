/**
 * @file
 * Tests for the request queues and CAM-style coalescing (Sec. 3.4).
 */

#include <gtest/gtest.h>

#include "mem/request_queue.hh"

using namespace menda;
using namespace menda::mem;

namespace
{

MemRequest
load(Addr addr, std::uint32_t requester = 0)
{
    MemRequest req;
    req.addr = addr;
    req.requester = requester;
    return req;
}

MemRequest
store(Addr addr)
{
    MemRequest req;
    req.addr = addr;
    req.isWrite = true;
    return req;
}

/** Slot of the @p age-th oldest request (0 = oldest), walking the list. */
std::uint32_t
slotOfAge(const RequestQueue &q, std::size_t age)
{
    std::uint32_t slot = q.headSlot();
    while (age-- > 0)
        slot = q.nextSlot(slot);
    return slot;
}

} // namespace

TEST(RequestQueue, FifoOrderAndCapacity)
{
    RequestQueue q(4, false);
    EXPECT_TRUE(q.empty());
    for (Addr a = 0; a < 4; ++a)
        EXPECT_TRUE(q.enqueue(load(a * 64)));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.enqueue(load(999 * 64)));
    EXPECT_EQ(q.front().addr, 0u);
    q.removeSlot(slotOfAge(q, 0));
    EXPECT_EQ(q.front().addr, 64u);
    EXPECT_TRUE(q.enqueue(load(999 * 64)));
}

TEST(RequestQueue, CoalescingMergesSameBlockLoads)
{
    RequestQueue q(4, true);
    EXPECT_TRUE(q.enqueue(load(256, 1)));
    EXPECT_TRUE(q.enqueue(load(256, 2)));
    EXPECT_TRUE(q.enqueue(load(256, 3)));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.slotAt(slotOfAge(q, 0)).coalesced, 2u);
    EXPECT_EQ(q.coalescedHits().value(), 2u);
}

TEST(RequestQueue, CoalescingAcceptsEvenWhenFull)
{
    // A full queue still merges a matching load — that is the CAM's
    // whole point during iteration-0 bursts.
    RequestQueue q(2, true);
    EXPECT_TRUE(q.enqueue(load(0)));
    EXPECT_TRUE(q.enqueue(load(64)));
    EXPECT_TRUE(q.full());
    EXPECT_TRUE(q.enqueue(load(64)));
    EXPECT_FALSE(q.enqueue(load(128)));
}

TEST(RequestQueue, WritesNeverCoalesce)
{
    RequestQueue q(4, true);
    EXPECT_TRUE(q.enqueue(store(512)));
    EXPECT_TRUE(q.enqueue(store(512)));
    EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, LoadsDoNotMergeIntoStores)
{
    RequestQueue q(4, true);
    EXPECT_TRUE(q.enqueue(store(512)));
    EXPECT_TRUE(q.enqueue(load(512)));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.slotAt(slotOfAge(q, 1)).coalesced, 0u);
}

TEST(RequestQueue, DisabledCoalescingKeepsDuplicates)
{
    RequestQueue q(4, false);
    EXPECT_TRUE(q.enqueue(load(256)));
    EXPECT_TRUE(q.enqueue(load(256)));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.coalescedHits().value(), 0u);
}

TEST(RequestQueue, IdsAreUniqueAndMonotonic)
{
    RequestQueue q(8, false);
    for (Addr a = 0; a < 8; ++a)
        EXPECT_TRUE(q.enqueue(load(a * 64)));
    for (std::size_t i = 1; i < q.size(); ++i)
        EXPECT_GT(q.slotAt(slotOfAge(q, i)).id,
                  q.slotAt(slotOfAge(q, i - 1)).id);
}

TEST(RequestQueue, RejectsMisalignedAddresses)
{
    RequestQueue q(4, false);
    EXPECT_THROW(q.enqueue(load(3)), std::runtime_error);
}

TEST(RequestQueue, RemoveMiddleKeepsOrder)
{
    RequestQueue q(4, false);
    for (Addr a = 0; a < 4; ++a)
        EXPECT_TRUE(q.enqueue(load(a * 64)));
    q.removeSlot(slotOfAge(q, 1));
    EXPECT_EQ(q.slotAt(slotOfAge(q, 0)).addr, 0u);
    EXPECT_EQ(q.slotAt(slotOfAge(q, 1)).addr, 128u);
    EXPECT_EQ(q.slotAt(slotOfAge(q, 2)).addr, 192u);
}
