/**
 * @file
 * Unit tests for the hardware merge tree: sortedness, stability,
 * end-of-line propagation, seamless back-to-back rounds, and FIFO
 * back-pressure, across tree sizes (parameterized); and the cycle-exact
 * comparison against the reference tree (reference_merge_tree.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/random.hh"
#include "fuzz_seed.hh"
#include "menda/merge_tree.hh"
#include "reference_merge_tree.hh"

using namespace menda;
using namespace menda::core;

namespace
{

PuConfig
smallConfig(unsigned leaves)
{
    PuConfig config;
    config.leaves = leaves;
    return config;
}

/** One sorted input stream: (col ascending, fixed row). */
struct TestStream
{
    Index row;
    std::vector<Index> cols;
};

class MergeTreeSizes : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(MergeTreeSizes, MergesSortedStreamsByColumn)
{
    std::vector<TestStream> streams;
    Rng rng(42);
    MergeTree probe(smallConfig(GetParam()), MergeKey::Column);
    MergeTree &tree = probe; // sized like the parameterized tree
    std::vector<std::pair<Index, Index>> expect; // (col, row)
    for (unsigned s = 0; s < tree.streamSlots(); ++s) {
        TestStream stream;
        stream.row = s;
        Index col = 0;
        const unsigned len = static_cast<unsigned>(rng.below(6));
        for (unsigned i = 0; i < len; ++i) {
            col += 1 + static_cast<Index>(rng.below(10));
            stream.cols.push_back(col);
            expect.emplace_back(col, s);
        }
        streams.push_back(stream);
    }
    std::stable_sort(expect.begin(), expect.end(),
                     [](auto a, auto b) { return a.first < b.first; });

    MergeTree tree2(smallConfig(GetParam()), MergeKey::Column);
    std::vector<Packet> out = [&] {
        std::vector<std::size_t> cursor(tree2.streamSlots(), 0);
        std::vector<Packet> collected;
        std::uint64_t guard = 0;
        while (tree2.roundsCompleted() == 0 && ++guard < 1000000u) {
            for (unsigned s = 0; s < tree2.streamSlots(); ++s) {
                if (!tree2.canPush(s))
                    continue;
                const TestStream &stream = streams[s];
                if (stream.cols.empty()) {
                    if (cursor[s] == 0) {
                        tree2.push(s, Packet::endOfLine());
                        cursor[s] = 1;
                    }
                } else if (cursor[s] < stream.cols.size()) {
                    const bool last = cursor[s] + 1 == stream.cols.size();
                    tree2.push(s, Packet::data(stream.row,
                                               stream.cols[cursor[s]],
                                               1.0f, last));
                    ++cursor[s];
                }
            }
            if (tree2.canPop())
                collected.push_back(tree2.pop());
            tree2.tick();
        }
        return collected;
    }();

    std::vector<std::pair<Index, Index>> got;
    for (const Packet &p : out)
        if (p.valid)
            got.emplace_back(p.col, p.row);
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(got, expect) << "merged output must be (col, row) sorted "
                              "with stable row order";
    ASSERT_FALSE(out.empty());
    EXPECT_TRUE(out.back().eol) << "last packet must carry end-of-line";
    for (std::size_t i = 0; i + 1 < out.size(); ++i)
        EXPECT_FALSE(out[i].eol);
}

TEST_P(MergeTreeSizes, EmptyRoundEmitsPureEol)
{
    MergeTree tree(smallConfig(GetParam()), MergeKey::Column);
    std::vector<TestStream> streams(tree.streamSlots());
    for (unsigned s = 0; s < tree.streamSlots(); ++s)
        streams[s].row = s;

    std::vector<std::size_t> cursor(tree.streamSlots(), 0);
    std::uint64_t guard = 0;
    std::vector<Packet> out;
    while (tree.roundsCompleted() == 0) {
        ASSERT_LT(++guard, 100000u);
        for (unsigned s = 0; s < tree.streamSlots(); ++s) {
            if (tree.canPush(s) && cursor[s] == 0) {
                tree.push(s, Packet::endOfLine());
                cursor[s] = 1;
            }
        }
        if (tree.canPop())
            out.push_back(tree.pop());
        tree.tick();
    }
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].valid);
    EXPECT_TRUE(out[0].eol);
    EXPECT_TRUE(tree.drained());
}

TEST_P(MergeTreeSizes, BackToBackRoundsStaySeparated)
{
    // Two rounds pushed back-to-back: round 1 data enters the leaves
    // right behind round 0's EOL; outputs must not interleave.
    MergeTree tree(smallConfig(GetParam()), MergeKey::Column);
    const unsigned slots = tree.streamSlots();
    std::vector<std::vector<Packet>> feed(slots);
    for (unsigned s = 0; s < slots; ++s) {
        // Round 0: single element with large col; round 1: small col.
        feed[s].push_back(Packet::data(s, 1000 + s, 1.0f, true));
        feed[s].push_back(Packet::data(s, s, 2.0f, true));
    }
    std::vector<std::size_t> cursor(slots, 0);
    std::vector<Packet> out;
    std::uint64_t guard = 0;
    while (tree.roundsCompleted() < 2) {
        ASSERT_LT(++guard, 1000000u);
        for (unsigned s = 0; s < slots; ++s)
            if (cursor[s] < feed[s].size() && tree.canPush(s))
                tree.push(s, feed[s][cursor[s]++]);
        if (tree.canPop())
            out.push_back(tree.pop());
        tree.tick();
    }
    // First `slots` packets belong to round 0 (cols >= 1000); the next
    // `slots` to round 1 (cols < 1000).
    ASSERT_EQ(out.size(), 2 * slots);
    for (unsigned i = 0; i < slots; ++i) {
        EXPECT_GE(out[i].col, 1000u) << "round 0 leaked round 1 data";
        EXPECT_LT(out[slots + i].col, 1000u);
    }
    EXPECT_TRUE(out[slots - 1].eol);
    EXPECT_TRUE(out[2 * slots - 1].eol);
    EXPECT_TRUE(tree.drained());
}

TEST_P(MergeTreeSizes, ThroughputIsOnePopPerCycleWhenSaturated)
{
    // With all leaves fed eagerly, the root must emit one packet per
    // cycle after the pipeline fills (the design goal of Sec. 3.2).
    MergeTree tree(smallConfig(GetParam()), MergeKey::Column);
    const unsigned slots = tree.streamSlots();
    const unsigned per_stream = 64;
    std::vector<std::size_t> sent(slots, 0);
    std::uint64_t cycles = 0, popped = 0;
    while (tree.roundsCompleted() == 0) {
        for (unsigned s = 0; s < slots; ++s) {
            if (sent[s] < per_stream && tree.canPush(s)) {
                const bool last = sent[s] + 1 == per_stream;
                tree.push(s, Packet::data(
                                  s, static_cast<Index>(sent[s] * slots + s),
                                  1.0f, last));
                ++sent[s];
            }
        }
        if (tree.canPop()) {
            if (tree.pop().valid)
                ++popped;
        }
        tree.tick();
        ++cycles;
        ASSERT_LT(cycles, 1000000u);
    }
    const std::uint64_t total = static_cast<std::uint64_t>(slots) *
                                per_stream;
    EXPECT_EQ(popped, total);
    // Pipeline fill costs about levels() cycles; allow small slack.
    EXPECT_LE(cycles, total + tree.levels() + 8);
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, MergeTreeSizes,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u, 256u));

TEST(MergeTree, RowKeyMergesByRow)
{
    PuConfig config = smallConfig(4);
    MergeTree tree(config, MergeKey::Row);
    // Streams sorted by row (SpMV order).
    std::vector<std::vector<Packet>> feed = {
        {Packet::data(2, 0, 1.0f, false), Packet::data(9, 0, 1.0f, true)},
        {Packet::data(1, 1, 1.0f, true)},
        {Packet::data(5, 2, 1.0f, true)},
        {Packet::data(3, 3, 1.0f, true)},
    };
    std::vector<std::size_t> cursor(4, 0);
    std::vector<Index> rows;
    std::uint64_t guard = 0;
    while (tree.roundsCompleted() == 0) {
        ASSERT_LT(++guard, 100000u);
        for (unsigned s = 0; s < 4; ++s)
            if (cursor[s] < feed[s].size() && tree.canPush(s))
                tree.push(s, feed[s][cursor[s]++]);
        if (tree.canPop()) {
            Packet p = tree.pop();
            if (p.valid)
                rows.push_back(p.row);
        }
        tree.tick();
    }
    EXPECT_EQ(rows, (std::vector<Index>{1, 2, 3, 5, 9}));
}

TEST(MergeTree, RejectsBadLeafCounts)
{
    PuConfig config;
    config.leaves = 3;
    EXPECT_THROW(MergeTree(config, MergeKey::Column), std::runtime_error);
    config.leaves = 0;
    EXPECT_THROW(MergeTree(config, MergeKey::Column), std::runtime_error);
    config.leaves = 1;
    EXPECT_THROW(MergeTree(config, MergeKey::Column), std::runtime_error);
}

class MergeTreeFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MergeTreeFuzz, RandomStallsNeverCorruptTheMerge)
{
    // Property: regardless of when producers push and the consumer pops
    // (random stalls on both sides), every round's output is the sorted
    // multiset union of its inputs with exactly one trailing EOL.
    Rng rng(0xabc000 + GetParam());
    PuConfig config;
    config.leaves = 8u << rng.below(3); // 8/16/32
    config.fifoEntries = 2 + rng.below(2);
    MergeTree tree(config, MergeKey::Column);
    const unsigned slots = tree.streamSlots();
    const unsigned rounds = 3;

    // Pre-generate random sorted streams per slot per round.
    std::vector<std::vector<std::vector<Index>>> streams(
        rounds, std::vector<std::vector<Index>>(slots));
    std::vector<std::vector<std::pair<Index, Index>>> expect(rounds);
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned s = 0; s < slots; ++s) {
            Index col = 0;
            const unsigned len = static_cast<unsigned>(rng.below(7));
            for (unsigned i = 0; i < len; ++i) {
                col += 1 + static_cast<Index>(rng.below(5));
                streams[r][s].push_back(col);
                expect[r].emplace_back(col, s);
            }
        }
        std::stable_sort(expect[r].begin(), expect[r].end(),
                         [](auto a, auto b) { return a.first < b.first; });
    }

    std::vector<unsigned> round_of(slots, 0);
    std::vector<std::size_t> cursor(slots, 0);
    std::vector<std::vector<std::pair<Index, Index>>> got(rounds);
    unsigned rounds_done = 0;
    std::uint64_t guard = 0;
    while (rounds_done < rounds) {
        ASSERT_LT(++guard, 2000000u) << "merge did not converge";
        for (unsigned s = 0; s < slots; ++s) {
            if (round_of[s] >= rounds || !tree.canPush(s))
                continue;
            if (rng.below(3) == 0)
                continue; // random producer stall
            const auto &stream = streams[round_of[s]][s];
            if (stream.empty()) {
                tree.push(s, Packet::endOfLine());
                ++round_of[s];
                cursor[s] = 0;
            } else {
                const bool last = cursor[s] + 1 == stream.size();
                tree.push(s, Packet::data(s, stream[cursor[s]], 1.0f,
                                          last));
                if (++cursor[s] == stream.size()) {
                    ++round_of[s];
                    cursor[s] = 0;
                }
            }
        }
        if (tree.canPop() && rng.below(4) != 0) { // random consumer stall
            Packet p = tree.pop();
            if (p.valid)
                got[rounds_done].emplace_back(p.col, p.row);
            if (p.eol)
                ++rounds_done;
        }
        tree.tick();
    }
    for (unsigned r = 0; r < rounds; ++r)
        EXPECT_EQ(got[r], expect[r]) << "round " << r;
    EXPECT_TRUE(tree.drained());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeTreeFuzz, ::testing::Range(0u, 8u));

namespace
{

bool
samePacket(const Packet &a, const Packet &b)
{
    return a.row == b.row && a.col == b.col && a.valid == b.valid &&
           a.eol == b.eol && std::memcmp(&a.val, &b.val, sizeof a.val) == 0;
}

/** A data packet whose @p key-merge index is @p index. */
Packet
keyedPacket(MergeKey key, std::uint64_t index, unsigned slot, float val,
            bool eol)
{
    const auto i = static_cast<Index>(index);
    switch (key) {
    case MergeKey::Column:
        return Packet::data(slot, i, val, eol);
    case MergeKey::Row:
        return Packet::data(i, slot, val, eol);
    case MergeKey::RowCol:
    default:
        return Packet::data(i / 4, i % 4, val, eol);
    }
}

class MergeTreeOracle : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(MergeTreeOracle, MatchesReferenceMoveForMove)
{
    // The lane tree against the Fifo tree it replaced: the same seeded
    // pushes, pops and stalls into both, and after every tick the same
    // visible state and counters. Covers every FIFO depth 2-4 and merge
    // key, back-to-back rounds, empty-stream tokens, ties, and long
    // consumer stalls that back the tree up to its leaves.
    const unsigned leaves = GetParam();
    const std::uint64_t base = testutil::fuzzSeedBase(0x7ee0);
    SCOPED_TRACE(testutil::reproCommand(base, "test_merge_tree"));
    for (unsigned depth = 2; depth <= 4; ++depth) {
        for (MergeKey key :
             {MergeKey::Column, MergeKey::Row, MergeKey::RowCol}) {
            SCOPED_TRACE(::testing::Message()
                         << "leaves " << leaves << " depth " << depth
                         << " key " << static_cast<int>(key));
            Rng rng(base * 1000003 + leaves * 16 + depth * 4 +
                    static_cast<unsigned>(key));
            PuConfig config;
            config.leaves = leaves;
            config.fifoEntries = depth;
            MergeTree tree(config, key);
            reference::MergeTree ref(config, key);
            StatGroup stats("t");
            tree.registerStats(stats);

            // Per slot, the packets of all rounds back to back; an empty
            // stream is a single end-of-line token.
            const unsigned rounds = 3;
            std::vector<std::vector<Packet>> feed(leaves);
            float val = 0.0f;
            for (unsigned s = 0; s < leaves; ++s) {
                for (unsigned r = 0; r < rounds; ++r) {
                    const unsigned len = rng.below(4) == 0
                                             ? 0
                                             : 1 + rng.below(6);
                    std::uint64_t index = rng.below(8);
                    for (unsigned i = 0; i < len; ++i) {
                        index += rng.below(3); // 0 makes ties
                        feed[s].push_back(keyedPacket(
                            key, index, s, val += 1.0f, i + 1 == len));
                    }
                    if (len == 0)
                        feed[s].push_back(Packet::endOfLine());
                }
            }
            const unsigned push_skip = static_cast<unsigned>(rng.below(4));
            std::vector<std::size_t> cursor(leaves, 0);
            unsigned hold = 0; // cycles left in a consumer stall
            std::uint64_t guard = 0;
            while (ref.roundsCompleted() < rounds) {
                ASSERT_LT(++guard, 1000000u) << "merge did not converge";
                for (unsigned s = 0; s < leaves; ++s) {
                    if (cursor[s] == feed[s].size() || !ref.canPush(s) ||
                        rng.below(4) < push_skip)
                        continue;
                    tree.push(s, feed[s][cursor[s]]);
                    ref.push(s, feed[s][cursor[s]]);
                    ++cursor[s];
                }
                if (hold > 0) {
                    --hold;
                } else if (rng.below(32) == 0) {
                    hold = static_cast<unsigned>(rng.below(48));
                } else if (ref.canPop() && rng.below(4) != 0) {
                    const Packet got = tree.pop();
                    ASSERT_TRUE(samePacket(got, ref.pop()));
                }
                tree.tick();
                ref.tick();

                for (unsigned s = 0; s < leaves; ++s) {
                    ASSERT_EQ(tree.canPush(s), ref.canPush(s))
                        << "slot " << s << " tick " << guard;
                }
                ASSERT_EQ(tree.canPop(), ref.canPop()) << "tick " << guard;
                if (ref.canPop()) {
                    ASSERT_TRUE(samePacket(tree.front(), ref.front()))
                        << "tick " << guard;
                }
                ASSERT_EQ(tree.freedSlots(), ref.freedSlots())
                    << "tick " << guard;
                ASSERT_EQ(tree.occupancy(), ref.occupancy());
                ASSERT_EQ(tree.rootIdleCycles(), ref.rootIdleCycles());
                ASSERT_EQ(tree.roundsCompleted(), ref.roundsCompleted());
                ASSERT_EQ(stats.collect().at("t.tree.peMoves"),
                          static_cast<double>(ref.peMoves()))
                    << "tick " << guard;
            }
            EXPECT_TRUE(tree.drained());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, MergeTreeOracle,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u, 128u,
                                           256u));

TEST(Fifo, PushPopOrder)
{
    reference::Fifo<int> f(3);
    EXPECT_TRUE(f.empty());
    f.push(1);
    f.push(2);
    f.push(3);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.pop(), 1);
    f.push(4);
    EXPECT_EQ(f.pop(), 2);
    EXPECT_EQ(f.pop(), 3);
    EXPECT_EQ(f.pop(), 4);
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, OverflowAndUnderflowAreBugs)
{
    reference::Fifo<int> f(1);
    f.push(1);
    EXPECT_THROW(f.push(2), std::runtime_error);
    f.pop();
    EXPECT_THROW(f.pop(), std::runtime_error);
}

TEST(Fifo, WrapsAroundManyTimes)
{
    reference::Fifo<int> f(2);
    for (int i = 0; i < 1000; ++i) {
        f.push(i);
        ASSERT_EQ(f.front(), i);
        ASSERT_EQ(f.pop(), i);
    }
}
