#include "spgemm/plan.hh"

#include <algorithm>
#include <set>

#include "common/log.hh"
#include "spgemm/partial_products.hh"

namespace menda::spgemm
{

WorkProfile
profileWork(const sparse::CsrMatrix &a, const sparse::CsrMatrix &b)
{
    menda_assert(a.cols == b.rows,
                 "profileWork: inner dimensions must agree");
    WorkProfile profile;
    profile.prefix.resize(static_cast<std::size_t>(a.rows) + 1, 0);
    profile.streamElements.reserve(a.nnz());
    for (Index r = 0; r < a.rows; ++r) {
        std::uint64_t row_work = 0;
        for (std::uint64_t e = a.ptr[r]; e < a.ptr[r + 1]; ++e) {
            const Index k = a.idx[e];
            const std::uint64_t stream_nnz = b.ptr[k + 1] - b.ptr[k];
            profile.streamElements.push_back(stream_nnz);
            row_work += stream_nnz;
        }
        profile.prefix[r + 1] = profile.prefix[r] + row_work;
    }
    return profile;
}

std::uint64_t
partialProductCount(const sparse::CsrMatrix &a, const sparse::CsrMatrix &b)
{
    return profileWork(a, b).total();
}

std::vector<sparse::RowSlice>
partitionByMergeWork(const sparse::CsrMatrix &a, const sparse::CsrMatrix &b,
                     unsigned parts)
{
    const WorkProfile profile = profileWork(a, b);
    std::vector<sparse::RowSlice> slices =
        sparse::partitionByWeight(profile.prefix, parts);
    // partitionByWeight leaves the weight prefix in nnzBegin/nnzEnd;
    // rebuild them from A's row pointers so extractSlice works.
    for (sparse::RowSlice &slice : slices) {
        slice.nnzBegin = a.ptr[slice.rowBegin];
        slice.nnzEnd = a.ptr[slice.rowEnd];
    }
    return slices;
}

std::vector<CondensedLeaf>
condenseStreams(const std::vector<PartialProductStream> &streams,
                unsigned cap)
{
    if (cap == 0)
        cap = 1;
    std::vector<CondensedLeaf> leaves;
    std::uint64_t s = 0;
    while (s < streams.size()) {
        CondensedLeaf leaf;
        leaf.firstStream = s;
        leaf.streamCount = 1;
        leaf.elements = streams[s].elements();
        // Extend while output rows strictly increase: all keys of
        // stream t-1 then precede all keys of stream t, so plain
        // concatenation is already the stable merge of the pack.
        // Streams of one multi-NNZ A row share an output row and
        // therefore never pack.
        std::uint64_t t = s + 1;
        while (t < streams.size() && leaf.streamCount < cap &&
               streams[t].outRow > streams[t - 1].outRow) {
            leaf.elements += streams[t].elements();
            ++leaf.streamCount;
            ++t;
        }
        leaves.push_back(leaf);
        s = t;
    }
    return leaves;
}

MergeTreePlan
planMergeTree(const std::vector<std::uint64_t> &leaf_sizes, unsigned leaves,
              bool defer)
{
    menda_assert(leaves >= 2, "planMergeTree: tree needs >= 2 leaves");
    MergeTreePlan plan;
    plan.leaves = leaves;
    const std::uint64_t l = leaves;

    // Iteration count of the no-deferral plan from the same leaf
    // count: repeated ceil-division by l. Deferral below never adds an
    // iteration, so the deferring plan matches this depth exactly.
    unsigned total_iters = 1;
    for (std::uint64_t n = leaf_sizes.size(); n > l; n = (n + l - 1) / l)
        ++total_iters;

    struct Item
    {
        StreamRef ref;
        std::uint64_t size = 0;
    };
    std::vector<Item> items;
    items.reserve(leaf_sizes.size());
    for (std::uint32_t i = 0; i < leaf_sizes.size(); ++i)
        items.push_back({{StreamRef::Kind::Leaf, i}, leaf_sizes[i]});

    const auto ceil_div = [l](std::uint64_t x) { return (x + l - 1) / l; };

    for (unsigned t = 0;; ++t) {
        const std::uint64_t m = items.size();
        if (m <= l) {
            // Final iteration: everything left fits one round.
            MergeIteration iter;
            if (m > 0) {
                MergeRound round;
                for (const Item &item : items)
                    round.inputs.push_back(item.ref);
                iter.rounds.push_back(std::move(round));
            }
            plan.iterations.push_back(std::move(iter));
            break;
        }
        menda_assert(t + 1 < total_iters, "planMergeTree: depth overrun");

        // Largest next-iteration item count that still finishes on
        // schedule: min(m, l^(total_iters - t - 1)), saturated at m.
        // Minimality of total_iters guarantees target < m, so every
        // iteration consumes at least one item.
        std::uint64_t target = 1;
        for (unsigned e = t + 1; e < total_iters && target < m; ++e)
            target = (target > m / l) ? m : target * l;
        target = std::min<std::uint64_t>(target, m);

        // Start from consume-everything — ceil(m / l) sequential
        // windows — then defer the largest leaves one by one while the
        // resulting item count stays within target. Deferring position
        // i splits its window segment in two; the count delta is
        // 1 (the kept leaf) plus the window-count change of the split.
        // Runs are never deferred: the ping-pong buffer they live in
        // is overwritten by the very next iteration's spills.
        std::uint64_t next = ceil_div(m);
        menda_assert(next <= target, "planMergeTree: target unreachable");

        std::set<std::int64_t> deferred;
        deferred.insert(-1);
        deferred.insert(static_cast<std::int64_t>(m));

        std::vector<std::uint64_t> cands;
        for (std::uint64_t i = 0; defer && i < m; ++i)
            if (items[i].ref.kind == StreamRef::Kind::Leaf)
                cands.push_back(i);
        std::stable_sort(cands.begin(), cands.end(),
                         [&](std::uint64_t a, std::uint64_t b) {
                             return items[a].size > items[b].size;
                         });

        for (const std::uint64_t i : cands) {
            const auto right_it =
                deferred.upper_bound(static_cast<std::int64_t>(i));
            const std::int64_t right = *right_it;
            const std::int64_t left = *std::prev(right_it);
            const std::uint64_t g = right - left - 1;
            const std::uint64_t g1 = i - left - 1;
            const std::uint64_t g2 = right - i - 1;
            const std::int64_t dwindows =
                static_cast<std::int64_t>(ceil_div(g1) + ceil_div(g2)) -
                static_cast<std::int64_t>(ceil_div(g));
            const std::int64_t dnext = 1 + dwindows;
            if (static_cast<std::int64_t>(next) + dnext <=
                static_cast<std::int64_t>(target)) {
                deferred.insert(static_cast<std::int64_t>(i));
                next += dnext;
            }
        }

        // Materialize the rounds: walk in ordinal order, chunk every
        // maximal consumed group into <= l contiguous windows. Each
        // window's run re-enters the sequence at the group's position,
        // so ordinal-range order is preserved end to end.
        MergeIteration iter;
        std::vector<Item> next_items;
        next_items.reserve(next);
        std::uint64_t i = 0;
        while (i < m) {
            if (deferred.count(static_cast<std::int64_t>(i))) {
                next_items.push_back(items[i]);
                ++i;
                continue;
            }
            std::uint64_t j = i;
            while (j < m && !deferred.count(static_cast<std::int64_t>(j)))
                ++j;
            for (std::uint64_t c = i; c < j; c += l) {
                const std::uint64_t e = std::min(j, c + l);
                MergeRound round;
                std::uint64_t mass = 0;
                for (std::uint64_t k = c; k < e; ++k) {
                    round.inputs.push_back(items[k].ref);
                    mass += items[k].size;
                }
                plan.spilledElements += mass;
                const auto round_ord =
                    static_cast<std::uint32_t>(iter.rounds.size());
                iter.rounds.push_back(std::move(round));
                next_items.push_back(
                    {{StreamRef::Kind::Run, round_ord}, mass});
            }
            i = j;
        }
        menda_assert(next_items.size() == next,
                     "planMergeTree: round accounting drifted");
        plan.iterations.push_back(std::move(iter));
        items = std::move(next_items);
    }
    return plan;
}

} // namespace menda::spgemm
