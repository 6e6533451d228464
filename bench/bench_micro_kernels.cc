/**
 * @file
 * Google-benchmark microbenchmarks of the core kernels: merge-tree
 * throughput, golden transposition, the CPU baselines, DRAM streaming,
 * and a full small PU transposition. These track the *simulator's* host
 * performance, guarding against regressions that would make the figure
 * harnesses impractically slow.
 */

#include <benchmark/benchmark.h>

#include "baselines/merge_trans.hh"
#include "baselines/scan_trans.hh"
#include "common/random.hh"
#include "dram/controller.hh"
#include "menda/merge_tree.hh"
#include "menda/system.hh"
#include "sparse/generate.hh"

using namespace menda;

namespace
{

void
BM_MergeTreeThroughput(benchmark::State &state)
{
    core::PuConfig config;
    config.leaves = static_cast<unsigned>(state.range(0));
    std::uint64_t pops = 0;
    for (auto _ : state) {
        core::MergeTree tree(config, core::MergeKey::Column);
        const unsigned slots = tree.streamSlots();
        std::vector<unsigned> sent(slots, 0);
        const unsigned per_stream = 256;
        while (tree.roundsCompleted() == 0) {
            for (unsigned s = 0; s < slots; ++s) {
                if (sent[s] < per_stream && tree.canPush(s)) {
                    tree.push(s, core::Packet::data(
                                     s, sent[s] * slots + s, 1.0f,
                                     sent[s] + 1 == per_stream));
                    ++sent[s];
                }
            }
            if (tree.canPop()) {
                tree.pop();
                ++pops;
            }
            tree.tick();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(pops));
}
BENCHMARK(BM_MergeTreeThroughput)->Arg(16)->Arg(64)->Arg(256);

void
BM_GoldenTranspose(benchmark::State &state)
{
    sparse::CsrMatrix a = sparse::generateUniform(
        4096, 4096, static_cast<std::uint64_t>(state.range(0)), 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sparse::transposeReference(a));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_GoldenTranspose)->Arg(50000)->Arg(200000);

void
BM_ScanTransNative(benchmark::State &state)
{
    sparse::CsrMatrix a = sparse::generateUniform(8192, 8192, 100000, 2);
    const unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(baselines::scanTrans(a, threads));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_ScanTransNative)->Arg(1)->Arg(4);

void
BM_MergeTransNative(benchmark::State &state)
{
    sparse::CsrMatrix a = sparse::generateUniform(8192, 8192, 100000, 3);
    const unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(baselines::mergeTrans(a, threads));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_MergeTransNative)->Arg(1)->Arg(4);

void
BM_DramStreamingReads(benchmark::State &state)
{
    for (auto _ : state) {
        dram::DramConfig config = dram::DramConfig::ddr4_2400r(1);
        config.refreshEnabled = false;
        dram::MemoryController ctrl("mem", config, false);
        std::uint64_t served = 0;
        ctrl.setResponseCallback(
            [&](const mem::MemRequest &) { ++served; });
        Addr next = 0;
        std::uint64_t sent = 0;
        while (served < 4096) {
            if (sent < 4096) {
                mem::MemRequest req;
                req.addr = next;
                if (ctrl.enqueue(req)) {
                    next += 64;
                    ++sent;
                }
            }
            ctrl.tick();
        }
        benchmark::DoNotOptimize(served);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DramStreamingReads);

/**
 * Scheduler stress: both 32-entry queues held at capacity with a
 * read/write mix spread over 8 banks and 16 rows per bank, so nearly
 * every request row-conflicts and banks spend most cycles timing-blocked
 * in tRP/tRCD/tRC turnarounds — the regime where a scan scheduler would
 * rescan every queue entry each cycle while the indexed one consults
 * only banks whose eligibility key has arrived. Items processed =
 * simulated DRAM cycles, so the reported items/s is host-side
 * simulated-cycles-per-second.
 */
void
BM_DramSchedulerIndexed(benchmark::State &state)
{
    const dram::DramConfig config = dram::DramConfig::ddr4_2400r(1);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        dram::MemoryController ctrl("sched", config, false);
        Rng rng(99);
        const std::uint64_t total = 20000;
        std::uint64_t sent = 0;
        mem::MemRequest req;
        bool pending = false;
        while (ctrl.readsServed() + ctrl.writesServed() < total) {
            if (sent < total) {
                if (!pending) {
                    // Compose block addresses directly against the
                    // decoder's bit layout (offset | group | column |
                    // bank | row): 8 banks x 16 rows with random
                    // columns keeps every queue snapshot full of row
                    // conflicts and bank contention.
                    const std::uint64_t bank_sel = rng.below(8);
                    const std::uint64_t row_sel = rng.below(16);
                    const std::uint64_t col_sel = rng.below(128);
                    req.addr = ((row_sel << 11) | (bank_sel >> 2 << 9) |
                                (col_sel << 2) | (bank_sel & 3)) *
                               blockBytes;
                    req.isWrite = rng.below(100) < 30;
                    pending = true;
                }
                // Offering into a full queue is a guaranteed reject, so
                // skip the attempt: the accept cycles (and thus the
                // simulated schedule) are unchanged, and the benchmark
                // measures the scheduler instead of the reject path.
                const std::size_t depth = req.isWrite
                                              ? ctrl.writeQueue().size()
                                              : ctrl.readQueue().size();
                const std::size_t cap = req.isWrite
                                            ? config.writeQueueEntries
                                            : config.readQueueEntries;
                if (depth < cap && ctrl.enqueue(req)) {
                    pending = false;
                    ++sent;
                }
            }
            ctrl.tick();
        }
        cycles += ctrl.curCycle();
        benchmark::DoNotOptimize(ctrl.curCycle());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_DramSchedulerIndexed);

void
BM_PuTranspose(benchmark::State &state)
{
    sparse::CsrMatrix a = sparse::generateUniform(
        2048, 2048, static_cast<std::uint64_t>(state.range(0)), 4);
    core::SystemConfig config;
    config.channels = 1;
    config.dimmsPerChannel = 1;
    config.ranksPerDimm = 1;
    config.pu.leaves = 64;
    for (auto _ : state) {
        core::MendaSystem sys(config);
        benchmark::DoNotOptimize(sys.transpose(a).seconds);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_PuTranspose)->Arg(20000)->Arg(60000);

} // namespace

BENCHMARK_MAIN();
