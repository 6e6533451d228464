/**
 * @file
 * Tests for host-side parallel simulation: the ParallelRunner fork/join
 * primitive and the bit-identity guarantee between sequential
 * (single-scheduler), single-threaded-sharded, and multi-threaded-sharded
 * simulation of a MeNDA system (see DESIGN.md "Host-side parallel
 * simulation").
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "menda/job.hh"
#include "menda/run_report.hh"
#include "menda/system.hh"
#include "obs/trace.hh"
#include "sim/parallel.hh"
#include "sparse/generate.hh"

using namespace menda;
using namespace menda::core;

namespace
{

SystemConfig
smallSystem(unsigned pus, unsigned leaves, unsigned host_threads)
{
    SystemConfig config;
    config.channels = 1;
    config.dimmsPerChannel = 1;
    config.ranksPerDimm = pus;
    config.pu.leaves = leaves;
    config.hostThreads = host_threads;
    return config;
}

/** Every counter a RunResult carries, compared exactly. */
void
expectIdenticalRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.puCycles, b.puCycles);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.readBlocks, b.readBlocks);
    EXPECT_EQ(a.writeBlocks, b.writeBlocks);
    EXPECT_EQ(a.coalescedRequests, b.coalescedRequests);
    EXPECT_EQ(a.rowConflicts, b.rowConflicts);
    EXPECT_EQ(a.activates, b.activates);
    EXPECT_EQ(a.busUtilization, b.busUtilization);
}

/** The raw bytes of @p v, so float outputs compare bitwise. */
template <typename T>
std::string
bytesOf(const std::vector<T> &v)
{
    return std::string(reinterpret_cast<const char *>(v.data()),
                       v.size() * sizeof(T));
}

/** What a finished KernelJob produced: output bytes and report bytes. */
struct JobOutcome
{
    std::string output;
    std::string report;
};

JobOutcome
outcomeOf(KernelJob &job)
{
    JobOutcome out;
    const auto report = [&](const RunResult &result) {
        return makeRunReport("contract", kernelName(job.kind()),
                             job.config(), result, job.nnz(), 0.0)
            .toJson();
    };
    switch (job.kind()) {
      case Kernel::Transpose: {
        const TransposeResult r = job.takeTranspose();
        out.output = bytesOf(r.csc.ptr) + bytesOf(r.csc.idx) +
                     bytesOf(r.csc.val);
        out.report = report(r);
        break;
      }
      case Kernel::Spmv: {
        const SpmvResult r = job.takeSpmv();
        out.output = bytesOf(r.y);
        out.report = report(r);
        break;
      }
      case Kernel::Spgemm: {
        const SpgemmResult r = job.takeSpgemm();
        out.output =
            bytesOf(r.c.ptr) + bytesOf(r.c.idx) + bytesOf(r.c.val);
        out.report = report(r);
        break;
      }
    }
    return out;
}

} // namespace

TEST(ParallelRunner, RunsEveryJobExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 7u}) {
        ParallelRunner pool(threads);
        std::vector<std::atomic<unsigned>> hits(103);
        pool.run(hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1u) << "job " << i;
        EXPECT_EQ(pool.jobsExecuted(), hits.size());
    }
}

TEST(ParallelRunner, ZeroThreadsResolvesToHardwareConcurrency)
{
    ParallelRunner pool(0);
    EXPECT_GE(pool.threads(), 1u);
}

TEST(ParallelRunner, MoreThreadsThanJobsIsFine)
{
    ParallelRunner pool(16);
    std::atomic<unsigned> total{0};
    pool.run(3, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 3u);
}

TEST(ParallelRunner, RethrowsWorkerException)
{
    ParallelRunner pool(4);
    std::atomic<unsigned> completed{0};
    EXPECT_THROW(pool.run(32,
                          [&](std::size_t i) {
                              if (i == 17)
                                  throw std::runtime_error("shard 17");
                              completed.fetch_add(1);
                          }),
                 std::runtime_error);
    EXPECT_EQ(completed.load(), 31u) << "other jobs still complete";
}

TEST(ParallelRunner, ShardRngIsThreadAssignmentIndependent)
{
    // The per-shard RNG stream depends only on (seed, shard), so draws
    // collected under any thread count are identical.
    auto draws = [](unsigned threads) {
        ParallelRunner pool(threads);
        std::vector<std::uint64_t> out(64);
        pool.run(out.size(), [&](std::size_t i) {
            Rng rng = shardRng(12345, i);
            out[i] = rng.next() ^ rng.below(1000);
        });
        return out;
    };
    EXPECT_EQ(draws(1), draws(8));
}

TEST(ParallelSim, TransposeBitIdenticalAcrossModes)
{
    // The core guarantee: sequential single-scheduler (threads=1),
    // sharded on one pool thread, and sharded on four threads produce
    // identical outputs, counters, and simulated timing.
    sparse::CsrMatrix a = sparse::generateRmat(1024, 12000, 0.1, 0.2,
                                               0.3, 71);
    MendaSystem sequential(smallSystem(4, 32, 1));
    MendaSystem parallel4(smallSystem(4, 32, 4));
    TransposeResult r_seq = sequential.transpose(a);
    TransposeResult r_par = parallel4.transpose(a);

    expectIdenticalRun(r_seq, r_par);
    EXPECT_EQ(r_seq.csc.ptr, r_par.csc.ptr);
    EXPECT_EQ(r_seq.csc.idx, r_par.csc.idx);
    EXPECT_EQ(r_seq.csc.val, r_par.csc.val);
    EXPECT_EQ(r_seq.csc, sparse::transposeReference(a));

    // Per-PU iteration stats must match shard for shard as well.
    ASSERT_EQ(sequential.lastIterationStats().size(),
              parallel4.lastIterationStats().size());
    for (std::size_t p = 0; p < sequential.lastIterationStats().size();
         ++p) {
        const auto &seq_st = sequential.lastIterationStats()[p];
        const auto &par_st = parallel4.lastIterationStats()[p];
        ASSERT_EQ(seq_st.size(), par_st.size()) << "pu " << p;
        for (std::size_t it = 0; it < seq_st.size(); ++it) {
            EXPECT_EQ(seq_st[it].cycles, par_st[it].cycles);
            EXPECT_EQ(seq_st[it].readBlocks, par_st[it].readBlocks);
            EXPECT_EQ(seq_st[it].writeBlocks, par_st[it].writeBlocks);
            EXPECT_EQ(seq_st[it].coalescedRequests,
                      par_st[it].coalescedRequests);
        }
    }
}

TEST(ParallelSim, SpmvBitIdenticalAcrossModes)
{
    sparse::CsrMatrix a = sparse::generateRmat(512, 7000, 0.1, 0.2, 0.3,
                                               73);
    std::vector<Value> x(a.cols);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<Value>((i % 17) - 8) / 4.0f;

    MendaSystem sequential(smallSystem(4, 16, 1));
    MendaSystem parallel4(smallSystem(4, 16, 4));
    SpmvResult r_seq = sequential.spmv(a, x);
    SpmvResult r_par = parallel4.spmv(a, x);

    expectIdenticalRun(r_seq, r_par);
    ASSERT_EQ(r_seq.y.size(), r_par.y.size());
    for (std::size_t r = 0; r < r_seq.y.size(); ++r)
        EXPECT_EQ(r_seq.y[r], r_par.y[r]) << "row " << r;
}

TEST(ParallelSim, RepeatedParallelRunsAreDeterministic)
{
    // Thread scheduling must not leak into results: two parallel runs of
    // the same input are bit-identical to each other.
    sparse::CsrMatrix a = sparse::generateUniform(2048, 2048, 30000, 75);
    SystemConfig config = smallSystem(8, 32, 4);
    MendaSystem first(config), second(config);
    TransposeResult r1 = first.transpose(a);
    TransposeResult r2 = second.transpose(a);
    expectIdenticalRun(r1, r2);
    EXPECT_EQ(r1.csc, r2.csc);
}

TEST(ParallelSim, TraceBytesIdenticalAcrossThreadCounts)
{
    // Every rank simulates on its own shard, so the serialized trace
    // must be byte-for-byte identical no matter how many host threads
    // run the shards.
    sparse::CsrMatrix a = sparse::generateRmat(512, 6000, 0.1, 0.2, 0.3,
                                               81);
    auto traceOf = [&](unsigned threads) {
        MendaSystem sys(smallSystem(4, 16, threads));
        obs::Tracer tracer(std::size_t{1} << 18);
        sys.setTracer(&tracer);
        sys.transpose(a);
        EXPECT_EQ(tracer.droppedEvents(), 0u);
        EXPECT_GT(tracer.eventCount(), 0u);
        std::ostringstream os;
        tracer.writeChromeTrace(os);
        return os.str();
    };
    const std::string one = traceOf(1);
    EXPECT_EQ(one, traceOf(2));
    EXPECT_EQ(one, traceOf(4));
}

TEST(ParallelSim, ReportBytesIdenticalAcrossThreadCounts)
{
    // Same guarantee for the run report, including the sampled series
    // and merged histograms (wall metrics excluded: built with
    // wall_seconds = 0 here).
    sparse::CsrMatrix a = sparse::generateUniform(1024, 1024, 15000, 83);
    auto reportOf = [&](unsigned threads) {
        SystemConfig config = smallSystem(4, 32, threads);
        config.samplePeriod = 256;
        MendaSystem sys(config);
        TransposeResult result = sys.transpose(a);
        EXPECT_FALSE(result.treeOccupancy.values().empty());
        EXPECT_FALSE(result.readQueueDepth.values().empty());
        return core::makeRunReport("identity", "transpose", config,
                                   result, a.nnz())
            .toJson();
    };
    const std::string one = reportOf(1);
    EXPECT_EQ(one, reportOf(3));
}

TEST(ParallelSim, ObservedSequentialMatchesUnobservedCounters)
{
    // Attaching a tracer must not change any simulated outcome
    // relative to a plain run.
    sparse::CsrMatrix a = sparse::generateRmat(512, 6000, 0.1, 0.2, 0.3,
                                               85);
    MendaSystem plain(smallSystem(4, 16, 1));
    TransposeResult r_plain = plain.transpose(a);

    MendaSystem observed(smallSystem(4, 16, 1));
    obs::Tracer tracer(std::size_t{1} << 18);
    observed.setTracer(&tracer);
    TransposeResult r_obs = observed.transpose(a);

    expectIdenticalRun(r_plain, r_obs);
    EXPECT_EQ(r_plain.csc, r_obs.csc);
}

TEST(ParallelSim, AutoThreadCountWorks)
{
    // hostThreads = 0 resolves to the hardware concurrency.
    sparse::CsrMatrix a = sparse::generateUniform(512, 512, 6000, 77);
    MendaSystem sequential(smallSystem(2, 16, 1));
    MendaSystem automatic(smallSystem(2, 16, 0));
    TransposeResult r_seq = sequential.transpose(a);
    TransposeResult r_auto = automatic.transpose(a);
    expectIdenticalRun(r_seq, r_auto);
    EXPECT_EQ(r_seq.csc, r_auto.csc);
}

TEST(KernelJobContract, SteppedMatchesBatchInEveryTier)
{
    // The KernelJob contract every caller relies on: a job stepped in
    // small slices, on any host thread count, ends with the same output
    // and run-report bytes as a batch run; step() reports completion
    // exactly once; and a fast-tier job holds its machine for exactly
    // the slices that cover its estimated puCycles.
    constexpr Cycle kSlice = 97;
    const sparse::CsrMatrix a =
        sparse::generateRmat(256, 2500, 0.1, 0.2, 0.3, 91);
    const sparse::CsrMatrix b =
        sparse::generateRmat(256, 800, 0.1, 0.2, 0.3, 93);
    std::vector<Value> x(a.cols);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<Value>((i % 13) - 6) / 8.0f;

    for (const SimMode mode :
         {SimMode::Detailed, SimMode::Functional, SimMode::Sampled}) {
        for (const Kernel kernel : kKernels) {
            SCOPED_TRACE(std::string(simModeName(mode)) + " " +
                         kernelName(kernel));
            const auto makeJob = [&](unsigned threads) {
                SystemConfig config = smallSystem(4, 16, threads);
                config.simMode = mode;
                config.sampled.windowCycles = 512;
                config.sampled.periodCycles = 4096;
                config.sampled.warmupCycles = 128;
                KernelPlan plan;
                switch (kernel) {
                  case Kernel::Transpose:
                    plan = planTranspose(a, config);
                    break;
                  case Kernel::Spmv:
                    plan = planSpmv(a, config);
                    break;
                  case Kernel::Spgemm:
                    plan = planSpgemm(a, b, config);
                    break;
                }
                return std::make_unique<KernelJob>(
                    config, plan,
                    kernel == Kernel::Spmv ? x : std::vector<Value>{});
            };

            const std::unique_ptr<KernelJob> batch = makeJob(1);
            batch->runToCompletion();
            ASSERT_TRUE(batch->done());
            const Cycle pu_cycles = batch->puCycles();
            const JobOutcome expected = outcomeOf(*batch);

            for (const unsigned threads : {1u, 3u}) {
                SCOPED_TRACE("threads " + std::to_string(threads));
                const std::unique_ptr<KernelJob> job = makeJob(threads);
                EXPECT_FALSE(job->step(0)) << "a zero slice is a no-op";
                unsigned steps = 0, finishes = 0;
                while (!job->done()) {
                    const bool finished = job->step(kSlice);
                    ++steps;
                    EXPECT_EQ(finished, job->done()) << "step " << steps;
                    finishes += finished;
                    ASSERT_LT(steps, 1u << 20) << "job never finished";
                }
                EXPECT_FALSE(job->step(kSlice)) << "done jobs stay done";
                EXPECT_EQ(finishes, 1u);
                EXPECT_EQ(job->puCycles(), pu_cycles);
                if (mode != SimMode::Detailed) {
                    const Cycle slices = (pu_cycles + kSlice - 1) / kSlice;
                    EXPECT_EQ(steps, std::max<Cycle>(1, slices));
                }

                const JobOutcome got = outcomeOf(*job);
                EXPECT_TRUE(got.output == expected.output)
                    << "stepped output differs from the batch run";
                EXPECT_EQ(got.report, expected.report);
            }
        }
    }
}
