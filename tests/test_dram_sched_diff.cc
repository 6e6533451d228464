/**
 * @file
 * Differential test: the indexed FRFCFS_PriorHit scheduler of
 * dram::MemoryController against the scan oracle of
 * tests/reference_dram_controller.hh.
 *
 * Random traces — mixed read/write ratios, refresh on and off, loads
 * that cross the write-drain hysteresis both ways — are replayed into the
 * oracle and the controller, each ticked densely and under a
 * TickScheduler with idle-cycle skipping, and all four runs must agree:
 * the same ACT/PRE/RD/WR/REF command stream (type, full coordinates,
 * issue cycle), the same response sequence, the same end cycle, and the
 * same counter values. The skipped controller run pins down that the
 * busy-window quiescence protocol is exact, not merely close.
 *
 * Replayed PU traffic: a live PU drives a controller under the usual
 * two-domain TickScheduler, while a spy ticked just before the
 * controller in the DRAM domain records every offer the controller
 * accepted. A fresh queue slot is stamped with its
 * MemRequest::enqueuedAt, the controller cycle it arrived in: a PU can
 * enqueue during a controller cycle the scheduler then skips as
 * quiescent, so the spy's next tick can be later than the arrival. A
 * coalesced merge carries no timestamp of its own and is stamped with
 * the spy's cycle; it only bumps a queued slot's count, and no command
 * issues between the merge and that cycle. The offers are then replayed
 * densely into a fresh controller and into the oracle, and both command
 * streams must equal the live run's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/case_spec.hh"
#include "check/generator.hh"
#include "common/random.hh"
#include "dram/controller.hh"
#include "fuzz_seed.hh"
#include "menda/job.hh"
#include "menda/pu.hh"
#include "reference_dram_controller.hh"
#include "sim/clock.hh"
#include "sparse/generate.hh"

using namespace menda;
using namespace menda::dram;

namespace
{

struct Command
{
    CommandType type;
    DramCoord coord;
    Cycle cycle;

    bool operator==(const Command &other) const = default;
};

std::string
describe(const Command &cmd)
{
    static const char *names[] = {"ACT", "PRE", "RD", "WR", "REF"};
    std::ostringstream out;
    out << names[static_cast<unsigned>(cmd.type)] << " @" << cmd.cycle
        << " r" << cmd.coord.rank << " g" << cmd.coord.bankGroup << " b"
        << cmd.coord.bank << " row" << cmd.coord.row << " col"
        << cmd.coord.columnBlock;
    return out.str();
}

/** Index of the first command where @p a and @p b differ, or -1. */
long
firstDivergence(const std::vector<Command> &a, const std::vector<Command> &b)
{
    const std::size_t common = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < common; ++i)
        if (!(a[i] == b[i]))
            return static_cast<long>(i);
    return a.size() == b.size() ? -1 : static_cast<long>(common);
}

/** Fail with the first diverging command of @p candidate. */
void
expectSameCommands(const std::vector<Command> &want,
                   const std::vector<Command> &candidate,
                   const std::string &label)
{
    const long at = firstDivergence(want, candidate);
    if (at < 0)
        return;
    const auto show = [&](const std::vector<Command> &cmds) {
        return static_cast<std::size_t>(at) < cmds.size()
                   ? describe(cmds[at])
                   : std::string("(end of stream)");
    };
    ADD_FAILURE() << label << ": command " << at << " of " << want.size()
                  << " diverges: want " << show(want) << ", got "
                  << show(candidate) << " (" << candidate.size()
                  << " commands)";
}

// --- random traces --------------------------------------------------------

struct TraceEvent
{
    Cycle cycle; ///< earliest cycle the request may be offered
    mem::MemRequest req;
};

/** One run's complete observable output. */
struct RunLog
{
    std::vector<Command> commands;
    std::vector<std::pair<Cycle, Addr>> responses; ///< (delivery, addr)
    Cycle endCycle = 0;
    std::uint64_t reads = 0, writes = 0, rowMisses = 0, rowConflicts = 0;
    std::uint64_t activates = 0, refreshes = 0, busBusy = 0;
};

/**
 * Random trace generator. Addresses are drawn from a small set of rows
 * and banks so row hits, conflicts, and bank contention all occur;
 * arrival gaps mix back-to-back bursts with idle stretches long enough
 * for the quiescence paths (and refresh epochs) to engage.
 */
std::vector<TraceEvent>
makeTrace(std::uint64_t seed, std::size_t events, unsigned write_pct,
          unsigned max_gap)
{
    Rng rng(seed);
    std::vector<TraceEvent> trace;
    trace.reserve(events);
    Cycle at = 0;
    for (std::size_t i = 0; i < events; ++i) {
        // Bursty arrivals: mostly dense, occasionally a long idle gap.
        if (rng.below(10) == 0)
            at += rng.below(max_gap);
        else
            at += rng.below(3);
        mem::MemRequest req;
        const std::uint64_t bank_sel = rng.below(8);
        const std::uint64_t row_sel = rng.below(6);
        const std::uint64_t col_sel = rng.below(16);
        req.addr = ((row_sel * 97 + bank_sel * 13 + col_sel) * blockBytes) %
                   (1ull << 28);
        req.isWrite = rng.below(100) < write_pct;
        req.requester = 0;
        trace.push_back({at, req});
    }
    return trace;
}

/**
 * Scripted load generator: offers each trace event at its cycle and
 * retries while the controller exerts back-pressure. Its quiescence
 * report is exact (distance to the next offer attempt), so it never
 * perturbs the scheduler's skipping decisions.
 */
template <typename Controller>
class TraceSource : public Ticked
{
  public:
    TraceSource(const std::vector<TraceEvent> &trace, Controller &ctrl)
        : trace_(trace), ctrl_(ctrl)
    {}

    void
    tick() override
    {
        while (next_ < trace_.size() && trace_[next_].cycle <= now_) {
            if (!ctrl_.enqueue(trace_[next_].req))
                break; // queue full: retry the same request next cycle
            ++next_;
        }
        ++now_;
    }

    Cycle
    quiescentFor() const override
    {
        if (next_ >= trace_.size())
            return ~Cycle(0);
        if (trace_[next_].cycle <= now_)
            return 0; // offering (or retrying) this cycle
        return trace_[next_].cycle - now_;
    }

    void skipCycles(Cycle cycles) override { now_ += cycles; }

    bool done() const { return next_ >= trace_.size(); }

  private:
    const std::vector<TraceEvent> &trace_;
    Controller &ctrl_;
    std::size_t next_ = 0;
    Cycle now_ = 0;
};

/** Replay @p trace into @p ctrl, densely or with idle-cycle skipping. */
template <typename Controller>
RunLog
replay(const std::vector<TraceEvent> &trace, Controller &ctrl,
       bool use_scheduler, const std::string &label)
{
    RunLog log;
    ctrl.setCommandCallback(
        [&](CommandType type, const DramCoord &coord, Cycle cycle) {
            log.commands.push_back({type, coord, cycle});
        });
    ctrl.setResponseCallback([&](const mem::MemRequest &resp) {
        log.responses.emplace_back(ctrl.curCycle(), resp.addr);
    });

    TraceSource<Controller> source(trace, ctrl);
    constexpr Cycle kCycleCap = 200'000'000;
    if (use_scheduler) {
        TickScheduler sched;
        ClockDomain *domain = sched.addDomain("dram", 1200);
        domain->attach(&source);
        domain->attach(&ctrl);
        sched.runUntil([&] { return source.done() && ctrl.idle(); },
                       kCycleCap);
    } else {
        while (!source.done() || !ctrl.idle()) {
            source.tick();
            ctrl.tick();
            if (ctrl.curCycle() >= kCycleCap)
                break;
        }
    }
    EXPECT_LT(ctrl.curCycle(), kCycleCap)
        << label << " replay livelocked: source done=" << source.done()
        << " rq=" << ctrl.readQueue().size()
        << " wq=" << ctrl.writeQueue().size()
        << " commands=" << log.commands.size();

    log.endCycle = ctrl.curCycle();
    log.reads = ctrl.readsServed();
    log.writes = ctrl.writesServed();
    log.rowMisses = ctrl.rowMisses();
    log.rowConflicts = ctrl.rowConflicts();
    log.activates = ctrl.activates();
    log.refreshes = ctrl.refreshes();
    log.busBusy = ctrl.busBusyCycles();
    return log;
}

void
expectIdentical(const RunLog &oracle, const RunLog &candidate,
                const std::string &label)
{
    expectSameCommands(oracle.commands, candidate.commands, label);
    EXPECT_EQ(oracle.responses, candidate.responses) << label;
    EXPECT_EQ(oracle.endCycle, candidate.endCycle) << label;
    EXPECT_EQ(oracle.reads, candidate.reads) << label;
    EXPECT_EQ(oracle.writes, candidate.writes) << label;
    EXPECT_EQ(oracle.rowMisses, candidate.rowMisses) << label;
    EXPECT_EQ(oracle.rowConflicts, candidate.rowConflicts) << label;
    EXPECT_EQ(oracle.activates, candidate.activates) << label;
    EXPECT_EQ(oracle.refreshes, candidate.refreshes) << label;
    EXPECT_EQ(oracle.busBusy, candidate.busBusy) << label;
}

void
runDifferential(std::uint64_t seed, std::size_t events,
                unsigned write_pct, unsigned max_gap, bool refresh,
                bool coalesce)
{
    const std::vector<TraceEvent> trace =
        makeTrace(seed, events, write_pct, max_gap);
    DramConfig config = DramConfig::ddr4_2400r(2);
    config.refreshEnabled = refresh;

    std::ostringstream label;
    label << "seed=" << seed << " events=" << events << " wr%="
          << write_pct << " gap=" << max_gap << " refresh=" << refresh
          << " coalesce=" << coalesce;

    reference::MemoryController oracle_dense(config, coalesce);
    const RunLog oracle =
        replay(trace, oracle_dense, false, label.str() + " [oracle dense]");
    const auto expect_same = [&](auto &&ctrl, bool skipping,
                                 const char *run) {
        const std::string name = label.str() + " [" + run + "]";
        expectIdentical(oracle, replay(trace, ctrl, skipping, name), name);
    };
    expect_same(reference::MemoryController(config, coalesce), true,
                "oracle skipped");
    expect_same(MemoryController("diff", config, coalesce), false,
                "controller dense");
    expect_same(MemoryController("diff", config, coalesce), true,
                "controller skipped");
}

/** Seed of trace @p k under the active MENDA_FUZZ_SEED base. */
std::uint64_t
traceSeed(std::uint64_t base, std::uint64_t k)
{
    return base * 1000003 + k;
}

// --- replayed PU traffic --------------------------------------------------

/** One request the live controller accepted, as the replay re-offers it. */
struct Offer
{
    Cycle cycle; ///< offered just before this controller tick
    Addr addr;
    bool isWrite;
    bool merge; ///< coalesces into a queued slot
};

/**
 * Records what a live controller accepted. Attached to the DRAM domain
 * before the controller, it ticks just before every controller tick, so
 * it sees each queue slot before the controller can retire it. It never
 * limits idle skipping: its window is unbounded.
 */
class QueueSpy : public Ticked
{
  public:
    explicit QueueSpy(const MemoryController &ctrl) : ctrl_(ctrl) {}

    void
    tick() override
    {
        scan(ctrl_.readQueue(), read_);
        scan(ctrl_.writeQueue(), write_);
        ++now_;
    }

    Cycle quiescentFor() const override { return ~Cycle(0); }
    void skipCycles(Cycle cycles) override { now_ += cycles; }

    /** Every offer, ordered by cycle (age order within a cycle). */
    std::vector<Offer>
    offers() const
    {
        std::vector<Offer> sorted = offers_;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const Offer &x, const Offer &y) {
                             return x.cycle < y.cycle;
                         });
        return sorted;
    }

    std::uint64_t merges() const { return merges_; }

  private:
    /** Per queue: the next unseen request id and each slot's last view. */
    struct Seen
    {
        std::uint64_t nextId = 0;
        std::vector<std::uint32_t> coalesced; ///< per slot
    };

    void
    scan(const mem::RequestQueue &queue, Seen &seen)
    {
        seen.coalesced.resize(queue.capacity(), 0);
        for (std::uint32_t s = queue.headSlot();
             s != mem::RequestQueue::npos; s = queue.nextSlot(s)) {
            const mem::MemRequest &req = queue.slotAt(s);
            // Ids grow in arrival order, so an id at or past nextId is
            // a slot filled since the last scan.
            if (req.id >= seen.nextId) {
                offers_.push_back(
                    {req.enqueuedAt, req.addr, req.isWrite, false});
                seen.nextId = req.id + 1;
                seen.coalesced[s] = 0;
            }
            for (; seen.coalesced[s] < req.coalesced; ++seen.coalesced[s]) {
                offers_.push_back({now_, req.addr, false, true});
                ++merges_;
            }
        }
    }

    const MemoryController &ctrl_;
    Cycle now_ = 0;
    Seen read_, write_;
    std::vector<Offer> offers_;
    std::uint64_t merges_ = 0;
};

/** A live PU run: its controller's commands and accepted offers. */
struct LiveRun
{
    std::vector<Command> commands;
    std::vector<Offer> offers;
    std::uint64_t merges = 0;
    Cycle endCycle = 0; ///< controller cycles elapsed
    bool finished = false;
};

using PuFactory =
    std::function<std::unique_ptr<core::Pu>(MemoryController *)>;

LiveRun
runLive(const core::SystemConfig &config, const PuFactory &make_pu)
{
    LiveRun live;
    MemoryController mem("mem", config.dram, config.pu.requestCoalescing);
    mem.setCommandCallback(
        [&](CommandType type, const DramCoord &coord, Cycle cycle) {
            live.commands.push_back({type, coord, cycle});
        });
    const std::unique_ptr<core::Pu> pu = make_pu(&mem);
    QueueSpy spy(mem);
    TickScheduler sched;
    sched.addDomain("pu", config.pu.freqMhz)->attach(pu.get());
    ClockDomain *dram = sched.addDomain("dram", config.dram.freqMhz);
    dram->attach(&spy);
    dram->attach(&mem);
    pu->start();
    sched.runUntil([&] { return pu->done(); }, 200'000'000);
    live.finished = pu->done();
    live.offers = spy.offers();
    live.merges = spy.merges();
    live.endCycle = mem.curCycle();
    return live;
}

/** A dense replay's command stream and how many offers went astray. */
struct ReplayRun
{
    std::vector<Command> commands;
    unsigned badOffers = 0; ///< rejected, or fresh/merged the other way
};

template <typename Controller>
ReplayRun
replayOffers(Controller &ctrl, const std::vector<Offer> &offers,
             Cycle end_cycle)
{
    ReplayRun run;
    ctrl.setCommandCallback(
        [&](CommandType type, const DramCoord &coord, Cycle cycle) {
            run.commands.push_back({type, coord, cycle});
        });
    std::size_t next = 0;
    for (Cycle c = 0; c < end_cycle; ++c) {
        for (; next < offers.size() && offers[next].cycle == c; ++next) {
            mem::MemRequest req;
            req.addr = offers[next].addr;
            req.isWrite = offers[next].isWrite;
            const std::uint64_t merged =
                ctrl.readQueue().coalescedHits().value();
            const bool accepted = ctrl.enqueue(req);
            const bool did_merge =
                ctrl.readQueue().coalescedHits().value() != merged;
            run.badOffers += !accepted || did_merge != offers[next].merge;
        }
        ctrl.tick();
    }
    run.badOffers += static_cast<unsigned>(offers.size() - next);
    return run;
}

/** Whether the oracle replay diverged from the live run. */
bool
oracleDiverges(const core::SystemConfig &config, const LiveRun &live,
               bool flip_tie_break)
{
    reference::MemoryController oracle(
        config.dram, config.pu.requestCoalescing, flip_tie_break);
    const ReplayRun run = replayOffers(oracle, live.offers, live.endCycle);
    return run.badOffers != 0 || firstDivergence(live.commands,
                                                 run.commands) >= 0;
}

/**
 * Live run, then the controller and oracle replays; all must agree.
 * Returns the live run's coalesced merges.
 */
std::uint64_t
checkReplay(const core::SystemConfig &config, const PuFactory &make_pu,
            const std::string &label)
{
    const LiveRun live = runLive(config, make_pu);
    EXPECT_TRUE(live.finished) << label << ": live PU run did not finish";
    EXPECT_FALSE(live.commands.empty()) << label;
    if (!live.finished)
        return 0;

    MemoryController fresh("replay", config.dram,
                           config.pu.requestCoalescing);
    const ReplayRun dense =
        replayOffers(fresh, live.offers, live.endCycle);
    EXPECT_EQ(dense.badOffers, 0u) << label << " [controller replay]";
    expectSameCommands(live.commands, dense.commands,
                       label + " [controller replay]");

    reference::MemoryController oracle(config.dram,
                                       config.pu.requestCoalescing);
    const ReplayRun scan = replayOffers(oracle, live.offers, live.endCycle);
    EXPECT_EQ(scan.badOffers, 0u) << label << " [oracle replay]";
    expectSameCommands(live.commands, scan.commands,
                       label + " [oracle replay]");
    return live.merges;
}

/**
 * One PU factory per rank slice of @p kernel's plan over the inputs
 * (each keeps its plan alive; SpMV ones point at @p x).
 */
std::vector<PuFactory>
rankSlices(const core::SystemConfig &config, core::Kernel kernel,
           const sparse::CsrMatrix &a, const sparse::CsrMatrix &b,
           const std::vector<Value> &x)
{
    std::vector<PuFactory> out;
    const core::PuConfig pu = config.pu;
    switch (kernel) {
      case core::Kernel::Transpose: {
        const auto plan = core::planTranspose(a, config);
        for (std::size_t i = 0; i < plan->slices.size(); ++i)
            out.push_back([plan, pu, i](MemoryController *mem) {
                return std::make_unique<core::Pu>(
                    "pu", pu, &plan->csr[i], plan->slices[i].rowBegin, mem);
            });
        break;
      }
      case core::Kernel::Spmv: {
        const auto plan = core::planSpmv(a, config);
        for (std::size_t i = 0; i < plan->slices.size(); ++i)
            out.push_back([plan, pu, i, &x](MemoryController *mem) {
                return std::make_unique<core::Pu>(
                    "pu", pu, &plan->csc[i], &x, plan->slices[i].rowBegin,
                    mem);
            });
        break;
      }
      case core::Kernel::Spgemm: {
        const auto plan = core::planSpgemm(a, b, config);
        for (std::size_t i = 0; i < plan->slices.size(); ++i)
            out.push_back([plan, pu, i](MemoryController *mem) {
                return std::make_unique<core::Pu>(
                    "pu", pu, &plan->csr[i], &plan->b,
                    plan->slices[i].rowBegin, mem);
            });
        break;
      }
    }
    return out;
}

/** Replay every rank slice of a menda_check case. */
void
checkCase(const check::CaseSpec &spec, const std::string &label)
{
    const core::SystemConfig config = spec.systemConfig();
    const sparse::CsrMatrix a = check::buildMatrix(spec.a);
    const sparse::CsrMatrix b = spec.kernel == core::Kernel::Spgemm
                                    ? check::buildMatrix(spec.b)
                                    : sparse::CsrMatrix{};
    const std::vector<Value> x = spec.spmvInput(a.cols);
    const std::vector<PuFactory> pus =
        rankSlices(config, spec.kernel, a, b, x);
    for (std::size_t i = 0; i < pus.size(); ++i)
        checkReplay(config, pus[i],
                    label + " rank " + std::to_string(i) + ": " +
                        spec.oneLine());
}

/**
 * The grid's matrices: uniform or R-MAT, sized so one PU runs for
 * several refresh intervals.
 */
sparse::CsrMatrix
gridMatrix(core::Kernel kernel, bool rmat, std::uint64_t seed)
{
    const bool spgemm = kernel == core::Kernel::Spgemm;
    const Index dim = spgemm ? 128 : 2048;
    const std::uint64_t nnz = spgemm ? 1024 : 16384;
    return rmat ? sparse::generateRmat(dim, nnz, 0.57, 0.19, 0.19, seed)
                : sparse::generateUniform(dim, dim, nnz, seed);
}

class ReplayedPuTraffic : public ::testing::TestWithParam<core::Kernel>
{
};

} // namespace

TEST(SchedDiff, ReadHeavyTraces)
{
    // Mostly reads with coalescing on: exercises the FR pass, the hash
    // CAM, and read-only quiescence windows.
    const std::uint64_t base = testutil::fuzzSeedBase(0);
    SCOPED_TRACE(testutil::reproCommand(base, "test_dram_sched_diff"));
    for (std::uint64_t k : {11ull, 12ull, 13ull})
        runDifferential(traceSeed(base, k), 4000, 10, 400, true, true);
}

TEST(SchedDiff, WriteDrainHysteresis)
{
    // Write-heavy bursts repeatedly cross the high/low watermarks, so
    // scheduling alternates between the read and write queues.
    const std::uint64_t base = testutil::fuzzSeedBase(0);
    SCOPED_TRACE(testutil::reproCommand(base, "test_dram_sched_diff"));
    for (std::uint64_t k : {21ull, 22ull, 23ull})
        runDifferential(traceSeed(base, k), 4000, 70, 200, true, false);
}

TEST(SchedDiff, MixedTrafficRefreshOff)
{
    // No refresh: the scheduler-eligibility horizon alone bounds the
    // quiescence window.
    const std::uint64_t base = testutil::fuzzSeedBase(0);
    SCOPED_TRACE(testutil::reproCommand(base, "test_dram_sched_diff"));
    for (std::uint64_t k : {31ull, 32ull})
        runDifferential(traceSeed(base, k), 3000, 40, 1000, false, true);
}

TEST(SchedDiff, LongIdleGapsCrossRefreshEpochs)
{
    // Gaps longer than tREFI force refreshes to interleave with (and
    // gate) queued traffic, and let idle windows span whole epochs.
    const std::uint64_t base = testutil::fuzzSeedBase(0);
    SCOPED_TRACE(testutil::reproCommand(base, "test_dram_sched_diff"));
    for (std::uint64_t k : {41ull, 42ull})
        runDifferential(traceSeed(base, k), 1500, 30, 12000, true, true);
}

TEST(SchedDiff, QueueSaturationBackpressure)
{
    // Zero-gap arrival floods keep both queues at capacity so the FCFS
    // window (16 of 32 entries) and back-pressure paths stay exercised.
    const std::uint64_t base = testutil::fuzzSeedBase(0);
    SCOPED_TRACE(testutil::reproCommand(base, "test_dram_sched_diff"));
    for (std::uint64_t k : {51ull, 52ull})
        runDifferential(traceSeed(base, k), 6000, 50, 1, true, false);
}

TEST_P(ReplayedPuTraffic, GridMatchesLiveRun)
{
    // One PU over uniform and R-MAT inputs, with read coalescing and
    // refresh each on and off.
    const core::Kernel kernel = GetParam();
    std::uint64_t merges = 0;
    for (bool rmat : {false, true}) {
        const sparse::CsrMatrix a = gridMatrix(kernel, rmat, 7);
        const sparse::CsrMatrix b = gridMatrix(kernel, rmat, 8);
        std::vector<Value> x(a.cols, 1.0f);
        for (bool coalesce : {true, false}) {
            for (bool refresh : {true, false}) {
                core::SystemConfig config;
                config.channels = 1;
                config.dimmsPerChannel = 1;
                config.ranksPerDimm = 1;
                config.pu.requestCoalescing = coalesce;
                config.dram.refreshEnabled = refresh;
                std::ostringstream label;
                label << kernelName(kernel) << (rmat ? " rmat" : " uniform")
                      << " coalesce=" << coalesce << " refresh=" << refresh;
                const std::vector<PuFactory> pus =
                    rankSlices(config, kernel, a, b, x);
                ASSERT_EQ(pus.size(), 1u);
                merges += checkReplay(config, pus[0], label.str());
            }
        }
    }
    // Coalescing must actually happen, or the merge half of the replay
    // protocol goes unchecked.
    EXPECT_GT(merges, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SchedDiff, ReplayedPuTraffic,
    ::testing::Values(core::Kernel::Transpose, core::Kernel::Spmv,
                      core::Kernel::Spgemm),
    [](const ::testing::TestParamInfo<core::Kernel> &info) {
        return std::string(kernelName(info.param));
    });

TEST(SchedDiff, ReplayedCorpusCasesMatchLiveRun)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> paths;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(MENDA_TEST_CORPUS_DIR))
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    ASSERT_GE(paths.size(), 10u);
    for (const fs::path &path : paths)
        checkCase(check::CaseSpec::read(path.string()),
                  path.filename().string());
}

TEST(SchedDiff, ReplayedGeneratedCasesMatchLiveRun)
{
    const std::uint64_t base = testutil::fuzzSeedBase(1);
    SCOPED_TRACE(testutil::reproCommand(base, "test_dram_sched_diff"));
    check::CaseGenerator generator(base, nullptr);
    for (unsigned n = 0; n < 64; ++n)
        checkCase(generator.next(), "generated case " + std::to_string(n));
}

TEST(SchedDiff, FlippedOracleTieBreakIsCaught)
{
    // The replay has teeth: an oracle that serves the youngest ready row
    // hit instead of the oldest must part from every live run.
    for (core::Kernel kernel : core::kKernels) {
        for (bool rmat : {false, true}) {
            const sparse::CsrMatrix a = gridMatrix(kernel, rmat, 7);
            const sparse::CsrMatrix b = gridMatrix(kernel, rmat, 8);
            std::vector<Value> x(a.cols, 1.0f);
            core::SystemConfig config;
            config.channels = 1;
            config.dimmsPerChannel = 1;
            config.ranksPerDimm = 1;
            const LiveRun live =
                runLive(config, rankSlices(config, kernel, a, b, x)[0]);
            ASSERT_TRUE(live.finished);
            EXPECT_FALSE(oracleDiverges(config, live, false))
                << kernelName(kernel) << (rmat ? " rmat" : " uniform");
            EXPECT_TRUE(oracleDiverges(config, live, true))
                << kernelName(kernel) << (rmat ? " rmat" : " uniform");
        }
    }
}
