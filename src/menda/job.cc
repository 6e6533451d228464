#include "menda/job.hh"

#include <algorithm>
#include <cstdio>

#include "common/log.hh"
#include "sim/parallel.hh"
#include "spgemm/plan.hh"

namespace menda::core
{

namespace
{

/** One --progress heartbeat line on stderr (never stdout: that may be
 *  carrying the machine-readable run report). */
void
emitProgress(std::size_t shard, Cycle cycles,
             std::chrono::steady_clock::time_point wall_start,
             std::uint64_t outstanding, const char *mode = "detailed",
             Cycle fast_forwarded = 0)
{
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    const double rate = secs > 0.0 ? cycles / secs / 1e6 : 0.0;
    std::fprintf(stderr,
                 "[menda] shard %zu [%s]: %.0f Mcycles "
                 "(%.0f fast-forwarded), %.1f Msim-cycles/s, "
                 "%llu outstanding requests\n",
                 shard, mode, static_cast<double>(cycles) / 1e6,
                 static_cast<double>(fast_forwarded) / 1e6, rate,
                 static_cast<unsigned long long>(outstanding));
}

std::uint64_t
csrBytes(const sparse::CsrMatrix &m)
{
    return (m.ptr.size() + m.idx.size() + m.val.size()) * 4;
}

std::uint64_t
cscBytes(const sparse::CscMatrix &m)
{
    return (m.ptr.size() + m.idx.size() + m.val.size()) * 4;
}

/** The concrete plan a job holds (the caller checked the kernel). */
template <typename Plan>
const Plan &
planOf(const KernelPlan &plan)
{
    return *std::get<std::shared_ptr<const Plan>>(plan);
}

/** Rank @p i's PU over its slice of @p plan; one overload per kernel. */
std::unique_ptr<Pu>
makePu(const std::string &name, const PuConfig &config,
       const TransposePlan &plan, const std::vector<Value> &, std::size_t i,
       dram::MemoryController *mem)
{
    return std::make_unique<Pu>(name, config, &plan.csr[i],
                                plan.slices[i].rowBegin, mem);
}

std::unique_ptr<Pu>
makePu(const std::string &name, const PuConfig &config,
       const SpmvPlan &plan, const std::vector<Value> &x, std::size_t i,
       dram::MemoryController *mem)
{
    return std::make_unique<Pu>(name, config, &plan.csc[i], &x,
                                plan.slices[i].rowBegin, mem);
}

std::unique_ptr<Pu>
makePu(const std::string &name, const PuConfig &config,
       const SpgemmPlan &plan, const std::vector<Value> &, std::size_t i,
       dram::MemoryController *mem)
{
    return std::make_unique<Pu>(name, config, &plan.csr[i], &plan.b,
                                plan.slices[i].rowBegin, mem);
}

} // namespace

std::uint64_t
TransposePlan::residentBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &slice : csr)
        bytes += csrBytes(slice);
    return bytes;
}

std::uint64_t
SpmvPlan::residentBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &slice : csc)
        bytes += cscBytes(slice);
    return bytes;
}

std::uint64_t
SpgemmPlan::residentBytes() const
{
    std::uint64_t bytes = csrBytes(b) * slices.size(); // replicated
    for (const auto &slice : csr)
        bytes += csrBytes(slice);
    return bytes;
}

std::shared_ptr<const TransposePlan>
planTranspose(const sparse::CsrMatrix &a, const SystemConfig &config)
{
    auto plan = std::make_shared<TransposePlan>();
    const unsigned n_pus = config.totalPus();
    plan->rows = a.rows;
    plan->cols = a.cols;
    plan->nnz = a.nnz();
    plan->slices = config.rowPartitioning
                       ? sparse::partitionByRows(a, n_pus)
                       : sparse::partitionByNnz(a, n_pus);
    plan->csr.reserve(n_pus);
    for (const auto &slice : plan->slices)
        plan->csr.push_back(sparse::extractSlice(a, slice));
    return plan;
}

std::shared_ptr<const SpmvPlan>
planSpmv(const sparse::CsrMatrix &a, const SystemConfig &config)
{
    auto plan = std::make_shared<SpmvPlan>();
    const unsigned n_pus = config.totalPus();
    plan->rows = a.rows;
    plan->cols = a.cols;
    plan->nnz = a.nnz();
    // The input is stored in the partitioned CSC format that matches the
    // output of MeNDA transposition (Sec. 3.6).
    plan->slices = sparse::partitionByNnz(a, n_pus);
    plan->csc.reserve(n_pus);
    for (const auto &slice : plan->slices)
        plan->csc.push_back(
            sparse::transposeReference(sparse::extractSlice(a, slice)));
    return plan;
}

std::shared_ptr<const SpgemmPlan>
planSpgemm(const sparse::CsrMatrix &a, const sparse::CsrMatrix &b,
           const SystemConfig &config)
{
    menda_assert(a.cols == b.rows, "spgemm: inner dimension mismatch");
    auto plan = std::make_shared<SpgemmPlan>();
    const unsigned n_pus = config.totalPus();
    plan->rows = a.rows;
    plan->cols = b.cols;
    plan->nnz = a.nnz() + b.nnz();
    // Balance the *merge work* (partial products), not A's NNZ: PU
    // execution time tracks the elements its tree merges (Sec. 3.5
    // balancing on the SpGEMM work profile).
    plan->slices = config.rowPartitioning
                       ? sparse::partitionByRows(a, n_pus)
                       : spgemm::partitionByMergeWork(a, b, n_pus);
    plan->partialProducts = spgemm::partialProductCount(a, b);
    plan->csr.reserve(n_pus);
    for (const auto &slice : plan->slices)
        plan->csr.push_back(sparse::extractSlice(a, slice));
    plan->b = b; // replicated into every rank (PUs never communicate)
    return plan;
}

KernelJob::KernelJob(const SystemConfig &config, KernelPlan plan,
                     std::vector<Value> x, obs::Tracer *tracer)
    : config_(config), plan_(std::move(plan)), x_(std::move(x))
{
    const unsigned n_pus = config_.totalPus();
    const std::size_t have = std::visit(
        [](const auto &p) { return p->slices.size(); }, plan_);
    menda_assert(have == n_pus,
                 "kernel plan was built for a different rank count");

    // One rank per PU (Sec. 3.5: PUs never communicate during a pass).
    // A detailed rank's (PU, controller) pair owns a private scheduler;
    // fast tiers have no per-cycle events: no scheduler, no tracer.
    // Ranks share nothing mutable — const plan slices in, per-rank
    // components and counters out — and a rank's tick schedule does not
    // depend on the host thread count or on where step() pauses, which
    // is what makes outputs, counters, traces, and reports
    // byte-identical however the job is sliced or threaded.
    const bool detailed = config_.simMode == SimMode::Detailed;
    if (detailed && tracer)
        tracer->ensureShards(n_pus);
    wallStart_ = std::chrono::steady_clock::now();
    ranks_.reserve(n_pus);
    for (unsigned i = 0; i < n_pus; ++i) {
        Rank &rank = ranks_.emplace_back();
        rank.mem = std::make_unique<dram::MemoryController>(
            "mem" + std::to_string(i), config_.dram,
            config_.pu.requestCoalescing);
        rank.mem->setSamplePeriod(config_.samplePeriod);
        rank.pu = std::visit(
            [&](const auto &p) {
                return makePu("pu" + std::to_string(i), config_.pu, *p, x_,
                              i, rank.mem.get());
            },
            plan_);
        rank.pu->setSamplePeriod(config_.samplePeriod);
        rank.nextMark = config_.progressEveryCycles;
        if (!detailed)
            continue;
        if (tracer) {
            // Trace shard i is written only by rank i's thread;
            // registration order (controller, PU, then the scheduler's
            // idle-skip tracks at finalize) is fixed, so the trace is
            // deterministic.
            obs::TraceShard *ts = tracer->shard(i);
            rank.sched.setTrace(ts);
            rank.mem->attachTrace(ts);
            rank.pu->attachTrace(ts);
        }
        ClockDomain *pu_clk = rank.sched.addDomain("pu", config_.pu.freqMhz);
        ClockDomain *mem_clk =
            rank.sched.addDomain("dram", config_.dram.freqMhz);
        mem_clk->attach(rank.mem.get());
        pu_clk->attach(rank.pu.get());
        rank.pu->start();
    }
}

KernelJob::~KernelJob() = default;

bool
KernelJob::done() const
{
    return std::all_of(ranks_.begin(), ranks_.end(),
                       [](const Rank &rank) { return rank.finished; });
}

void
KernelJob::advance(std::size_t i, Cycle n)
{
    Rank &rank = ranks_[i];
    if (rank.finished)
        return;
    Pu &pu = *rank.pu;
    const Cycle progress_every = config_.progressEveryCycles;

    if (config_.simMode == SimMode::Detailed) {
        // Saturates, so runToCompletion()'s ~0 slice never wraps.
        const Cycle target = pu.cycles() + std::min(n, ~pu.cycles());
        rank.sched.runUntil([&] {
            if (progress_every != 0 && pu.cycles() >= rank.nextMark) {
                emitProgress(i, pu.cycles(), wallStart_,
                             rank.mem->readQueue().size() +
                                 rank.mem->writeQueue().size());
                rank.nextMark += progress_every;
            }
            return pu.done() || pu.cycles() >= target;
        });
        if (pu.done()) {
            rank.seconds = rank.sched.seconds();
            rank.finished = true;
        }
        return;
    }

    // The fast tiers advance semantics in O(kernel) host time, so a rank
    // runs whole on its first slice; later slices only let its
    // estimated time pass.
    if (!rank.ran) {
        const char *mode = simModeName(config_.simMode);
        Pu::ProgressHook hook;
        if (progress_every != 0)
            hook = [&, i](Cycle cycles, Cycle fast_forwarded) {
                if (cycles < rank.nextMark)
                    return;
                emitProgress(i, cycles, wallStart_, 0, mode,
                             fast_forwarded);
                rank.nextMark = cycles - cycles % progress_every +
                                progress_every;
            };
        rank.fast = config_.simMode == SimMode::Functional
                        ? pu.runFunctional(hook)
                        : pu.runSampled(config_.sampled, hook);
        rank.seconds = static_cast<double>(pu.cycles()) /
                       (static_cast<double>(config_.pu.freqMhz) * 1e6);
        rank.ran = true;
    }
    rank.granted += std::min(n, pu.cycles() - rank.granted);
    rank.finished = rank.granted >= pu.cycles();
}

bool
KernelJob::step(Cycle max_pu_cycles)
{
    if (done() || max_pu_cycles == 0)
        return false;
    ParallelRunner pool(config_.hostThreads);
    pool.run(ranks_.size(),
             [&](std::size_t i) { advance(i, max_pu_cycles); });
    return done();
}

void
KernelJob::runToCompletion()
{
    step(~Cycle(0));
}

Cycle
KernelJob::puCycles() const
{
    Cycle max_cycles = 0;
    for (const Rank &rank : ranks_)
        max_cycles = std::max(max_cycles, rank.pu->cycles());
    return max_cycles;
}

std::uint64_t
KernelJob::nnz() const
{
    return std::visit([](const auto &p) { return p->nnz; }, plan_);
}

void
KernelJob::collect(RunResult &result)
{
    menda_assert(done(), "collect() before the job finished");
    iterStats_.clear();
    Cycle bus_cycles_total = 0;
    Cycle elapsed_mem_cycles = 0;
    for (const Rank &rank : ranks_) {
        const Pu &pu = *rank.pu;
        const dram::MemoryController &mem = *rank.mem;
        result.seconds = std::max(result.seconds, rank.seconds);
        result.puCycles = std::max(result.puCycles, pu.cycles());
        result.iterations = std::max(result.iterations,
                                     pu.iterationsExecuted());
        result.readBlocks += mem.readsServed();
        result.writeBlocks += mem.writesServed();
        result.coalescedRequests +=
            mem.readQueue().coalescedHits().value();
        result.rowConflicts += mem.rowConflicts();
        result.activates += mem.activates();
        result.treeOccupancyPacketCycles +=
            pu.tree().occupancyPacketCycles();
        result.leafPushStallCycles += pu.leafPushStallCycles();
        result.outputStallCycles += pu.outputStallCycles();
        result.readLatency.merge(mem.readLatency());
        result.leafStallRuns.merge(pu.leafStallRuns());
        for (unsigned r = 0; r < mem.config().ranks; ++r) {
            result.rankActivates.push_back(mem.rankActivates(r));
            result.rankBursts.push_back(mem.rankBursts(r));
        }
        bus_cycles_total += mem.busBusyCycles();
        elapsed_mem_cycles = std::max(elapsed_mem_cycles, mem.curCycle());
        iterStats_.push_back(pu.iterationStats());
        const auto &sp_r = pu.spilledReadBlocks();
        const auto &sp_w = pu.spilledWriteBlocks();
        if (result.spilledReadBlocks.size() < sp_r.size())
            result.spilledReadBlocks.resize(sp_r.size(), 0);
        if (result.spilledWriteBlocks.size() < sp_w.size())
            result.spilledWriteBlocks.resize(sp_w.size(), 0);
        for (std::size_t t = 0; t < sp_r.size(); ++t)
            result.spilledReadBlocks[t] += sp_r[t];
        for (std::size_t t = 0; t < sp_w.size(); ++t)
            result.spilledWriteBlocks[t] += sp_w[t];
        result.sampledWindows += rank.fast.sampledWindows;
        result.errorBoundPct =
            std::max(result.errorBoundPct, rank.fast.errorBoundPct);
        result.fastForwardedCycles += rank.fast.fastForwardedCycles;
    }
    if (!ranks_.empty()) {
        result.treeOccupancy = ranks_[0].pu->occupancySamples();
        result.readQueueDepth = ranks_[0].mem->readDepthSamples();
    }
    if (elapsed_mem_cycles > 0)
        result.busUtilization =
            static_cast<double>(bus_cycles_total) /
            (static_cast<double>(elapsed_mem_cycles) * ranks_.size());
    result.simMode = config_.simMode;
}

TransposeResult
KernelJob::takeTranspose()
{
    menda_assert(kind() == Kernel::Transpose, "job is not a transposition");
    const TransposePlan &plan = planOf<TransposePlan>(plan_);
    TransposeResult result;
    result.slices = plan.slices;
    collect(result);

    // Merge the per-PU CSC partitions column-wise: slices are ordered by
    // row range, so rows stay ascending within each merged column and
    // each partition's column segment lands contiguously, in PU order.
    result.csc.rows = plan.rows;
    result.csc.cols = plan.cols;
    result.csc.ptr.assign(static_cast<std::size_t>(plan.cols) + 1, 0);
    result.csc.idx.resize(plan.nnz);
    result.csc.val.resize(plan.nnz);
    for (const Rank &rank : ranks_) {
        const std::vector<std::uint32_t> &ptr = rank.pu->resultCsc().ptr;
        for (std::size_t c = 0; c < plan.cols; ++c)
            result.csc.ptr[c + 1] += ptr[c + 1] - ptr[c];
    }
    for (std::size_t c = 0; c < plan.cols; ++c)
        result.csc.ptr[c + 1] += result.csc.ptr[c];
    std::vector<std::uint32_t> cursor;
    cursor.reserve(plan.cols);
    cursor.assign(result.csc.ptr.begin(), result.csc.ptr.end() - 1);
    for (const Rank &rank : ranks_) {
        const sparse::CscMatrix &part = rank.pu->resultCsc();
        for (std::size_t c = 0; c < plan.cols; ++c) {
            const std::uint32_t begin = part.ptr[c];
            const std::uint32_t len = part.ptr[c + 1] - begin;
            if (len == 0)
                continue;
            std::copy_n(part.idx.begin() + begin, len,
                        result.csc.idx.begin() + cursor[c]);
            std::copy_n(part.val.begin() + begin, len,
                        result.csc.val.begin() + cursor[c]);
            cursor[c] += len;
        }
    }
    return result;
}

SpmvResult
KernelJob::takeSpmv()
{
    menda_assert(kind() == Kernel::Spmv, "job is not an SpMV");
    const SpmvPlan &plan = planOf<SpmvPlan>(plan_);
    SpmvResult result;
    collect(result);

    result.y.assign(plan.rows, 0.0);
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
        const auto &part = ranks_[i].pu->resultVector();
        for (std::size_t r = 0; r < part.size(); ++r)
            result.y[plan.slices[i].rowBegin + r] = part[r];
    }
    return result;
}

SpgemmResult
KernelJob::takeSpgemm()
{
    menda_assert(kind() == Kernel::Spgemm, "job is not an SpGEMM");
    const SpgemmPlan &plan = planOf<SpgemmPlan>(plan_);
    SpgemmResult result;
    result.slices = plan.slices;
    result.partialProducts = plan.partialProducts;
    collect(result);

    // Stitch the per-PU CSR slices: partitions are contiguous ascending
    // row ranges, so C is the row-wise concatenation of the slice
    // results (local row pointers rebased onto the global array).
    result.c.rows = plan.rows;
    result.c.cols = plan.cols;
    result.c.ptr.assign(static_cast<std::size_t>(plan.rows) + 1, 0);
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
        const sparse::CsrMatrix &part = ranks_[i].pu->resultCsr();
        const Index base = plan.slices[i].rowBegin;
        for (Index r = 0; r < part.rows; ++r)
            result.c.ptr[base + r + 1] = part.ptr[r + 1] - part.ptr[r];
        result.c.idx.insert(result.c.idx.end(), part.idx.begin(),
                            part.idx.end());
        result.c.val.insert(result.c.val.end(), part.val.begin(),
                            part.val.end());
    }
    for (std::size_t r = 0; r < plan.rows; ++r)
        result.c.ptr[r + 1] += result.c.ptr[r];
    return result;
}

} // namespace menda::core
