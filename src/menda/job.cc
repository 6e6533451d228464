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
    plan->pages = colorPages(plan->slices, a.rows, a.nnz());
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
    plan->pages = colorPages(plan->slices, a.rows, a.nnz());
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

    wallStart_ = std::chrono::steady_clock::now();
    mems_.reserve(n_pus);
    pus_.reserve(n_pus);
    for (unsigned i = 0; i < n_pus; ++i) {
        mems_.push_back(std::make_unique<dram::MemoryController>(
            "mem" + std::to_string(i), config_.dram,
            config_.pu.requestCoalescing));
        mems_.back()->setSamplePeriod(config_.samplePeriod);
        pus_.push_back(std::visit(
            [&](const auto &p) {
                return makePu("pu" + std::to_string(i), config_.pu, *p, x_,
                              i, mems_.back().get());
            },
            plan_));
        pus_.back()->setSamplePeriod(config_.samplePeriod);
    }

    if (config_.simMode != SimMode::Detailed) {
        // Fast tiers have no per-cycle events: no shards, no tracer.
        fastStats_.assign(n_pus, FastSimStats{});
        return;
    }

    // Shard per rank (Sec. 3.5: PUs never communicate during a pass):
    // each (PU, controller) pair owns a private scheduler. Shards share
    // nothing mutable — const plan slices in, per-shard components and
    // counters out — and the per-rank tick schedule does not depend on
    // the host thread count or on where step() pauses, which is what
    // makes outputs, counters, traces, and reports byte-identical
    // between batch, stepped, and threaded execution.
    if (tracer)
        tracer->ensureShards(n_pus);
    shards_.reserve(n_pus);
    for (unsigned i = 0; i < n_pus; ++i) {
        auto shard = std::make_unique<Shard>();
        if (tracer) {
            // Shard i is written only by its owning thread; registration
            // order (controller, PU, then the scheduler's idle-skip
            // tracks at finalize) is fixed, so the trace is
            // deterministic.
            obs::TraceShard *ts = tracer->shard(i);
            shard->sched.setTrace(ts);
            mems_[i]->attachTrace(ts);
            pus_[i]->attachTrace(ts);
        }
        shard->puClk = shard->sched.addDomain("pu", config_.pu.freqMhz);
        shard->memClk = shard->sched.addDomain("dram",
                                               config_.dram.freqMhz);
        shard->memClk->attach(mems_[i].get());
        shard->puClk->attach(pus_[i].get());
        shard->nextMark = config_.progressEveryCycles;
        pus_[i]->start();
        shards_.push_back(std::move(shard));
    }
}

KernelJob::~KernelJob() = default;

bool
KernelJob::done() const
{
    if (config_.simMode != SimMode::Detailed)
        return fastRan_ && grantedCycles_ >= puCycles();
    return std::all_of(shards_.begin(), shards_.end(),
                       [](const auto &s) { return s->finished; });
}

void
KernelJob::runShardToCompletion(std::size_t i)
{
    Shard &shard = *shards_[i];
    if (shard.finished)
        return;
    const std::uint64_t progress_every = config_.progressEveryCycles;
    shard.sched.runUntil([&] {
        if (progress_every != 0 && pus_[i]->cycles() >= shard.nextMark) {
            emitProgress(i, pus_[i]->cycles(), wallStart_,
                         mems_[i]->readQueue().size() +
                             mems_[i]->writeQueue().size());
            shard.nextMark += progress_every;
        }
        return pus_[i]->done();
    });
    shard.seconds = shard.sched.seconds();
    shard.finished = true;
}

void
KernelJob::runFastRank(std::size_t i)
{
    const std::uint64_t progress_every = config_.progressEveryCycles;
    const char *mode = simModeName(config_.simMode);
    Cycle next_mark = progress_every;
    Pu::ProgressHook hook;
    if (progress_every != 0)
        hook = [&, i](Cycle cycles, Cycle fast_forwarded) {
            if (cycles < next_mark)
                return;
            emitProgress(i, cycles, wallStart_, 0, mode, fast_forwarded);
            next_mark = cycles - cycles % progress_every + progress_every;
        };
    fastStats_[i] = config_.simMode == SimMode::Functional
                        ? pus_[i]->runFunctional(hook)
                        : pus_[i]->runSampled(config_.sampled, hook);
}

void
KernelJob::runFast()
{
    if (fastRan_)
        return;
    ParallelRunner pool(config_.hostThreads);
    pool.run(pus_.size(), [&](std::size_t i) { runFastRank(i); });
    fastRan_ = true;
}

bool
KernelJob::step(Cycle max_pu_cycles)
{
    if (done() || max_pu_cycles == 0)
        return false;

    if (config_.simMode != SimMode::Detailed) {
        // The fast tiers advance semantics in O(kernel) host time, so
        // they run whole on the first slice; later slices only let the
        // estimated time pass.
        runFast();
        grantedCycles_ += std::min(max_pu_cycles,
                                   puCycles() - grantedCycles_);
        return done();
    }

    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard &shard = *shards_[i];
        if (shard.finished)
            continue;
        const Cycle target = pus_[i]->cycles() + max_pu_cycles;
        shard.sched.runUntil([&] {
            return pus_[i]->done() || pus_[i]->cycles() >= target;
        });
        if (pus_[i]->done()) {
            shard.seconds = shard.sched.seconds();
            shard.finished = true;
        }
    }
    return done();
}

void
KernelJob::runToCompletion()
{
    if (config_.simMode != SimMode::Detailed) {
        runFast();
        grantedCycles_ = puCycles();
        return;
    }
    ParallelRunner pool(config_.hostThreads);
    pool.run(shards_.size(),
             [&](std::size_t i) { runShardToCompletion(i); });
}

Cycle
KernelJob::puCycles() const
{
    Cycle max_cycles = 0;
    for (const auto &pu : pus_)
        max_cycles = std::max(max_cycles, pu->cycles());
    return max_cycles;
}

std::uint64_t
KernelJob::nnz() const
{
    return std::visit([](const auto &p) { return p->nnz; }, plan_);
}

double
KernelJob::finishSeconds() const
{
    if (config_.simMode != SimMode::Detailed)
        return static_cast<double>(puCycles()) /
               (static_cast<double>(config_.pu.freqMhz) * 1e6);
    double seconds = 0.0;
    for (const auto &shard : shards_)
        seconds = std::max(seconds, shard->seconds);
    return seconds;
}

void
KernelJob::collect(RunResult &result)
{
    menda_assert(done(), "collect() before the job finished");
    result.seconds = finishSeconds();
    iterStats_.clear();
    Cycle bus_cycles_total = 0;
    Cycle elapsed_mem_cycles = 0;
    for (std::size_t i = 0; i < pus_.size(); ++i) {
        const Pu &pu = *pus_[i];
        const dram::MemoryController &mem = *mems_[i];
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
    }
    if (!pus_.empty()) {
        result.treeOccupancy = pus_[0]->occupancySamples();
        result.readQueueDepth = mems_[0]->readDepthSamples();
    }
    if (elapsed_mem_cycles > 0)
        result.busUtilization =
            static_cast<double>(bus_cycles_total) /
            (static_cast<double>(elapsed_mem_cycles) * pus_.size());
    result.simMode = config_.simMode;
    for (const FastSimStats &st : fastStats_) {
        result.sampledWindows += st.sampledWindows;
        result.errorBoundPct =
            std::max(result.errorBoundPct, st.errorBoundPct);
        result.fastForwardedCycles += st.fastForwardedCycles;
    }
    finishedCollect_ = true;
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
    for (const auto &pu : pus_) {
        const std::vector<std::uint32_t> &ptr = pu->resultCsc().ptr;
        for (std::size_t c = 0; c < plan.cols; ++c)
            result.csc.ptr[c + 1] += ptr[c + 1] - ptr[c];
    }
    for (std::size_t c = 0; c < plan.cols; ++c)
        result.csc.ptr[c + 1] += result.csc.ptr[c];
    std::vector<std::uint32_t> cursor;
    cursor.reserve(plan.cols);
    cursor.assign(result.csc.ptr.begin(), result.csc.ptr.end() - 1);
    for (const auto &pu : pus_) {
        const sparse::CscMatrix &part = pu->resultCsc();
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
    for (std::size_t i = 0; i < pus_.size(); ++i) {
        const auto &part = pus_[i]->resultVector();
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
    for (std::size_t i = 0; i < pus_.size(); ++i) {
        const sparse::CsrMatrix &part = pus_[i]->resultCsr();
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
