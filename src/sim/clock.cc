#include "sim/clock.hh"

#include <algorithm>
#include <numeric>

#include "common/log.hh"

namespace menda
{

ClockDomain *
TickScheduler::addDomain(const std::string &name, std::uint64_t freq_mhz)
{
    if (finalized_)
        menda_panic("cannot add clock domain '", name, "' after run start");
    if (freq_mhz == 0)
        menda_fatal("clock domain '", name, "' frequency must be nonzero");
    domains_.push_back(std::make_unique<ClockDomain>(name, freq_mhz));
    return domains_.back().get();
}

void
TickScheduler::setTrace(obs::TraceShard *shard)
{
    if (finalized_)
        menda_panic("cannot attach a trace shard after run start");
    trace_ = shard;
}

double
TickScheduler::seconds() const
{
    if (baseMhz_ == 0)
        return 0.0;
    return static_cast<double>(curTick_) / (baseMhz_ * 1e6);
}

void
TickScheduler::finalize()
{
    if (finalized_)
        return;
    if (domains_.empty())
        menda_fatal("simulation has no clock domains");
    baseMhz_ = 1;
    for (const auto &domain : domains_)
        baseMhz_ = std::lcm(baseMhz_, domain->freqMhz());
    for (auto &domain : domains_) {
        domain->period_ = baseMhz_ / domain->freqMhz();
        domain->nextFire_ = curTick_;
        if (trace_) {
            domain->traceTrack_ =
                trace_->addTrack("idleSkip." + domain->name(),
                                 obs::TrackKind::Span, domain->freqMhz());
            domain->traceName_ = trace_->internName("skip");
        }
    }
    finalized_ = true;
}

Cycle
ClockDomain::skippableCycles() const
{
    Cycle window = ~Cycle(0);
    for (const Ticked *component : components_) {
        window = std::min(window, component->quiescentFor());
        if (window == 0)
            return 0;
    }
    return window;
}

void
TickScheduler::step()
{
    finalize();

    // Earliest tick at which any domain must do work. A domain whose
    // components are all quiescent pushes its due time to the end of the
    // smallest declared window instead of its next period boundary. A
    // domain is never due before its next boundary, so one whose
    // boundary is not earlier than the best due tick so far cannot lower
    // it and is not asked for its window at all.
    Tick next = ~Tick(0);
    for (const auto &domain : domains_) {
        Tick due = domain->nextFire_;
        if (due >= next)
            continue;
        const Cycle skip = domain->skippableCycles();
        if (skip > 0) {
            // Saturate at the last boundary a Tick can hold; the
            // division only runs for windows that reach that far (a
            // component quiescent for ~Cycle(0) cycles).
            Tick span;
            if (__builtin_mul_overflow(skip, domain->period_, &span) ||
                span > ~Tick(0) - due)
                span = (~Tick(0) - due) / domain->period_ * domain->period_;
            due += span;
        }
        next = std::min(next, due);
    }
    curTick_ = next;

    // Catch up, then fire. A domain whose period boundaries were passed
    // over while quiescent accounts them via skipCycles() — boundaries
    // strictly before curTick_ only, so input arriving this tick is never
    // folded into a skipped window. A domain left mid-period (no
    // coincident boundary) resyncs just past curTick_ and fires again on
    // its next boundary, exactly where the dense schedule would tick it.
    // A domain due now or later has nothing to catch up.
    //
    // Every domain must catch up before ANY domain ticks: a ticking
    // component may call into a component of a later, still-lagging
    // domain (a PU enqueuing into its memory controller), and that callee
    // would otherwise see — and timestamp with — a stale cycle counter.
    for (auto &domain : domains_) {
        if (domain->nextFire_ >= curTick_)
            continue;
        const Tick behind = curTick_ - domain->nextFire_;
        Cycle lag = behind / domain->period_;
        if (behind % domain->period_ != 0)
            ++lag;
        for (Ticked *component : domain->components_)
            component->skipCycles(lag);
        if (trace_)
            trace_->span(domain->traceTrack_, domain->traceName_,
                         domain->cycle_, domain->cycle_ + lag);
        domain->cycle_ += lag;
        domain->nextFire_ += lag * domain->period_;
        cyclesSkipped_ += lag;
    }
    for (auto &domain : domains_) {
        if (domain->nextFire_ != curTick_)
            continue;
        for (Ticked *component : domain->components_)
            component->tick();
        ++domain->cycle_;
        domain->nextFire_ += domain->period_;
    }
}

} // namespace menda
