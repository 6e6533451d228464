/**
 * @file
 * Tests for the simulation kernel: exact multi-domain clocking and
 * idle-cycle skipping.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/clock.hh"

using namespace menda;

namespace
{

struct CycleCounter : Ticked
{
    Cycle count = 0;
    void tick() override { ++count; }
};

/**
 * A component that does work every @p stride-th cycle of its domain and
 * declares the cycles in between quiescent. With `dense` set it never
 * reports quiescence, giving the exact reference schedule to compare
 * the fast-forwarded one against.
 */
struct StridedWorker : Ticked
{
    explicit StridedWorker(Cycle stride, bool dense = false)
        : stride_(stride), dense_(dense)
    {}

    Cycle cycle = 0;   ///< own-domain cycles elapsed (ticked + skipped)
    Cycle ticks = 0;   ///< tick() invocations
    Cycle skipped = 0; ///< cycles delivered via skipCycles()
    Cycle work = 0;    ///< work items executed (one per stride)

    void
    tick() override
    {
        if (cycle % stride_ == 0)
            ++work;
        ++cycle;
        ++ticks;
    }

    Cycle
    quiescentFor() const override
    {
        if (dense_)
            return 0;
        return cycle % stride_ == 0 ? 0 : stride_ - cycle % stride_;
    }

    void
    skipCycles(Cycle cycles) override
    {
        cycle += cycles;
        skipped += cycles;
    }

    Cycle stride_;
    bool dense_;
};

} // namespace

TEST(Clock, TwoDomainsTickAtExactRatio)
{
    TickScheduler sched;
    auto *pu = sched.addDomain("pu", 800);
    auto *dram = sched.addDomain("dram", 1200);
    CycleCounter pu_c, dram_c;
    pu->attach(&pu_c);
    dram->attach(&dram_c);

    // Over any window, cycle counts must track the exact 800:1200 ratio.
    sched.runUntil([&] { return pu_c.count >= 800 && dram_c.count >= 1200; });
    EXPECT_EQ(pu_c.count, 800u);
    EXPECT_EQ(dram_c.count, 1200u);
    // 1200 DRAM cycles span [0, 1199 * (1/1200MHz)] of simulated time.
    EXPECT_NEAR(sched.seconds(), 1e-6, 2e-9);
}

TEST(Clock, LcmBaseFrequency)
{
    TickScheduler sched;
    sched.addDomain("a", 800);
    sched.addDomain("b", 1200);
    sched.step();
    EXPECT_EQ(sched.baseFreqMhz(), 2400u);
}

TEST(Clock, CoincidentTicksFireBothDomains)
{
    TickScheduler sched;
    auto *a = sched.addDomain("a", 600);
    auto *b = sched.addDomain("b", 1200);
    CycleCounter ca, cb;
    a->attach(&ca);
    b->attach(&cb);
    sched.step(); // tick 0: both fire
    EXPECT_EQ(ca.count, 1u);
    EXPECT_EQ(cb.count, 1u);
    sched.step(); // b only
    EXPECT_EQ(ca.count, 1u);
    EXPECT_EQ(cb.count, 2u);
}

TEST(Clock, SweepFrequenciesStayExact)
{
    // The Fig. 15 frequency sweep must be drift-free at every point.
    for (std::uint64_t mhz : {400u, 600u, 800u, 1000u, 1200u}) {
        TickScheduler sched;
        auto *pu = sched.addDomain("pu", mhz);
        auto *dram = sched.addDomain("dram", 1200);
        CycleCounter pu_c, dram_c;
        pu->attach(&pu_c);
        dram->attach(&dram_c);
        sched.runUntil([&] { return dram_c.count >= 12000; });
        EXPECT_EQ(pu_c.count, mhz * 10) << mhz << " MHz";
    }
}

TEST(IdleSkip, CoprimeDomainsMatchDenseSchedule)
{
    // Two co-prime domains (7 and 11 MHz -> base 77 MHz) where every
    // component sleeps most cycles. The fast-forwarded schedule must
    // execute exactly the same work at exactly the same cycle counts as
    // the dense reference, while actually skipping most ticks.
    // The stop predicate is phrased in work items (which land on real,
    // non-skippable ticks), not raw cycle counts: runUntil() evaluates
    // the predicate between steps, and a skip-mode step fast-forwards
    // through a whole quiescent window in one jump.
    auto run = [](bool dense, Cycle &a_work, Cycle &b_work,
                  Cycle &a_cycles, Cycle &b_cycles, Cycle &a_ticks,
                  Tick &stop_tick) {
        TickScheduler sched;
        auto *da = sched.addDomain("a", 7);
        auto *db = sched.addDomain("b", 11);
        StridedWorker a(13, dense), b(29, dense);
        da->attach(&a);
        db->attach(&b);
        sched.runUntil([&] { return a.work >= 54 && b.work >= 38; });
        EXPECT_EQ(a.cycle, a.ticks + a.skipped);
        EXPECT_EQ(a.cycle, da->curCycle());
        EXPECT_EQ(b.cycle, db->curCycle());
        a_work = a.work;
        b_work = b.work;
        a_cycles = a.cycle;
        b_cycles = b.cycle;
        a_ticks = a.ticks;
        stop_tick = sched.curTick();
    };

    Cycle aw_d, bw_d, ac_d, bc_d, at_d;
    Tick t_d;
    run(true, aw_d, bw_d, ac_d, bc_d, at_d, t_d);
    Cycle aw_s, bw_s, ac_s, bc_s, at_s;
    Tick t_s;
    run(false, aw_s, bw_s, ac_s, bc_s, at_s, t_s);

    EXPECT_EQ(aw_s, aw_d);
    EXPECT_EQ(bw_s, bw_d);
    EXPECT_EQ(ac_s, ac_d);
    EXPECT_EQ(bc_s, bc_d);
    EXPECT_EQ(t_s, t_d) << "both modes must stop on the same tick";
    EXPECT_EQ(at_d, ac_d) << "dense mode must tick every cycle";
    EXPECT_LT(at_s, ac_s / 2) << "skip mode must fast-forward";
}

TEST(IdleSkip, SkippedDomainsKeepExactFrequencyRatio)
{
    // The 800:1200 MHz production ratio with both components mostly
    // quiescent: fast-forwarding must preserve the drift-free ratio.
    TickScheduler sched;
    auto *pu = sched.addDomain("pu", 800);
    auto *dram = sched.addDomain("dram", 1200);
    StridedWorker a(17), b(23);
    pu->attach(&a);
    dram->attach(&b);
    // Stop on a work item (a real tick): the 522nd lands on DRAM cycle
    // 23 * 521 = 11983, i.e. base tick 23966 (base = lcm = 2400 MHz,
    // DRAM period 2, PU period 3).
    sched.runUntil([&] { return b.work >= 522; });
    const Tick t = sched.curTick();
    EXPECT_EQ(t, 23966u);
    // Cycle counts are exact boundary counts at the stop tick, so the
    // 800:1200 ratio is drift-free no matter how much was skipped.
    EXPECT_EQ(b.cycle, t / 2 + 1);
    EXPECT_EQ(a.cycle, t / 3 + 1);
    EXPECT_NEAR(sched.seconds(),
                static_cast<double>(b.cycle) / 1200e6, 2e-9);
    EXPECT_GT(sched.cyclesSkipped(), 0u);
}

TEST(IdleSkip, IndefinitelyQuiescentComponentIsNeverTicked)
{
    // A done component (quiescentFor ~0ull) must not gate progress; the
    // active domain drives time and the idle one is only caught up.
    struct Done : Ticked
    {
        Cycle ticks = 0;
        void tick() override { ++ticks; }
        Cycle quiescentFor() const override { return ~Cycle(0); }
    };
    TickScheduler sched;
    auto *da = sched.addDomain("a", 3);
    auto *db = sched.addDomain("b", 5);
    CycleCounter active;
    Done done;
    da->attach(&active);
    db->attach(&done);
    sched.runUntil([&] { return active.count >= 300; });
    EXPECT_EQ(active.count, 300u);
    // The idle domain only fires where its boundary coincides with a
    // step the active domain forced (every 15 base ticks here); all
    // other cycles are fast-forwarded.
    EXPECT_GE(db->curCycle(), 498u);
    EXPECT_LE(done.ticks, 100u);
    EXPECT_LT(done.ticks, db->curCycle() / 2);
}

TEST(IdleSkip, ThreeCoprimeDomainsMatchDenseSchedule)
{
    // Three co-prime domains (5, 7 and 11 MHz -> base 385 MHz), each
    // component asleep between strided work items. Every work item must
    // land on the same base tick and own-domain cycle in the skipping
    // schedule as in the dense one.
    struct Logged : StridedWorker
    {
        Logged(Cycle stride, bool dense, const TickScheduler &sched,
               std::vector<std::pair<Tick, Cycle>> &log)
            : StridedWorker(stride, dense), sched_(sched), log_(log)
        {}

        void
        tick() override
        {
            if (cycle % stride_ == 0)
                log_.emplace_back(sched_.curTick(), cycle);
            StridedWorker::tick();
        }

        const TickScheduler &sched_;
        std::vector<std::pair<Tick, Cycle>> &log_;
    };
    struct Run
    {
        std::vector<std::pair<Tick, Cycle>> log[3];
        Cycle cycles[3] = {};
        Cycle ticks = 0;
        Tick stop = 0;
    };
    auto run = [](bool dense) {
        Run out;
        TickScheduler sched;
        ClockDomain *domains[3] = {sched.addDomain("a", 5),
                                   sched.addDomain("b", 7),
                                   sched.addDomain("c", 11)};
        Logged a(13, dense, sched, out.log[0]);
        Logged b(29, dense, sched, out.log[1]);
        Logged c(17, dense, sched, out.log[2]);
        domains[0]->attach(&a);
        domains[1]->attach(&b);
        domains[2]->attach(&c);
        sched.runUntil(
            [&] { return a.work >= 40 && b.work >= 30 && c.work >= 70; });
        const Logged *workers[3] = {&a, &b, &c};
        for (int d = 0; d < 3; ++d) {
            EXPECT_EQ(workers[d]->cycle, domains[d]->curCycle());
            EXPECT_EQ(workers[d]->cycle,
                      workers[d]->ticks + workers[d]->skipped);
            out.cycles[d] = workers[d]->cycle;
            out.ticks += workers[d]->ticks;
        }
        out.stop = sched.curTick();
        return out;
    };
    const Run dense = run(true);
    const Run skip = run(false);
    for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(skip.log[d], dense.log[d]) << "domain " << d;
        EXPECT_EQ(skip.cycles[d], dense.cycles[d]) << "domain " << d;
    }
    EXPECT_EQ(skip.stop, dense.stop);
    EXPECT_EQ(dense.ticks, dense.cycles[0] + dense.cycles[1] +
                               dense.cycles[2]);
    EXPECT_LT(skip.ticks, dense.ticks / 4) << "skip mode must fast-forward";
}

TEST(IdleSkip, DomainIsAskedOnlyWhenItsBoundaryIsEarlier)
{
    // step() asks a domain for its quiescent window only when the
    // domain's next boundary is earlier than the best due tick found so
    // far: a domain is never due before its boundary, so asking could
    // not lower the next tick. Domains at 1 and 2 MHz (base periods 2
    // and 1), both always active.
    struct Asked : CycleCounter
    {
        mutable Cycle asked = 0;
        Cycle
        quiescentFor() const override
        {
            ++asked;
            return 0;
        }
    };
    {
        // Slow domain first: it is always asked (nothing beats ~0); the
        // fast one only on odd ticks, where its boundary comes first.
        TickScheduler sched;
        auto *slow = sched.addDomain("slow", 1);
        auto *fast = sched.addDomain("fast", 2);
        Asked s, f;
        slow->attach(&s);
        fast->attach(&f);
        sched.runUntil([&] { return f.count >= 100; });
        EXPECT_EQ(f.count, 100u);
        EXPECT_EQ(s.count, 50u);
        EXPECT_EQ(s.asked, 100u);
        EXPECT_EQ(f.asked, 50u);
    }
    {
        // Fast domain first: the slow domain's boundary is never earlier
        // than the fast one's, so it is never asked, and still fires on
        // every one of its boundaries.
        TickScheduler sched;
        auto *fast = sched.addDomain("fast", 2);
        auto *slow = sched.addDomain("slow", 1);
        Asked s, f;
        fast->attach(&f);
        slow->attach(&s);
        sched.runUntil([&] { return f.count >= 100; });
        EXPECT_EQ(f.count, 100u);
        EXPECT_EQ(s.count, 50u);
        EXPECT_EQ(f.asked, 100u);
        EXPECT_EQ(s.asked, 0u);
    }
}

TEST(IdleSkip, PermanentlyQuiescentComponentAtProductionRatio)
{
    // A finished PU (quiescent for ~Cycle(0) cycles) at 800 MHz beside
    // an active 1200 MHz controller: base 2400 MHz, periods 3 and 2. The
    // skip window overflows a Tick, so step() saturates it; the PU
    // domain then only fires where its boundary meets a controller
    // boundary (every 6 base ticks) and is caught up in between.
    struct Done : Ticked
    {
        Cycle ticks = 0;
        Cycle skipped = 0;
        void tick() override { ++ticks; }
        Cycle quiescentFor() const override { return ~Cycle(0); }
        void skipCycles(Cycle cycles) override { skipped += cycles; }
    };
    TickScheduler sched;
    auto *pu = sched.addDomain("pu", 800);
    auto *dram = sched.addDomain("dram", 1200);
    Done done;
    CycleCounter active;
    pu->attach(&done);
    dram->attach(&active);
    sched.runUntil([&] { return active.count >= 1200; });
    EXPECT_EQ(active.count, 1200u);
    EXPECT_EQ(sched.curTick(), 2398u);
    // PU boundaries 0, 3, ..., 2397: 400 of them coincide with a
    // controller tick (multiples of 6), the other 400 are skipped.
    EXPECT_EQ(pu->curCycle(), 800u);
    EXPECT_EQ(done.ticks, 400u);
    EXPECT_EQ(done.skipped, 400u);
    EXPECT_EQ(sched.cyclesSkipped(), 400u);
    EXPECT_EQ(dram->curCycle(), 1200u);
}
