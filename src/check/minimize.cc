#include "check/minimize.hh"

#include <algorithm>
#include <vector>

namespace menda::check
{

namespace
{

/** All one-step shrink candidates of @p spec, roughly biggest cut first. */
std::vector<CaseSpec>
shrinkCandidates(const CaseSpec &spec)
{
    std::vector<CaseSpec> out;
    const auto add = [&](const std::function<void(CaseSpec &)> &mutate) {
        CaseSpec candidate = spec;
        mutate(candidate);
        candidate.normalize();
        if (!(candidate == spec))
            out.push_back(std::move(candidate));
    };

    // Joint jump for SpGEMM: shrinking a alone starves the merge fan-in
    // (and with it the DRAM contention many scheduler failures need), so
    // a greedy per-matrix walk strands b at a large size. Likewise a big
    // machine (many PUs, wide trees, deep buffers) spreads a tiny
    // workload so thin that no two requests ever contend. Try landing
    // matrices AND machine on a tiny-but-busy shape in one step first,
    // under several seeds (the landscape per seed is spiky).
    const bool tiny = spec.a.nnz + spec.b.nnz <= 8 + 24 &&
                      spec.pus == 1 && spec.leaves == 4 &&
                      spec.prefetchBufferEntries == 16;
    if (spec.kernel == core::Kernel::Spgemm && !tiny) {
        for (std::uint64_t k = 0; k < 6; ++k) {
            add([&](CaseSpec &c) {
                c.a = {MatrixKind::Uniform, 4, 4, 8, c.a.seed + k};
                c.b = {MatrixKind::Uniform, 4, 12, 24, c.b.seed + k};
                c.pus = 1;
                c.leaves = 4;
                c.prefetchBufferEntries = 16;
            });
        }
    }

    const auto shrink_matrix = [&](MatrixSpec CaseSpec::*m) {
        // Any size change redraws the matrix from scratch, so the repro
        // landscape under one fixed seed is spiky — a cut that loses the
        // failure under seed s often keeps it under s+1. Retry the big
        // cuts under a few seeds, starting with a jump straight to a
        // tiny matrix (tried first: when it lands, minimization is
        // nearly done in one accepted step). Every seed-retry candidate
        // is gated on an actual size cut; a bare seed change is not
        // progress and would let the greedy loop churn forever.
        const MatrixSpec &current = spec.*m;
        if (current.rows > 4 || current.cols > 12 || current.nnz > 24) {
            for (std::uint64_t k = 0; k < 4; ++k) {
                add([&](CaseSpec &c) {
                    MatrixSpec &matrix = c.*m;
                    matrix.kind = MatrixKind::Uniform;
                    matrix.rows = std::min<Index>(matrix.rows, 4);
                    matrix.cols = std::min<Index>(matrix.cols, 12);
                    matrix.nnz = std::min<std::uint64_t>(matrix.nnz, 24);
                    matrix.seed += k;
                });
            }
        }
        if (current.nnz > 1) {
            for (std::uint64_t k = 0; k < 4; ++k) {
                add([&](CaseSpec &c) {
                    (c.*m).nnz /= 2;
                    (c.*m).seed += k;
                });
            }
        }
        add([&](CaseSpec &c) { (c.*m).nnz /= 4; });
        add([&](CaseSpec &c) { (c.*m).nnz -= 1; });
        add([&](CaseSpec &c) {
            (c.*m).rows /= 2;
            (c.*m).nnz /= 2;
        });
        add([&](CaseSpec &c) { (c.*m).rows -= 1; });
        add([&](CaseSpec &c) {
            (c.*m).cols /= 2;
            (c.*m).nnz /= 2;
        });
        add([&](CaseSpec &c) { (c.*m).cols -= 1; });
        add([&](CaseSpec &c) { (c.*m).kind = MatrixKind::Uniform; });
    };
    shrink_matrix(&CaseSpec::a);
    if (spec.kernel == core::Kernel::Spgemm)
        shrink_matrix(&CaseSpec::b);

    // Collapse the PU shape toward the smallest machine.
    add([](CaseSpec &c) { c.pus = 1; });
    add([](CaseSpec &c) { c.pus /= 2; });
    add([](CaseSpec &c) { c.leaves = 4; });
    add([](CaseSpec &c) { c.leaves /= 2; });
    add([](CaseSpec &c) { c.prefetchBufferEntries /= 2; });
    add([](CaseSpec &c) { c.fifoEntries = 2; });

    // Drop optional engine variants so the repro runs fewer engines.
    add([](CaseSpec &c) { c.withTrace = false; });
    add([](CaseSpec &c) { c.samplePeriod = 0; });
    add([](CaseSpec &c) { c.withFunctional = false; });
    add([](CaseSpec &c) { c.withSampledSim = false; });
    add([](CaseSpec &c) { c.withServed = false; });
    add([](CaseSpec &c) { c.threads = 2; });
    return out;
}

} // namespace

MinimizeResult
minimizeCase(const CaseSpec &spec,
             const std::function<bool(const CaseSpec &)> &still_fails,
             unsigned max_attempts)
{
    MinimizeResult result;
    result.spec = spec;
    bool progressed = true;
    while (progressed && result.attempts < max_attempts) {
        progressed = false;
        for (const CaseSpec &candidate : shrinkCandidates(result.spec)) {
            if (result.attempts >= max_attempts)
                break;
            ++result.attempts;
            if (still_fails(candidate)) {
                result.spec = candidate;
                ++result.accepted;
                progressed = true;
                break; // restart from the shrunk spec
            }
        }
    }
    return result;
}

} // namespace menda::check
