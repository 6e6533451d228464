#include "menda/system.hh"

#include "menda/job.hh"

namespace menda::core
{

// The kernel entry points are thin wrappers over the plan/job split in
// menda/job.hh: build the host-side layout, construct the simulated
// components, run to completion, assemble the output. menda_serve uses
// the same pieces but advances jobs in bounded slices and shares plans
// across requests via the residency cache.

TransposeResult
MendaSystem::transpose(const sparse::CsrMatrix &a)
{
    KernelJob job(config_, planTranspose(a, config_), {}, tracer_);
    job.runToCompletion();
    TransposeResult result = job.takeTranspose();
    lastIterStats_ = job.iterationStats();
    return result;
}

SpmvResult
MendaSystem::spmv(const sparse::CsrMatrix &a, const std::vector<Value> &x)
{
    KernelJob job(config_, planSpmv(a, config_), x, tracer_);
    job.runToCompletion();
    SpmvResult result = job.takeSpmv();
    lastIterStats_ = job.iterationStats();
    return result;
}

SpgemmResult
MendaSystem::spgemm(const sparse::CsrMatrix &a, const sparse::CsrMatrix &b)
{
    KernelJob job(config_, planSpgemm(a, b, config_), {}, tracer_);
    job.runToCompletion();
    SpgemmResult result = job.takeSpgemm();
    lastIterStats_ = job.iterationStats();
    return result;
}

} // namespace menda::core
