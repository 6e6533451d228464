#include "check/generator.hh"

#include <string>
#include <vector>

namespace menda::check
{

template <typename ValueOf>
unsigned
CaseGenerator::pick(const char *dimension, unsigned count,
                    ValueOf &&value_of)
{
    if (!coverage_)
        return static_cast<unsigned>(rng_.below(count));
    std::vector<double> weights(count);
    double total = 0.0;
    for (unsigned i = 0; i < count; ++i) {
        weights[i] = coverage_->weight(std::string(dimension) + "=" +
                                       value_of(i));
        total += weights[i];
    }
    double draw = rng_.uniform() * total;
    for (unsigned i = 0; i < count; ++i) {
        draw -= weights[i];
        if (draw < 0.0)
            return i;
    }
    return count - 1;
}

MatrixSpec
CaseGenerator::randomMatrix(core::Kernel kernel, bool is_b)
{
    static constexpr MatrixKind kKinds[] = {
        MatrixKind::Uniform,       MatrixKind::Rmat,
        MatrixKind::Banded,        MatrixKind::SkewedRows,
        MatrixKind::EmptyRows,     MatrixKind::DenseRows,
        MatrixKind::SingleColumn,  MatrixKind::DuplicateHeavy,
    };
    MatrixSpec m;
    const char *dimension = is_b ? "matrixB" : "matrix";
    m.kind = kKinds[pick(dimension, 8, [](unsigned i) {
        return matrixKindName(kKinds[i]);
    })];
    // SpGEMM fan-in is A's nnz and the output grows with nnz^2/k, so
    // keep its operands smaller than the single-matrix kernels'.
    const bool spgemm = kernel == core::Kernel::Spgemm;
    const Index dim_cap = spgemm ? 96 : 384;
    m.rows = 8 + static_cast<Index>(rng_.below(dim_cap));
    m.cols = 8 + static_cast<Index>(rng_.below(dim_cap));
    const std::uint64_t nnz_cap = spgemm ? 700 : 3500;
    m.nnz = 1 + rng_.below(nnz_cap);
    m.seed = rng_.next() | 1;
    return m;
}

CaseSpec
CaseGenerator::next()
{
    CaseSpec spec;
    spec.kernel = core::kKernels[pick("kernel", 3, [](unsigned i) {
        return core::kernelName(core::kKernels[i]);
    })];
    spec.a = randomMatrix(spec.kernel, false);
    if (spec.kernel == core::Kernel::Spgemm)
        spec.b = randomMatrix(spec.kernel, true);

    static constexpr unsigned kPus[] = {1, 2, 4};
    spec.pus = kPus[pick("pus", 3, [](unsigned i) {
        return std::to_string(kPus[i]);
    })];
    static constexpr unsigned kLeaves[] = {4, 8, 16, 32, 64};
    spec.leaves = kLeaves[pick("leaves", 5, [](unsigned i) {
        return std::to_string(kLeaves[i]);
    })];
    spec.fifoEntries = 2 + static_cast<unsigned>(rng_.below(3));
    static constexpr unsigned kBuf[] = {16, 32, 64, 128};
    spec.prefetchBufferEntries = kBuf[pick("buf", 4, [](unsigned i) {
        return std::to_string(kBuf[i]);
    })];
    const auto on_off = [](unsigned i) { return i == 0 ? "on" : "off"; };
    spec.stallReducingPrefetch = pick("prefetch", 2, on_off) == 0;
    spec.requestCoalescing = pick("coalesce", 2, on_off) == 0;
    spec.seamlessMerge = pick("seamless", 2, on_off) == 0;

    spec.threads = 2 + static_cast<unsigned>(rng_.below(2));
    spec.withReferenceScheduler = true;
    spec.withTrace = rng_.below(4) != 0;
    spec.samplePeriod =
        pick("sampled", 2, on_off) == 0 ? 128 + rng_.below(1024) : 0;
    spec.withFunctional = pick("functional", 2, on_off) == 0;
    spec.withSampledSim = pick("sampledsim", 2, on_off) == 0;
    spec.withServed = pick("served", 2, on_off) == 0;
    // Scheduler axis: SpGEMM cases may also run the condensed (Huffman)
    // planner and diff its CSR against the uniform baseline.
    spec.withCondensed = spec.kernel == core::Kernel::Spgemm &&
                         pick("condensed", 2, on_off) == 0;

    spec.normalize();
    return spec;
}

} // namespace menda::check
