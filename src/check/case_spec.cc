#include "check/case_spec.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/log.hh"
#include "common/random.hh"
#include "obs/json.hh"
#include "sparse/generate.hh"

namespace menda::check
{

namespace
{

sparse::CsrMatrix
cooToSortedCsr(sparse::CooMatrix coo)
{
    // cooToCsr accepts arbitrary order; it buckets by row and sorts
    // columns within each row.
    return sparse::cooToCsr(std::move(coo));
}

/** Distinct (row, col) sampler for the hand-rolled pathological kinds. */
void
sampleDistinct(sparse::CooMatrix &coo, std::uint64_t nnz, Rng &rng,
               const std::function<std::pair<Index, Index>(Rng &)> &draw)
{
    // Distinct-edge sampling with a retry bound: pathological shapes can
    // saturate their region, in which case the matrix just ends up a
    // little sparser than requested — fine for fuzzing.
    std::set<std::pair<Index, Index>> seen;
    std::uint64_t attempts = 0;
    while (seen.size() < nnz && attempts < nnz * 64 + 1024) {
        ++attempts;
        seen.insert(draw(rng));
    }
    for (const auto &[r, c] : seen) {
        coo.row.push_back(r);
        coo.col.push_back(c);
        coo.val.push_back(rng.value());
    }
}

sparse::CsrMatrix
generateEmptyRows(const MatrixSpec &spec)
{
    // Cluster every non-zero into a narrow band of rows (and columns):
    // most rows — including the leading and trailing ranges that hit
    // partition boundaries — are empty, and so are most output columns.
    Rng rng(spec.seed);
    sparse::CooMatrix coo;
    coo.rows = spec.rows;
    coo.cols = spec.cols;
    const Index live_rows = std::max<Index>(1, spec.rows / 8);
    const Index row_base = spec.rows > live_rows
                               ? static_cast<Index>(
                                     rng.below(spec.rows - live_rows))
                               : 0;
    const Index live_cols = std::max<Index>(1, spec.cols / 4);
    sampleDistinct(coo, spec.nnz, rng, [&](Rng &r) {
        return std::pair<Index, Index>(
            row_base + static_cast<Index>(r.below(live_rows)),
            static_cast<Index>(r.below(live_cols)) *
                (spec.cols / live_cols));
    });
    return cooToSortedCsr(std::move(coo));
}

sparse::CsrMatrix
generateDenseRows(const MatrixSpec &spec)
{
    // A couple of (near-)fully dense rows over a sparse uniform
    // background: the dense rows dominate the merge fan-in exactly the
    // way supply rails / hub vertices do.
    Rng rng(spec.seed);
    sparse::CooMatrix coo;
    coo.rows = spec.rows;
    coo.cols = spec.cols;
    const unsigned dense = 1 + static_cast<unsigned>(rng.below(3));
    std::set<Index> dense_rows;
    while (dense_rows.size() < std::min<std::size_t>(dense, spec.rows))
        dense_rows.insert(static_cast<Index>(rng.below(spec.rows)));
    for (Index r : dense_rows)
        for (Index c = 0; c < spec.cols; ++c) {
            coo.row.push_back(r);
            coo.col.push_back(c);
            coo.val.push_back(rng.value());
        }
    sparse::CooMatrix background;
    background.rows = spec.rows;
    background.cols = spec.cols;
    sampleDistinct(background, spec.nnz, rng, [&](Rng &r) {
        Index row = static_cast<Index>(r.below(spec.rows));
        while (dense_rows.count(row) != 0)
            row = static_cast<Index>(r.below(spec.rows));
        return std::pair<Index, Index>(
            row, static_cast<Index>(r.below(spec.cols)));
    });
    coo.row.insert(coo.row.end(), background.row.begin(),
                   background.row.end());
    coo.col.insert(coo.col.end(), background.col.begin(),
                   background.col.end());
    coo.val.insert(coo.val.end(), background.val.begin(),
                   background.val.end());
    return cooToSortedCsr(std::move(coo));
}

sparse::CsrMatrix
generateSingleColumn(const MatrixSpec &spec)
{
    // Every row's non-zeros land in one global column (plus a light
    // diagonal sprinkle): transposition funnels the whole matrix through
    // a single output column and SpMV reduces everything into one key.
    Rng rng(spec.seed);
    sparse::CooMatrix coo;
    coo.rows = spec.rows;
    coo.cols = spec.cols;
    const Index the_col = static_cast<Index>(rng.below(spec.cols));
    const Index column_rows = static_cast<Index>(std::min<std::uint64_t>(
        spec.nnz, spec.rows));
    for (Index r = 0; r < column_rows; ++r) {
        coo.row.push_back(r);
        coo.col.push_back(the_col);
        coo.val.push_back(rng.value());
    }
    for (std::uint64_t extra = column_rows; extra < spec.nnz; ++extra) {
        const Index r = static_cast<Index>(rng.below(spec.rows));
        const Index c = r % spec.cols;
        if (c == the_col)
            continue;
        coo.row.push_back(r);
        coo.col.push_back(c);
        coo.val.push_back(rng.value());
    }
    // The diagonal sprinkle may produce duplicate (r, c) pairs; dedup so
    // CSR stays a set of coordinates.
    sparse::CsrMatrix csr = cooToSortedCsr(std::move(coo));
    sparse::CooMatrix dedup;
    dedup.rows = csr.rows;
    dedup.cols = csr.cols;
    for (Index r = 0; r < csr.rows; ++r)
        for (std::uint32_t k = csr.ptr[r]; k < csr.ptr[r + 1]; ++k)
            if (k == csr.ptr[r] || csr.idx[k] != csr.idx[k - 1]) {
                dedup.row.push_back(r);
                dedup.col.push_back(csr.idx[k]);
                dedup.val.push_back(csr.val[k]);
            }
    return cooToSortedCsr(std::move(dedup));
}

sparse::CsrMatrix
generateDuplicateHeavy(const MatrixSpec &spec)
{
    // Tall-and-narrow with heavily reused columns: as the B operand of
    // SpGEMM this makes nearly every partial product collide on the same
    // (row, col) keys, stressing the root accumulator; as A it yields
    // long equal-key runs through the merge tree.
    Rng rng(spec.seed);
    sparse::CooMatrix coo;
    coo.rows = spec.rows;
    coo.cols = spec.cols;
    const Index hot_cols =
        std::max<Index>(1, std::min<Index>(4, spec.cols));
    sampleDistinct(coo, spec.nnz, rng, [&](Rng &r) {
        const Index row = static_cast<Index>(r.below(spec.rows));
        const Index col =
            r.below(4) == 0
                ? static_cast<Index>(r.below(spec.cols))
                : static_cast<Index>(r.below(hot_cols));
        return std::pair<Index, Index>(row, col);
    });
    return cooToSortedCsr(std::move(coo));
}

Index
ceilPow2(Index n)
{
    Index p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

const char *
matrixKindName(MatrixKind kind)
{
    switch (kind) {
      case MatrixKind::Uniform: return "uniform";
      case MatrixKind::Rmat: return "rmat";
      case MatrixKind::Banded: return "banded";
      case MatrixKind::SkewedRows: return "skewedRows";
      case MatrixKind::EmptyRows: return "emptyRows";
      case MatrixKind::DenseRows: return "denseRows";
      case MatrixKind::SingleColumn: return "singleColumn";
      case MatrixKind::DuplicateHeavy: return "duplicateHeavy";
    }
    return "?";
}

sparse::CsrMatrix
buildMatrix(const MatrixSpec &spec)
{
    switch (spec.kind) {
      case MatrixKind::Uniform:
        return sparse::generateUniform(spec.rows, spec.cols, spec.nnz,
                                       spec.seed);
      case MatrixKind::Rmat: {
        // R-MAT needs a power-of-two square dimension; keep density low
        // enough that distinct-edge sampling terminates.
        const Index dim = ceilPow2(std::max<Index>(spec.rows, 4));
        const std::uint64_t cap =
            static_cast<std::uint64_t>(dim) * dim / 32;
        return sparse::generateRmat(
            dim, std::max<std::uint64_t>(1, std::min(spec.nnz, cap)),
            0.1, 0.2, 0.3, spec.seed);
      }
      case MatrixKind::Banded:
        return sparse::generateBanded(
            spec.rows,
            std::max<Index>(3, static_cast<Index>(
                                   spec.nnz / std::max<Index>(
                                                  1, spec.rows)) |
                                   1),
            0.5, spec.seed);
      case MatrixKind::SkewedRows:
        return sparse::generateSkewedRows(spec.rows, spec.cols, spec.nnz,
                                          2.0, spec.seed);
      case MatrixKind::EmptyRows: return generateEmptyRows(spec);
      case MatrixKind::DenseRows: return generateDenseRows(spec);
      case MatrixKind::SingleColumn: return generateSingleColumn(spec);
      case MatrixKind::DuplicateHeavy:
        return generateDuplicateHeavy(spec);
    }
    menda_fatal("unknown matrix kind");
}

void
CaseSpec::normalize()
{
    auto fix_matrix = [](MatrixSpec &m) {
        m.rows = std::clamp<Index>(m.rows, 1, 4096);
        m.cols = std::clamp<Index>(m.cols, 1, 4096);
        const std::uint64_t cap =
            std::max<std::uint64_t>(1, static_cast<std::uint64_t>(m.rows) *
                                           m.cols / 2);
        m.nnz = std::clamp<std::uint64_t>(m.nnz, 1, cap);
        // Seeds live in 32 bits so the JSON round-trip (numbers are
        // doubles, exact only up to 2^53) cannot corrupt them.
        m.seed &= 0xffffffffull;
    };
    fix_matrix(a);
    if (kernel == core::Kernel::Spgemm) {
        // The inner dimension is whatever A actually materializes to
        // (R-MAT rounds to a power of two), so resolve it via the built
        // matrix's column count.
        const Index inner = buildMatrix(a).cols;
        b.rows = inner;
        fix_matrix(b);
        b.rows = inner;
        // A family that materializes with its own dimensions (R-MAT
        // squares and pow2-rounds) cannot honor the inner tie; fall back
        // to uniform, which builds exactly the requested shape.
        if (buildMatrix(b).rows != inner)
            b.kind = MatrixKind::Uniform;
    } else {
        b = MatrixSpec{}; // unused; keep operator== meaningful
    }
    // The condensed scheduler only exists for the SpGEMM dataflow.
    if (kernel != core::Kernel::Spgemm)
        withCondensed = false;
    pus = std::clamp<unsigned>(pus, 1, 8);
    // Power-of-two leaf count >= 4 keeps trees valid and small.
    unsigned l = 4;
    while (l < leaves && l < 64)
        l <<= 1;
    leaves = l;
    fifoEntries = std::clamp<unsigned>(fifoEntries, 2, 8);
    // Prefetch buffers must hold at least one DRAM block (16 elements).
    prefetchBufferEntries =
        std::clamp<unsigned>(prefetchBufferEntries, 16, 128);
    threads = std::clamp<unsigned>(threads, 2, 4);
}

core::SystemConfig
CaseSpec::systemConfig() const
{
    core::SystemConfig config;
    config.channels = 1;
    config.dimmsPerChannel = 1;
    config.ranksPerDimm = pus;
    config.pu.leaves = leaves;
    config.pu.fifoEntries = fifoEntries;
    config.pu.prefetchBufferEntries = prefetchBufferEntries;
    config.pu.stallReducingPrefetch = stallReducingPrefetch;
    config.pu.requestCoalescing = requestCoalescing;
    config.pu.seamlessMerge = seamlessMerge;
    return config;
}

std::vector<Value>
CaseSpec::spmvInput(Index cols) const
{
    Rng rng(a.seed ^ 0x5be5u);
    std::vector<Value> x(cols);
    for (auto &v : x)
        v = rng.value();
    return x;
}

std::string
CaseSpec::oneLine() const
{
    std::ostringstream os;
    os << kernelName(kernel) << " a=" << matrixKindName(a.kind) << "["
       << a.rows << "x" << a.cols << ",nnz=" << a.nnz << ",seed="
       << a.seed << "]";
    if (kernel == core::Kernel::Spgemm)
        os << " b=" << matrixKindName(b.kind) << "[" << b.rows << "x"
           << b.cols << ",nnz=" << b.nnz << ",seed=" << b.seed << "]";
    os << " pus=" << pus << " leaves=" << leaves << " fifo="
       << fifoEntries << " buf=" << prefetchBufferEntries
       << (stallReducingPrefetch ? "" : " -prefetch")
       << (requestCoalescing ? "" : " -coalesce")
       << (seamlessMerge ? "" : " -seamless") << " threads=" << threads
       << (withReferenceScheduler ? " +refsched" : "")
       << (withTrace ? " +trace" : "")
       << (withFunctional ? " +functional" : "")
       << (withSampledSim ? " +sampledsim" : "")
       << (withServed ? " +served" : "")
       << (withCondensed ? " +condensed" : "");
    if (samplePeriod != 0)
        os << " sample=" << samplePeriod;
    return os.str();
}

namespace
{

obs::json::Object
matrixToJson(const MatrixSpec &m)
{
    obs::json::Object o;
    o["kind"] = matrixKindName(m.kind);
    o["rows"] = static_cast<std::uint64_t>(m.rows);
    o["cols"] = static_cast<std::uint64_t>(m.cols);
    o["nnz"] = m.nnz;
    o["seed"] = m.seed;
    return o;
}

MatrixSpec
matrixFromJson(const obs::json::Value &v)
{
    if (!v.isObject())
        throw std::runtime_error("caseSpec: matrix is not an object");
    MatrixSpec m;
    const std::string kind = v.at("kind").asString();
    bool found = false;
    for (unsigned k = 0;
         k <= static_cast<unsigned>(MatrixKind::DuplicateHeavy); ++k)
        if (kind == matrixKindName(static_cast<MatrixKind>(k))) {
            m.kind = static_cast<MatrixKind>(k);
            found = true;
        }
    if (!found)
        throw std::runtime_error("caseSpec: unknown matrix kind '" +
                                 kind + "'");
    m.rows = static_cast<Index>(v.at("rows").asNumber());
    m.cols = static_cast<Index>(v.at("cols").asNumber());
    m.nnz = static_cast<std::uint64_t>(v.at("nnz").asNumber());
    m.seed = static_cast<std::uint64_t>(v.at("seed").asNumber());
    return m;
}

} // namespace

std::string
CaseSpec::toJson() const
{
    obs::json::Object o;
    o["schema"] = kSchema;
    o["kernel"] = kernelName(kernel);
    o["a"] = matrixToJson(a);
    if (kernel == core::Kernel::Spgemm)
        o["b"] = matrixToJson(b);
    obs::json::Object pu;
    pu["pus"] = static_cast<std::uint64_t>(pus);
    pu["leaves"] = static_cast<std::uint64_t>(leaves);
    pu["fifoEntries"] = static_cast<std::uint64_t>(fifoEntries);
    pu["prefetchBufferEntries"] =
        static_cast<std::uint64_t>(prefetchBufferEntries);
    pu["stallReducingPrefetch"] = stallReducingPrefetch;
    pu["requestCoalescing"] = requestCoalescing;
    pu["seamlessMerge"] = seamlessMerge;
    o["pu"] = pu;
    obs::json::Object engine;
    engine["threads"] = static_cast<std::uint64_t>(threads);
    engine["referenceScheduler"] = withReferenceScheduler;
    engine["trace"] = withTrace;
    engine["samplePeriod"] = samplePeriod;
    engine["functional"] = withFunctional;
    engine["sampledSim"] = withSampledSim;
    engine["served"] = withServed;
    engine["condensed"] = withCondensed;
    o["engine"] = engine;
    return obs::json::Value(std::move(o)).serialize();
}

CaseSpec
CaseSpec::fromJson(const std::string &text)
{
    const obs::json::Value v = obs::json::parse(text);
    if (!v.isObject() || !v.has("schema") ||
        v.at("schema").asString() != kSchema)
        throw std::runtime_error(
            "caseSpec: missing or mismatched schema (want " +
            std::string(kSchema) + ")");
    CaseSpec spec;
    const std::string kernel = v.at("kernel").asString();
    const std::optional<core::Kernel> parsed = core::parseKernel(kernel);
    if (!parsed)
        throw std::runtime_error("caseSpec: unknown kernel '" + kernel +
                                 "'");
    spec.kernel = *parsed;
    spec.a = matrixFromJson(v.at("a"));
    if (spec.kernel == core::Kernel::Spgemm)
        spec.b = matrixFromJson(v.at("b"));
    const obs::json::Value &pu = v.at("pu");
    spec.pus = static_cast<unsigned>(pu.at("pus").asNumber());
    spec.leaves = static_cast<unsigned>(pu.at("leaves").asNumber());
    spec.fifoEntries =
        static_cast<unsigned>(pu.at("fifoEntries").asNumber());
    spec.prefetchBufferEntries = static_cast<unsigned>(
        pu.at("prefetchBufferEntries").asNumber());
    spec.stallReducingPrefetch =
        pu.at("stallReducingPrefetch").asBool();
    spec.requestCoalescing = pu.at("requestCoalescing").asBool();
    spec.seamlessMerge = pu.at("seamlessMerge").asBool();
    const obs::json::Value &engine = v.at("engine");
    spec.threads = static_cast<unsigned>(engine.at("threads").asNumber());
    spec.withReferenceScheduler =
        engine.at("referenceScheduler").asBool();
    spec.withTrace = engine.at("trace").asBool();
    spec.samplePeriod =
        static_cast<std::uint64_t>(engine.at("samplePeriod").asNumber());
    // Fast-tier knobs postdate menda.caseSpec/1; older case files simply
    // lack them, which means "off".
    spec.withFunctional = engine.has("functional")
                              ? engine.at("functional").asBool()
                              : false;
    spec.withSampledSim = engine.has("sampledSim")
                              ? engine.at("sampledSim").asBool()
                              : false;
    spec.withServed =
        engine.has("served") ? engine.at("served").asBool() : false;
    spec.withCondensed = engine.has("condensed")
                             ? engine.at("condensed").asBool()
                             : false;
    spec.normalize();
    return spec;
}

void
CaseSpec::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot open '" + path +
                                 "' for writing");
    out << toJson() << "\n";
    if (!out)
        throw std::runtime_error("failed writing '" + path + "'");
}

CaseSpec
CaseSpec::read(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return fromJson(buffer.str());
}

} // namespace menda::check
