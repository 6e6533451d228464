#include "sparse/generate.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"

namespace menda::sparse
{

namespace
{

/** Pack a coordinate for dedup/sorting: row-major order. */
constexpr std::uint64_t
key(Index r, Index c)
{
    return (static_cast<std::uint64_t>(r) << 32) | c;
}

/** Build a CSR matrix from a set of unique, packed coordinates. */
CsrMatrix
fromKeys(Index rows, Index cols, std::vector<std::uint64_t> keys,
         std::uint64_t seed)
{
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    Rng value_rng(seed ^ 0xabcdef1234567890ull);
    CsrMatrix out;
    out.rows = rows;
    out.cols = cols;
    out.ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
    out.idx.reserve(keys.size());
    out.val.reserve(keys.size());
    for (std::uint64_t k : keys) {
        Index r = static_cast<Index>(k >> 32);
        Index c = static_cast<Index>(k & 0xffffffffu);
        ++out.ptr[r + 1];
        out.idx.push_back(c);
        out.val.push_back(value_rng.value());
    }
    for (std::size_t r = 0; r < rows; ++r)
        out.ptr[r + 1] += out.ptr[r];
    return out;
}

} // namespace

CsrMatrix
generateUniform(Index rows, Index cols, std::uint64_t nnz,
                std::uint64_t seed)
{
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(rows) * cols;
    if (nnz > capacity)
        menda_fatal("generateUniform: nnz ", nnz, " exceeds ", rows, "x",
                    cols);

    Rng rng(seed);
    std::unordered_set<std::uint64_t> picked;
    picked.reserve(nnz * 2);
    while (picked.size() < nnz) {
        Index r = static_cast<Index>(rng.below(rows));
        Index c = static_cast<Index>(rng.below(cols));
        picked.insert(key(r, c));
    }
    return fromKeys(rows, cols,
                    std::vector<std::uint64_t>(picked.begin(), picked.end()),
                    seed);
}

CsrMatrix
generateRmat(Index rows, std::uint64_t nnz, double a, double b, double c,
             std::uint64_t seed)
{
    if (rows == 0 || (rows & (rows - 1)) != 0)
        menda_fatal("generateRmat: dimension ", rows,
                    " must be a power of two");
    const double d = 1.0 - a - b - c;
    if (d < 0.0)
        menda_fatal("generateRmat: a+b+c must be <= 1");

    int levels = 0;
    for (Index n = rows; n > 1; n >>= 1)
        ++levels;

    Rng rng(seed);
    std::unordered_set<std::uint64_t> picked;
    picked.reserve(nnz * 2);
    // SNAP's GenRMat perturbs the quadrant probabilities per recursion
    // level (+-10% noise, then renormalized); without it the hubs of
    // deep R-MAT recursions are unrealistically concentrated.
    std::uint64_t attempts = 0;
    const std::uint64_t max_attempts = nnz * 64 + 1024;
    while (picked.size() < nnz) {
        if (++attempts > max_attempts)
            menda_fatal("generateRmat: matrix too dense for R-MAT skew; "
                        "cannot place ", nnz, " distinct edges");
        Index r = 0, col = 0;
        for (int level = 0; level < levels; ++level) {
            const double na = a * (0.9 + 0.2 * rng.uniform());
            const double nb = b * (0.9 + 0.2 * rng.uniform());
            const double nc = c * (0.9 + 0.2 * rng.uniform());
            const double nd = d * (0.9 + 0.2 * rng.uniform());
            const double p = rng.uniform() * (na + nb + nc + nd);
            r <<= 1;
            col <<= 1;
            if (p < na) {
                // top-left quadrant
            } else if (p < na + nb) {
                col |= 1;
            } else if (p < na + nb + nc) {
                r |= 1;
            } else {
                r |= 1;
                col |= 1;
            }
        }
        picked.insert(key(r, col));
    }
    return fromKeys(rows, rows,
                    std::vector<std::uint64_t>(picked.begin(), picked.end()),
                    seed);
}

CsrMatrix
generateBanded(Index rows, Index band, double fill, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> keys;
    keys.reserve(static_cast<std::size_t>(rows * band * fill * 1.1) + rows);
    for (Index r = 0; r < rows; ++r) {
        // Diagonal is always present, as in FEM stiffness matrices.
        keys.push_back(key(r, r));
        Index lo = r > band / 2 ? r - band / 2 : 0;
        Index hi = std::min<Index>(rows - 1, r + band / 2);
        for (Index c = lo; c <= hi; ++c) {
            if (c != r && rng.uniform() < fill)
                keys.push_back(key(r, c));
        }
    }
    return fromKeys(rows, rows, std::move(keys), seed);
}

CsrMatrix
generateCircuit(Index rows, std::uint64_t nnz, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> keys;
    keys.reserve(nnz + rows);

    // Diagonal (device self-conductance).
    for (Index r = 0; r < rows; ++r)
        keys.push_back(key(r, r));

    // A handful of dense rows and columns modeling supply rails.
    const Index n_rails = std::max<Index>(2, rows / 50000);
    const std::uint64_t rail_budget = nnz / 20;
    for (std::uint64_t i = 0; i < rail_budget; ++i) {
        Index rail = static_cast<Index>(rng.below(n_rails));
        Index other = static_cast<Index>(rng.below(rows));
        if (i % 2 == 0)
            keys.push_back(key(rail, other));
        else
            keys.push_back(key(other, rail));
    }

    // Local couplings with short, geometrically distributed reach.
    while (keys.size() < nnz + rows / 2) {
        Index r = static_cast<Index>(rng.below(rows));
        std::uint64_t reach = 1 + rng.below(64);
        Index c = static_cast<Index>((r + reach) % rows);
        keys.push_back(key(r, c));
        keys.push_back(key(c, r)); // circuits are structurally symmetric
    }
    return fromKeys(rows, rows, std::move(keys), seed);
}

CsrMatrix
generateLocalGraph(Index rows, std::uint64_t nnz, Index reach,
                   std::uint64_t seed)
{
    menda_assert(reach > 0 && reach < rows, "bad reach");
    Rng rng(seed);
    std::unordered_set<std::uint64_t> picked;
    picked.reserve(nnz * 2);
    // A connectivity backbone keeps traversals from fragmenting.
    for (Index r = 0; r + 1 < rows && picked.size() < nnz; ++r)
        picked.insert(key(r, r + 1));
    while (picked.size() < nnz) {
        Index r = static_cast<Index>(rng.below(rows));
        // Skewed reach: most edges are short, a few span the window.
        std::uint64_t span = 1 + rng.below(reach);
        if (rng.below(4) != 0)
            span = 1 + span % (reach / 8 + 1);
        Index c = static_cast<Index>((r + span) % rows);
        picked.insert(key(r, c));
        if (rng.below(2) == 0 && picked.size() < nnz) {
            Index back = r >= span ? r - static_cast<Index>(span)
                                   : static_cast<Index>(r + rows - span);
            picked.insert(key(r, back % rows));
        }
    }
    return fromKeys(rows, rows,
                    std::vector<std::uint64_t>(picked.begin(),
                                               picked.end()),
                    seed);
}

CsrMatrix
generateSkewedRows(Index rows, Index cols, std::uint64_t nnz, double skew,
                   std::uint64_t seed)
{
    Rng rng(seed);
    const double avg = static_cast<double>(nnz) / rows;
    std::vector<std::uint64_t> keys;
    keys.reserve(nnz + nnz / 8);
    for (Index r = 0; r < rows && keys.size() < nnz; ++r) {
        // Geometric-ish length: most rows short, a tail of long rows.
        double u = rng.uniform();
        const double raw =
            avg * (1.0 - skew) + avg * skew * (-std::log(1.0 - u));
        // With skew > 1, raw can be negative, and casting a negative
        // double to uint64 is undefined: x86-64 truncates to a negative
        // int64 and wraps it (clipped to a full row below), AArch64
        // saturates to 0. Spell out the x86-64 result so every CPU
        // builds the same matrix: raw <= -1 is a full row, (-1, 1) is
        // empty, anything else truncates and clips to cols.
        std::uint64_t len = cols;
        if (raw > -1.0 && raw < 1.0)
            len = 0;
        else if (raw >= 1.0 && raw < static_cast<double>(cols))
            len = static_cast<std::uint64_t>(raw);
        for (std::uint64_t i = 0; i < len; ++i)
            keys.push_back(key(r, static_cast<Index>(rng.below(cols))));
    }
    return fromKeys(rows, cols, std::move(keys), seed);
}

} // namespace menda::sparse
