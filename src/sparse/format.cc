#include "sparse/format.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/log.hh"

namespace menda::sparse
{

namespace
{

/** Reject a malformed matrix: callers (wire decode, tests) catch this,
 *  so it throws without logging. */
template <typename... Args>
[[noreturn]] void
reject(const char *what, Args &&...args)
{
    throw std::runtime_error(
        detail::formatArgs(what, ": ", std::forward<Args>(args)...));
}

void
validateCompressed(const char *what, Index major, Index minor,
                   const std::vector<std::uint32_t> &ptr,
                   const std::vector<Index> &idx,
                   const std::vector<Value> &val)
{
    const std::size_t lines = static_cast<std::size_t>(major) + 1;
    if (ptr.size() != lines)
        reject(what, "pointer array has ", ptr.size(),
               " entries, expected ", lines);
    if (ptr.front() != 0)
        reject(what, "pointer array must start at 0");
    if (ptr.back() != idx.size())
        reject(what, "pointer array ends at ", ptr.back(), " but there are ",
               idx.size(), " non-zeros");
    if (idx.size() != val.size())
        reject(what, "index/value arrays differ in length");
    for (std::size_t i = 1; i < ptr.size(); ++i) {
        if (ptr[i] < ptr[i - 1])
            reject(what, "pointer array not monotonic at ", i);
    }
    for (std::size_t r = 0; r < major; ++r) {
        for (std::uint32_t k = ptr[r]; k < ptr[r + 1]; ++k) {
            if (idx[k] >= minor)
                reject(what, "index ", idx[k], " out of bounds (", minor,
                       ") in line ", r);
            if (k > ptr[r] && idx[k] <= idx[k - 1])
                reject(what, "indices not strictly increasing in line ", r,
                       " at offset ", k);
        }
    }
}

} // namespace

Index
CsrMatrix::nonEmptyRows() const
{
    Index count = 0;
    for (Index r = 0; r < rows; ++r)
        if (ptr[r + 1] > ptr[r])
            ++count;
    return count;
}

double
CsrMatrix::density() const
{
    if (rows == 0 || cols == 0)
        return 0.0;
    return static_cast<double>(nnz()) /
           (static_cast<double>(rows) * static_cast<double>(cols));
}

void
CsrMatrix::validate() const
{
    validateCompressed("CSR", rows, cols, ptr, idx, val);
}

void
CscMatrix::validate() const
{
    validateCompressed("CSC", cols, rows, ptr, idx, val);
}

bool
CooMatrix::sortedByColRow() const
{
    for (std::size_t i = 1; i < nnz(); ++i) {
        if (col[i] < col[i - 1] ||
            (col[i] == col[i - 1] && row[i] < row[i - 1]))
            return false;
    }
    return true;
}

bool
CooMatrix::sortedByRowCol() const
{
    for (std::size_t i = 1; i < nnz(); ++i) {
        if (row[i] < row[i - 1] ||
            (row[i] == row[i - 1] && col[i] < col[i - 1]))
            return false;
    }
    return true;
}

CscMatrix
transposeReference(const CsrMatrix &a)
{
    CscMatrix out;
    out.rows = a.rows;
    out.cols = a.cols;
    out.ptr.assign(static_cast<std::size_t>(a.cols) + 1, 0);
    out.idx.resize(a.nnz());
    out.val.resize(a.nnz());

    // Count non-zeros per column.
    for (Index c : a.idx)
        ++out.ptr[c + 1];
    std::partial_sum(out.ptr.begin(), out.ptr.end(), out.ptr.begin());

    // Scatter in row order so rows stay sorted within each column.
    std::vector<std::uint32_t> cursor(out.ptr.begin(), out.ptr.end() - 1);
    for (Index r = 0; r < a.rows; ++r) {
        for (std::uint32_t k = a.ptr[r]; k < a.ptr[r + 1]; ++k) {
            std::uint32_t dst = cursor[a.idx[k]]++;
            out.idx[dst] = r;
            out.val[dst] = a.val[k];
        }
    }
    return out;
}

CsrMatrix
transposeReference(const CscMatrix &a)
{
    // CSC(A) is CSR(Aᵀ); transposing Aᵀ with the CSR routine yields
    // CSC(Aᵀ) = CSR(A).
    CsrMatrix as_csr = asCsrOfTranspose(a);
    CscMatrix t = transposeReference(as_csr);
    CsrMatrix out;
    out.rows = a.rows;
    out.cols = a.cols;
    out.ptr = std::move(t.ptr);
    out.idx = std::move(t.idx);
    out.val = std::move(t.val);
    return out;
}

CsrMatrix
asCsrOfTranspose(const CscMatrix &a)
{
    CsrMatrix out;
    out.rows = a.cols;
    out.cols = a.rows;
    out.ptr = a.ptr;
    out.idx = a.idx;
    out.val = a.val;
    return out;
}

CscMatrix
asCscOfTranspose(const CsrMatrix &a)
{
    CscMatrix out;
    out.rows = a.cols;
    out.cols = a.rows;
    out.ptr = a.ptr;
    out.idx = a.idx;
    out.val = a.val;
    return out;
}

CsrMatrix
cooToCsr(CooMatrix coo)
{
    std::vector<std::size_t> order(coo.nnz());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) {
                  if (coo.row[x] != coo.row[y])
                      return coo.row[x] < coo.row[y];
                  return coo.col[x] < coo.col[y];
              });

    CsrMatrix out;
    out.rows = coo.rows;
    out.cols = coo.cols;
    out.ptr.assign(static_cast<std::size_t>(coo.rows) + 1, 0);
    out.idx.reserve(coo.nnz());
    out.val.reserve(coo.nnz());
    for (std::size_t k : order) {
        ++out.ptr[coo.row[k] + 1];
        out.idx.push_back(coo.col[k]);
        out.val.push_back(coo.val[k]);
    }
    std::partial_sum(out.ptr.begin(), out.ptr.end(), out.ptr.begin());
    return out;
}

CooMatrix
csrToCoo(const CsrMatrix &a)
{
    CooMatrix out;
    out.rows = a.rows;
    out.cols = a.cols;
    out.row.reserve(a.nnz());
    out.col.assign(a.idx.begin(), a.idx.end());
    out.val.assign(a.val.begin(), a.val.end());
    for (Index r = 0; r < a.rows; ++r)
        for (std::uint32_t k = a.ptr[r]; k < a.ptr[r + 1]; ++k)
            out.row.push_back(r);
    return out;
}

std::vector<double>
spmvReference(const CsrMatrix &a, const std::vector<Value> &x)
{
    menda_assert(x.size() == a.cols,
                 "spmv: vector length ", x.size(), " != cols ", a.cols);
    std::vector<double> y(a.rows, 0.0);
    for (Index r = 0; r < a.rows; ++r) {
        double acc = 0.0;
        for (std::uint32_t k = a.ptr[r]; k < a.ptr[r + 1]; ++k)
            acc += static_cast<double>(a.val[k]) *
                   static_cast<double>(x[a.idx[k]]);
        y[r] = acc;
    }
    return y;
}

} // namespace menda::sparse
