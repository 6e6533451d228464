/**
 * @file
 * Matrix Market (.mtx) reader/writer so real SuiteSparse matrices can be
 * used in place of the synthetic Tab. 4 stand-ins when available.
 *
 * Supports "matrix coordinate real|integer|pattern general|symmetric".
 */

#ifndef MENDA_SPARSE_MMIO_HH
#define MENDA_SPARSE_MMIO_HH

#include <iosfwd>
#include <string>

#include "sparse/format.hh"

namespace menda::sparse
{

/**
 * Parse a Matrix Market stream into canonical CSR. menda_fatal on
 * malformed input, on a coordinate given twice (after symmetric
 * mirroring) and on a value beyond the float range (naming its line).
 */
CsrMatrix readMatrixMarket(std::istream &in);

/** Load a .mtx file from disk. */
CsrMatrix readMatrixMarketFile(const std::string &path);

/** Write @p a as "matrix coordinate real general". */
void writeMatrixMarket(std::ostream &out, const CsrMatrix &a);

/** Write to a file on disk. */
void writeMatrixMarketFile(const std::string &path, const CsrMatrix &a);

} // namespace menda::sparse

#endif // MENDA_SPARSE_MMIO_HH
