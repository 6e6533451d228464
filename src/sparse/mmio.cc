#include "sparse/mmio.hh"

#include <algorithm>
#include <cctype>
#include <cfloat>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/log.hh"

namespace menda::sparse
{

namespace
{

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    return s;
}

} // namespace

CsrMatrix
readMatrixMarket(std::istream &in)
{
    std::string line;
    if (!std::getline(in, line))
        menda_fatal("MatrixMarket: empty input");
    std::uint64_t line_no = 1;

    std::istringstream header(line);
    std::string banner, object, format, field, symmetry;
    header >> banner >> object >> format >> field >> symmetry;
    if (banner != "%%MatrixMarket")
        menda_fatal("MatrixMarket: missing %%MatrixMarket banner");
    object = lower(object);
    format = lower(format);
    field = lower(field);
    symmetry = lower(symmetry);
    if (object != "matrix" || format != "coordinate")
        menda_fatal("MatrixMarket: only 'matrix coordinate' is supported");
    if (field != "real" && field != "integer" && field != "pattern")
        menda_fatal("MatrixMarket: unsupported field '", field, "'");
    if (symmetry != "general" && symmetry != "symmetric")
        menda_fatal("MatrixMarket: unsupported symmetry '", symmetry, "'");
    const bool pattern = field == "pattern";
    const bool symmetric = symmetry == "symmetric";

    // Skip comments.
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line[0] != '%')
            break;
    }
    std::istringstream sizes(line);
    std::uint64_t rows = 0, cols = 0, entries = 0;
    sizes >> rows >> cols >> entries;
    if (!sizes)
        menda_fatal("MatrixMarket: malformed size line '", line, "'");

    CooMatrix coo;
    coo.rows = static_cast<Index>(rows);
    coo.cols = static_cast<Index>(cols);
    coo.row.reserve(entries);
    coo.col.reserve(entries);
    coo.val.reserve(entries);
    for (std::uint64_t i = 0; i < entries; ++i) {
        if (!std::getline(in, line))
            menda_fatal("MatrixMarket: expected ", entries,
                        " entries, got ", i);
        ++line_no;
        std::istringstream entry(line);
        std::uint64_t r = 0, c = 0;
        double v = 1.0;
        entry >> r >> c;
        if (!pattern)
            entry >> v;
        if (!entry || r == 0 || c == 0 || r > rows || c > cols)
            menda_fatal("MatrixMarket: bad entry '", line, "'");
        if (!(std::fabs(v) <= FLT_MAX))
            menda_fatal("MatrixMarket: line ", line_no, ": value ", v,
                        " is beyond the float range");
        coo.row.push_back(static_cast<Index>(r - 1));
        coo.col.push_back(static_cast<Index>(c - 1));
        coo.val.push_back(static_cast<Value>(v));
        if (symmetric && r != c) {
            coo.row.push_back(static_cast<Index>(c - 1));
            coo.col.push_back(static_cast<Index>(r - 1));
            coo.val.push_back(static_cast<Value>(v));
        }
    }
    CsrMatrix a = cooToCsr(std::move(coo));
    try {
        a.validate();
    } catch (const std::runtime_error &err) {
        // Entries are range-checked above and cooToCsr sorts every row,
        // so only a coordinate given twice gets here.
        menda_fatal("MatrixMarket: repeated coordinate: ", err.what());
    }
    return a;
}

CsrMatrix
readMatrixMarketFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        menda_fatal("cannot open matrix file '", path, "'");
    return readMatrixMarket(in);
}

void
writeMatrixMarket(std::ostream &out, const CsrMatrix &a)
{
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << a.rows << " " << a.cols << " " << a.nnz() << "\n";
    for (Index r = 0; r < a.rows; ++r)
        for (std::uint32_t k = a.ptr[r]; k < a.ptr[r + 1]; ++k)
            out << (r + 1) << " " << (a.idx[k] + 1) << " " << a.val[k]
                << "\n";
}

void
writeMatrixMarketFile(const std::string &path, const CsrMatrix &a)
{
    std::ofstream out(path);
    if (!out)
        menda_fatal("cannot create matrix file '", path, "'");
    writeMatrixMarket(out, a);
}

} // namespace menda::sparse
