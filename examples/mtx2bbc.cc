/**
 * @file
 * Format-conversion tool: encode a Matrix Market file into the
 * binary BBC image (§IV-D's offline encoding + file I/O), verify the
 * round-trip, and print the storage comparison against CSR and BSR.
 *
 *   mtx2bbc input.mtx output.bbc
 *   mtx2bbc output.bbc            (no input: encodes a demo matrix)
 */

#include <cstdio>

#include "bbc/bbc_io.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "corpus/generators.hh"
#include "sparse/convert.hh"
#include "sparse/io.hh"

using namespace unistc;

int
main(int argc, char **argv)
{
    CsrMatrix m;
    std::string out_path;
    if (argc == 3) {
        m = readMatrixMarketFile(argv[1]);
        out_path = argv[2];
    } else if (argc == 2) {
        m = genBanded(2048, 20, 0.45, 11);
        out_path = argv[1];
    } else {
        std::fprintf(stderr,
                     "usage: mtx2bbc [input.mtx] output.bbc\n");
        return 2;
    }

    const BbcMatrix bbc = BbcMatrix::fromCsr(m);
    saveBbcFile(out_path, bbc);

    // Verify the written image decodes to the exact input.
    const BbcMatrix back = loadBbcFile(out_path);
    if (!back.toCsr().approxEquals(m, 0.0))
        UNISTC_FATAL("round-trip verification failed");

    TextTable t("Encoded " + std::to_string(m.rows()) + "x" +
                std::to_string(m.cols()) + ", " +
                fmtCount(m.nnz()) + " nonzeros -> " + out_path);
    t.setHeader({"format", "bytes", "vs CSR"});
    const double csr = static_cast<double>(m.storageBytes());
    t.addRow({"CSR", fmtBytes(m.storageBytes()), "1.00x"});
    const BsrMatrix b4 = csrToBsr(m, 4);
    t.addRow({"BSR 4x4", fmtBytes(b4.storageBytes()),
              fmtRatio(csr / b4.storageBytes())});
    const BsrMatrix b16 = csrToBsr(m, 16);
    t.addRow({"BSR 16x16", fmtBytes(b16.storageBytes()),
              fmtRatio(csr / b16.storageBytes())});
    t.addRow({"BBC", fmtBytes(bbc.storageBytes()),
              fmtRatio(csr / bbc.storageBytes())});
    std::fputs(t.render().c_str(), stdout);
    std::printf("\nNnzPB %.2f; metadata %s; round-trip verified.\n",
                bbc.nnzPerBlock(),
                fmtBytes(bbc.metadataBytes()).c_str());
    return 0;
}
