/**
 * @file
 * Tab. 1: simulation parameters, and Tab. 3: synthetic matrix specs.
 * Dumps the exact configuration the other harnesses run with.
 */

#include <cstdio>

#include "bench_util.hh"
#include "dram/dram_config.hh"
#include "menda/pu_config.hh"
#include "sparse/workloads.hh"

using namespace menda;
using namespace menda::bench;

int
main(int argc, char **argv)
{
    Options opts;
    opts.parse(argc, argv);

    banner("Table 1: Parameters of the DRAM model and MeNDA");

    dram::DramConfig dram = dram::DramConfig::ddr4_2400r(1);
    std::printf("DRAM standard            DDR4_2400R (%lu MHz clock)\n",
                (unsigned long)dram.freqMhz);
    std::printf("Organization             4Gb_x8: %u bank groups x %u "
                "banks, %u rows, %u B row buffer\n",
                dram.bankGroups, dram.banksPerGroup, dram.rowsPerBank,
                dram.rowBufferBytes);
    std::printf("Scheduling               %u-entry RD/WR queues, "
                "FRFCFS_PriorHit\n", dram.readQueueEntries);
    std::printf("Timing                   tRC=%u tRCD=%u tCL=%u tRP=%u "
                "tBL=%u\n", dram.tRC, dram.tRCD, dram.tCL, dram.tRP,
                dram.tBL);
    std::printf("                         tCCDS=%u tCCDL=%u tRRDS=%u "
                "tRRDL=%u tFAW=%u\n", dram.tCCDS, dram.tCCDL, dram.tRRDS,
                dram.tRRDL, dram.tFAW);
    std::printf("Peak rank bandwidth      %.1f GB/s\n",
                dram.peakBandwidth() / 1e9);

    core::PuConfig pu;
    std::printf("\nProcessing unit:\n");
    std::printf("Frequency                %lu MHz\n",
                (unsigned long)pu.freqMhz);
    std::printf("Number of leaves         %u\n", pu.leaves);
    std::printf("FIFO entries             %u\n", pu.fifoEntries);
    std::printf("Prefetch buffer entries  %u\n",
                pu.prefetchBufferEntries);
    // Tab. 1's SpMV FP units, as the paper lists them: the simulated
    // root reduction charges them no latency, so they are not config.
    std::printf("FP units (SpMV only)     16 3-stage FP mult, 3 2-stage "
                "FP add (paper figures; not timed)\n");

    core::SystemConfig nominal = nominalSystem();
    std::printf("\nNominal system           %u channels x %u DIMMs x %u "
                "ranks = %u PUs (%.1f GB/s internal)\n",
                nominal.channels, nominal.dimmsPerChannel,
                nominal.ranksPerDimm, nominal.totalPus(),
                nominal.internalPeakBandwidth() / 1e9);

    banner("Table 3: synthetic uniform (N#) and power-law (P#) matrices");
    std::printf("%-8s %12s %12s   %s\n", "Matrix", "Dimension", "NNZ",
                "Generator");
    for (const auto &spec : sparse::table3Uniform())
        std::printf("%-8s %12u %12lu   uniform random sampling\n",
                    spec.name.c_str(), spec.rows,
                    (unsigned long)spec.nnz);
    for (const auto &spec : sparse::table3PowerLaw())
        std::printf("%-8s %12u %12lu   GenRMat(dim, nnz, 0.1, 0.2, "
                    "0.3)\n", spec.name.c_str(), spec.rows,
                    (unsigned long)spec.nnz);
    std::printf("\n(benches run these divided by --scale, default %lu)\n",
                (unsigned long)opts.scale());
    return 0;
}
