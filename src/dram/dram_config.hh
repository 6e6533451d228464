/**
 * @file
 * DDR4 device organization and timing parameters.
 *
 * Defaults reproduce Tab. 1: standard DDR4_2400R, 4Gb x8 devices,
 * 32-entry RD/WR queues with FRFCFS_PriorHit scheduling, and the listed
 * timing constraints (in memory-clock cycles at 1200 MHz). Parameters the
 * table omits (write recovery, turnarounds, refresh) use JEDEC DDR4-2400
 * values. The config describes the device and its queues only: the
 * controller has one scheduler, so no field selects a scheduling
 * implementation.
 */

#ifndef MENDA_DRAM_DRAM_CONFIG_HH
#define MENDA_DRAM_DRAM_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace menda::dram
{

/**
 * Physical-to-DRAM address mapping policy.
 *
 * BankGroupInterleaved (default) places the bank-group bits directly
 * above the block offset: back-to-back blocks of a sequential stream
 * rotate bank groups, so consecutive bursts are spaced by tCCD_S (= the
 * burst length) and the data bus can saturate — the standard DDR4
 * layout trick. RowBufferContiguous keeps a whole row buffer contiguous
 * instead (column bits first); sequential bursts then stay within one
 * bank group and are spaced by the longer tCCD_L, capping streaming
 * bandwidth at tBL/tCCD_L (= 2/3 for DDR4-2400). The ablation bench
 * quantifies the difference.
 */
enum class AddressMapping : std::uint8_t
{
    BankGroupInterleaved,
    RowBufferContiguous,
};

struct DramConfig
{
    // --- organization (4Gb x8, 64-bit rank) ---
    unsigned ranks = 1;          ///< ranks sharing this controller's bus
    unsigned bankGroups = 4;
    unsigned banksPerGroup = 4;
    unsigned rowsPerBank = 32768;
    unsigned rowBufferBytes = 8192;  ///< per rank (1 KB per x8 device * 8)

    // --- clocking ---
    std::uint64_t freqMhz = 1200;    ///< memory clock (DDR4-2400)

    // --- timing constraints, in memory-clock cycles (Tab. 1) ---
    unsigned tRC = 55;
    unsigned tRCD = 16;
    unsigned tCL = 16;
    unsigned tRP = 16;
    unsigned tBL = 4;
    unsigned tCCDS = 4;
    unsigned tCCDL = 6;
    unsigned tRRDS = 4;
    unsigned tRRDL = 6;
    unsigned tFAW = 26;
    // JEDEC DDR4-2400 values for constraints not listed in Tab. 1:
    unsigned tRAS = 39;   ///< tRC - tRP
    unsigned tCWL = 12;
    unsigned tWR = 18;    ///< 15 ns
    unsigned tWTRS = 3;   ///< 2.5 ns
    unsigned tWTRL = 9;   ///< 7.5 ns
    unsigned tRTP = 9;    ///< 7.5 ns
    unsigned tREFI = 9360; ///< 7.8 us
    unsigned tRFC = 312;   ///< 260 ns (4 Gb)

    // --- address mapping ---
    AddressMapping mapping = AddressMapping::BankGroupInterleaved;

    // --- scheduling (Tab. 1) ---
    unsigned readQueueEntries = 32;
    unsigned writeQueueEntries = 32;
    unsigned writeHighWatermark = 24; ///< start draining writes
    unsigned writeLowWatermark = 8;   ///< stop draining writes
    bool refreshEnabled = true;

    /** Total banks visible to this controller. */
    unsigned totalBanks() const { return ranks * bankGroups * banksPerGroup; }

    /** Capacity in bytes of one rank. */
    std::uint64_t rankBytes() const
    {
        return static_cast<std::uint64_t>(bankGroups) * banksPerGroup *
               rowsPerBank * rowBufferBytes;
    }

    /** Capacity in bytes of all ranks behind this controller. */
    std::uint64_t totalBytes() const { return rankBytes() * ranks; }

    /** Peak data bandwidth of the shared bus in bytes/second. */
    double peakBandwidth() const
    {
        // 64 B per tBL cycles.
        return static_cast<double>(blockBytes) / tBL * freqMhz * 1e6;
    }

    /** Tab. 1 configuration. @p n_ranks ranks share one bus. */
    static DramConfig ddr4_2400r(unsigned n_ranks = 1);
};

} // namespace menda::dram

#endif // MENDA_DRAM_DRAM_CONFIG_HH
