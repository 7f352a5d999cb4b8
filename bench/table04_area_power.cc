/**
 * @file
 * Table IV reproduction: area and power breakdown of one Adyna tile
 * (TSMC 28 nm calibration), the whole-chip totals, and the overhead
 * fractions of the DynNN-specific additions quoted in Section IX-A
 * (~4.9% tile area, ~0.85% power for dispatcher/controller/NIC).
 */

#include "bench_common.hh"
#include "costmodel/area.hh"

using namespace adyna;
using namespace adyna::bench;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const BenchParams p = BenchParams::fromArgs(args);
    args.rejectUnread();
    const arch::HwConfig hw;
    printBanner("=== Table IV: area and power of an Adyna tile ===",
                hw, p);

    const auto tile = costmodel::tileBudget(hw.tech);
    TextTable t("Per-tile breakdown (28 nm)");
    t.header({"component", "area (mm^2)", "power (mW)"});
    for (const auto &c : tile.components)
        t.row({c.name, TextTable::num(c.areaMm2, 3),
               TextTable::num(c.powerMw, 3)});
    t.separator();
    t.row({"Total", TextTable::num(tile.totalAreaMm2(), 3),
           TextTable::num(tile.totalPowerMw(), 2)});
    t.print(std::cout);

    const auto chip = costmodel::chipBudget(hw.tech, hw.tiles());
    std::printf("\nWhole chip (%d tiles): %.1f mm^2, %.1f W "
                "(paper: ~201 W vs an A100's 350 W at 7 nm)\n",
                hw.tiles(), chip.totalAreaMm2(),
                chip.totalPowerMw() / 1000.0);
    std::printf("DynNN-specific additions (dispatcher + controller/"
                "profiler + network interface): %.1f%% of tile area "
                "(paper: 4.9%%)\n",
                tile.dynnnAreaFraction() * 100.0);
    std::printf("Kernel metadata budget: %.1f kB of scratchpad "
                "(<= 5%%), %d kernels x %ld B per tile\n",
                static_cast<double>(hw.tech.kernelSpadBudget()) /
                    1024.0,
                hw.tech.maxKernelsPerTile(),
                static_cast<long>(hw.tech.kernelMetadataBytes));
    return 0;
}
