/**
 * @file
 * Tests for the energy model: per-component accounting, the paper's
 * driving cost ratio (DRAM >> ALU), and EDP.
 */

#include <gtest/gtest.h>

#include "energy/energy_model.hh"

namespace acr::energy
{
namespace
{

TEST(EnergyModel, ComponentsSumToTotal)
{
    StatSet stats;
    stats.set("cores.aluOps", 1000);
    stats.set("l1i.fetches", 1500);
    stats.set("l1d.hits", 300);
    stats.set("l1d.misses", 50);
    stats.set("l2.hits", 40);
    stats.set("l2.misses", 10);
    stats.set("dram.bytes", 640);
    stats.set("nvm.bytesRead", 128);
    stats.set("nvm.bytesWritten", 256);
    stats.set("nvm.persists", 3);
    stats.set("directory.invalidationsSent", 5);
    stats.set("directory.ownerForwards", 2);
    stats.set("acr.addrMapAccesses", 20);
    stats.set("acr.operandBufferWords", 30);
    stats.set("acr.replayAluOps", 12);
    stats.set("sim.maxCycle", 10000);
    stats.set("sim.numCores", 4);

    EnergyModel model;
    double total = model.annotate(stats);

    double sum = stats.get("energy.alu") + stats.get("energy.fetch") +
                 stats.get("energy.l1d") + stats.get("energy.l2") +
                 stats.get("energy.dram") + stats.get("energy.nvm") +
                 stats.get("energy.noc") +
                 stats.get("energy.addrMap") +
                 stats.get("energy.operandBuffer") +
                 stats.get("energy.sliceReplay") +
                 stats.get("energy.static");
    EXPECT_DOUBLE_EQ(total, sum);
    EXPECT_DOUBLE_EQ(stats.get("energy.total"), total);
}

TEST(EnergyModel, ExpectedComponentValues)
{
    EnergyConfig config;
    StatSet stats;
    stats.set("cores.aluOps", 10);
    stats.set("dram.bytes", 100);
    stats.set("sim.maxCycle", 7);
    stats.set("sim.numCores", 2);

    EnergyModel model(config);
    model.annotate(stats);
    EXPECT_DOUBLE_EQ(stats.get("energy.alu"), 10 * config.aluOpPj);
    EXPECT_DOUBLE_EQ(stats.get("energy.dram"), 100 * config.dramBytePj);
    EXPECT_DOUBLE_EQ(stats.get("energy.static"),
                     7 * 2 * config.staticPjPerCoreCycle);
}

TEST(EnergyModel, NvmCountersChargeAsymmetricCosts)
{
    // The NvmStore's counters (DESIGN.md §14): reads, writes, and
    // persist fences carry distinct picojoule costs, and a run that
    // never touches NVM (any non-NVM backend) charges exactly zero.
    EnergyConfig config;
    StatSet stats;
    stats.set("nvm.bytesRead", 64);
    stats.set("nvm.bytesWritten", 16);
    stats.set("nvm.persists", 2);

    EnergyModel model(config);
    double total = model.annotate(stats);
    EXPECT_DOUBLE_EQ(stats.get("energy.nvm"),
                     64 * config.nvmReadBytePj +
                         16 * config.nvmWriteBytePj +
                         2 * config.nvmPersistPj);
    EXPECT_DOUBLE_EQ(total, stats.get("energy.nvm"));
    EXPECT_GT(config.nvmWriteBytePj, config.nvmReadBytePj)
        << "NVM writes cost more than reads (the asymmetry amnesic "
           "omission exploits)";
    EXPECT_GT(config.nvmReadBytePj, config.dramBytePj);

    StatSet untouched;
    untouched.set("dram.bytes", 100);
    model.annotate(untouched);
    EXPECT_DOUBLE_EQ(untouched.get("energy.nvm"), 0.0);
}

TEST(EnergyModel, DramDominatesAluByOrdersOfMagnitude)
{
    // The paper's premise (Sec. I): recomputing is cheaper than
    // retrieving. One word from DRAM must dwarf one ALU op.
    EnergyConfig config;
    double word_from_dram = 8 * config.dramBytePj;
    EXPECT_GT(word_from_dram, 50 * config.aluOpPj);
    // A 10-instruction Slice replay plus write-back beats a log-record
    // restore (word read + word write): Equation 4's energy side.
    double replay = 10 * config.aluOpPj + 2 * config.operandBufferPj +
                    8 * config.dramBytePj;
    double restore = 2 * 8 * config.dramBytePj;
    EXPECT_LT(replay, restore);
}

TEST(EnergyModel, RecomputeBeatsRestoreUpTo89InstructionSlices)
{
    // Equation 4's energy crossover: replaying an L-instruction Slice
    // (L ALU ops, two operand-buffer reads, one word write-back) vs
    // restoring the word from the in-memory log (word read + word
    // write). With the default costs recomputation wins up to L = 89,
    // far above the paper's threshold of 10.
    EnergyConfig config;
    auto ratio = [&](double length) {
        double recompute = length * config.aluOpPj +
                           2 * config.operandBufferPj +
                           8 * config.dramBytePj;
        double restore = 2 * 8 * config.dramBytePj;
        return recompute / restore;
    };
    EXPECT_LT(ratio(89), 1.0);
    EXPECT_GT(ratio(90), 1.0);
}

TEST(EnergyModel, MissingCountersContributeZero)
{
    StatSet stats;
    EnergyModel model;
    EXPECT_DOUBLE_EQ(model.annotate(stats), 0.0);
}

TEST(EnergyModel, EdpIsEnergyTimesDelay)
{
    EXPECT_DOUBLE_EQ(EnergyModel::edp(1000.0, 50), 50000.0);
    EXPECT_DOUBLE_EQ(EnergyModel::edp(0.0, 50), 0.0);
}

} // namespace
} // namespace acr::energy
