/**
 * @file
 * Fault-tolerance layer tests (DESIGN.md §10): backoff determinism,
 * the quarantine placeholder and its FAILED-cell rendering, and the
 * `failed` wire record. The journal behind `--resume` is a scoped
 * ResultCache (tests/result_cache_test.cpp). The end-to-end
 * crash/respawn/resume behavior of the Supervisor itself is exercised
 * against real forked workers by tests/fault_smoke.cmake.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/table.hh"
#include "harness/supervisor.hh"

namespace
{

using namespace acr;
using namespace acr::harness;

TEST(Backoff, DeterministicJitteredAndCapped)
{
    Supervisor::Options options;
    options.backoffBaseSec = 0.1;
    options.backoffCapSec = 1.0;

    // Same (tries, gridIndex) always yields the same delay.
    EXPECT_EQ(Supervisor::backoffSeconds(options, 1, 3),
              Supervisor::backoffSeconds(options, 1, 3));

    // Jitter stays within [0.5, 1.5)x of the capped exponential.
    for (unsigned tries = 1; tries <= 8; ++tries) {
        for (std::size_t index = 0; index < 16; ++index) {
            const double base = std::min(
                options.backoffCapSec,
                options.backoffBaseSec * std::ldexp(1.0, tries - 1));
            const double delay =
                Supervisor::backoffSeconds(options, tries, index);
            EXPECT_GE(delay, 0.5 * base);
            EXPECT_LT(delay, 1.5 * base);
        }
    }

    // Deep retry counts saturate at the cap instead of overflowing.
    EXPECT_LT(Supervisor::backoffSeconds(options, 64, 0),
              1.5 * options.backoffCapSec);
}

TEST(QuarantinedResult, PoisonsEveryDerivedMetric)
{
    const auto result =
        ExperimentResult::quarantined(3, "killed by signal 9");
    EXPECT_TRUE(result.failed);
    EXPECT_EQ(result.attempts, 3u);
    EXPECT_TRUE(std::isnan(result.energyPj));
    EXPECT_TRUE(std::isnan(result.edp));
    EXPECT_TRUE(std::isnan(result.timeOverheadPct(1000)));
    EXPECT_TRUE(std::isnan(result.energyOverheadPct(1000.0)));
    EXPECT_TRUE(std::isnan(result.edpReductionPct(1000.0)));
}

TEST(TableFailedCell, EveryEmitterRendersNonFiniteAsFailed)
{
    Table table({"name", "value"});
    table.row().cell(std::string("ok")).cell(1.5);
    table.row()
        .cell(std::string("poisoned"))
        .cell(std::nan(""), 2);

    std::ostringstream text, csv, json;
    table.print(text);
    table.printCsv(csv);
    table.printJson(json);
    EXPECT_NE(text.str().find("FAILED"), std::string::npos);
    EXPECT_NE(csv.str().find("FAILED"), std::string::npos);
    // The JSON emitter must quote it (bare nan would not parse).
    EXPECT_NE(json.str().find("\"FAILED\""), std::string::npos);
}

TEST(WireFailed, RoundTripsAndResultEncodingRefusesQuarantine)
{
    wire::FailedRecord record;
    record.index = 11;
    record.attempts = 3;
    record.reason = "worker killed by signal 9";
    const auto decoded =
        wire::decodeLine(wire::encodeFailedLine(record));
    ASSERT_EQ(decoded.type, wire::Record::Type::kFailed);
    EXPECT_EQ(decoded.failed.index, 11u);
    EXPECT_EQ(decoded.failed.attempts, 3u);
    EXPECT_EQ(decoded.failed.reason, record.reason);

    // A quarantine placeholder must never masquerade as a result
    // record: its payload is NaN-poisoned, not a measurement.
    EXPECT_THROW(wire::encodeResult(
                     ExperimentResult::quarantined(2, "boom")),
                 serde::SerdeError);
}

} // namespace
