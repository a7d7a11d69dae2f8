/**
 * @file
 * Fault-tolerance layer tests (DESIGN.md §10): backoff determinism,
 * the quarantine placeholder and its FAILED-cell rendering, the
 * `failed` wire record, and the pass-group deal rule
 * (Supervisor::pickGroup), alone and in a model of the deal loop.
 * The journal behind `--resume` is a scoped ResultCache (tests/result_cache_test.cpp). The end-to-end
 * crash/respawn/resume behavior of the Supervisor itself is exercised
 * against real forked workers by tests/fault_smoke.cmake.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

constexpr std::size_t kNone = Supervisor::kNoGroup;

TEST(PickGroup, OwnGroupThenAnUnheldOneThenASteal)
{
    // Member 3 works group 0; groups 1 and 2 are held by members 1, 2.
    std::vector<std::uint64_t> holder = {3, 1, 2, 0};
    std::vector<std::size_t> workers = {1, 1, 1, 0};
    EXPECT_EQ(Supervisor::pickGroup(0, {2, 5, 5, 4}, workers, holder, 0),
              0u);
    // Its group drained: the first group nobody holds comes next.
    EXPECT_EQ(Supervisor::pickGroup(0, {0, 5, 5, 4}, workers, holder, 0),
              3u);
    EXPECT_EQ(Supervisor::pickGroup(kNone, {0, 5, 5, 4}, workers, holder,
                                    0),
              3u);
    // Every group held: steal into the one with the most ready points,
    // the first of equals.
    EXPECT_EQ(Supervisor::pickGroup(0, {0, 5, 6, 0}, workers, holder, 0),
              2u);
    EXPECT_EQ(Supervisor::pickGroup(0, {0, 6, 6, 0}, workers, holder, 0),
              1u);
    EXPECT_EQ(Supervisor::pickGroup(0, {0, 0, 0, 0}, workers, holder, 0),
              kNone);
}

TEST(PickGroup, StealsIntoAGroupWhoseHeadIsStillRunning)
{
    // Member 2 idles while member 1 runs group 0's first point (say it
    // wedged): no pass has been timed, so stealing waits on nothing.
    EXPECT_EQ(Supervisor::pickGroup(kNone, {4}, {1}, {1}, 0), 0u);
}

TEST(PickGroup, StealsOnlyPointsThatOutlastTheStealersPass)
{
    // A pass costs 3 point times. 4 ready points on 1 worker outlast
    // it; 2 do not, nor do 5 shared by 2 workers.
    const std::vector<std::uint64_t> holder = {1, 2, 3};
    EXPECT_EQ(Supervisor::pickGroup(kNone, {2, 4, 0}, {1, 1, 1}, holder,
                                    3.0),
              1u);
    EXPECT_EQ(Supervisor::pickGroup(kNone, {2, 3, 0}, {1, 1, 1}, holder,
                                    3.0),
              kNone);
    EXPECT_EQ(Supervisor::pickGroup(kNone, {5, 0, 0}, {2, 1, 1}, holder,
                                    3.0),
              kNone);
    EXPECT_EQ(Supervisor::pickGroup(kNone, {7, 0, 0}, {2, 1, 1}, holder,
                                    3.0),
              0u);
}

/**
 * A discrete-event model of Supervisor::run's deal loop over a crash-
 * free sweep: @p members identical members, groups of the given sizes
 * dealt in order, every point 1 time unit, plus @p pass units for the
 * point that opens a group on a member. Checks at every deal that a
 * member idles only when no group's ready points would outlast a
 * steal's pass, and returns {slice passes, makespan}.
 */
std::pair<std::size_t, double>
modelSweep(const std::vector<std::size_t> &sizes, std::size_t members,
           double pass)
{
    const std::size_t groups = sizes.size();
    std::vector<std::size_t> ready = sizes;
    std::size_t remaining = 0;
    for (const std::size_t size : sizes)
        remaining += size;
    std::vector<std::uint64_t> holder(groups, 0);
    std::vector<std::size_t> group(members, kNone);
    std::vector<std::set<std::size_t>> computed(members);
    std::vector<double> busyUntil(members, -1.0);  // < 0: idle
    std::size_t passes = 0;
    double now = 0.0;
    while (remaining > 0) {
        for (std::size_t m = 0; m < members; ++m) {
            if (busyUntil[m] >= 0.0)
                continue;
            std::vector<std::size_t> workers(groups, 0);
            for (const std::size_t g : group)
                if (g != kNone)
                    ++workers[g];
            const std::size_t g = Supervisor::pickGroup(
                group[m], ready, workers, holder, pass);
            if (g == kNone) {
                for (std::size_t other = 0; other < groups; ++other)
                    EXPECT_TRUE(ready[other] == 0 ||
                                (holder[other] != 0 &&
                                 ready[other] <= workers[other] * pass))
                        << "member " << m << " idles at t=" << now
                        << " beside " << ready[other]
                        << " ready point(s) of group " << other;
                continue;
            }
            if (holder[g] == 0) {
                if (group[m] != kNone && holder[group[m]] == m + 1)
                    holder[group[m]] = 0;
                holder[g] = m + 1;
            }
            group[m] = g;
            --ready[g];
            busyUntil[m] = now + 1.0;
            if (computed[m].insert(g).second) {
                ++passes;
                busyUntil[m] += pass;
            }
        }
        double next = -1.0;
        for (const double until : busyUntil)
            if (until >= 0.0 && (next < 0.0 || until < next))
                next = until;
        now = next;
        for (double &until : busyUntil)
            if (until == now) {
                until = -1.0;
                --remaining;
            }
    }
    return {passes, now};
}

TEST(DealModel, UnequalGroupsKeepSpareMembersStealing)
{
    // Two pass groups, four members: the two spare members steal into
    // the big group from the start and again once the small one
    // drains, instead of idling to the end of the sweep.
    const auto [passes, makespan] = modelSweep({8, 24}, 4, 3.0);
    EXPECT_LE(passes, 6u);
    // 32 points plus at least 2 passes on 4 members take 9.5 time
    // units at the very least; serially on the two holders, 27.
    EXPECT_LT(makespan, 13.0);

    const auto [passes3, makespan3] = modelSweep({20, 3, 9}, 4, 3.0);
    EXPECT_LE(passes3, 6u);
    EXPECT_LT(makespan3, 14.0);
}

TEST(DealModel, EqualGroupsComputeFewPassesBeyondOnePerGroup)
{
    // fig06's shape: 8 groups of 5 points on 3 members.
    for (const double pass : {1.0, 3.0, 6.0}) {
        const auto [passes, makespan] =
            modelSweep({5, 5, 5, 5, 5, 5, 5, 5}, 3, pass);
        EXPECT_GE(passes, 8u);
        EXPECT_LE(passes, 10u) << "pass " << pass;
        EXPECT_LE(makespan, (40 + 8 * pass) / 3 + pass + 2)
            << "pass " << pass;
    }
}
