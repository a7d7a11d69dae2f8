#include "harness/supervisor.hh"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"

namespace acr::harness
{

namespace
{

using Clock = std::chrono::steady_clock;

Clock::duration
secondsDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

std::string
describeStatus(int status)
{
    if (WIFEXITED(status))
        return csprintf("exited with status %d", WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return csprintf("killed by signal %d", WTERMSIG(status));
    return csprintf("ended with wait status %d", status);
}

/** Reap local child @p pid, SIGKILLing it once @p grace has passed
 *  without it exiting on its own; returns its wait status. */
int
reapChild(pid_t pid, Clock::duration grace)
{
    const auto deadline = Clock::now() + grace;
    int status = 0;
    pid_t rc;
    while ((rc = ::waitpid(pid, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline)
        ::poll(nullptr, 0, 1);
    if (rc == 0) {
        ::kill(pid, SIGKILL);
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    return status;
}

/** One attempt of one task, with its backoff gate. */
struct Attempt
{
    Supervisor::Task task;
    unsigned tries = 0;  ///< failed attempts so far
    Clock::time_point readyAt;
};

/** One member of the fleet: a forked local child or an accepted TCP
 *  peer, both speaking framed wire records. */
struct Member
{
    enum class State { kHandshake, kIdle, kBusy };

    std::uint64_t id = 0;
    pid_t pid = -1;  ///< local child; -1 for an accepted peer
    net::FrameChannel channel;
    State state = State::kHandshake;
    std::size_t group = Supervisor::kNoGroup;  ///< pass group it works
    bool fresh = false;          ///< attempt opens group: pass included
    Attempt attempt;             ///< valid while kBusy
    Clock::time_point dealtAt;   ///< valid while kBusy
    Clock::time_point deadline;  ///< valid while kBusy w/ watchdog
    Clock::time_point lastHeard;
    Clock::time_point lastPing;

    Member(std::uint64_t id_, pid_t pid_, int fd)
        : id(id_), pid(pid_), channel(fd)
    {
    }
};

void
setNonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        fatal("fcntl(O_NONBLOCK): %s", std::strerror(errno));
}

} // namespace

Supervisor::Supervisor(std::vector<std::string> workerCmd,
                       Options options)
    : workerCmd_(std::move(workerCmd)), options_(options)
{
    ACR_ASSERT(!workerCmd_.empty(), "empty worker command");
}

Supervisor::Supervisor(Options options) : options_(options)
{
}

double
Supervisor::backoffSeconds(const Options &options, unsigned tries,
                           std::size_t gridIndex)
{
    const unsigned exponent = tries > 0 ? tries - 1 : 0;
    double delay = options.backoffBaseSec *
                   std::ldexp(1.0, static_cast<int>(
                                       std::min(exponent, 20u)));
    delay = std::min(delay, options.backoffCapSec);
    // Deterministic jitter in [0.5, 1.5)x: spreads retries without
    // making runs irreproducible (timing only; results are merged by
    // grid index regardless).
    Rng rng(options.jitterSeed ^
            (static_cast<std::uint64_t>(gridIndex) *
             0x9e3779b97f4a7c15ULL) ^
            tries);
    return delay * (0.5 + rng.uniform());
}

std::size_t
Supervisor::pickGroup(std::size_t own, const std::vector<std::size_t> &ready,
                      const std::vector<std::size_t> &workers,
                      const std::vector<std::uint64_t> &holder,
                      double passPoints)
{
    if (own != kNoGroup && ready[own] > 0)
        return own;
    std::size_t steal = kNoGroup;
    for (std::size_t group = 0; group < ready.size(); ++group) {
        if (ready[group] == 0)
            continue;
        if (holder[group] == 0)
            return group;
        if ((steal == kNoGroup || ready[group] > ready[steal]) &&
            ready[group] > workers[group] * passPoints)
            steal = group;
    }
    return steal;
}

void
Supervisor::run(const std::vector<Task> &tasks,
                const NetOptions &net_options, const Deliver &deliver,
                StatSet &stats)
{
    ACR_ASSERT(deliver, "supervisor needs a delivery sink");
    ACR_ASSERT(net_options.heartbeatSec > 0,
               "heartbeat must be positive");
    const bool local = !workerCmd_.empty();

    // A send to a just-vanished member must surface as a closed
    // channel (triggering a re-deal), not kill the coordinator.
    std::signal(SIGPIPE, SIG_IGN);

    double respawns = 0, retries = 0, losses = 0, watchdog_kills = 0,
           quarantined = 0, joins = 0, leaves = 0;

    std::deque<Attempt> queue;
    for (const auto &task : tasks)
        queue.push_back({task, 0, Clock::now()});
    std::size_t remaining = tasks.size();

    // Pass-group affinity: the id of the member holding each group (0:
    // none; ids start at 1), and the summed time and count of the points
    // that open a group on a member (pass included) and of the rest,
    // whose means price a steal's pass for pickGroup.
    std::size_t groups = 0;
    for (const auto &task : tasks)
        groups = std::max(groups, task.group + 1);
    std::vector<std::uint64_t> holder(groups, 0);
    double timed_sec[2] = {0, 0}, timed_points[2] = {0, 0};  // [fresh]

    int listen_fd = -1;
    if (!local) {
        net::Endpoint bound;
        listen_fd = net::listenOn(net_options.listen, bound);
        std::fprintf(stderr, "[net] listening on %s\n",
                     bound.describe().c_str());
    }

    std::vector<std::unique_ptr<Member>> members;
    std::uint64_t next_id = 1;

    const auto heartbeat = secondsDuration(net_options.heartbeatSec);
    // An unresponsive *idle* member is dropped after missing several
    // heartbeats. A busy member is single-threadedly simulating and
    // cannot answer pings, so only the --point-timeout watchdog (and
    // the closed channel, for an outright death) covers it.
    const auto idle_timeout = heartbeat * 4;
    // With work queued and nobody connected, wait this long for a
    // (re)join before quarantining everything left — the sweep
    // degrades to FAILED cells and exit 3, it never hangs.
    const auto join_grace = heartbeat * 8;
    auto empty_since = Clock::now();

    wire::HelloRecord identity;
    identity.bench = net_options.bench;
    identity.gridPoints = net_options.gridPoints;
    identity.gridHash = net_options.gridHash;
    identity.netVersion = net::kProtocolVersion;
    const std::string hello_line = wire::encodeHelloLine(identity);

    // The local fleet's size, and a bound on children in a row that
    // die before their handshake: past it the worker binary cannot
    // start at all, and respawning it forever would spin.
    const std::size_t fleet = std::min<std::size_t>(
        std::max(1u, options_.workers), tasks.size());
    const unsigned max_failed_starts =
        std::max(1u, options_.workers) + options_.retries;
    std::size_t spawned = 0;
    unsigned failed_starts = 0;

    auto admit = [&](pid_t pid, int fd) {
        auto member = std::make_unique<Member>(next_id++, pid, fd);
        member->lastHeard = member->lastPing = Clock::now();
        member->channel.send(net::FrameType::kWire, hello_line);
        members.push_back(std::move(member));
    };

    auto spawn = [&] {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) !=
            0)
            fatal("socketpair: %s", std::strerror(errno));
        const bool respawn = spawned++ >= fleet;
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal("fork: %s", std::strerror(errno));
        if (pid == 0) {
            // Child: the channel on stdin and stderr on stdout — the
            // coordinator's stdout is the rendered output. dup2 clears
            // O_CLOEXEC on fd 0 only, so every other coordinator fd
            // (sibling channels included) closes across exec.
            ::dup2(fds[1], STDIN_FILENO);
            ::dup2(STDERR_FILENO, STDOUT_FILENO);
            if (respawn)
                ::setenv("ACR_TEST_RESPAWNED", "1", 1);
            std::vector<char *> argv;
            for (const auto &arg : workerCmd_)
                argv.push_back(const_cast<char *>(arg.c_str()));
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            std::fprintf(stderr, "execv %s: %s\n", argv[0],
                         std::strerror(errno));
            ::_exit(127);
        }
        ::close(fds[1]);
        setNonblocking(fds[0]);
        if (respawn)
            ++respawns;
        admit(pid, fds[0]);
    };

    // Give up the pass group @p member holds, if it holds one.
    auto release = [&](const Member &member) {
        if (member.group != kNoGroup && holder[member.group] == member.id)
            holder[member.group] = 0;
    };

    // Drop a member; a busy one's in-flight point re-enters the
    // retry/backoff/quarantine ladder, an idle leave costs nothing. A
    // local child is reaped: SIGKILLed at once unless its channel
    // closed (it is already exiting), and then its wait status names
    // the loss. Invalidates `member`.
    auto dropMember = [&](Member *member, std::string reason,
                          bool peer_closed) {
        member->channel.close();
        release(*member);
        if (member->pid > 0) {
            const int status = reapChild(
                member->pid,
                peer_closed ? heartbeat : Clock::duration::zero());
            if (peer_closed)
                reason = "worker " + describeStatus(status);
            if (member->state == Member::State::kHandshake &&
                ++failed_starts > max_failed_starts)
                fatal("%u forked workers in a row ended before their "
                      "handshake (last: %s)",
                      failed_starts, reason.c_str());
        } else if (member->state != Member::State::kBusy) {
            std::fprintf(stderr, "[net] worker #%llu left: %s\n",
                         static_cast<unsigned long long>(member->id),
                         reason.c_str());
        }
        if (member->state != Member::State::kHandshake)
            ++leaves;
        if (member->state == Member::State::kBusy) {
            ++losses;
            Attempt attempt = member->attempt;
            const std::size_t index = attempt.task.gridIndex;
            if (++attempt.tries > options_.retries) {
                ++quarantined;
                std::fprintf(stderr,
                             "[sweep] quarantining point %zu after %u "
                             "attempt(s): %s\n",
                             index, attempt.tries, reason.c_str());
                deliver(attempt.task, ExperimentResult::quarantined(
                                          attempt.tries, reason));
                --remaining;
            } else {
                ++retries;
                const double delay =
                    backoffSeconds(options_, attempt.tries, index);
                std::fprintf(stderr,
                             "[sweep] point %zu failed (%s); retry "
                             "%u/%u on a fresh worker in %.2fs\n",
                             index, reason.c_str(), attempt.tries,
                             options_.retries, delay);
                attempt.readyAt = Clock::now() + secondsDuration(delay);
                queue.push_back(attempt);
            }
        }
        members.erase(std::find_if(
            members.begin(), members.end(),
            [&](const auto &m) { return m.get() == member; }));
    };

    // Apply one inbound frame; returns false once the member has been
    // dropped (protocol violation, handshake mismatch).
    auto handleFrame = [&](Member *member,
                           const net::Frame &frame) -> bool {
        member->lastHeard = Clock::now();
        if (frame.type == net::FrameType::kPong)
            return true;
        if (frame.type != net::FrameType::kWire) {
            dropMember(member,
                       csprintf("protocol error: unexpected frame "
                                "type %u",
                                static_cast<unsigned>(frame.type)),
                       false);
            return false;
        }
        wire::Record record;
        try {
            record = wire::decodeLine(frame.payload);
        } catch (const serde::SerdeError &error) {
            // A garbled frame (or a skewed wire version — the record
            // envelope carries it) reads as a protocol error; the
            // member is dropped and any in-flight point re-dealt.
            dropMember(member,
                       csprintf("protocol error: %s", error.what()),
                       false);
            return false;
        }
        if (member->state == Member::State::kHandshake) {
            if (record.type != wire::Record::Type::kHello) {
                dropMember(member,
                           "protocol error: expected a hello record",
                           false);
                return false;
            }
            const auto &hello = record.hello;
            if (hello.netVersion != net::kProtocolVersion ||
                hello.bench != identity.bench ||
                hello.gridPoints != identity.gridPoints ||
                hello.gridHash != identity.gridHash) {
                dropMember(
                    member,
                    csprintf("handshake mismatch: worker offers "
                             "bench '%s', %llu point(s), grid "
                             "%016llx, net v%llu",
                             hello.bench.c_str(),
                             static_cast<unsigned long long>(
                                 hello.gridPoints),
                             static_cast<unsigned long long>(
                                 hello.gridHash),
                             static_cast<unsigned long long>(
                                 hello.netVersion)),
                    false);
                return false;
            }
            member->state = Member::State::kIdle;
            if (member->pid > 0) {
                failed_starts = 0;
            } else {
                ++joins;
                std::fprintf(stderr, "[net] worker #%llu joined\n",
                             static_cast<unsigned long long>(member->id));
            }
            return true;
        }
        if (record.type != wire::Record::Type::kResult ||
            member->state != Member::State::kBusy ||
            record.result.index != member->attempt.task.gridIndex) {
            dropMember(member, "protocol error: unexpected record",
                       false);
            return false;
        }
        timed_sec[member->fresh] +=
            std::chrono::duration<double>(Clock::now() - member->dealtAt)
                .count();
        ++timed_points[member->fresh];
        deliver(member->attempt.task, std::move(record.result.result));
        member->state = Member::State::kIdle;
        --remaining;
        return true;
    };

    while (remaining > 0) {
        if (local) {
            // Keep the fleet at strength: one member per outstanding
            // point, capped at --forks.
            while (members.size() <
                   std::min<std::size_t>(std::max(1u, options_.workers),
                                         remaining))
                spawn();
        } else {
            // Accept joiners — late ones included; membership is
            // elastic.
            while (true) {
                const int fd = ::accept(listen_fd, nullptr, nullptr);
                if (fd < 0) {
                    if (errno == EINTR)
                        continue;
                    if (errno == EAGAIN || errno == EWOULDBLOCK)
                        break;
                    fatal("accept: %s", std::strerror(errno));
                }
                setNonblocking(fd);
                const int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof(one));
                admit(-1, fd);
            }
        }
        const auto now = Clock::now();

        // Deal ready work to idle members, pass-group affine
        // (pickGroup), so each group's slice pass is computed by one
        // member rather than by every member that touches it. A steal
        // is priced at a pass's length in point times: how much longer
        // the points that open a group on a member take than the rest.
        double pass_points = 0;
        if (timed_points[0] > 0 && timed_points[1] > 0 && timed_sec[0] > 0)
            pass_points = std::max(
                0.0, (timed_sec[1] / timed_points[1]) /
                             (timed_sec[0] / timed_points[0]) -
                         1.0);
        for (auto &member : members) {
            if (member->state != Member::State::kIdle || queue.empty())
                continue;
            std::vector<std::size_t> ready(groups, 0), workers(groups, 0);
            for (const auto &attempt : queue)
                if (attempt.readyAt <= now)
                    ++ready[attempt.task.group];
            for (const auto &other : members)
                if (other->group != kNoGroup)
                    ++workers[other->group];
            const std::size_t group = pickGroup(member->group, ready,
                                                workers, holder, pass_points);
            if (group == kNoGroup)
                continue;
            if (holder[group] == 0) {
                release(*member);
                holder[group] = member->id;
            }
            member->fresh = group != member->group;
            member->group = group;
            const auto ready_point = std::find_if(
                queue.begin(), queue.end(), [&](const Attempt &a) {
                    return a.readyAt <= now && a.task.group == group;
                });
            member->attempt = *ready_point;
            queue.erase(ready_point);
            member->state = Member::State::kBusy;
            member->dealtAt = now;
            member->channel.send(
                net::FrameType::kWire,
                wire::encodePointLine(
                    {member->attempt.task.gridIndex,
                     *member->attempt.task.point}));
            if (options_.pointTimeoutSec > 0)
                member->deadline =
                    now + secondsDuration(options_.pointTimeoutSec);
        }

        // Heartbeats out; unresponsive idle members and wedged busy
        // members dropped.
        for (std::size_t i = 0; i < members.size();) {
            Member *member = members[i].get();
            if (now - member->lastPing >= heartbeat) {
                member->lastPing = now;
                member->channel.send(net::FrameType::kPing, "");
            }
            if (member->state != Member::State::kBusy &&
                now - member->lastHeard > idle_timeout) {
                dropMember(member, "heartbeat timeout", false);
                continue;  // dropMember erased members[i]
            }
            if (member->state == Member::State::kBusy &&
                options_.pointTimeoutSec > 0 &&
                now >= member->deadline) {
                ++watchdog_kills;
                dropMember(member,
                           csprintf("point exceeded "
                                    "--point-timeout=%g s",
                                    options_.pointTimeoutSec),
                           false);
                continue;
            }
            ++i;
        }

        if (members.empty()) {
            if (now - empty_since > join_grace) {
                while (!queue.empty()) {
                    const Attempt attempt = queue.front();
                    queue.pop_front();
                    ++quarantined;
                    std::fprintf(
                        stderr,
                        "[sweep] quarantining point %zu after %u "
                        "attempt(s): no connected workers\n",
                        attempt.task.gridIndex, attempt.tries);
                    deliver(attempt.task,
                            ExperimentResult::quarantined(
                                attempt.tries,
                                "no connected workers"));
                    --remaining;
                }
                continue;
            }
        } else {
            empty_since = now;
        }

        // Wake at the nearest backoff expiry or watchdog deadline,
        // capped so the time-based sweeps above run at a bounded
        // cadence regardless.
        int timeout_ms = 200;
        auto wakeAt = [&](Clock::time_point when) {
            const auto delta =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    when - now)
                    .count();
            timeout_ms = std::min(
                timeout_ms,
                static_cast<int>(std::max<long long>(0, delta)));
        };
        // A ready point waits for a member, not a timer: only backoff
        // expiries wake the loop.
        for (const auto &attempt : queue)
            if (attempt.readyAt > now)
                wakeAt(attempt.readyAt);
        for (const auto &member : members)
            if (member->state == Member::State::kBusy &&
                options_.pointTimeoutSec > 0)
                wakeAt(member->deadline);

        std::vector<pollfd> fds;
        std::vector<std::uint64_t> owner;
        if (listen_fd >= 0) {
            fds.push_back({listen_fd, POLLIN, 0});
            owner.push_back(0);
        }
        for (const auto &member : members) {
            short events = POLLIN;
            if (member->channel.wantsWrite())
                events |= POLLOUT;
            fds.push_back({member->channel.fd(), events, 0});
            owner.push_back(member->id);
        }
        const int rc =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   timeout_ms);
        if (rc < 0 && errno != EINTR)
            fatal("poll: %s", std::strerror(errno));
        if (rc <= 0)
            continue;

        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0 || owner[i] == 0)
                continue;
            // The member may have been dropped while handling an
            // earlier fd this round.
            const auto found = std::find_if(
                members.begin(), members.end(),
                [&](const auto &m) { return m->id == owner[i]; });
            if (found == members.end())
                continue;
            Member *member = found->get();
            std::vector<net::Frame> frames;
            std::string error;
            const auto io = member->channel.readFrames(frames, error);
            // Complete frames that arrived ahead of a close still
            // count (a result racing its sender's crash lands).
            bool alive = true;
            for (const auto &frame : frames)
                if (!(alive = handleFrame(member, frame)))
                    break;
            if (!alive)
                continue;
            if (io == net::FrameChannel::Io::kClosed) {
                dropMember(member, error, true);
                continue;
            }
            if (member->channel.flushWrites(error) ==
                net::FrameChannel::Io::kClosed)
                dropMember(member, error, true);
        }
    }

    // Sweep complete: tell every member to exit cleanly, with a short
    // best-effort flush (a stuck peer must not wedge the
    // coordinator's own exit), then reap the local children.
    for (auto &member : members)
        member->channel.send(net::FrameType::kShutdown, "");
    const auto flush_deadline = Clock::now() + std::chrono::seconds(2);
    while (Clock::now() < flush_deadline) {
        bool pending = false;
        for (auto &member : members) {
            std::string error;
            if (member->channel.isOpen() &&
                member->channel.flushWrites(error) ==
                    net::FrameChannel::Io::kOk &&
                member->channel.wantsWrite())
                pending = true;
        }
        if (!pending)
            break;
        ::poll(nullptr, 0, 10);
    }
    for (auto &member : members) {
        member->channel.close();
        if (member->pid > 0)
            reapChild(member->pid, heartbeat);
    }
    members.clear();
    if (listen_fd >= 0)
        ::close(listen_fd);

    stats.set("sweep.retries", retries);
    stats.set("sweep.workerCrashes", losses);
    stats.set("sweep.watchdogKills", watchdog_kills);
    stats.set("sweep.quarantined", quarantined);
    if (local) {
        stats.set("sweep.respawns", respawns);
    } else {
        stats.set("sweep.netJoins", joins);
        stats.set("sweep.netLeaves", leaves);
    }
}

} // namespace acr::harness
