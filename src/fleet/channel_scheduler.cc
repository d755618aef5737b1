#include "fleet/channel_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace divot {

namespace {

// Stable fork tag base for per-channel RNG lanes: channel i's lane is
// a pure function of the fleet seed and i, so the thread count and
// probe history cannot perturb fabrication or measurement draws.
constexpr uint64_t kTagFleetChannel = 0x7000ULL;

// Request-pressure boost: added to a channel's staleness x risk
// priority when a service request names it. Large enough to dominate
// any organic priority (staleness is bounded by the tick count of a
// run, risk by 8), so a requested channel wins the next dispatch.
constexpr uint64_t kRequestBoost = 1ull << 32;

// Risk weight of an authenticator state: how urgently the scheduler
// should spend a shared instrument on a channel in that state.
// Suspect channels are probed more often, not less — confirming or
// clearing an alarm is worth more than re-checking a healthy wire.
// PendingReenroll channels are never ranked or probed, so they need
// no weight of their own.
uint64_t
riskWeight(AuthState state)
{
    switch (state) {
    case AuthState::Mismatch:
    case AuthState::Degraded:
        return 4;
    case AuthState::TamperAlert:
    case AuthState::Quarantine:
        return 8;
    default:
        return 1;
    }
}

} // namespace

unsigned
resolveHydrationLanes(unsigned requested, unsigned shards)
{
    const unsigned cap = shards == 0 ? 1 : shards;
    return std::min(requested == 0 ? 8u : requested, cap);
}

const char *
schedulerPolicyName(SchedulerPolicy policy)
{
    switch (policy) {
    case SchedulerPolicy::RoundRobin:
        return "round-robin";
    case SchedulerPolicy::RiskWeighted:
        return "risk-weighted";
    }
    return "?";
}

ChannelScheduler::ChannelScheduler(FleetConfig config, Rng rng)
    : config_(config), rng_(rng),
      telemetry_(std::make_unique<Telemetry>(config.telemetry)),
      fleetAuth_(config.fusion, config.similarityThreshold,
                 config.tamperWireVotes),
      pool_(std::make_unique<ThreadPool>(config.threads))
{
    if (config_.instruments == 0)
        divot_fatal("fleet needs at least one iTDR instrument");
    pool_->attachTelemetry(telemetry_.get(), "fleet.pool");
    Registry &reg = telemetry_->registry();
    tmTicks_ = reg.counter("fleet.ticks");
    tmProbes_ = reg.counter("fleet.probes");
    tmInstrumentSlots_ = reg.counter("fleet.slots.total");
    tmIdleSlots_ = reg.counter("fleet.slots.idle");
    tmTrusted_ = reg.counter("fleet.verdicts.trusted");
    tmUntrusted_ = reg.counter("fleet.verdicts.untrusted");
    tmAlarms_ = reg.counter("fleet.alarms");
    tmTrustFlips_ = reg.counter("fleet.trust_flips");
    tmStaleness_ = reg.histogram("fleet.staleness",
                                 {1, 2, 4, 8, 16, 32});
    tmRiskWeight_ = reg.histogram("fleet.risk_weight", {1, 4, 8});
    tmUtilization_ = reg.gauge("fleet.instrument.utilization");
    tmIdleSlotPermille_ = reg.gauge("fleet.reactor.idle_slot.permille");
    tmQueuePeak_ = reg.gauge("fleet.reactor.queue.peak");
}

ChannelScheduler::~ChannelScheduler() = default;
ChannelScheduler::ChannelScheduler(ChannelScheduler &&) noexcept = default;
ChannelScheduler &
ChannelScheduler::operator=(ChannelScheduler &&) noexcept = default;

std::size_t
ChannelScheduler::addChannel(BusChannelConfig config)
{
    if (calibrated_)
        divot_fatal("cannot add channel '%s' after calibrateAll()",
                    config.name.c_str());
    const std::size_t index = channels_.size();
    channels_.push_back(std::make_unique<BusChannel>(
        std::move(config), rng_.forkStable(kTagFleetChannel + index)));
    channels_.back()->attachTelemetry(telemetry_.get());
    tmChannelProbes_.push_back(telemetry_->registry().counter(
        "fleet.channel." + channels_.back()->name() + ".probes"));
    lastProbeTick_.push_back(-1);
    probeCounts_.push_back(0);
    generations_.push_back(0);
    requestBoost_.push_back(0);
    nameIndex_.emplace(channels_.back()->name(), index);
    if (db_ != nullptr) {
        shardChannels_[db_->shardOf(channels_.back()->name())]
            .push_back(index);
    }
    fleetAuth_.setChannelCount(channels_.size());
    return index;
}

void
ChannelScheduler::rebuildShardRouting()
{
    shardChannels_.clear();
    if (db_ == nullptr)
        return;
    for (std::size_t i = 0; i < channels_.size(); ++i)
        shardChannels_[db_->shardOf(channels_[i]->name())].push_back(i);
}

unsigned
ChannelScheduler::laneOf(std::size_t index) const
{
    return db_->shardOf(channels_[index]->name()) % laneCount_;
}

void
ChannelScheduler::attachStore(store::EnrollmentDb *db,
                              std::size_t resident_budget_bytes)
{
    db_ = db;
    residentBudget_ = resident_budget_bytes;
    resident_ = 0;
    rebuildShardRouting();
    // Lanes partition *hydration*, which only exists store-backed.
    laneCount_ = 1;
    if (db_ == nullptr)
        return;
    laneCount_ = resolveHydrationLanes(config_.reactorLanes,
                                       db_->config().shards);
    db_->setShardCacheLanes(laneCount_);
    Registry &reg = telemetry_->registry();
    tmHydrates_ = reg.counter("store.hydrates");
    tmEvictions_ = reg.counter("store.evictions");
    tmPendingReenroll_ = reg.counter("store.pending_reenroll");
    tmScrubTicks_ = reg.counter("store.scrub.idle_ticks");
    if (calibrated_) {
        persistAll();
        enforceResidentBudget(-1);
    }
}

bool
ChannelScheduler::persistChannel(std::size_t index)
{
    if (db_ == nullptr)
        return false;
    const BusChannel &ch = *channels_[index];
    if (!ch.enrollmentResident())
        return true; // evicted: the durable copy is already current
    store::EnrollmentRecord record;
    record.id = ch.name();
    record.fp = ch.authenticator().enrolled();
    record.nominal = ch.authenticator().nominal();
    if (ch.state() == AuthState::Quarantine)
        record.flags |= store::kRecordQuarantined;
    // The durable record carries the post-bump generation, so what
    // the service reports after an Enroll is exactly what a later
    // hydration (or audit) reads back.
    record.generation = generations_[index] + 1;
    if (!db_->put(record))
        return false;
    ++generations_[index];
    return true;
}

void
ChannelScheduler::persistAll()
{
    resident_ = 0;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        if (!persistChannel(i))
            divot_warn("fleet: failed to persist enrollment for "
                       "channel '%s'", channels_[i]->name().c_str());
        if (channels_[i]->enrollmentResident())
            resident_ += channels_[i]->enrollmentBytes();
    }
}

void
ChannelScheduler::demoteToPendingReenroll(std::size_t index,
                                          double wall)
{
    BusChannel &ch = *channels_[index];
    const std::size_t bytes =
        ch.enrollmentResident() ? ch.enrollmentBytes() : 0;
    const AuthVerdict verdict = ch.markPendingReenroll();
    resident_ -= std::min(resident_, bytes);
    tmPendingReenroll_.add();
    // The fused verdict must stop reusing this wire's stale score the
    // moment the loss is known, so the demotion is observed like a
    // probe even though no instrument ran.
    fleetAuth_.observe(index, verdict);
    requestBoost_[index] = 0;
    if (hook_ != nullptr)
        hook_->onProbeObserved(index, verdict, wall);
    TelemetryEvent event;
    event.time = wall;
    event.ordinal = tick_;
    event.kind = "store.lost";
    event.tag = ch.name();
    event.detail = "enrollment unrecoverable; pending re-enroll";
    telemetry_->events().record(std::move(event));
}

void
ChannelScheduler::enforceResidentBudget(int64_t current_tick)
{
    if (db_ == nullptr || residentBudget_ == 0 ||
        resident_ <= residentBudget_) {
        return;
    }
    // LRU over (last probe tick, index): deterministic, and channels
    // probed this tick are pinned — the tick working set is the floor
    // below which the budget cannot squeeze.
    struct Candidate
    {
        int64_t lastProbe;
        std::size_t index;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        if (!channels_[i]->enrollmentResident())
            continue;
        if (generations_[i] == 0)
            continue; // never persisted: eviction would lose it
        if (lastProbeTick_[i] == current_tick)
            continue;
        candidates.push_back({lastProbeTick_[i], i});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.lastProbe != b.lastProbe)
                      return a.lastProbe < b.lastProbe;
                  return a.index < b.index;
              });
    for (const Candidate &cand : candidates) {
        if (resident_ <= residentBudget_)
            break;
        BusChannel &ch = *channels_[cand.index];
        const std::size_t bytes = ch.enrollmentBytes();
        ch.releaseEnrollment();
        resident_ -= std::min(resident_, bytes);
        tmEvictions_.add();
    }
}

bool
ChannelScheduler::reenrollChannel(std::size_t index)
{
    BusChannel &ch = channel(index);
    const bool was_resident = ch.enrollmentResident();
    const std::size_t before = was_resident ? ch.enrollmentBytes() : 0;
    ch.calibrate();
    if (db_ == nullptr)
        return true;
    resident_ -= std::min(resident_, before);
    resident_ += ch.enrollmentBytes();
    return persistChannel(index);
}

void
ChannelScheduler::calibrateAll()
{
    if (channels_.empty())
        divot_fatal("fleet has no channels to calibrate");
    pool_->parallelFor(channels_.size(), [&](std::size_t idx) {
        channels_[idx]->calibrate();
    });
    // One barrier slot spans the slowest channel's round so every
    // probe of a tick fits inside it regardless of which channels are
    // selected.
    slot_ = 0.0;
    for (const auto &channel : channels_)
        slot_ = std::max(slot_, channel->roundDuration());
    calibrated_ = true;
    if (db_ != nullptr) {
        persistAll();
        enforceResidentBudget(-1);
    }
    divot_inform("fleet calibrated: %zu channels, %zu instruments, "
                 "%s policy, tick %.3g s",
                 channels_.size(), config_.instruments,
                 schedulerPolicyName(config_.policy), tickDuration());
}

ChannelPhase
ChannelScheduler::channelPhase(std::size_t index) const
{
    return channel(index).state() == AuthState::PendingReenroll
        ? ChannelPhase::Fenced
        : ChannelPhase::Idle;
}

double
ChannelScheduler::instrumentUtilization() const
{
    // Busy instrument-seconds over the pool's capacity so far.
    const double capacity =
        elapsed_ * static_cast<double>(config_.instruments);
    if (!(capacity > 0.0))
        return 0.0;
    return std::min(1.0, busySeconds_ / capacity);
}

std::vector<std::size_t>
ChannelScheduler::selectChannels() const
{
    // Priority = staleness (ticks since last probe, never-probed
    // counts from before tick 0) scaled by the state risk weight
    // under RiskWeighted. Pure function of fleet state: no RNG.
    struct Ranked
    {
        uint64_t priority;
        std::size_t index;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(channels_.size());
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        // A PendingReenroll channel has no enrollment to probe
        // against; spending an instrument slot on it is pure waste
        // under either policy.
        if (channels_[i]->state() == AuthState::PendingReenroll)
            continue;
        const uint64_t staleness = static_cast<uint64_t>(
            static_cast<int64_t>(tick_) - lastProbeTick_[i]);
        uint64_t priority = staleness;
        if (config_.policy == SchedulerPolicy::RiskWeighted)
            priority *= riskWeight(channels_[i]->state());
        // Request pressure rides on top of the organic priority, so
        // requested channels outrank everything but each other (among
        // themselves: more requests, then staleness, then index).
        priority += requestBoost_[i];
        ranked.push_back({priority, i});
    }
    const std::size_t k =
        std::min(config_.instruments, ranked.size());
    std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                      [](const Ranked &a, const Ranked &b) {
                          if (a.priority != b.priority)
                              return a.priority > b.priority;
                          return a.index < b.index;
                      });
    std::vector<std::size_t> selected(k);
    for (std::size_t i = 0; i < k; ++i)
        selected[i] = ranked[i].index;
    std::sort(selected.begin(), selected.end());
    return selected;
}

std::vector<std::size_t>
ChannelScheduler::hydrate(const std::vector<std::size_t> &selected,
                          double wall)
{
    if (db_ == nullptr)
        return selected; // storeless: every enrollment is resident

    // Lane k holds the selected channels whose shard s satisfies
    // s % K == k, in selection order, and stages one outcome per
    // channel on its own thread. A lane touches only lane-confined
    // state — its shard-cache partition (the same rule laneOf()
    // routes by) and its channels' own objects (restoreEnrollment) —
    // so the staged outcomes are a pure function of (seed, config) at
    // any thread and lane count.
    enum class Outcome : uint8_t
    {
        Ready,    // already resident
        Hydrated, // restored from the store this epoch
        Lost      // missing/unrecoverable: fence the channel
    };
    std::vector<Outcome> staged(selected.size(), Outcome::Ready);
    std::vector<std::vector<std::size_t>> buckets(laneCount_);
    for (std::size_t j = 0; j < selected.size(); ++j)
        buckets[laneOf(selected[j])].push_back(j);
    // Fan out over the lanes holding a channel this epoch only.
    std::erase_if(buckets, [](const std::vector<std::size_t> &bucket) {
        return bucket.empty();
    });
    pool_->parallelFor(buckets.size(), [&](std::size_t k) {
        for (const std::size_t j : buckets[k]) {
            BusChannel &ch = *channels_[selected[j]];
            if (ch.enrollmentResident())
                continue;
            store::EnrollmentRecord record;
            if (db_->get(ch.name(), record) != store::DbGetStatus::Ok) {
                staged[j] = Outcome::Lost;
                continue;
            }
            ch.restoreEnrollment(std::move(record.fp),
                                 std::move(record.nominal));
            staged[j] = Outcome::Hydrated;
        }
    });

    // Serial merge in ascending selection (= channel) order, so
    // demotion side effects — the order-sensitive "store.lost" event
    // ring and the service responses they release — are identical at
    // any lane count.
    std::vector<std::size_t> ready;
    ready.reserve(selected.size());
    for (std::size_t j = 0; j < selected.size(); ++j) {
        const std::size_t c = selected[j];
        switch (staged[j]) {
        case Outcome::Hydrated:
            resident_ += channels_[c]->enrollmentBytes();
            tmHydrates_.add();
            [[fallthrough]];
        case Outcome::Ready:
            ready.push_back(c);
            break;
        case Outcome::Lost:
            // Missing or damaged in every bank: for an enrolled
            // channel both mean the calibration is gone. Fence the
            // channel, keep the fleet.
            demoteToPendingReenroll(c, wall);
            break;
        }
    }
    return ready;
}

void
ChannelScheduler::scrub(double wall)
{
    // One shard gets a scrub pass, repairing any single-bank damage
    // while the siblings are still healthy. Channels whose records
    // turn out damaged in both banks are fenced off right here rather
    // than at their next probe.
    const store::ScrubResult scrub = db_->scrubStep();
    tmScrubTicks_.add();
    for (const std::string &id : scrub.lostIds) {
        const auto it = nameIndex_.find(id);
        if (it == nameIndex_.end())
            continue;
        const std::size_t i = it->second;
        if (channels_[i]->state() != AuthState::PendingReenroll)
            demoteToPendingReenroll(i, wall);
    }
    if (scrub.unreadable || scrub.lostUnnamed > 0) {
        // The shard image yielded nothing recoverable, or lost records
        // whose ids could not be read, so some channels routed to it
        // have lost their stored enrollment without being named;
        // fence them now rather than letting each discover the damage
        // at its next probe. A record still pending in the
        // journal-backed overlay is not lost, so only channels the db
        // can no longer serve are demoted.
        const auto sit = shardChannels_.find(scrub.shard);
        if (sit == shardChannels_.end())
            return;
        for (const std::size_t i : sit->second) {
            if (channels_[i]->state() == AuthState::PendingReenroll)
                continue;
            store::EnrollmentRecord rec;
            if (db_->get(channels_[i]->name(), rec) !=
                store::DbGetStatus::Ok) {
                demoteToPendingReenroll(i, wall);
            }
        }
    }
}

FleetRound
ChannelScheduler::tick()
{
    if (!calibrated_)
        divot_fatal("fleet tick() before calibrateAll()");

    const double epochLen = tickDuration();
    const double wall = epochLen * static_cast<double>(tick_);
    const double end = wall + epochLen;
    FleetRound round;
    round.tick = tick_;
    SpanScope span = telemetry_->tracer().open("fleet.tick", "fleet",
                                               wall, tick_);

    // 1. Requests admitted since the last epoch enter it, in
    //    admission order and before ranking, so their boosts steer
    //    this epoch's selection; immediate kinds answer right here.
    const std::vector<uint64_t> arrivals = std::move(arrivals_);
    arrivals_.clear();
    if (hook_ != nullptr) {
        for (const uint64_t ticket : arrivals)
            hook_->onRequestArrival(ticket, elapsed_);
    }

    // 2. Select, 3. hydrate (lost records fence their channel).
    const std::vector<std::size_t> ready =
        hydrate(selectChannels(), wall);

    // 4. The probe batch. Scheduling metrics are captured first:
    //    staleness and risk weight are exactly what selection ranked
    //    on, and the probe updates them. Disjoint channels, disjoint
    //    result slots: bit-identical at any thread count.
    for (const std::size_t c : ready) {
        tmStaleness_.record(static_cast<uint64_t>(
            static_cast<int64_t>(tick_) - lastProbeTick_[c]));
        tmRiskWeight_.record(riskWeight(channels_[c]->state()));
        tmChannelProbes_[c].add();
    }
    round.probes.resize(ready.size());
    pool_->parallelFor(ready.size(), [&](std::size_t i) {
        const std::size_t c = ready[i];
        round.probes[i].channel = c;
        round.probes[i].verdict = channels_[c]->monitorAt(wall);
    });

    // 5. Every probe completes on the tick boundary, ascending channel
    //    order: its verdict enters the fusion and answers the Verifies
    //    parked on its channel.
    for (const ChannelProbe &probe : round.probes) {
        const std::size_t c = probe.channel;
        lastProbeTick_[c] = static_cast<int64_t>(tick_);
        ++probeCounts_[c];
        fleetAuth_.observe(c, probe.verdict);
        busySeconds_ += channels_[c]->roundDuration();
        requestBoost_[c] = 0;
        if (hook_ != nullptr)
            hook_->onProbeObserved(c, probe.verdict, end);
    }

    // 6. Fuse, then evict, then — when a slot idled — scrub.
    round.fused = fleetAuth_.evaluate(tick_);
    lastVerdict_ = round.fused;
    if (hook_ != nullptr)
        hook_->onEpochFused(round.fused, end);
    if (db_ != nullptr) {
        enforceResidentBudget(static_cast<int64_t>(tick_));
        if (ready.size() < config_.instruments)
            scrub(end);
    }

    tmTicks_.add();
    tmProbes_.add(round.probes.size());
    tmInstrumentSlots_.add(config_.instruments);
    tmIdleSlots_.add(config_.instruments - round.probes.size());
    (round.fused.busTrusted ? tmTrusted_ : tmUntrusted_).add();
    if (round.fused.tamperAlarm)
        tmAlarms_.add();
    if (round.fused.busTrusted != lastTrusted_) {
        tmTrustFlips_.add();
        TelemetryEvent event;
        event.time = wall;
        event.ordinal = tick_;
        event.kind = "fleet.trust";
        event.tag = "fleet";
        event.detail = round.fused.busTrusted
            ? "untrusted->trusted" : "trusted->untrusted";
        telemetry_->events().record(std::move(event));
    }
    lastTrusted_ = round.fused.busTrusted;
    elapsed_ = end;
    const int64_t util = static_cast<int64_t>(
        std::llround(instrumentUtilization() * 1000.0));
    tmUtilization_.set(util);
    tmIdleSlotPermille_.set(1000 - util);
    span.close(end, 0);

    ++tick_;
    return round;
}

std::size_t
ChannelScheduler::findChannel(const std::string &name) const
{
    const auto it = nameIndex_.find(name);
    return it == nameIndex_.end() ? kNoChannel : it->second;
}

void
ChannelScheduler::queueArrival(uint64_t ticket)
{
    arrivals_.push_back(ticket);
    if (arrivals_.size() > queuePeak_) {
        queuePeak_ = arrivals_.size();
        tmQueuePeak_.max(static_cast<int64_t>(queuePeak_));
    }
}

void
ChannelScheduler::boostChannel(std::size_t index)
{
    if (index >= requestBoost_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, requestBoost_.size());
    requestBoost_[index] += kRequestBoost;
}

bool
ChannelScheduler::persistEnrollment(std::size_t index)
{
    return db_ != nullptr && persistChannel(index);
}

uint64_t
ChannelScheduler::enrollmentGeneration(std::size_t index) const
{
    if (index >= generations_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, generations_.size());
    return generations_[index];
}

FleetRound
ChannelScheduler::run(std::size_t rounds)
{
    FleetRound last;
    for (std::size_t r = 0; r < rounds; ++r)
        last = tick();
    return last;
}

BusChannel &
ChannelScheduler::channel(std::size_t index)
{
    if (index >= channels_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, channels_.size());
    return *channels_[index];
}

const BusChannel &
ChannelScheduler::channel(std::size_t index) const
{
    if (index >= channels_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, channels_.size());
    return *channels_[index];
}

uint64_t
ChannelScheduler::probeCount(std::size_t index) const
{
    if (index >= probeCounts_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, probeCounts_.size());
    return probeCounts_[index];
}

FleetCacheStats
ChannelScheduler::cacheStats() const
{
    FleetCacheStats stats;
    stats.totals.name = "fleet";
    stats.perChannel.reserve(channels_.size());
    for (const auto &channel : channels_) {
        const TraceCache &cache = channel->traceCache();
        ChannelCacheStats cs;
        cs.name = channel->name();
        cs.hits = cache.hits();
        cs.misses = cache.misses();
        cs.evictions = cache.evictions();
        stats.totals.hits += cs.hits;
        stats.totals.misses += cs.misses;
        stats.totals.evictions += cs.evictions;
        stats.perChannel.push_back(std::move(cs));
    }
    return stats;
}

} // namespace divot
