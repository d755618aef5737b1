#include "fleet/channel_scheduler.hh"

#include <algorithm>

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
uint64_t
riskWeight(AuthState state)
{
    switch (state) {
    case AuthState::Unenrolled:
    case AuthState::Monitoring:
        return 1;
    case AuthState::Mismatch:
    case AuthState::Degraded:
        return 4;
    case AuthState::TamperAlert:
    case AuthState::Quarantine:
        return 8;
    case AuthState::PendingReenroll:
        return 0; // nothing to authenticate against: never selected
    }
    return 1;
}

} // namespace

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
      pool_(std::make_unique<ThreadPool>(config.threads)),
      reactor_(std::make_unique<Reactor>(config.instruments))
{
    if (config_.instruments == 0)
        divot_fatal("fleet needs at least one iTDR instrument");
    pool_->attachTelemetry(telemetry_.get(), "fleet.pool");
    reactor_->attachTelemetry(telemetry_.get());
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
    // Steady-state epoch: one hydrate + one completion per instrument
    // plus the epoch tail — pre-size the arena so ticks never grow it.
    reactor_->reserve(2 * config_.instruments + 4);
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
    phase_.push_back(ChannelPhase::Idle);
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
ChannelScheduler::resolveLanes() const
{
    // Lanes partition *hydration*, which only exists store-backed.
    if (db_ == nullptr)
        return 1;
    if (config_.reactorLanes != 0)
        return config_.reactorLanes;
    const unsigned shards =
        db_->config().shards == 0 ? 1 : db_->config().shards;
    return std::min(shards, 8u);
}

unsigned
ChannelScheduler::laneOf(std::size_t index) const
{
    return db_->shardOf(channels_[index]->name()) % laneCount_;
}

void
ChannelScheduler::scheduleEvent(Reactor &target, ReactorEventType type,
                                double vtime, std::size_t channel,
                                uint64_t ticket)
{
    target.schedule(type, vtime, channel, ticket);
    // The lane-invariant queue-shape account: total events queued
    // fleet-wide, sampled where the total can only have grown. For
    // one lane this is exactly the reactor's own high-water; for K
    // lanes the sum is identical because the same events exist, just
    // partitioned.
    std::size_t depth = reactor_->depth();
    for (const auto &lane : laneReactors_)
        depth += lane->depth();
    if (depth > queuePeak_) {
        queuePeak_ = depth;
        tmQueuePeak_.max(static_cast<int64_t>(depth));
    }
}

void
ChannelScheduler::attachStore(store::EnrollmentDb *db,
                              std::size_t resident_budget_bytes)
{
    db_ = db;
    residentBudget_ = resident_budget_bytes;
    resident_ = 0;
    rebuildShardRouting();
    laneReactors_.clear();
    laneCount_ = resolveLanes();
    if (db_ == nullptr)
        return;
    if (laneCount_ > 1) {
        // Lane reactors share the primary's telemetry cells
        // (registration is idempotent) and never touch the instrument
        // pool — instruments are acquired only from the serial probe
        // phase on the primary.
        laneReactors_.reserve(laneCount_);
        for (unsigned k = 0; k < laneCount_; ++k) {
            laneReactors_.push_back(
                std::make_unique<Reactor>(config_.instruments));
            laneReactors_.back()->attachTelemetry(telemetry_.get());
            laneReactors_.back()->reserve(config_.instruments + 1);
        }
    }
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
    phase_[index] = ChannelPhase::Fenced;
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

bool
ChannelScheduler::hydrateChannel(std::size_t index, double wall)
{
    BusChannel &ch = *channels_[index];
    if (ch.state() == AuthState::PendingReenroll)
        return false;
    if (db_ == nullptr || ch.enrollmentResident())
        return true;
    store::EnrollmentRecord record;
    if (db_->get(ch.name(), record) == store::DbGetStatus::Ok) {
        ch.restoreEnrollment(std::move(record.fp),
                             std::move(record.nominal));
        resident_ += ch.enrollmentBytes();
        tmHydrates_.add();
        return true;
    }
    // Missing or damaged in every bank: for an enrolled channel both
    // mean the calibration is gone. Fence the channel, keep the fleet.
    demoteToPendingReenroll(index, wall);
    return false;
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
    // Operator-initiated: consumed immediately (between epochs), but
    // still sequenced and counted so the event order stays a complete
    // record of everything that happened to the fleet.
    reactor_->dispatchImmediate(ReactorEventType::RecalibrateRequest,
                                elapsed_, index);
    const bool was_resident = ch.enrollmentResident();
    const std::size_t before = was_resident ? ch.enrollmentBytes() : 0;
    ch.calibrate();
    phase_[index] = ChannelPhase::Idle;
    if (db_ != nullptr) {
        resident_ -= std::min(resident_, before);
        resident_ += ch.enrollmentBytes();
        if (!persistChannel(index)) {
            reactor_->dispatchImmediate(ReactorEventType::FaultEvent,
                                        elapsed_, index);
            return false;
        }
        return true;
    }
    return true;
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
    if (index >= phase_.size())
        divot_fatal("fleet channel index %zu out of range (%zu)",
                    index, phase_.size());
    return phase_[index];
}

double
ChannelScheduler::instrumentUtilization() const
{
    return reactor_->utilization(elapsed_);
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

void
ChannelScheduler::handleEvent(const ReactorEvent &event)
{
    switch (event.type) {
    case ReactorEventType::HydrateRequest:
        onHydrateRequest(event);
        return;
    case ReactorEventType::ProbeComplete:
        onProbeComplete(event);
        return;
    case ReactorEventType::FuseEpoch:
        onFuseEpoch(event);
        return;
    case ReactorEventType::EvictPressure:
        onEvictPressure(event);
        return;
    case ReactorEventType::ScrubStep:
        onScrubStep(event);
        return;
    case ReactorEventType::RecalibrateRequest:
        // Operator path: consumed immediately in reenrollChannel(),
        // never queued.
        return;
    case ReactorEventType::FaultEvent:
        // Recovery already ran when the fault was detected (demotion
        // or failed persist); the event exists so fault manifestation
        // has a deterministic place in the order and in the
        // fleet.reactor.events.fault account.
        return;
    case ReactorEventType::RequestArrival:
        if (hook_ != nullptr)
            hook_->onRequestArrival(event);
        return;
    case ReactorEventType::RequestComplete:
        if (hook_ != nullptr)
            hook_->onRequestComplete(event);
        return;
    }
}

void
ChannelScheduler::onHydrateRequest(const ReactorEvent &event)
{
    const std::size_t c = event.channel;
    if (!hydrateChannel(c, event.vtime)) {
        // Channel fenced (demotion already observed into the fused
        // verdict); record the manifestation.
        scheduleEvent(*reactor_, ReactorEventType::FaultEvent,
                      event.vtime, c);
        return;
    }
    phase_[c] = ChannelPhase::Probing;
    epochReady_.push_back(c);
}

void
ChannelScheduler::hydrateLanes(const std::vector<std::size_t> &selected)
{
    // Lane phase: every lane drains its own HydrateRequest queue on
    // the pool, staging what it *would* do to the fleet. A lane only
    // touches lane-confined state — its own reactor, its shard-cache
    // partition (shard % K == lane, the same rule laneOf() routes by),
    // and the selected channels' own objects (restoreEnrollment) —
    // so the staged outcomes are a pure function of (seed, config)
    // at any thread count.
    enum class Outcome : uint8_t
    {
        Ready,       // already resident: just dispatchable
        HydratedNew, // restored from the store this epoch
        Lost,        // missing/unrecoverable: fence the channel
        FencedSkip   // was already PendingReenroll when popped
    };
    struct Staged
    {
        Outcome kind = Outcome::Ready;
        std::size_t bytes = 0;
    };
    std::vector<Staged> staged(selected.size());
    // Fan out over the lanes holding a request this tick only; an
    // empty lane's body would be a no-op.
    std::vector<std::size_t> busy;
    busy.reserve(laneCount_);
    for (std::size_t lane = 0; lane < laneCount_; ++lane) {
        if (!laneReactors_[lane]->empty())
            busy.push_back(lane);
    }
    pool_->parallelFor(busy.size(), [&](std::size_t k) {
        Reactor &lr = *laneReactors_[busy[k]];
        while (!lr.empty()) {
            const ReactorEvent event = lr.pop();
            Staged &out = staged[event.ticket];
            BusChannel &ch = *channels_[event.channel];
            if (ch.state() == AuthState::PendingReenroll) {
                out.kind = Outcome::FencedSkip;
                continue;
            }
            if (ch.enrollmentResident()) {
                out.kind = Outcome::Ready;
                continue;
            }
            store::EnrollmentRecord record;
            if (db_->get(ch.name(), record) ==
                store::DbGetStatus::Ok) {
                ch.restoreEnrollment(std::move(record.fp),
                                     std::move(record.nominal));
                out.kind = Outcome::HydratedNew;
                out.bytes = ch.enrollmentBytes();
                continue;
            }
            out.kind = Outcome::Lost;
        }
    });
    // Serial merge, ascending selection order — exactly the order a
    // single lane pops (equal vtime, ascending seq), so phase
    // transitions, the epochReady_ batch, demotion side effects (the
    // order-sensitive "store.lost" event ring) and the FaultEvent
    // sequence on the primary reproduce the one-lane run bit for bit.
    for (std::size_t j = 0; j < selected.size(); ++j) {
        const std::size_t c = selected[j];
        switch (staged[j].kind) {
        case Outcome::HydratedNew:
            resident_ += staged[j].bytes;
            tmHydrates_.add();
            [[fallthrough]];
        case Outcome::Ready:
            phase_[c] = ChannelPhase::Probing;
            epochReady_.push_back(c);
            break;
        case Outcome::Lost:
            demoteToPendingReenroll(c, epochWall_);
            scheduleEvent(*reactor_, ReactorEventType::FaultEvent,
                          epochWall_, c);
            break;
        case Outcome::FencedSkip:
            scheduleEvent(*reactor_, ReactorEventType::FaultEvent,
                          epochWall_, c);
            break;
        }
    }
    // Fold lane consumption into the primary so consumed() totals are
    // lane-count-invariant (shared telemetry cells were bumped once,
    // at the lane's pop).
    for (auto &lane : laneReactors_)
        reactor_->absorb(*lane);
}

void
ChannelScheduler::launchProbes()
{
    const double wall = epochWall_;

    // Scheduling metrics captured before the probes run: staleness and
    // risk weight are exactly the quantities selectChannels() ranked
    // on, and the probe updates them.
    for (const std::size_t c : epochReady_) {
        tmStaleness_.record(static_cast<uint64_t>(
            static_cast<int64_t>(tick_) - lastProbeTick_[c]));
        tmRiskWeight_.record(riskWeight(channels_[c]->state()));
        tmChannelProbes_[c].add();
    }

    round_.probes.resize(epochReady_.size());
    // Disjoint channels, disjoint result slots: bit-identical at any
    // thread count.
    pool_->parallelFor(epochReady_.size(), [&](std::size_t i) {
        const std::size_t c = epochReady_[i];
        round_.probes[i].channel = c;
        round_.probes[i].verdict = channels_[c]->monitorAt(wall);
    });

    // Completions land on the tick boundary, ascending channel order
    // (epochReady_ is ascending), followed by fusion and — with a
    // store attached — eviction pressure and, when slots idled, one
    // scrub step: exactly the pre-reactor operation order.
    for (std::size_t i = 0; i < epochReady_.size(); ++i) {
        reactor_->acquireInstrument();
        scheduleEvent(*reactor_, ReactorEventType::ProbeComplete,
                      epochEnd_, epochReady_[i], /*ticket=*/i);
    }
    scheduleEvent(*reactor_, ReactorEventType::FuseEpoch, epochEnd_);
    if (db_ != nullptr) {
        scheduleEvent(*reactor_, ReactorEventType::EvictPressure,
                      epochEnd_);
        if (epochReady_.size() < config_.instruments)
            scheduleEvent(*reactor_, ReactorEventType::ScrubStep,
                          epochEnd_);
    }
}

void
ChannelScheduler::onProbeComplete(const ReactorEvent &event)
{
    const std::size_t c = event.channel;
    const ChannelProbe &probe = round_.probes[event.ticket];
    lastProbeTick_[c] = static_cast<int64_t>(tick_);
    ++probeCounts_[c];
    fleetAuth_.observe(c, probe.verdict);
    reactor_->releaseInstrument(channels_[c]->roundDuration());
    phase_[c] = ChannelPhase::Idle;
    requestBoost_[c] = 0;
    if (hook_ != nullptr)
        hook_->onProbeObserved(c, probe.verdict, event.vtime);
}

void
ChannelScheduler::onFuseEpoch(const ReactorEvent &event)
{
    round_.fused = fleetAuth_.evaluate(tick_);
    lastVerdict_ = round_.fused;
    if (hook_ != nullptr)
        hook_->onEpochFused(round_.fused, event.vtime);
}

void
ChannelScheduler::onEvictPressure(const ReactorEvent &event)
{
    (void)event;
    enforceResidentBudget(static_cast<int64_t>(tick_));
}

void
ChannelScheduler::onScrubStep(const ReactorEvent &event)
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
        if (channels_[i]->state() == AuthState::PendingReenroll)
            continue;
        demoteToPendingReenroll(i, event.vtime);
        scheduleEvent(*reactor_, ReactorEventType::FaultEvent,
                      event.vtime, i);
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
                demoteToPendingReenroll(i, event.vtime);
                scheduleEvent(*reactor_, ReactorEventType::FaultEvent,
                              event.vtime, i);
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
    epochWall_ = epochLen * static_cast<double>(tick_);
    epochEnd_ = epochWall_ + epochLen;
    round_ = FleetRound();
    round_.tick = tick_;
    epochReady_.clear();

    SpanScope span = telemetry_->tracer().open("fleet.tick", "fleet",
                                               epochWall_, tick_);
    const auto drain = [this] {
        while (!reactor_->empty())
            handleEvent(reactor_->pop());
    };

    // Service requests admitted since the last epoch wait at the head
    // of the queue (the previous epoch drained everything else).
    // Consume them before ranking so their boosts steer this epoch's
    // dispatch; immediate kinds complete right here, because arrival
    // handlers schedule RequestComplete events this same loop drains.
    drain();

    const std::vector<std::size_t> selected = selectChannels();
    for (std::size_t j = 0; j < selected.size(); ++j) {
        const std::size_t c = selected[j];
        phase_[c] = ChannelPhase::Hydrating;
        // Lane routing follows the store shard (shard % K), so a
        // lane's queue aligns with its shard-cache partition; the
        // ticket carries the selection position for the staged
        // outcome slot.
        scheduleEvent(laneCount_ > 1 ? *laneReactors_[laneOf(c)]
                                     : *reactor_,
                      ReactorEventType::HydrateRequest, epochWall_, c,
                      /*ticket=*/j);
    }
    if (laneCount_ > 1)
        hydrateLanes(selected);
    // Hydrations consume in ascending channel order (equal vtime,
    // ascending seq); once the queue runs dry the probe batch + epoch
    // tail launch and drain in the pre-reactor operation order.
    drain();
    launchProbes();
    drain();

    tmTicks_.add();
    tmProbes_.add(round_.probes.size());
    tmInstrumentSlots_.add(config_.instruments);
    tmIdleSlots_.add(config_.instruments - round_.probes.size());
    (round_.fused.busTrusted ? tmTrusted_ : tmUntrusted_).add();
    if (round_.fused.tamperAlarm)
        tmAlarms_.add();
    if (round_.fused.busTrusted != lastTrusted_) {
        tmTrustFlips_.add();
        TelemetryEvent event;
        event.time = epochWall_;
        event.ordinal = tick_;
        event.kind = "fleet.trust";
        event.tag = "fleet";
        event.detail = round_.fused.busTrusted
            ? "untrusted->trusted" : "trusted->untrusted";
        telemetry_->events().record(std::move(event));
    }
    lastTrusted_ = round_.fused.busTrusted;
    elapsed_ = epochEnd_;
    const int64_t util = reactor_->utilizationPerMille(elapsed_);
    tmUtilization_.set(util);
    tmIdleSlotPermille_.set(1000 - util);
    span.close(epochEnd_, 0);

    ++tick_;
    FleetRound result = std::move(round_);
    return result;
}

std::size_t
ChannelScheduler::findChannel(const std::string &name) const
{
    const auto it = nameIndex_.find(name);
    return it == nameIndex_.end() ? kNoChannel : it->second;
}

void
ChannelScheduler::scheduleRequestArrival(std::size_t channel,
                                         uint64_t ticket)
{
    scheduleEvent(*reactor_, ReactorEventType::RequestArrival,
                  elapsed_, channel, ticket);
}

void
ChannelScheduler::scheduleRequestComplete(std::size_t channel,
                                          uint64_t ticket, double vtime)
{
    scheduleEvent(*reactor_, ReactorEventType::RequestComplete, vtime,
                  channel, ticket);
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
    if (db_ == nullptr)
        return false;
    if (!persistChannel(index)) {
        reactor_->dispatchImmediate(ReactorEventType::FaultEvent,
                                    elapsed_, index);
        return false;
    }
    return true;
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
