#include "fleet/megafleet.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <unordered_set>
#include <utility>

#include "fingerprint/fingerprint.hh"
#include "store/io.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace divot {

namespace {

/** Domain-separation tags for the synthetic channel model. */
constexpr uint64_t kTagMegaChannel = 0x4D454741000000ULL; // "MEGA"
constexpr uint64_t kTagMegaProbe = 0x4D4550524F4245ULL;   // "MEPROBE"
constexpr uint64_t kTagMegaDuration = 0x4D454744555200ULL; // "MEGDUR"

/** Mix (channel, tick) into one forkStable tag. Multiplicative
 *  spreading keeps distinct pairs on distinct tags for any fleet and
 *  horizon this simulator can reach. */
uint64_t
probeTag(std::size_t channel, uint64_t tick)
{
    uint64_t h = kTagMegaProbe;
    h ^= (tick + 1) * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<uint64_t>(channel) + 1) * 0xc2b2ae3d27d4eb4fULL;
    return h;
}

/** Mean-removed, unit-L2 residual of a raw trace — the same
 *  normalization Fingerprint::fromMeasurement applies, reproduced
 *  here because synthetic channels have no iTDR measurement. */
Waveform
makeResidual(const std::vector<double> &raw)
{
    double mean = 0.0;
    for (double v : raw)
        mean += v;
    mean /= raw.empty() ? 1.0 : static_cast<double>(raw.size());
    std::vector<double> res(raw.size());
    double norm2 = 0.0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        res[i] = raw[i] - mean;
        norm2 += res[i] * res[i];
    }
    const double norm = std::sqrt(norm2);
    if (norm > 0.0)
        for (double &v : res)
            v /= norm;
    return Waveform(1.0, std::move(res));
}

Fingerprint
makeFingerprint(std::vector<double> raw, std::string label)
{
    Waveform residual = makeResidual(raw);
    return Fingerprint::fromParts(Waveform(1.0, std::move(raw)),
                                  std::move(residual),
                                  std::move(label));
}

/** Drop one unit of per-channel admission load. */
void
releaseLoad(std::map<std::size_t, std::size_t> &load, std::size_t c)
{
    const auto it = load.find(c);
    if (it == load.end())
        return;
    if (it->second > 1)
        --it->second;
    else
        load.erase(it);
}

} // namespace

std::string
MegaFleet::channelId(std::size_t index)
{
    return "ch" + std::to_string(index);
}

MegaFleet::MegaFleet(MegaFleetConfig config, Rng rng)
    : config_(std::move(config)),
      rng_(rng),
      telemetry_(new Telemetry(config_.telemetry)),
      pool_(new ThreadPool(config_.threads))
{
    // NaN fails every comparison, so each bar is checked for
    // finiteness or written as the negation of its valid range.
    if (!(config_.similarityThreshold > 0.0 &&
          config_.similarityThreshold < 1.0)) {
        divot_fatal("megafleet similarityThreshold must be in (0, 1) "
                    "(got %g)", config_.similarityThreshold);
    }
    if (!std::isfinite(config_.noiseSigma) || config_.noiseSigma < 0.0)
        divot_fatal("megafleet noiseSigma must be finite and >= 0 "
                    "(got %g)", config_.noiseSigma);
    if (!std::isfinite(config_.tamperThreshold) ||
        config_.tamperThreshold < 0.0) {
        divot_fatal("megafleet tamperThreshold must be finite and >= 0 "
                    "(got %g)", config_.tamperThreshold);
    }
    if (config_.channels == 0)
        divot_fatal("megafleet channels must be >= 1 (got 0)");
    if (config_.fingerprintBins == 0)
        divot_fatal("megafleet fingerprintBins must be >= 1 (got 0)");
    if (config_.probesPerTick == 0)
        divot_fatal("megafleet probesPerTick must be >= 1 (got 0)");
    if (config_.instruments == 0)
        divot_fatal("megafleet instruments must be >= 1 (got 0)");
    slots_.resize(config_.channels);

    // Resolve the hydration-lane count from the fleet *composition*
    // only (never the thread count: the digest must not move when the
    // pool size does) and give the store's decoded-image cache the
    // same partition before the db is built.
    lanes_ = resolveHydrationLanes(config_.reactorLanes,
                                   config_.store.shards);
    config_.store.shardCacheLanes = lanes_;

    store::ensureDir(config_.store.directory);
    db_.reset(new store::EnrollmentDb(config_.store));
    db_->attachTelemetry(telemetry_.get());
    if (!db_->open())
        divot_fatal("megafleet: cannot open enrollment db at '%s'",
                    config_.store.directory.c_str());

    Registry &reg = telemetry_->registry();
    tmTicks_ = reg.counter("megafleet.ticks");
    tmProbes_ = reg.counter("megafleet.probes");
    tmHydrates_ = reg.counter("megafleet.hydrates");
    tmPending_ = reg.counter("megafleet.pending_reenroll");
    tmCrashRecoveries_ = reg.counter("megafleet.crash_recoveries");
    tmRequests_ = reg.counter("megafleet.requests");
    tmResponses_ = reg.counter("megafleet.responses");
    tmUtilization_ = reg.gauge("megafleet.instrument.utilization");
}

MegaFleet::~MegaFleet() = default;

void
MegaFleet::attachFaultInjector(const FaultInjector *injector)
{
    injector_ = injector;
    db_->attachFaultInjector(injector_);
}

std::vector<double>
MegaFleet::syntheticEnrollment(std::size_t index) const
{
    Rng chan = rng_.forkStable(kTagMegaChannel + index);
    std::vector<double> raw(config_.fingerprintBins);
    for (double &v : raw)
        v = chan.uniform(0.25, 1.0);
    return raw;
}

double
MegaFleet::probeDuration(std::size_t index) const
{
    // Heterogeneous rounds (6x spread) keyed only by (seed, index),
    // so a wave of probes waits for its slowest member.
    Rng lane = rng_.forkStable(kTagMegaDuration + index);
    return lane.uniform(0.2e-3, 1.2e-3);
}

void
MegaFleet::accountInstrumentSchedule(
    const std::vector<std::size_t> &channels)
{
    if (channels.empty())
        return;
    // Waves of k probes; each wave lasts as long as its slowest
    // member and every instrument is held for the full wave.
    const std::size_t k = config_.instruments;
    double busy = 0.0;
    double span = 0.0;
    for (std::size_t i = 0; i < channels.size(); i += k) {
        double waveMax = 0.0;
        const std::size_t hi = std::min(i + k, channels.size());
        for (std::size_t j = i; j < hi; ++j) {
            const double d = probeDuration(channels[j]);
            busy += d;
            waveMax = std::max(waveMax, d);
        }
        span += waveMax;
    }
    busySeconds_ += busy;
    capacitySeconds_ += static_cast<double>(k) * span;
    report_.instrumentUtilization =
        capacitySeconds_ > 0.0
            ? std::min(1.0, busySeconds_ / capacitySeconds_)
            : 0.0;
    tmUtilization_.set(static_cast<int64_t>(
        std::llround(report_.instrumentUtilization * 1000.0)));
}

void
MegaFleet::reopenDb()
{
    db_.reset(new store::EnrollmentDb(config_.store));
    db_->attachTelemetry(telemetry_.get());
    db_->attachFaultInjector(injector_);
    if (!db_->open())
        divot_fatal("megafleet: recovery open failed at '%s'",
                    config_.store.directory.c_str());
    ++report_.crashRecoveries;
    tmCrashRecoveries_.add();
}

uint64_t
MegaFleet::enrollAll()
{
    // Serial, ascending index: the db's IO-event sequence — and with
    // it every injected storage fault — is a pure function of the
    // fleet composition.
    for (std::size_t i = 0; i < config_.channels; ++i) {
        store::EnrollmentRecord rec;
        rec.id = channelId(i);
        rec.fp = makeFingerprint(syntheticEnrollment(i), rec.id);
        rec.generation = 1;
        bool durable = false;
        // A simulated power cut kills the handle mid-put; reopening
        // replays the journal, after which the interrupted record is
        // simply re-put. Bounded attempts guard against a fault plan
        // that crashes the very first IO event of every recovery.
        for (int attempt = 0; attempt < 4 && !durable; ++attempt) {
            if (db_->alive() && db_->put(rec)) {
                durable = true;
                break;
            }
            if (!db_->alive())
                reopenDb();
        }
        if (durable) {
            ++report_.enrolled;
        } else {
            slots_[i].state = 1;
            ++report_.pendingReenroll;
            tmPending_.add();
        }
    }
    // Land every overlay in its shard image so monitoring ticks read
    // pure shard files (hydration never consults overlays).
    for (int attempt = 0; attempt < 4; ++attempt) {
        if (db_->alive() && db_->checkpoint())
            break;
        if (!db_->alive())
            reopenDb();
    }
    return report_.enrolled;
}

std::size_t
MegaFleet::parseChannel(const std::string &name) const
{
    if (name.size() < 3 || name[0] != 'c' || name[1] != 'h')
        return kNoChannel;
    std::size_t value = 0;
    for (std::size_t i = 2; i < name.size(); ++i) {
        const char c = name[i];
        if (c < '0' || c > '9')
            return kNoChannel;
        if (value > (config_.channels / 10) + 1)
            return kNoChannel; // overflow guard: already out of range
        value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    // Reject non-canonical spellings ("ch007"): every valid id is
    // exactly what channelId() prints, so the name space stays 1:1.
    if (name != channelId(value))
        return kNoChannel;
    return value < config_.channels ? value : kNoChannel;
}

void
MegaFleet::emitResponse(service::ServiceResponse response)
{
    responseDigest_ =
        service::foldResponseDigest(responseDigest_, response);
    ++serviceStats_.responses;
    tmResponses_.add();
    responses_.push_back(std::move(response));
}

void
MegaFleet::rejectRequest(const service::ServiceRequest &request,
                         service::ResponseStatus status)
{
    service::ServiceResponse response;
    response.id = request.id;
    response.kind = request.kind;
    response.channel = request.channel;
    response.status = status;
    response.tick = tick_;
    emitResponse(std::move(response));
}

bool
MegaFleet::submit(const service::ServiceRequest &request)
{
    ++serviceStats_.submitted;
    tmRequests_.add();
    std::size_t channel = kNoChannel;
    if (request.kind != service::RequestKind::FleetSummary) {
        channel = parseChannel(request.channel);
        if (channel == kNoChannel) {
            ++serviceStats_.rejectedUnknown;
            rejectRequest(request, service::ResponseStatus::Unknown);
            return false;
        }
    }
    const std::size_t inflight = admitted_.size() + parked_;
    bool channelFull = false;
    if (channel != kNoChannel) {
        const auto it = channelLoad_.find(channel);
        channelFull = it != channelLoad_.end() &&
                      it->second >= config_.requestChannelDepth;
    }
    if (inflight >= config_.requestQueueDepth || channelFull) {
        ++serviceStats_.rejectedBusy;
        rejectRequest(request, service::ResponseStatus::Busy);
        return false;
    }
    if (channel != kNoChannel)
        ++channelLoad_[channel];
    admitted_.push_back(Admitted{request, channel});
    ++serviceStats_.admitted;
    return true;
}

std::vector<service::ServiceResponse>
MegaFleet::drainResponses()
{
    std::vector<service::ServiceResponse> out = std::move(responses_);
    responses_.clear();
    return out;
}

std::size_t
MegaFleet::pendingRequests() const
{
    return admitted_.size() + parked_;
}

bool
MegaFleet::putWithRecovery(const store::EnrollmentRecord &record)
{
    // Same bounded crash-reopen-replay loop as enrollAll: a simulated
    // power cut kills the handle, reopening replays the journal, and
    // the interrupted record is simply re-put.
    for (int attempt = 0; attempt < 4; ++attempt) {
        if (db_->alive() && db_->put(record))
            return true;
        if (!db_->alive())
            reopenDb();
    }
    return false;
}

void
MegaFleet::answerFenced(std::size_t channel)
{
    const auto it = verifyWaiting_.find(channel);
    if (it == verifyWaiting_.end())
        return;
    for (const service::ServiceRequest &request : it->second) {
        service::ServiceResponse response;
        response.id = request.id;
        response.kind = request.kind;
        response.channel = request.channel;
        response.status = service::ResponseStatus::Fenced;
        response.state =
            static_cast<uint64_t>(AuthState::PendingReenroll);
        response.phase = static_cast<uint64_t>(ChannelPhase::Fenced);
        response.tick = tick_;
        releaseLoad(channelLoad_, channel);
        --parked_;
        emitResponse(std::move(response));
    }
    verifyWaiting_.erase(it);
    hot_.erase(channel);
}

void
MegaFleet::processArrivals()
{
    while (!admitted_.empty()) {
        const Admitted arrival = std::move(admitted_.front());
        admitted_.pop_front();
        const service::ServiceRequest &request = arrival.request;
        const std::size_t c = arrival.channel;
        service::ServiceResponse response;
        response.id = request.id;
        response.kind = request.kind;
        response.channel = request.channel;
        response.tick = tick_;
        switch (request.kind) {
        case service::RequestKind::QuarantineStatus: {
            const ChannelSlot &slot = slots_[c];
            response.status = service::ResponseStatus::Ok;
            response.state = static_cast<uint64_t>(
                slot.state == 0 ? AuthState::Monitoring
                                : AuthState::PendingReenroll);
            response.phase = static_cast<uint64_t>(
                slot.state == 0 ? ChannelPhase::Idle
                                : ChannelPhase::Fenced);
            if (slot.tampered)
                response.flags |= service::kResponseTamper;
            if (slot.lastScore >= 0.0f)
                response.similarity =
                    static_cast<double>(slot.lastScore);
            releaseLoad(channelLoad_, c);
            emitResponse(std::move(response));
            break;
        }
        case service::RequestKind::Enroll:
        case service::RequestKind::Reenroll: {
            store::EnrollmentRecord rec;
            rec.id = channelId(c);
            rec.fp = makeFingerprint(syntheticEnrollment(c), rec.id);
            rec.generation = 1;
            if (db_->alive()) {
                store::EnrollmentRecord old;
                if (db_->get(rec.id, old) == store::DbGetStatus::Ok)
                    rec.generation = old.generation + 1;
            }
            const bool durable = putWithRecovery(rec);
            response.status = durable
                                  ? service::ResponseStatus::Ok
                                  : service::ResponseStatus::Rejected;
            response.generation = rec.generation;
            if (durable) {
                // A fresh durable enrollment lifts any fence; the
                // channel joins the hot tier so its next probe — the
                // evidence the requester is really after — lands in
                // the very next tick.
                slots_[c].state = 0;
                slots_[c].lastScore = -1.0f;
                slots_[c].tampered = false;
                if (config_.policy == SchedulerPolicy::RiskWeighted)
                    hot_.insert(c);
            }
            response.state = static_cast<uint64_t>(
                slots_[c].state == 0 ? AuthState::Monitoring
                                     : AuthState::PendingReenroll);
            releaseLoad(channelLoad_, c);
            emitResponse(std::move(response));
            break;
        }
        case service::RequestKind::Verify:
            if (slots_[c].state != 0) {
                response.status = service::ResponseStatus::Fenced;
                response.state = static_cast<uint64_t>(
                    AuthState::PendingReenroll);
                response.phase =
                    static_cast<uint64_t>(ChannelPhase::Fenced);
                releaseLoad(channelLoad_, c);
                emitResponse(std::move(response));
                break;
            }
            verifyWaiting_[c].push_back(request);
            ++parked_;
            if (config_.policy == SchedulerPolicy::RiskWeighted)
                hot_.insert(c);
            break;
        case service::RequestKind::FleetSummary:
            summaryWaiting_.push_back(request);
            ++parked_;
            break;
        }
    }
}

MegaFleetVerdict
MegaFleet::tick()
{
    // --- Requests enter the tick first: immediate kinds answer now,
    // Verify parks on its channel and pulls it into the hot tier. ----
    processArrivals();

    // --- Select: hierarchical. The hot tier (risky + requested
    // channels, ascending) is probed first; the remaining budget
    // backfills round-robin from the cursor — O(hot + batch), never a
    // fleet-wide sort. ----------------------------------------------
    std::vector<std::size_t> batch;
    batch.reserve(config_.probesPerTick);
    std::unordered_set<std::size_t> chosen;
    if (config_.policy == SchedulerPolicy::RiskWeighted) {
        for (auto it = hot_.begin();
             it != hot_.end() && batch.size() < config_.probesPerTick;) {
            const std::size_t i = *it;
            if (slots_[i].state != 0) {
                it = hot_.erase(it);
                continue;
            }
            batch.push_back(i);
            chosen.insert(i);
            ++it;
        }
    }
    for (std::size_t scanned = 0;
         scanned < config_.channels &&
         batch.size() < config_.probesPerTick;
         ++scanned) {
        const std::size_t i = cursor_;
        cursor_ = (cursor_ + 1) % config_.channels;
        if (slots_[i].state == 0 && chosen.find(i) == chosen.end())
            batch.push_back(i);
    }

    // --- Hydrate: group by shard so each shard image is decoded at
    // most once per tick (and, with the store's decoded-image cache,
    // usually zero times). Lane k walks shards s ≡ k (mod lanes) in
    // ascending order on its own pool thread — each cache lane is
    // touched by exactly one thread, so every admission and eviction
    // decision is thread-count-independent — and stages its outcomes;
    // the serial merge below applies them in ascending shard order,
    // reproducing the K=1 effect order (and therefore the fuseScores
    // operand order and the digest) exactly. ------------------------
    std::map<unsigned, std::vector<std::size_t>> byShard;
    for (std::size_t i : batch)
        byShard[db_->shardOf(channelId(i))].push_back(i);
    std::vector<std::pair<unsigned, std::vector<std::size_t>>> shardsVec(
        byShard.begin(), byShard.end());

    struct Hydrated
    {
        std::size_t channel;
        store::EnrollmentRecord rec;
    };
    struct ShardStage
    {
        std::vector<Hydrated> live;       //!< batch order within shard
        std::vector<std::size_t> fenced;  //!< channels to demote
        std::size_t transientBytes = 0;   //!< decoded bytes NOT served
                                          //!< from the resident cache
    };
    std::vector<ShardStage> stages(shardsVec.size());
    pool_->parallelFor(lanes_, [&](std::size_t lane) {
        for (std::size_t e = 0; e < shardsVec.size(); ++e) {
            const unsigned shard = shardsVec[e].first;
            if (shard % lanes_ != lane)
                continue;
            ShardStage &stage = stages[e];
            bool fromCache = false;
            const auto view = db_->shardView(shard, &fromCache);
            if (view != nullptr && !fromCache)
                stage.transientBytes = view->bytes;
            for (std::size_t i : shardsVec[e].second) {
                bool ok = false;
                if (view != nullptr) {
                    const auto it = view->records.find(channelId(i));
                    if (it != view->records.end() &&
                        (it->second.flags &
                         store::kRecordPendingReenroll) == 0) {
                        stage.live.push_back(Hydrated{i, it->second});
                        ok = true;
                    }
                }
                // Missing or damaged in every bank: fence the channel
                // instead of authenticating junk.
                if (!ok)
                    stage.fenced.push_back(i);
            }
        }
    });

    std::vector<Hydrated> live;
    live.reserve(batch.size());
    std::size_t residentBytes = 0;
    std::size_t pendingThisTick = 0;
    for (ShardStage &stage : stages) {
        for (Hydrated &h : stage.live) {
            residentBytes += h.rec.residentBytes();
            live.push_back(std::move(h));
            ++report_.hydrates;
            tmHydrates_.add();
        }
        for (std::size_t i : stage.fenced) {
            slots_[i].state = 1;
            ++report_.pendingReenroll;
            ++pendingThisTick;
            tmPending_.add();
            // Verifies parked on a channel that just lost its
            // enrollment answer Fenced — never an authenticated
            // verdict against a damaged record.
            answerFenced(i);
        }
        // Peak accounting charges only *transient* decode bytes: a
        // cache-resident view is bounded by shardCacheBytes, which is
        // budgeted separately from the hydration budget.
        report_.peakResidentBytes =
            std::max(report_.peakResidentBytes,
                     residentBytes + stage.transientBytes);
    }
    report_.peakResidentBytes =
        std::max(report_.peakResidentBytes, residentBytes);

    // --- Probe: parallel, disjoint slots, forkStable noise keyed by
    // (channel, tick) — bit-identical at any thread count. -----------
    std::vector<double> scores(live.size(), 0.0);
    std::vector<uint8_t> tampered(live.size(), 0);
    const uint64_t now = tick_;
    pool_->parallelFor(live.size(), [&](std::size_t j) {
        const Hydrated &h = live[j];
        Rng noise = rng_.forkStable(probeTag(h.channel, now));
        std::vector<double> raw(h.rec.fp.raw().samples());
        for (double &v : raw)
            v *= 1.0 + config_.noiseSigma * noise.gaussian();
        const Fingerprint probe =
            makeFingerprint(std::move(raw), channelId(h.channel));
        scores[j] = similarity(h.rec.fp, probe);
        tampered[j] =
            peakError(h.rec.fp, probe) > config_.tamperThreshold
            ? 1 : 0;
    });
    for (std::size_t j = 0; j < live.size(); ++j) {
        const std::size_t c = live[j].channel;
        slots_[c].lastScore = static_cast<float>(scores[j]);
        slots_[c].tampered = tampered[j] != 0;

        // Hot-tier maintenance: channels that look risky (tamper trip
        // or a below-threshold score) stay hot and get probed again
        // next tick; clean ones fall back to the round-robin tail.
        if (config_.policy == SchedulerPolicy::RiskWeighted) {
            const bool risky =
                tampered[j] != 0 ||
                scores[j] < config_.similarityThreshold;
            if (risky)
                hot_.insert(c);
            else
                hot_.erase(c);
        }

        // Answer every Verify parked on this channel with the fresh
        // verdict (serial, batch order — deterministic).
        const auto wit = verifyWaiting_.find(c);
        if (wit != verifyWaiting_.end()) {
            for (const service::ServiceRequest &request : wit->second) {
                service::ServiceResponse response;
                response.id = request.id;
                response.kind = request.kind;
                response.channel = request.channel;
                response.status = service::ResponseStatus::Ok;
                response.tick = tick_;
                response.state =
                    static_cast<uint64_t>(AuthState::Monitoring);
                response.phase =
                    static_cast<uint64_t>(ChannelPhase::Idle);
                response.similarity = scores[j];
                if (scores[j] >= config_.similarityThreshold)
                    response.flags |= service::kResponseAuthenticated;
                if (tampered[j] != 0)
                    response.flags |= service::kResponseTamper;
                releaseLoad(channelLoad_, c);
                --parked_;
                emitResponse(std::move(response));
            }
            verifyWaiting_.erase(wit);
        }
    }

    // --- Instrument-pool accounting (busy vs capacity under the
    // configured scheduling model; never touches the verdict). ------
    std::vector<std::size_t> probed(live.size());
    for (std::size_t j = 0; j < live.size(); ++j)
        probed[j] = live[j].channel;
    accountInstrumentSchedule(probed);

    // --- Fuse (serial). ---------------------------------------------
    MegaFleetVerdict v;
    v.tick = tick_;
    v.contributingWires = live.size();
    v.pendingReenrollWires = pendingThisTick;
    for (uint8_t t : tampered)
        v.tamperedWires += t;
    if (!live.empty()) {
        v.fusedSimilarity = fuseScores(config_.fusion, scores);
        v.busAuthenticated =
            v.fusedSimilarity >= config_.similarityThreshold;
    }
    const unsigned quorum =
        config_.tamperWireVotes == 0 ? 1 : config_.tamperWireVotes;
    v.tamperAlarm = v.tamperedWires >= quorum;
    v.busTrusted = v.busAuthenticated && !v.tamperAlarm;

    // Answer every FleetSummary parked on this epoch's fusion.
    if (!summaryWaiting_.empty()) {
        for (const service::ServiceRequest &request : summaryWaiting_) {
            service::ServiceResponse response;
            response.id = request.id;
            response.kind = request.kind;
            response.status = service::ResponseStatus::Ok;
            response.tick = tick_;
            response.similarity = v.fusedSimilarity;
            response.channels = config_.channels;
            response.fenced = report_.pendingReenroll;
            if (v.busAuthenticated)
                response.flags |= service::kResponseAuthenticated;
            if (v.tamperAlarm)
                response.flags |= service::kResponseTamper;
            if (v.busTrusted)
                response.flags |= service::kResponseTrusted;
            --parked_;
            emitResponse(std::move(response));
        }
        summaryWaiting_.clear();
    }

    // Fold the verdict into the running FNV digest — the quantity the
    // 1-vs-N-thread and fault/no-fault identity checks compare.
    std::vector<char> buf;
    store::putU64(buf, report_.verdictDigest);
    store::putU64(buf, v.tick);
    store::putU64(buf, (v.busAuthenticated ? 1u : 0u) |
                           (v.tamperAlarm ? 2u : 0u) |
                           (v.busTrusted ? 4u : 0u));
    store::putF64(buf, v.fusedSimilarity);
    store::putU64(buf, v.contributingWires);
    store::putU64(buf, v.tamperedWires);
    store::putU64(buf, v.pendingReenrollWires);
    report_.verdictDigest = store::fnv1a(buf);

    ++tick_;
    ++report_.ticks;
    report_.probes += live.size();
    report_.lastTrusted = v.busTrusted;
    report_.lastFusedSimilarity = v.fusedSimilarity;
    tmTicks_.add();
    tmProbes_.add(live.size());
    return v;
}

MegaFleetReport
MegaFleet::run(uint64_t ticks)
{
    for (uint64_t t = 0; t < ticks; ++t)
        tick();
    return report_;
}

} // namespace divot
