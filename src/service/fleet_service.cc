#include "service/fleet_service.hh"

#include <algorithm>

#include "util/logging.hh"

namespace divot::service {

FleetService::FleetService(ChannelScheduler &fleet) : fleet_(fleet)
{
    channelLoad_.assign(fleet_.channelCount(), 0);
    pendingVerify_.assign(fleet_.channelCount(), {});
    Registry &reg = fleet_.telemetry().registry();
    for (std::size_t i = 0; i < kRequestKinds; ++i) {
        tmRequests_[i] = reg.counter(
            std::string("service.requests.") +
            requestKindName(static_cast<RequestKind>(i)));
    }
    for (std::size_t i = 0; i < kResponseStatuses; ++i) {
        tmResponses_[i] = reg.counter(
            std::string("service.responses.") +
            responseStatusName(static_cast<ResponseStatus>(i)));
    }
    tmAdmitted_ = reg.counter("service.admitted");
    tmRejected_ = reg.counter("service.rejected");
    tmQueuePeak_ = reg.gauge("service.queue.peak");
    fleet_.attachService(this);
}

FleetService::~FleetService()
{
    // Close abandoned request spans in ticket order: the span ring is
    // part of the byte-stable export, so even teardown must not leak
    // hash-map iteration order into it.
    std::vector<uint64_t> tickets;
    tickets.reserve(inflight_.size());
    for (const auto &entry : inflight_)
        tickets.push_back(entry.first);
    std::sort(tickets.begin(), tickets.end());
    for (const uint64_t ticket : tickets)
        inflight_[ticket].span.close(fleet_.elapsedSeconds(), 0);
    fleet_.attachService(nullptr);
}

FleetService::Pending &
FleetService::pendingAt(uint64_t ticket)
{
    const auto it = inflight_.find(ticket);
    if (it == inflight_.end())
        divot_fatal("service: no in-flight request for ticket %llu",
                    static_cast<unsigned long long>(ticket));
    return it->second;
}

void
FleetService::fillChannelState(std::size_t channel,
                               ServiceResponse &response) const
{
    if (channel == ChannelScheduler::kNoChannel)
        return;
    const AuthState state = fleet_.channel(channel).state();
    response.state = static_cast<uint64_t>(state);
    response.phase =
        static_cast<uint64_t>(fleet_.channelPhase(channel));
    if (state == AuthState::TamperAlert ||
        state == AuthState::Quarantine) {
        response.flags |= kResponseTamper;
    }
}

void
FleetService::emitResponse(ServiceResponse response)
{
    digest_ = foldResponseDigest(digest_, response);
    tmResponses_[static_cast<std::size_t>(response.status)].add();
    ++stats_.responses;
    emitted_.push_back(std::move(response));
}

void
FleetService::reject(const ServiceRequest &request,
                     ResponseStatus status)
{
    ServiceResponse response;
    response.id = request.id;
    response.kind = request.kind;
    response.channel = request.channel;
    response.status = status;
    response.tick = fleet_.ticks();
    tmRejected_.add();
    TelemetryEvent event;
    event.time = fleet_.elapsedSeconds();
    event.ordinal = request.id;
    event.kind = "service.reject";
    event.tag = requestKindName(request.kind);
    event.detail = responseStatusName(status);
    fleet_.telemetry().events().record(std::move(event));
    emitResponse(std::move(response));
}

bool
FleetService::submit(const ServiceRequest &request)
{
    ++stats_.submitted;
    tmRequests_[static_cast<std::size_t>(request.kind)].add();
    if (channelLoad_.size() < fleet_.channelCount()) {
        channelLoad_.resize(fleet_.channelCount(), 0);
        pendingVerify_.resize(fleet_.channelCount());
    }
    std::size_t channel = ChannelScheduler::kNoChannel;
    if (request.kind != RequestKind::FleetSummary) {
        channel = fleet_.findChannel(request.channel);
        if (channel == ChannelScheduler::kNoChannel) {
            ++stats_.rejectedUnknown;
            reject(request, ResponseStatus::Unknown);
            return false;
        }
    }
    const FleetConfig &config = fleet_.config();
    const bool globalFull = inflight_.size() >= config.requestQueueDepth;
    const bool channelFull =
        channel != ChannelScheduler::kNoChannel &&
        channelLoad_[channel] >= config.requestChannelDepth;
    if (globalFull || channelFull) {
        ++stats_.rejectedBusy;
        reject(request, ResponseStatus::Busy);
        return false;
    }
    const uint64_t ticket = nextTicket_++;
    Pending pending;
    pending.request = request;
    pending.channel = channel;
    inflight_.emplace(ticket, std::move(pending));
    if (channel != ChannelScheduler::kNoChannel)
        ++channelLoad_[channel];
    ++stats_.admitted;
    tmAdmitted_.add();
    tmQueuePeak_.max(static_cast<int64_t>(inflight_.size()));
    fleet_.queueArrival(ticket);
    return true;
}

StreamDecode
FleetService::submitStream(const std::vector<char> &bytes)
{
    std::vector<ServiceRequest> requests;
    const StreamDecode decode = decodeRequestStream(bytes, requests);
    for (const ServiceRequest &request : requests)
        submit(request);
    if (!decode.ok())
        ++stats_.parseErrors;
    return decode;
}

FleetRound
FleetService::tick()
{
    return fleet_.tick();
}

std::vector<ServiceResponse>
FleetService::drainResponses()
{
    std::vector<ServiceResponse> out = std::move(emitted_);
    emitted_.clear();
    return out;
}

void
FleetService::onRequestArrival(uint64_t ticket, double vtime)
{
    Pending &pending = pendingAt(ticket);
    pending.span = fleet_.telemetry().tracer().open(
        "service.request", requestKindName(pending.request.kind),
        vtime, pending.request.id);
    ServiceResponse &response = pending.response;
    response.id = pending.request.id;
    response.kind = pending.request.kind;
    response.channel = pending.request.channel;
    switch (pending.request.kind) {
    case RequestKind::QuarantineStatus:
        fillChannelState(pending.channel, response);
        response.status = ResponseStatus::Ok;
        complete(ticket, vtime);
        return;
    case RequestKind::Enroll: {
        const bool ok = fleet_.persistEnrollment(pending.channel);
        response.status =
            ok ? ResponseStatus::Ok : ResponseStatus::Rejected;
        fillChannelState(pending.channel, response);
        response.generation =
            fleet_.enrollmentGeneration(pending.channel);
        complete(ticket, vtime);
        return;
    }
    case RequestKind::Reenroll: {
        const bool ok = fleet_.reenrollChannel(pending.channel);
        response.status =
            ok ? ResponseStatus::Ok : ResponseStatus::Rejected;
        fillChannelState(pending.channel, response);
        response.generation =
            fleet_.enrollmentGeneration(pending.channel);
        complete(ticket, vtime);
        return;
    }
    case RequestKind::Verify:
        if (fleet_.channel(pending.channel).state() ==
            AuthState::PendingReenroll) {
            // No enrollment to probe against: answer Fenced without
            // burning an instrument slot.
            fillChannelState(pending.channel, response);
            response.status = ResponseStatus::Fenced;
            complete(ticket, vtime);
            return;
        }
        // Request pressure is risk pressure: the boosted channel wins
        // the next dispatch and this ticket rides on its verdict.
        fleet_.boostChannel(pending.channel);
        pendingVerify_[pending.channel].push_back(ticket);
        return;
    case RequestKind::FleetSummary:
        pendingSummary_.push_back(ticket);
        return;
    }
}

void
FleetService::onProbeObserved(std::size_t channel,
                              const AuthVerdict &verdict, double vtime)
{
    if (channel >= pendingVerify_.size())
        return;
    std::vector<uint64_t> &waiting = pendingVerify_[channel];
    if (waiting.empty())
        return;
    for (const uint64_t ticket : waiting) {
        Pending &pending = pendingAt(ticket);
        ServiceResponse &response = pending.response;
        response.similarity = verdict.similarity;
        response.state = static_cast<uint64_t>(verdict.stateAfter);
        response.phase =
            static_cast<uint64_t>(fleet_.channelPhase(channel));
        if (verdict.authenticated)
            response.flags |= kResponseAuthenticated;
        if (verdict.tamperAlarm)
            response.flags |= kResponseTamper;
        response.status =
            verdict.stateAfter == AuthState::PendingReenroll
                ? ResponseStatus::Fenced
                : ResponseStatus::Ok;
        complete(ticket, vtime);
    }
    waiting.clear();
}

void
FleetService::onEpochFused(const FleetVerdict &fused, double vtime)
{
    if (pendingSummary_.empty())
        return;
    for (const uint64_t ticket : pendingSummary_) {
        Pending &pending = pendingAt(ticket);
        ServiceResponse &response = pending.response;
        response.status = ResponseStatus::Ok;
        response.similarity = fused.fusedSimilarity;
        response.channels = fused.channels;
        response.fenced = fused.pendingReenrollWires;
        response.quarantined = fused.quarantinedWires;
        if (fused.busAuthenticated)
            response.flags |= kResponseAuthenticated;
        if (fused.tamperAlarm)
            response.flags |= kResponseTamper;
        if (fused.busTrusted)
            response.flags |= kResponseTrusted;
        complete(ticket, vtime);
    }
    pendingSummary_.clear();
}

void
FleetService::complete(uint64_t ticket, double vtime)
{
    Pending &pending = pendingAt(ticket);
    pending.response.tick = fleet_.ticks();
    pending.span.close(vtime, 0);
    if (pending.channel != ChannelScheduler::kNoChannel &&
        channelLoad_[pending.channel] > 0) {
        --channelLoad_[pending.channel];
    }
    emitResponse(std::move(pending.response));
    inflight_.erase(ticket);
}

} // namespace divot::service
