#include "fleet/fleet_auth.hh"

#include "util/logging.hh"

namespace divot {

FleetAuthenticator::FleetAuthenticator(FusionConfig fusion,
                                       double similarity_threshold,
                                       unsigned tamper_wire_votes)
    : fusion_(fusion), similarityThreshold_(similarity_threshold),
      tamperWireVotes_(tamper_wire_votes == 0 ? 1 : tamper_wire_votes)
{
    // Written as the negation of the valid range so NaN fails it.
    if (!(similarityThreshold_ > 0.0 && similarityThreshold_ < 1.0))
        divot_fatal("fleet similarity threshold must be in (0, 1), "
                    "got %g",
                    similarityThreshold_);
}

void
FleetAuthenticator::setChannelCount(std::size_t count)
{
    if (count > tracks_.size())
        tracks_.resize(count);
}

void
FleetAuthenticator::observe(std::size_t index, const AuthVerdict &verdict)
{
    if (index >= tracks_.size())
        tracks_.resize(index + 1);
    ChannelTrack &track = tracks_[index];
    track.observed = true;
    track.last = verdict;
    // A score from an unhealthy instrument round is measurement noise,
    // not bus evidence; keep the previous healthy score as this
    // wire's contribution until the instrument recovers.
    if (verdict.instrumentHealthy) {
        track.hasHealthyScore = true;
        track.lastScore = verdict.similarity;
    }
}

FleetVerdict
FleetAuthenticator::evaluate(uint64_t tick) const
{
    FleetVerdict out;
    out.tick = tick;
    out.similarityThreshold = similarityThreshold_;
    out.channels = tracks_.size();

    std::size_t tampered = 0;
    for (const ChannelTrack &track : tracks_) {
        if (!track.observed)
            continue;
        ++out.channelsObserved;
        const AuthState state = track.last.stateAfter;
        if (state == AuthState::Degraded)
            ++out.degradedWires;
        if (state == AuthState::Quarantine) {
            ++out.quarantinedWires;
            continue; // distrusted instrument: no score contribution
        }
        if (state == AuthState::PendingReenroll) {
            ++out.pendingReenrollWires;
            continue; // no calibration to authenticate against: the
                      // wire counts in the posture, never the fusion
        }
        if (track.last.tamperAlarm)
            ++tampered;
        if (track.last.authenticated)
            ++out.authenticatedWires;
        if (track.hasHealthyScore)
            out.wireScores.push_back(track.lastScore);
    }
    out.tamperedWires = tampered;
    out.contributingWires = out.wireScores.size();

    if (!out.wireScores.empty()) {
        out.fusedSimilarity = fuseScores(fusion_, out.wireScores);
        out.busAuthenticated = out.fusedSimilarity >= similarityThreshold_;
    }
    out.tamperAlarm = tampered >= tamperWireVotes_;
    out.busTrusted = out.busAuthenticated && !out.tamperAlarm;
    return out;
}

} // namespace divot
